import random
from fractions import Fraction as F

import pytest

from outerspace.errors import BudgetExhaustedError, InvalidInputError
from outerspace.fixtures import (
    aut_poly,
    barbell,
    poly_twist_pair,
    random_graph,
    random_nielsen_automorphism,
    random_same_simplex_pair,
    random_word,
    rose,
    rose_t,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    realize_word_as_path,
    translation_length,
    volume,
)
from outerspace.plmaps import (
    image_of_dart,
    initial_pl_map,
    is_optimal,
    make_plpath,
    next_v,
    optimize_pl_map,
    path_image_length,
    pl_cancellation,
    pl_concat,
    pl_cyclic_length,
    pl_from_darts,
    pl_length,
    pl_reverse,
    plloop_word,
    push_loop,
    stretch_analysis,
    stratified_boundary_condition,
    validate_pl_map,
)
from outerspace.stretch import bounded_cancellation_bound, lambda_r
from outerspace.words import generator


# -- PL path machinery ----------------------------------------------------------------

def test_concat_cancels_partial_overlap():
    G = unit_rose(2)
    # path going half way into a and back cancels entirely
    p = make_plpath(G, [(("a", 1), F(0), F(1, 2))])
    q = pl_reverse(G, p)
    out = pl_concat(G, p, q)
    assert pl_length(out) == 0
    assert out.anchor == ("v", "v")


def test_concat_partial_cancellation_keeps_remainder():
    G = unit_rose(2)
    p = pl_from_darts(G, (("a", 1),))
    q = make_plpath(G, [(("a", -1), F(0), F(1, 4))])
    out = pl_concat(G, p, q)
    assert pl_length(out) == F(3, 4)
    assert out.segs == ((("a", 1), F(0), F(3, 4)),)


def test_cyclic_length_cancels_seam():
    G = unit_rose(2)
    # b . a . b~ as a closed path at the vertex: class of a, length 1
    p = pl_from_darts(G, (("b", 1), ("a", 1), ("b", -1)))
    assert pl_length(p) == 3
    assert pl_cyclic_length(G, p) == 1


def test_seam_cancellation_matches_translation_length():
    """Images of based loops under optimized (or budget-partial) maps between
    random rank-2 pairs: the cyclic length is the translation length of the
    loop's word, and the cancellation at a seam accounts exactly for the
    length lost by concatenation."""
    rng = random.Random(41)
    cases = interior = partial = 0
    for _ in range(24):
        A = random_graph(rng)
        B, _ = random_same_simplex_pair(rng)
        B = apply_automorphism_to_marking(
            B, random_nielsen_automorphism(rng, 2, moves=2))
        try:
            f = optimize_pl_map(A, B, max_moves=4)
        except BudgetExhaustedError as exc:
            f = exc.partial[0]
            partial += 1
        images = []
        while len(images) < 8:
            loop = realize_word_as_path(A, random_word(rng, 2, 6))
            if loop:
                images.append(push_loop(f, loop))
        interior += f.vertex_image[A.basepoint][0] == "e"
        for p in images:
            assert pl_cyclic_length(B, p) == \
                translation_length(B, plloop_word(B, p))
            for q in images[:4]:
                cases += 1
                assert 2 * pl_cancellation(B, p, q) == \
                    pl_length(p) + pl_length(q) - pl_length(pl_concat(B, p, q))
    assert cases == 768
    assert interior > 0 and partial > 0


def test_mid_edge_merge():
    G = unit_rose(2)
    p = make_plpath(G, [(("a", 1), F(0), F(1, 2)), (("a", 1), F(1, 2), F(1))])
    assert p.segs == ((("a", 1), F(0), F(1)),)


# -- initial maps -------------------------------------------------------------------

def test_initial_map_identity_on_rose():
    G = unit_rose(2)
    f = initial_pl_map(G, G)
    assert validate_pl_map(f) == []
    ana = stretch_analysis(f)
    assert ana.stretch == 1
    assert ana.a_max == frozenset({"a", "b"})
    assert ana.boundary == ()
    ok, offenders = is_optimal(f)
    assert ok and offenders == ()


def test_initial_map_valid_between_thetas():
    f = initial_pl_map(theta_left(), theta_right())
    assert validate_pl_map(f) == []
    # Lipschitz bound dominates the stretching factor
    assert stretch_analysis(f).stretch >= 2


def test_initial_map_pushes_words_with_bounded_stretch():
    rng = random.Random(3)
    A = theta_left()
    B = theta_right()
    f = initial_pl_map(A, B)
    S = stretch_analysis(f).stretch
    for _ in range(50):
        w = random_word(rng, 2, 8)
        assert translation_length(B, w) <= S * translation_length(A, w)


# -- stretch analysis --------------------------------------------------------------------

def test_stretch_analysis_identity_values():
    A, B = theta_left(), theta_left((F(1, 3), F(1, 3), F(1, 2)))
    g = optimize_pl_map(A, B)
    ana = stretch_analysis(g)
    assert ana.stretch == lambda_r(A, B).value
    assert is_optimal(g) == (True, ())
    assert ana.per_edge == {"A": F(4, 3), "B": F(4, 3), "C": F(4, 3)}


def test_next_v_rejects_non_offending_vertex():
    G = unit_rose(2)
    f = initial_pl_map(G, G)
    with pytest.raises(InvalidInputError):
        next_v(f, "v")


# -- optimization -------------------------------------------------------------------------

def test_optimize_identity_pair():
    G = theta_left()
    f = optimize_pl_map(G, G)
    assert stretch_analysis(f).stretch == 1


def test_optimize_X_to_Y_certifies_two():
    X, Y = theta_left(), theta_right()
    f = optimize_pl_map(X, Y)
    ana = stretch_analysis(f)
    assert ana.stretch == 2 == lambda_r(X, Y).value
    assert validate_pl_map(f) == []


def test_optimize_rose_pair():
    A = rose([2, 3])
    B = rose([F(1, 2), 5])
    f = optimize_pl_map(A, B)
    assert stretch_analysis(f).stretch == lambda_r(A, B).value


def test_optimize_poly_twist():
    A, B = poly_twist_pair(3)
    f = optimize_pl_map(A, B)
    ana = stretch_analysis(f)
    assert ana.stretch == lambda_r(A, B).value == 1
    assert validate_pl_map(f) == []


def test_next_v_lexicographic_progress():
    X, Y = theta_left(), theta_right()
    f = initial_pl_map(X, Y)
    for _ in range(200):
        ana = stretch_analysis(f)
        if ana.stretch == 2:
            break
        ok, offenders = is_optimal(f)
        assert not ok
        g = next_v(f, offenders[0])
        ana2 = stretch_analysis(g)
        assert (ana2.stretch, len(ana2.a_max)) < (ana.stretch, len(ana.a_max)) \
            or ana2.stretch < ana.stretch
        f = g
    assert stretch_analysis(f).stretch == 2


def test_optimize_random_same_simplex_pairs():
    rng = random.Random(29)
    for _ in range(12):
        A, B = random_same_simplex_pair(rng)
        f = optimize_pl_map(A, B)
        assert stretch_analysis(f).stretch == lambda_r(A, B).value
        assert validate_pl_map(f) == []


def test_optimize_random_twisted_pairs():
    rng = random.Random(31)
    for _ in range(8):
        A = random_graph(rng)
        phi = random_nielsen_automorphism(rng, 2, moves=2)
        B, _ = random_same_simplex_pair(rng)  # fresh lengths, maybe new shape
        B = apply_automorphism_to_marking(B, phi)
        f = optimize_pl_map(A, B)
        assert stretch_analysis(f).stretch == lambda_r(A, B).value


def test_optimizer_analyses_each_map_once(monkeypatch):
    """Every map the optimizer builds, extrapolated ones included, is
    analysed once; its analysis travels with it."""
    import outerspace.plmaps as plmaps

    analysed = []  # the maps themselves, so no id is reused meanwhile
    analyse = plmaps.stretch_analysis

    def counting(f):
        analysed.append(f)
        return analyse(f)

    monkeypatch.setattr(plmaps, "stretch_analysis", counting)
    extrapolated = []
    extrapolate = plmaps._extrapolate_fixed_point

    def recording(f, *args):
        extrapolated.append(extrapolate(f, *args))
        return extrapolated[-1]

    monkeypatch.setattr(plmaps, "_extrapolate_fixed_point", recording)
    rng = random.Random(7)
    pairs = [(theta_left(), theta_right()), poly_twist_pair(3)]
    for _ in range(10):
        A = random_graph(rng)
        B = apply_automorphism_to_marking(
            random_graph(rng), random_nielsen_automorphism(rng, 2, 3))
        pairs.append((A, B))
    for A, B in pairs:
        f = optimize_pl_map(A, B)
        assert analyse(f).stretch == lambda_r(A, B).value
    assert any(g is not None for g in extrapolated)
    assert len({id(f) for f in analysed}) == len(analysed)


def test_stratified_boundary_checker_runs():
    X, Y = theta_left(), theta_right()
    f = optimize_pl_map(X, Y)
    assert stratified_boundary_condition(f) is True
    g = optimize_pl_map(X, X)
    assert stratified_boundary_condition(g) is True


# -- bounded cancellation ---------------------------------------------------------------

def bcc_or_partial(A, B, f, pair_cap=10 ** 6):
    """The exact bound, or the capped lower bound with a truncation flag."""
    from outerspace.errors import BudgetExhaustedError

    try:
        return bounded_cancellation_bound(A, B, f, pair_cap), True
    except BudgetExhaustedError as exc:
        return exc.partial, False


def test_bcc_rank_one_circle_completes():
    G = rose([1])
    f = optimize_pl_map(G, G)
    assert bounded_cancellation_bound(G, G, f) == volume(G)


def test_bcc_identity_rose():
    # the identity has zero cancellation on every admissible pair, so even
    # the capped enumeration reports exactly vol(A)
    G = unit_rose(2)
    f = optimize_pl_map(G, G)
    bound, exact = bcc_or_partial(G, G, f, pair_cap=20000)
    assert bound == volume(G)


def test_bcc_poly_automorphism():
    G = unit_rose(2)
    H = apply_automorphism_to_marking(G, aut_poly())
    f = optimize_pl_map(G, H)
    bound, _ = bcc_or_partial(G, H, f, pair_cap=20000)
    assert bound >= 1 + volume(G)


def test_bcc_capped_partial_follows_sorted_stars():
    # loops are enumerated with a loop edge's (e, -1) before its (e, 1), so
    # the first pairs under a small cap, and the partial bound, are fixed
    A, B = poly_twist_pair(3)
    f = optimize_pl_map(A, B)
    assert bcc_or_partial(A, B, f, pair_cap=10) == (8, False)


def test_bcc_never_exceeded_by_longer_pairs():
    rng = random.Random(37)
    G = unit_rose(2)
    H = apply_automorphism_to_marking(G, aut_poly())
    f = optimize_pl_map(G, H)
    lam = stretch_analysis(f).stretch
    bound, _ = bcc_or_partial(G, H, f, pair_cap=50000)
    K = bound - lam * volume(G)
    from outerspace.graphs import realize_word_as_path

    checked = 0
    while checked < 200:
        wa = random_word(rng, 2, 12)
        wb = random_word(rng, 2, 12)
        if not wa or not wb:
            continue
        pa = realize_word_as_path(G, wa)
        pb = realize_word_as_path(G, wb)
        if not pa or not pb:
            continue
        if pb[0] == (pa[-1][0], -pa[-1][1]) or pa[0] == (pb[-1][0], -pb[-1][1]):
            continue
        checked += 1
        la = path_image_length(f, pa)
        lb = path_image_length(f, pb)
        lab = path_image_length(f, pa + pb)
        assert (la + lb - lab) / 2 <= K
