import random
from fractions import Fraction as F

import pytest

from conftest import twisted_barbell
from outerspace.docs import format_word
from outerspace.errors import InvalidInputError
from outerspace.fixtures import (
    aut_poly,
    barbell,
    random_graph,
    random_nielsen_automorphism,
    random_word,
    rose,
    rose_t,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    canonicalize,
    counting_inner_product,
    derive_inverse_marking,
    interpolate_in_simplex,
    loop_length,
    make_graph,
    normalize_volume,
    realize_word_as_loop,
    rebase,
    subdivide,
    tighten,
    translation_length,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from outerspace.words import Word, free_reduce, generator, identity


# -- fixtures validate ---------------------------------------------------------

@pytest.mark.parametrize("G", [
    unit_rose(2),
    unit_rose(3),
    theta_left(),
    theta_right(),
    rose_t(F(5, 8)),
    barbell(1, 1, 1),
])
def test_fixtures_validate(G):
    report = validate_marked_graph(G)
    assert report.ok, report.issues


def test_validate_rejects_bad_labels():
    G = unit_rose(2)
    bad = G.with_labels({"a": generator(1, 2), "b": generator(1, 2)})
    report = validate_marked_graph(bad)
    assert not report.ok
    assert "generator 2" in report.issues[0]


def test_validate_reports_nonpositive_length():
    G = rose([1, 0])
    report = validate_marked_graph(G)
    assert not report.ok
    assert "non-positive" in report.issues[0]


def test_validate_reports_wrong_rank():
    G = unit_rose(2)
    bad = make_graph(3, dict(G.edges), "v",
                     list(G.marking) + [(("a", 1),)],
                     {"a": generator(1, 3), "b": generator(2, 3)})
    report = validate_marked_graph(bad)
    assert not report.ok
    assert "Betti" in report.issues[0]


# -- tighten ---------------------------------------------------------------------

def test_tighten_path_cancellation():
    G = theta_left()
    # A . A~ . B -> B
    out = tighten(G, (("A", 1), ("A", -1), ("B", 1)))
    assert out == (("B", 1),)


def test_tighten_loop_to_empty():
    G = theta_left()
    out = tighten(G, (("A", 1), ("B", -1), ("B", 1), ("A", -1)), "loop")
    assert out == ()


def test_tighten_rejects_non_incident():
    G = barbell(1, 1, 1)
    with pytest.raises(InvalidInputError):
        tighten(G, (("a", 1), ("b", 1)))


def test_tighten_random_backtracking_insertions():
    G = theta_left()
    base = (("A", 1), ("B", -1), ("C", 1), ("B", -1))
    rng = random.Random(5)
    for _ in range(30):
        steps = list(base)
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(steps) + 1)
            v = G.origin(steps[i][0:2]) if i < len(steps) else G.terminus(steps[-1])
            d = rng.choice([d for d in G.darts() if G.origin(d) == v])
            steps[i:i] = [d, (d[0], -d[1])]
        assert tighten(G, tuple(steps)) == base


# -- lengths -----------------------------------------------------------------------

def test_translation_length_theta_tables():
    X = theta_left()
    Y = theta_right()
    a, b = generator(1, 2), generator(2, 2)
    ab_inv = a * b.inverse()
    # loop AB (word a): 1/2 in X; loop EF in Y has length 5/6
    assert translation_length(X, a) == F(1, 2)
    assert translation_length(Y, a) == F(5, 6)
    # loop AC (word ab^-1): 2/3 in X, realized as EFGF in Y: 4/3
    assert translation_length(X, ab_inv) == F(2, 3)
    assert translation_length(Y, ab_inv) == F(4, 3)
    assert translation_length(X, identity(2)) == 0


def test_loop_length_examples():
    X = theta_left()
    assert loop_length(X, (("A", 1), ("C", -1))) == F(2, 3)
    R = unit_rose(2)
    assert loop_length(R, (("a", 1),)) == 1


def test_loop_length_rejects_unreduced():
    X = theta_left()
    with pytest.raises(InvalidInputError):
        loop_length(X, (("A", 1), ("A", -1)))


def test_loop_length_matches_translation_length():
    rng = random.Random(9)
    for _ in range(30):
        G = random_graph(rng)
        w = random_word(rng, 2, 8)
        loop = realize_word_as_loop(G, w)
        if not loop:
            continue
        assert loop_length(G, loop) == translation_length(G, w)


def test_word_of_loop_roundtrip():
    X = theta_left()
    rng = random.Random(13)
    for _ in range(30):
        w = random_word(rng, 2, 8)
        loop = realize_word_as_loop(X, w)
        if not loop:
            continue
        back = word_of_loop(X, loop)
        assert translation_length(X, back) == loop_length(X, loop)


def test_counting_inner_product_table_row():
    X = theta_left()
    assert counting_inner_product(X, (("A", 1), ("C", -1))) == F(2, 3)


def test_counting_inner_product_agrees_with_length():
    rng = random.Random(21)
    count = 0
    while count < 100:
        G = random_graph(rng)
        loop = realize_word_as_loop(G, random_word(rng, 2, 8))
        if not loop:
            continue
        count += 1
        assert counting_inner_product(G, loop) == loop_length(G, loop)


# -- conjugacy and powers -----------------------------------------------------------

def test_translation_length_conjugacy_invariant():
    rng = random.Random(31)
    for _ in range(40):
        G = random_graph(rng)
        w = random_word(rng, 2, 6)
        u = random_word(rng, 2, 6)
        assert translation_length(G, u * w * u.inverse()) == \
            translation_length(G, w)


def test_translation_length_powers():
    rng = random.Random(32)
    for _ in range(20):
        G = random_graph(rng)
        w = random_word(rng, 2, 5)
        for k in (1, 2, 3):
            assert translation_length(G, w ** k) == k * translation_length(G, w)


# -- volume -----------------------------------------------------------------------

def test_volume_theta_is_one():
    assert volume(theta_left()) == 1
    assert volume(theta_right()) == 1


def test_normalize_scale():
    k = 3
    G = rose([k + 1, k + 1])
    H, scale = normalize_volume(G)
    assert scale == F(1, 2 * k + 2)
    assert volume(H) == 1
    H2, scale2 = normalize_volume(H)
    assert H2 == H and scale2 == 1


def test_normalize_scales_translation_lengths():
    rng = random.Random(41)
    G = random_graph(rng)
    H, scale = normalize_volume(G)
    for _ in range(10):
        w = random_word(rng, 2, 6)
        assert translation_length(H, w) == translation_length(G, w) * scale


# -- interpolation -------------------------------------------------------------------

def test_interpolate_endpoints_and_midpoint():
    A = barbell(1, 1, 1)
    B = barbell(2, F(1, 2), 1)  # circle lengths (2, 1/2), separating edge 1
    assert interpolate_in_simplex(A, B, F(0)) == A
    assert interpolate_in_simplex(A, B, F(1)) == B
    mid = interpolate_in_simplex(A, B, F(1, 2))
    assert mid.edges["a"][2] == F(3, 2)
    assert mid.edges["c"][2] == F(1)
    assert mid.edges["b"][2] == F(3, 4)


def test_interpolate_rejects_different_simplices():
    with pytest.raises(InvalidInputError):
        interpolate_in_simplex(theta_left(), theta_right(), F(1, 2))


# -- automorphism action ---------------------------------------------------------------

def test_apply_identity_automorphism():
    from outerspace.words import identity_automorphism

    G = theta_left()
    assert apply_automorphism_to_marking(G, identity_automorphism(2)) == G


def test_apply_poly_automorphism_to_rose():
    G = unit_rose(2)
    H = apply_automorphism_to_marking(G, aut_poly())
    assert H.marking[1] == (("b", 1), ("a", 1))
    assert validate_marked_graph(H).ok


def test_twisted_length_identity():
    rng = random.Random(51)
    for _ in range(10):
        G = random_graph(rng)
        phi = random_nielsen_automorphism(rng, 2)
        H = apply_automorphism_to_marking(G, phi)
        assert validate_marked_graph(H).ok, validate_marked_graph(H).issues
        for _ in range(5):
            w = random_word(rng, 2, 6)
            assert translation_length(H, w) == \
                translation_length(G, phi.apply(w))


def test_automorphism_round_trip_lengths():
    rng = random.Random(52)
    G = theta_left()
    phi = random_nielsen_automorphism(rng, 2, moves=4)
    H = apply_automorphism_to_marking(
        apply_automorphism_to_marking(G, phi), phi.inverse()
    )
    for _ in range(20):
        w = random_word(rng, 2, 8)
        assert translation_length(H, w) == translation_length(G, w)


# -- label derivation --------------------------------------------------------------

def test_derive_labels_rose():
    G = unit_rose(2).with_labels(None)
    labels = derive_inverse_marking(G)
    assert labels["a"] == generator(1, 2)
    assert labels["b"] == generator(2, 2)


@pytest.mark.parametrize("make", [theta_left, theta_right])
def test_derive_labels_theta(make):
    G = make()
    derived = derive_inverse_marking(G.with_labels(None))
    H = G.with_labels(derived)
    assert validate_marked_graph(H).ok


def test_derive_labels_after_automorphism():
    rng = random.Random(61)
    for _ in range(10):
        G = random_graph(rng)
        phi = random_nielsen_automorphism(rng, 2)
        H = apply_automorphism_to_marking(G, phi)
        derived = derive_inverse_marking(H.with_labels(None))
        H2 = H.with_labels(derived)
        assert validate_marked_graph(H2).ok
        for _ in range(10):
            w = random_word(rng, 2, 6)
            assert translation_length(H2, w) == translation_length(H, w)


def test_derive_labels_detects_non_injective_marking():
    # both petals trace the same circle: not a marking isomorphism
    edges = {"a": ("v", "v", F(1)), "b": ("v", "v", F(1))}
    marking = [(("a", 1),), (("a", 1),)]
    G = make_graph(2, edges, "v", marking)
    with pytest.raises(InvalidInputError):
        derive_inverse_marking(G)


def test_derive_labels_pinned_on_twisted_barbell():
    # the bridge c carries the gauge at w, which depends on the fold order:
    # absorbing the edge that reaches the basepoint's class gives c = bA
    labels = derive_inverse_marking(twisted_barbell())
    assert {e: format_word(w) for e, w in labels.items()} == \
        {"a": "aaB", "b": "bAAbAAbA", "c": "aaBaaB"}


# -- subdivision and canonical form ---------------------------------------------------

def test_subdivide_preserves_lengths_and_marking():
    G = theta_left()
    H, expansion = subdivide(G, {"A": [F(1, 12)], "C": [F(1, 4), F(1, 3)]})
    assert validate_marked_graph(H).ok, validate_marked_graph(H).issues
    assert volume(H) == volume(G)
    rng = random.Random(71)
    for _ in range(20):
        w = random_word(rng, 2, 8)
        assert translation_length(H, w) == translation_length(G, w)


def test_canonicalize_subdivided_rose():
    G = unit_rose(2)
    H, _ = subdivide(G, {"a": [F(1, 3)], "b": [F(1, 2)]})
    K = canonicalize(H)
    assert len(K.edges) == 2
    assert all(K.valence(v) >= 2 for v in K.vertices)
    assert validate_marked_graph(K).ok
    assert canonicalize(K) == K


def test_canonicalize_preserves_translation_lengths():
    rng = random.Random(81)
    for _ in range(10):
        G = random_graph(rng)
        cuts = {e: [G.length(e) / 3] for e in list(G.edges)[:2]}
        H, _ = subdivide(G, cuts)
        K = canonicalize(H)
        assert validate_marked_graph(K).ok
        for _ in range(10):
            w = random_word(rng, 2, 8)
            assert translation_length(K, w) == translation_length(G, w)


def test_canonicalize_moves_bivalent_basepoint():
    # subdivide so that the basepoint keeps valence 2 after a rebase
    G = theta_left()
    H = rebase(G, "v")
    assert validate_marked_graph(H).ok
    K, _ = subdivide(G, {"B": [F(1, 6)]})
    L = canonicalize(K)
    assert validate_marked_graph(L).ok
    assert len(L.edges) == 3


def test_rebase_keeps_lengths():
    G = theta_left()
    H = rebase(G, "v")
    rng = random.Random(91)
    for _ in range(20):
        w = random_word(rng, 2, 8)
        assert translation_length(H, w) == translation_length(G, w)
