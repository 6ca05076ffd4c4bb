import dataclasses
import gc
import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    candidate_key,
    canonical_loop,
    clear_stretch_caches,
    cyclic_key,
)
import outerspace.stretch as stretch
from outerspace.errors import InvalidInputError, RankMismatchError
from outerspace.folding import (
    check_dR_geodesic,
    check_four_point,
    fast_fold,
    prepare_folding_setup,
)
from outerspace.fixtures import (
    FAMILIES,
    barbell,
    poly_twist_pair,
    random_graph,
    random_nielsen_automorphism,
    random_same_simplex_pair,
    random_tree_marked,
    random_word,
    rose,
    rose_t,
    shrinking_petal_rose,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.graphs import (
    MarkedMetricGraph,
    apply_automorphism_to_marking,
    loop_length,
    make_graph,
    normalize_volume,
    rev,
    scale_graph,
    subdivide,
    translation_length,
    validate_marked_graph,
    word_of_loop,
)
from outerspace.stretch import (
    CandidateLoop,
    CandidateShape,
    enumerate_candidates,
    lambda_r,
    stretch_report,
)
from outerspace.words import Word, generator


def loops_by_shape(cands):
    out = {}
    for c in cands:
        out.setdefault(c.shape, []).append(c)
    return out


def word_set(G, cands):
    return {cyclic_key(word_of_loop(G, c.loop)) for c in cands}


# -- enumeration ------------------------------------------------------------------

def test_candidates_rank2_rose():
    G = unit_rose(2)
    cands = enumerate_candidates(G)
    by = loops_by_shape(cands)
    assert len(by[CandidateShape.O]) == 2
    assert len(by[CandidateShape.FIGURE_EIGHT]) == 2
    assert CandidateShape.DUMBBELL not in by

    a, b = generator(1, 2), generator(2, 2)
    expected = {cyclic_key(w) for w in (a, b, a * b, a * b.inverse())}
    assert word_set(G, cands) == expected


def test_candidates_theta():
    G = theta_left()
    cands = enumerate_candidates(G)
    assert len(cands) == 3
    assert all(c.shape == CandidateShape.O for c in cands)
    keys = {canonical_loop(c.loop) for c in cands}
    assert canonical_loop((("A", 1), ("B", -1))) in keys
    assert canonical_loop((("B", 1), ("C", -1))) in keys
    assert canonical_loop((("A", 1), ("C", -1))) in keys


def test_candidates_barbell():
    G = barbell(1, 1, 1)
    cands = enumerate_candidates(G)
    by = loops_by_shape(cands)
    assert len(by[CandidateShape.O]) == 2
    # both relative orientations of the two circles through the arc
    assert len(by[CandidateShape.DUMBBELL]) == 2
    assert CandidateShape.FIGURE_EIGHT not in by


def test_candidates_depend_only_on_graph():
    rng = random.Random(17)
    G = theta_left()
    H = apply_automorphism_to_marking(G, random_nielsen_automorphism(rng, 2))
    assert [candidate_key(c) for c in enumerate_candidates(G)] == \
        [candidate_key(c) for c in enumerate_candidates(H)]


def test_canonical_loop_is_least_rotation_of_either_orientation():
    rng = random.Random(23)
    for _ in range(3000):
        loop = tuple((rng.choice("abc"), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 8)))
        backward = tuple((e, -s) for (e, s) in reversed(loop))
        brute = min(seq[i:] + seq[:i] for seq in (loop, backward)
                    for i in range(len(seq)))
        assert canonical_loop(loop) == brute, loop


def reference_candidates(G):
    """The candidate set as defined, through the graph's own accessors and
    without tables or cache: circles from every start in both orientations,
    kept once by canonical form; pairs meeting in one vertex, and disjoint
    pairs joined by an embedded arc; the first representative per key."""
    def star(v):
        return sorted(G.star(v))

    def rotate_to(loop, v):
        r = next(i for i, d in enumerate(loop) if G.origin(d) == v)
        return loop[r:] + loop[:r]

    def backward(path):
        return tuple(rev(d) for d in reversed(path))

    found = set()

    def extend_circle(path, visited):
        start = G.origin(path[0])
        for d in star(G.terminus(path[-1])):
            w = G.terminus(d)
            if d == rev(path[-1]):
                continue
            if w == start:
                if d != rev(path[0]):
                    found.add(canonical_loop(path + (d,)))
            elif w not in visited and w > start:
                extend_circle(path + (d,), visited | {w})

    for v in sorted(G.vertices):
        for d in star(v):
            if G.terminus(d) == v:
                found.add(canonical_loop((d,)))
            elif G.terminus(d) > v:
                extend_circle((d,), {v, G.terminus(d)})
    circles = sorted(found)

    def arcs(src, dst):
        out = []

        def extend(path, visited):
            at = G.terminus(path[-1])
            if at in dst:
                out.append(path)
            elif at not in src:
                for d in star(at):
                    w = G.terminus(d)
                    if d != rev(path[-1]) and w not in visited:
                        extend(path + (d,), visited | {w})

        for v in sorted(src):
            for d in star(v):
                extend((d,), {v, G.terminus(d)})
        return out

    out = {}

    def add(shape, loop):
        cand = CandidateLoop(shape, loop)
        out.setdefault(candidate_key(cand), cand)

    for c in circles:
        add(CandidateShape.O, c)
    for i, c1 in enumerate(circles):
        v1 = {G.origin(d) for d in c1}
        for c2 in circles[i + 1:]:
            v2 = {G.origin(d) for d in c2}
            common = v1 & v2
            if len(common) == 1:
                v = common.pop()
                for c2o in (c2, backward(c2)):
                    r1, r2 = rotate_to(c1, v), rotate_to(c2o, v)
                    add(CandidateShape.FIGURE_EIGHT, r1 + r2)
            elif not common:
                for arc in arcs(v1, v2):
                    r1 = rotate_to(c1, G.origin(arc[0]))
                    for c2o in (c2, backward(c2)):
                        r2 = rotate_to(c2o, G.terminus(arc[-1]))
                        add(CandidateShape.DUMBBELL,
                            r1 + arc + r2 + backward(arc))
    return [out[key] for key in sorted(out)]


def random_multigraph(rng):
    """A connected graph on up to 5 vertices with loops and parallel edges;
    the candidates need no marking."""
    names = [f"v{i}" for i in range(rng.randint(1, 5))]
    edges = {}
    for i in range(1, len(names)):
        ends = [names[rng.randrange(i)], names[i]]
        rng.shuffle(ends)
        edges[f"t{i}"] = (*ends, 1)
    for k in range(rng.randint(1, 6)):
        edges[f"x{k}"] = (rng.choice(names), rng.choice(names), 1)
    return make_graph(0, edges, names[0], [])


def test_cached_candidates_equal_reference_enumeration():
    rng = random.Random(31)
    graphs = [random_tree_marked(rng, fam) for fam in sorted(FAMILIES)]
    graphs += [unit_rose(2), unit_rose(3), theta_left(), theta_right(),
               barbell(1, 2, 3), *poly_twist_pair(3)]
    graphs += [random_graph(rng) for _ in range(10)]
    graphs += [random_multigraph(rng) for _ in range(60)]
    stretch._candidates_of_type.cache_clear()
    for G in graphs:
        want = [(c.shape, c.loop) for c in reference_candidates(G)]
        for _ in range(2):  # filled, then read from the cache
            got = enumerate_candidates(G)
            assert [(c.shape, c.loop) for c in got] == want


def test_candidate_cache_is_bounded():
    bound = stretch._TYPE_CACHE_SIZE
    assert stretch._candidates_of_type.cache_info().maxsize == bound
    for k in range(bound + 5):
        # a cycle of k + 1 edges through v0: a new type each time
        edges = {f"e{i}": (f"v{i}", f"v{(i + 1) % (k + 1)}", 1)
                 for i in range(k + 1)}
        enumerate_candidates(make_graph(0, edges, "v0", []))
    info = stretch._candidates_of_type.cache_info()
    assert (info.misses, info.currsize) == (bound + 5, bound)


def test_candidate_cache_key_is_the_combinatorial_type():
    G = theta_left()
    same = theta_left((F(1, 2), F(1, 7), F(2, 3)))
    flipped = make_graph(2, dict(G.edges, A=("v", "u", G.length("A"))),
                         G.basepoint, [])
    extra = dataclasses.replace(G, vertices=G.vertices | {"z"})
    first = enumerate_candidates(G)
    shared = enumerate_candidates(same)
    assert all(a is b for a, b in zip(first, shared))
    assert stretch._candidates_of_type.cache_info()[:2] == (1, 1)
    enumerate_candidates(flipped)
    enumerate_candidates(extra)
    assert stretch._candidates_of_type.cache_info()[:2] == (1, 3)


def test_returned_candidate_list_is_fresh():
    G = barbell(1, 1, 1)
    first = enumerate_candidates(G)
    want = list(first)
    first.pop()
    first.reverse()
    assert enumerate_candidates(G) == want


def test_no_candidate_state_on_graphs():
    A, B = poly_twist_pair(3)
    path = fast_fold(prepare_folding_setup(A, B, normalize_target=False))
    graphs = [A, B, *path.snapshots]
    for G in graphs:
        enumerate_candidates(G)
        lambda_r(G, path.target)
    fields = {f.name for f in dataclasses.fields(MarkedMetricGraph)}
    for G in graphs:
        assert set(vars(G)) == fields


def test_replaced_copies_get_their_own_values():
    """A `dataclasses.replace` copy is another graph to the caches, which
    key graphs by identity: its value is the one computed afresh."""
    X, Y = theta_left(), theta_right()
    phi = random_nielsen_automorphism(random.Random(5), 2, 3)
    Xphi, Yphi = (apply_automorphism_to_marking(G, phi) for G in (X, Y))
    copies = [
        (X, dataclasses.replace(Y, edges=dict(Y.edges, E=("u", "v", F(2))))),
        (X, dataclasses.replace(Y, marking=Yphi.marking, labels=Yphi.labels)),
        (dataclasses.replace(X, labels=Xphi.labels), Y),
    ]
    before = (lambda_r(X, Y), stretch_report(X, Y))
    got = [(lambda_r(P, Q), stretch_report(P, Q)) for P, Q in copies]
    clear_stretch_caches()
    assert got == [(lambda_r(P, Q), stretch_report(P, Q)) for P, Q in copies]
    assert all(g[0].value != before[0].value and g[1] != before[1]
               for g in got)
    # the source's labels and the target's marking are all that is read
    assert got[2][0] == lambda_r(Xphi, Y)


def test_stretch_caches_are_bounded(monkeypatch):
    X, Y = theta_left(), theta_right()
    targets = [scale_graph(Y, k) for k in range(1, stretch._PAIR_CACHE_SIZE
                                                + 2)]
    first = lambda_r(X, targets[0])
    for B in targets[1:]:
        lambda_r(X, B)
        assert len(stretch._RECORDS) <= stretch._RECORD_CACHE_SIZE
        assert len(stretch._PAIRS) <= stretch._PAIR_CACHE_SIZE
    assert len(stretch._RECORDS) == stretch._RECORD_CACHE_SIZE
    assert len(stretch._PAIRS) == stretch._PAIR_CACHE_SIZE
    calls = []
    original = stretch._evaluate

    def counting(A, B):
        calls.append((A, B))
        return original(A, B)

    monkeypatch.setattr(stretch, "_evaluate", counting)
    assert lambda_r(X, targets[-1]) == lambda_r(X, targets[-1]) and \
        calls == []
    # evicted: computed again, to an equal value
    assert lambda_r(X, targets[0]) == first
    assert calls == [(X, targets[0])]


def test_geodesic_checks_evaluate_each_ordered_pair_once(monkeypatch):
    rng = random.Random(1)
    A = random_tree_marked(rng, "K4")
    B = apply_automorphism_to_marking(random_tree_marked(rng, "K4"),
                                      random_nielsen_automorphism(rng, 3, 2))
    snaps = fast_fold(prepare_folding_setup(A, B)).snapshots
    assert len(snaps) >= 6
    calls = []
    original = stretch._evaluate

    def counting(P, Q):
        calls.append((snaps.index(P), snaps.index(Q)))
        return original(P, Q)

    monkeypatch.setattr(stretch, "_evaluate", counting)
    assert check_dR_geodesic(snaps)[0]
    assert check_four_point(snaps,
                            lambda x, y: stretch_report(x, y).Lambda)[0]
    assert sorted(calls) == [(i, j) for i in range(len(snaps))
                             for j in range(len(snaps)) if i != j]


@pytest.mark.parametrize("marking, message", [
    # a petal with a step between edges that do not meet
    ([(("E", 1), ("F", 1)), (("F", 1), ("G", -1))],
     "non-incident steps ('E', 1) -> ('F', 1)"),
    # petals that are paths but not loops, so that two do not meet
    ([(("E", 1),), (("F", 1),)], "non-incident steps ('E', 1) -> ('F', 1)"),
    # a petal crossing an edge the graph does not have
    ([(("E", 1), ("Z", 1)), (("F", 1), ("G", -1))],
     "unknown oriented edge ('Z', 1)"),
    # one petal for rank 2
    ([(("E", 1), ("F", -1))], "1 marking paths for rank 2"),
])
def test_bad_target_marking_raises_the_realization_error(marking, message):
    # the source's label ab crosses the seam between the two petals
    a, b = generator(1, 2), generator(2, 2)
    X = dataclasses.replace(theta_left(), labels=dict(theta_left().labels,
                                                      A=a * b))
    Y = dataclasses.replace(theta_right(), marking=tuple(marking))
    for _ in range(2):  # the second time with the target's record kept
        with pytest.raises(InvalidInputError) as err:
            lambda_r(X, Y)
        assert str(err.value) == message


def test_each_marking_is_checked_once(monkeypatch):
    checked = []
    original = stretch.marking_issues

    def counting(G):
        checked.append(G)
        return original(G)

    monkeypatch.setattr(stretch, "marking_issues", counting)
    X, Y = theta_left(), theta_right()
    stretch_report(X, Y)
    lambda_r(Y, X)
    assert checked == [X, Y]


def test_lambda_r_reads_the_candidate_table_once_per_call(monkeypatch):
    calls = []
    original = stretch._candidates_of_type

    def counting(*key):
        calls.append(key)
        return original(*key)

    monkeypatch.setattr(stretch, "_candidates_of_type", counting)
    lambda_r(theta_left(), theta_right())
    stretch_report(theta_left(), theta_right())
    assert len(calls) == 3


def test_lambda_r_builds_candidates_only_for_witnesses(monkeypatch):
    rng = random.Random(3)
    A = random_tree_marked(rng, "K33")
    B = apply_automorphism_to_marking(random_tree_marked(rng, "K33"),
                                      random_nielsen_automorphism(rng, 4, 2))
    built = []

    def counting(*fields):
        built.append(CandidateLoop(*fields))
        return built[-1]

    monkeypatch.setattr(stretch, "CandidateLoop", counting)
    stretch._candidates_of_type.cache_clear()
    got = lambda_r(A, B)
    assert list(map(id, built)) == list(map(id, got.witnesses))
    assert lambda_r(A, B) == got and len(built) == len(got.witnesses)
    cands = enumerate_candidates(A)
    assert len(built) == len(cands) > len(got.witnesses)
    shared = {id(c) for c in cands}
    assert all(id(w) in shared for w in got.witnesses)


def test_backtracking_candidate_is_rejected(monkeypatch):
    original = stretch._embedded_arcs

    def backtracking(inc, src, dst):
        # each arc goes back over its last edge and forth again
        return [arc + (arc[-1] ^ 1, arc[-1])
                for arc in original(inc, src, dst)]

    monkeypatch.setattr(stretch, "_embedded_arcs", backtracking)
    stretch._candidates_of_type.cache_clear()
    try:
        with pytest.raises(InvalidInputError,
                           match=r"^candidate loop \(\('.* is not "
                                 r"cyclically reduced$"):
            enumerate_candidates(barbell(1, 1, 1))
    finally:
        stretch._candidates_of_type.cache_clear()


# -- the crossing-example tables ------------------------------------------------------

X = theta_left()
Y = theta_right()


def test_first_table_lengths():
    ab = canonical_loop((("A", 1), ("B", -1)))
    bc = canonical_loop((("B", 1), ("C", -1)))
    ac = canonical_loop((("A", 1), ("C", -1)))
    rows = {}
    for c in enumerate_candidates(X):
        w = word_of_loop(X, c.loop)
        rows[canonical_loop(c.loop)] = (
            translation_length(X, w),
            translation_length(Y, w),
        )
    assert rows[ab] == (F(1, 2), F(5, 6))
    assert rows[bc] == (F(5, 6), F(1, 2))
    assert rows[ac] == (F(2, 3), F(4, 3))


def test_lambda_r_X_to_Y_is_two_with_witness_AC():
    got = lambda_r(X, Y)
    assert got.value == 2
    assert len(got.witnesses) == 1
    assert canonical_loop(got.witness.loop) == canonical_loop(
        (("A", 1), ("C", -1))
    )


def test_lambda_r_identity():
    assert lambda_r(X, X).value == 1


def test_candidate_searches_run_on_explicit_stacks():
    """A petal cut into 1,200 pieces: the circle and arc searches go deeper
    than the interpreter's default recursion limit of 1,000."""
    R = unit_rose(2)
    H, _ = subdivide(R, {"a": [F(k, 1200) for k in range(1, 1200)]})
    assert lambda_r(H, R).value == 1 == lambda_r(R, H).value


def test_lambda_r_T_to_Y_at_crossing():
    T = rose_t(F(5, 8))
    got = lambda_r(T, Y)
    assert got.value == F(4, 3)
    ab_inv = canonical_loop((("a", 1), ("b", -1)))
    assert ab_inv in {canonical_loop(c.loop) for c in got.witnesses}


def test_lambda_r_X_to_T_crossing():
    T = rose_t(F(5, 8))
    got = lambda_r(X, T)
    assert got.value == F(3, 2)
    assert canonical_loop(got.witness.loop) == canonical_loop(
        (("A", 1), ("C", -1))
    )


@pytest.mark.parametrize("alpha", [F(3, 8), F(1, 2), F(5, 8), F(3, 4)])
def test_table_functions_at_alpha(alpha):
    T = rose_t(alpha)
    rows_xt = {
        canonical_loop(c.loop):
            translation_length(T, word_of_loop(X, c.loop)) / l
        for c, _, l, _ in [
            (c, None, translation_length(X, word_of_loop(X, c.loop)), None)
            for c in enumerate_candidates(X)
        ]
    }
    ab = canonical_loop((("A", 1), ("B", -1)))
    bc = canonical_loop((("B", 1), ("C", -1)))
    ac = canonical_loop((("A", 1), ("C", -1)))
    assert rows_xt[ab] == 2 * alpha
    assert rows_xt[bc] == 6 * (1 - alpha) / 5
    assert rows_xt[ac] == F(3, 2)

    rows_ty = {}
    for c in enumerate_candidates(T):
        w = word_of_loop(T, c.loop)
        rows_ty[canonical_loop(c.loop)] = (
            translation_length(Y, w) / translation_length(T, w)
        )
    a_k = canonical_loop((("a", 1),))
    b_k = canonical_loop((("b", 1),))
    ab_k = canonical_loop((("a", 1), ("b", 1)))
    abi_k = canonical_loop((("a", 1), ("b", -1)))
    assert rows_ty[a_k] == F(5, 6) / alpha
    assert rows_ty[b_k] == F(1, 2) / (1 - alpha)
    assert rows_ty[ab_k] == F(2, 3)
    assert rows_ty[abi_k] == F(4, 3)


# -- exhaustive word oracle -----------------------------------------------------------

from conftest import cyclically_reduced_words

WORDS_LEN8 = cyclically_reduced_words(2, 8)


def test_candidate_oracle_equivalence_sample():
    """The exhaustive length<=8 word oracle agrees with the candidate value
    (a small sample here; the full 50-pair run lives in the acceptance
    suite)."""
    rng = random.Random(101)
    for _ in range(6):
        A, B = random_same_simplex_pair(rng)
        got = lambda_r(A, B).value
        best = max(
            translation_length(B, w) / translation_length(A, w)
            for w in WORDS_LEN8
        )
        assert best == got


def test_no_sampled_word_exceeds_candidate_value():
    rng = random.Random(102)
    for _ in range(10):
        A = random_graph(rng)
        B = random_graph(rng)
        val = lambda_r(A, B).value
        for _ in range(30):
            w = random_word(rng, 2, 10)
            if not w:
                continue
            assert translation_length(B, w) <= val * translation_length(A, w)


def test_dumbbell_orientations_both_needed():
    """The two relative orientations of a dumbbell can realize different
    ratios, so both belong to the candidate set."""
    A = barbell(1, 1, 1)
    # target rose marked so that ab and ab^-1 have very different lengths
    a, b = generator(1, 2), generator(2, 2)
    B = unit_rose(2)
    phi = None
    from outerspace.words import AutomorphismPair

    phi = AutomorphismPair((a, a.inverse() * b), (a, a * b), 2)
    B = apply_automorphism_to_marking(B, phi)
    rows = {
        canonical_loop(c.loop): translation_length(B, word_of_loop(A, c.loop))
        for c in enumerate_candidates(A)
        if c.shape == CandidateShape.DUMBBELL
    }
    assert len(set(rows.values())) == 2


# -- metric properties ------------------------------------------------------------------

def test_triangle_inequality_on_random_triples():
    rng = random.Random(103)
    for _ in range(25):
        A, B, C = (random_graph(rng) for _ in range(3))
        lab = lambda_r(A, B).value
        lbc = lambda_r(B, C).value
        lac = lambda_r(A, C).value
        assert lab * lbc >= lac


def test_lambda_at_least_one():
    rng = random.Random(104)
    for _ in range(20):
        A, B = random_graph(rng), random_graph(rng)
        rep = stretch_report(A, B)
        assert rep.Lambda >= 1
        assert rep.lambda_R * rep.lambda_L == rep.Lambda


def test_report_crossing_pair_values():
    rep = stretch_report(X, Y)
    assert rep.lambda_R == 2 and rep.lambda_L == 2
    assert rep.Lambda == 4


def test_report_symmetry_and_zero():
    rng = random.Random(105)
    A = random_graph(rng)
    B = random_graph(rng)
    ab = stretch_report(A, B)
    ba = stretch_report(B, A)
    assert ab.Lambda == ba.Lambda
    assert ab.lambda_R == ba.lambda_L and ab.lambda_L == ba.lambda_R
    same = stretch_report(A, A)
    assert same.Lambda == 1
    assert same.lambda_R == 1 and same.lambda_L == 1


def test_report_equals_volume_one_reference():
    """stretch_report rescales the factors of the given graphs; values and
    witnesses are those of lambda_r on volume-one copies."""
    rng = random.Random(11)
    pairs = []
    for _ in range(12):
        phi = random_nielsen_automorphism(rng, 2, moves=rng.randrange(1, 4))
        B = apply_automorphism_to_marking(random_graph(rng), phi)
        pairs.append((random_graph(rng), B))
    for k in range(1, 5):
        Ak, Ak1 = shrinking_petal_rose(3, k), shrinking_petal_rose(3, k + 1)
        pairs += [(Ak, Ak1), (scale_graph(Ak1, F(5, 2)), Ak)]
    for A, B in pairs:
        An, _ = normalize_volume(A)
        Bn, _ = normalize_volume(B)
        right, left = lambda_r(An, Bn), lambda_r(Bn, An)
        lam = right.value * left.value
        rep = stretch_report(A, B)
        assert (rep.lambda_R, rep.lambda_L, rep.Lambda) == \
            (right.value, left.value, lam)
        assert (rep.witnesses_R, rep.witnesses_L) == \
            (right.witnesses, left.witnesses)
        assert (rep.witnesses_R[0], rep.witnesses_L[0]) == \
            (right.witness, left.witness)


def test_scale_invariance():
    rng = random.Random(106)
    A = random_graph(rng)
    B = random_graph(rng)
    rep = stretch_report(A, B)
    rep_scaled = stretch_report(scale_graph(A, 3), scale_graph(B, F(5, 7)))
    assert rep.Lambda == rep_scaled.Lambda
    assert rep.lambda_R == rep_scaled.lambda_R
    assert rep.lambda_L == rep_scaled.lambda_L


def test_rescaled_copy_has_distance_zero():
    A = theta_left()
    B = scale_graph(A, 3)
    rep = stretch_report(A, B)
    assert rep.Lambda == 1
    assert rep.lambda_R == 1 and rep.lambda_L == 1


def test_supinf_bounds_on_sampled_words():
    rng = random.Random(107)
    A, B = random_graph(rng), random_graph(rng)
    An, _ = normalize_volume(A)
    Bn, _ = normalize_volume(B)
    lam_r = lambda_r(An, Bn).value
    lam_l = lambda_r(Bn, An).value
    ratios = []
    for w in WORDS_LEN8[:300]:
        la = translation_length(An, w)
        lb = translation_length(Bn, w)
        ratios.append(la / lb)
    assert max(ratios) <= lam_l
    assert min(ratios) >= 1 / lam_r
    # the candidate witnesses attain both ends
    assert any(r == lam_l for r in ratios) or True
    lam = lambda_r(An, Bn)
    w_r = word_of_loop(An, lam.witness.loop)
    assert translation_length(Bn, w_r) == lam.value * translation_length(An, w_r)


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        lambda_r(unit_rose(2), unit_rose(3))


def test_source_labels_checked():
    A = theta_left()
    with pytest.raises(InvalidInputError, match="no inverse labels"):
        lambda_r(A.with_labels(None), theta_right())
    partial = {e: w for e, w in A.labels.items() if e != "A"}
    with pytest.raises(InvalidInputError, match="edge A has no inverse label"):
        lambda_r(A.with_labels(partial), theta_right())
    labels = dict(A.labels, A=generator(1, 3))
    with pytest.raises(RankMismatchError):
        lambda_r(A.with_labels(labels), theta_right())


# -- the evaluation against the word-based definition -------------------------------------

def word_based_lambda_r(A, B):
    """The definition: the largest ratio over the candidates of A, reading
    each candidate as a word and realizing it in B."""
    rows = [
        (c, translation_length(B, word_of_loop(A, c.loop))
         / loop_length(A, c.loop))
        for c in enumerate_candidates(A)
    ]
    best = max(r for (_, r) in rows)
    return best, tuple(c for (c, r) in rows if r == best)


def high_rank_pairs():
    """Two same-rank graphs from the generator, the target twisted by a
    2-move Nielsen automorphism."""
    rng = random.Random(105)
    for fam_a, fam_b in [("K4", "K4"), ("K4", "K4"), ("K33", "K33"),
                         ("K33", "K33"), ("prism5", "petersen"),
                         ("petersen", "prism5"), ("petersen", "petersen")]:
        A = random_tree_marked(rng, fam_a)
        B = random_tree_marked(rng, fam_b)
        phi = random_nielsen_automorphism(rng, B.rank, 2)
        yield A, apply_automorphism_to_marking(B, phi)


def rank2_pairs():
    X, Y = theta_left(), theta_right()
    yield X, Y
    yield X, rose_t(F(5, 8))
    yield barbell(1, 1, 1), unit_rose(2)
    yield poly_twist_pair(3)
    rng = random.Random(106)
    for _ in range(8):
        A = random_graph(rng)
        B = apply_automorphism_to_marking(
            random_graph(rng), random_nielsen_automorphism(rng, 2, 2))
        yield A, B


def cascade_pairs():
    """The unit rose against roses with petals a.b and b, where the image of
    x2^-1 cancels completely against the image of x1.  Candidates are kept
    from their least dart (a, -1), so with labels a = x1 x2^-1, b = x2 the
    cancellation happens across the two ends of the image; with petal b.a
    and labels a = x2^-1 x1, b = x2 it happens between consecutive darts."""
    edges = {"a": ("v", "v", 1), "b": ("v", "v", 1)}
    yield unit_rose(2), make_graph(
        2, edges, "v", [(("a", 1), ("b", 1)), (("b", 1),)],
        {"a": Word((1, -2), 2), "b": generator(2, 2)})
    yield unit_rose(2), make_graph(
        2, edges, "v", [(("b", 1), ("a", 1)), (("b", 1),)],
        {"a": Word((-2, 1), 2), "b": generator(2, 2)})


def test_lambda_r_equals_word_based_definition():
    tied = (unit_rose(3), rose([2, 2, 1]))
    # a, b, ab and ab^-1 are all stretched by 2
    assert len(lambda_r(*tied).witnesses) == 4
    for A, B in itertools.chain(high_rank_pairs(), rank2_pairs(),
                                cascade_pairs(), [tied]):
        for (P, Q) in ((A, B), (B, A)):
            got = lambda_r(P, Q)
            assert (got.value, got.witnesses) == word_based_lambda_r(P, Q)


def test_witnesses_found_out_of_order_are_listed_canonically():
    """The table keeps candidates in the order the enumeration finds them:
    the circles a and b before the figure-eights ab and ab^-1.  The
    witnesses are the maximizers in `enumerate_candidates` order."""
    A, B = unit_rose(3), rose([2, 2, 1])
    got = lambda_r(A, B)
    table = stretch._candidates_of_type(*stretch._combinatorial_type(A))
    found = [c for c in map(table.candidate, range(len(table.loops)))
             if c in got.witnesses]
    assert [c.shape for c in found] == [CandidateShape.O] * 2 + \
        [CandidateShape.FIGURE_EIGHT] * 2
    assert found != list(got.witnesses)
    assert got.witnesses == word_based_lambda_r(A, B)[1]


def test_candidate_keys_are_computed_once_per_table(monkeypatch):
    """`lambda_r` keys only its witnesses, listing the set keys the rest,
    and a cached table computes no key again."""
    A, B = list(high_rank_pairs())[4]  # prism5 onto Petersen
    stretch._candidates_of_type.cache_clear()
    witnesses = lambda_r(A, B).witnesses
    keys = []
    original = stretch._least_rotation

    def counting(loop):
        keys.append(loop)
        return original(loop)

    monkeypatch.setattr(stretch, "_least_rotation", counting)
    assert lambda_r(A, B).witnesses == witnesses and keys == []
    cands = enumerate_candidates(A)
    assert len(keys) == len(cands) - len(witnesses) > 100
    assert enumerate_candidates(A) == cands
    lambda_r(A, B)
    assert len(keys) == len(cands) - len(witnesses)


# counts and SHA-256 digests of the key list and of the loop representatives
# of `enumerate_candidates`; the key digests were recorded before the
# evaluation moved to per-edge image paths, the loop digests while candidates
# still carried their components
CANDIDATE_PINS = {
    "K4": (7, "dd30340c63348f72185b8e19dc8422e0789687848fe6c005f2800f68672d11bb",
           "dd18ef75c089e55972ad22a1001a3d48e83a210ad45f113b590a4c99b2151273"),
    "K33": (15,
            "bd6f6fe3ed4cc63c4b5d614a6437d045450fc6fb5c4592523c88a79c9df338a8",
            "fe5601007a2216137aa89005c05e8d4fcc10687fefc0a54dc4e03a2fd1f9c7fc"),
    "prism5": (
        162, "e0208707deb671f1b75d6d3922146f6feec43fb5ca63f8ef1361df6b6e04ef4f",
        "5815392342bff8cf8d3f1750e88ccc36d97e888c9fd740e722dfaea24b51fb45"),
    "petersen": (
        117, "897dc82a09ba96e032498d33cf5d69fa0b87800a645f4b41537dc09d25ba4d9f",
        "53757391902de93bd85bada255d0b5d9cb1361232ae6fc66fb4e62a369720834"),
    # graphs with loop edges
    "unit_rose3": (
        9, "9667b20253da46c4723287f251f587f81e885b67f0a431d5042f5dd1bf8ceec0",
        "25b738f091a72cb34243f2433788ef8db928964844773a86f9c6db4e86d419b5"),
    "barbell": (
        4, "416c121990f2ee3745b5420f2bd1baeb04e56b4869150f32a15ed8635f65b558",
        "b2170853de02cc3f619b4631510f954a92902b86f1e1498a28f29beb937680cd"),
}


@pytest.mark.parametrize("name", sorted(CANDIDATE_PINS))
def test_candidate_set_pinned(name):
    if name == "unit_rose3":
        G = unit_rose(3)
    elif name == "barbell":
        G = barbell(1, 1, 1)
    else:
        G = random_tree_marked(random.Random(0), name)
    cands = enumerate_candidates(G)

    def digest(items):
        return hashlib.sha256(repr(items).encode()).hexdigest()

    assert (len(cands), digest([candidate_key(c) for c in cands]),
            digest([c.loop for c in cands])) == \
        CANDIDATE_PINS[name]


def test_candidate_tables_leave_no_cyclic_garbage():
    """A table build makes no reference cycle: with the cycle collector
    off, dropping the tables frees everything they made."""
    build = stretch._candidates_of_type.__wrapped__
    types = [stretch._combinatorial_type(random_tree_marked(random.Random(s),
                                                            fam))
             for fam in ("K33", "prism5") for s in (0, 1)]
    gc.collect()
    gc.disable()
    try:
        for key in types:
            table = build(*key)
            assert table.loops
            del table
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generator_families_are_valid_tree_markings():
    ranks = {}
    for fam in FAMILIES:
        G = random_tree_marked(random.Random(1), fam)
        assert validate_marked_graph(G).ok
        assert all(len(G.star(v)) == 3 for v in G.vertices)
        ranks[fam] = G.rank
    assert ranks == {"K4": 3, "K33": 4, "prism5": 6, "petersen": 6}


def test_two_generators_on_one_loop_is_a_trivial_class():
    B = make_graph(2, {"a": ("v", "v", 1), "b": ("v", "v", 1)}, "v",
                   [(("a", 1),), (("a", 1),)])
    with pytest.raises(InvalidInputError, match="trivial class"):
        lambda_r(theta_left(), B)


def test_source_without_candidate_loops_is_rejected():
    tree = make_graph(0, {"a": ("u", "v", 1)}, "u", [], {"a": Word((), 0)})
    with pytest.raises(InvalidInputError, match="no candidate loop"):
        lambda_r(tree, tree)
