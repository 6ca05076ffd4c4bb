import hashlib
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

import outerspace.folding as folding
from conftest import assert_outcome, k4_fold_pair, twisted_barbell
from outerspace.errors import BudgetExhaustedError, InvalidInputError
from outerspace.fixtures import (
    aut_exp,
    aut_power,
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
from outerspace.folding import (
    active_classes,
    check_dR_geodesic,
    check_four_point,
    check_quasi_geodesic,
    fast_fold,
    germ_of_dart,
    multiplicity,
    point_at,
    prepare_folding_setup,
    speeds,
    systole_and_thin_test,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    derive_inverse_marking,
    interpolate_in_simplex,
    loop_length,
    make_graph,
    normalize_volume,
    realize_word_as_loop,
    stars,
    translation_length,
    unsubdivided_lengths,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from outerspace.plmaps import (
    PLMap,
    dart_point,
    make_plpath,
    optimize_pl_map,
    pl_length,
    stretch_analysis,
    validate_pl_map,
)
from outerspace.stretch import lambda_r, stretch_report


def fold_pair(A, B, normalize_target=True, strategy="simultaneous"):
    setup = prepare_folding_setup(A, B, normalize_target=normalize_target)
    return fast_fold(setup, strategy=strategy)


def image_point(G, B, sigma, d, x):
    """Image of the point at dart coordinate x on d."""
    bd, off = germ_of_dart(G, B, sigma, d)
    return dart_point(B, bd, off + x)


def setup_as_plmap(source, target, sigma):
    """The PL map of a fold point: each edge isometrically onto its germ."""
    vertex_image = {v: image_point(source, target, sigma, star[0], F(0))
                    for v, star in stars(source).items()}
    edge_image = {}
    for e in sorted(source.edges):
        bd, off = sigma[e]
        edge_image[e] = make_plpath(
            target, [(bd, off, off + source.length(e))])
    return PLMap(source, target, vertex_image, edge_image)


# -- preparation ------------------------------------------------------------------------

def test_prepare_identity_pair_is_trivial():
    G = theta_left()
    path = fold_pair(G, G)
    assert path.events == [0]
    assert len(path.snapshots) == 1


def test_prepare_poly_twist_shapes():
    k = 3
    A, B = poly_twist_pair(k)
    setup = prepare_folding_setup(A, B, normalize_target=False)
    A0 = setup.source
    # one petal of length 1 and one chain of total length k+1
    assert volume(A0) == k + 2
    assert volume(setup.target) == 2
    lengths = sorted(A0.length(e) for e in A0.edges)
    assert lengths == [1] * (k + 2)
    assert lambda_r(A0, setup.target).value == 1


def test_setup_folds_onto_the_target_as_given():
    """The setup keeps the target unsubdivided (normalized unless asked not
    to), and every source edge maps into one target edge from its recorded
    offset; the K4 pairs send vertices into target edges."""
    pairs = [(theta_left(), theta_right(), True),
             (*poly_twist_pair(3), False)]
    for seed in (31, 1001):
        rng = random.Random(seed)
        A = random_tree_marked(rng, "K4")
        B = apply_automorphism_to_marking(
            random_tree_marked(rng, "K4"),
            random_nielsen_automorphism(rng, A.rank, 2))
        pairs.append((A, B, True))
    offsets = []
    for A, B, normalize in pairs:
        setup = prepare_folding_setup(A, B, normalize_target=normalize)
        assert setup.target == (normalize_volume(B)[0] if normalize else B)
        for e, (bd, off) in setup.sigma.items():
            assert 0 <= off
            assert off + setup.source.length(e) <= setup.target.length(bd[0])
            offsets.append(off)
    assert any(off > 0 for off in offsets)


def test_prepare_stretches_by_one():
    rng = random.Random(5)
    for _ in range(5):
        A, B = random_same_simplex_pair(rng)
        setup = prepare_folding_setup(A, B)
        assert lambda_r(setup.source, setup.target).value == 1
        f = setup.optimal_map
        assert validate_pl_map(f) == []


# -- the polynomial-growth folding path ----------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 5])
def test_poly_fold_events_and_snapshots(k):
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    assert path.events == list(range(k + 1))
    # after stage i the canonical shape has loops of lengths 1 and k+1-i
    for i in range(k + 1):
        lengths = sorted(unsubdivided_lengths(path.snapshots[i]))
        assert lengths == sorted([1, k + 1 - i]) or (
            i == k and lengths == [1, 1]
        )
    assert sorted(unsubdivided_lengths(path.snapshots[-1])) == [1, 1]


@pytest.mark.parametrize("k", [3])
def test_poly_fold_intermediate_graph(k):
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    i, delta = 1, F(1, 2)
    point = point_at(path, i + delta)
    G = point.graph
    assert validate_marked_graph(G).ok
    lengths = sorted(unsubdivided_lengths(G))
    assert lengths == sorted([1 - delta, k + 1 - i - delta, delta])
    assert validate_pl_map(setup_as_plmap(G, path.target, point.sigma)) == []


# SHA-256 of the shape table below, less the K4 single-vertex rows, as the
# fold before straight-vertex suppression read it (suppressing every
# bivalent vertex, one merge at a time), at the event times and mid-event
# points of the suppressed paths
FOLD_SHAPES_SHA256 = \
    "f183767857f37216553ddd0350a75c10d6cbe66602c8edb6bac0ba1f1d3ee87a"
# SHA-256 of the K4 single-vertex rows as this (suppressing) fold reads
# them.  That strategy folds at the least vertex name with a group, and the
# subdivided fold, naming vertices after the pieces it cut, took another
# path on this pair, so the digest above cannot cover it
K4_SINGLE_VERTEX_SHA256 = \
    "f68352c289a7ab6ae0d609c48974fffa457f68ff2441d231a302069dbf0d075c"


def test_unsubdivided_lengths_pin_fold_shapes():
    """The golden fold pairs (theta, twist3, K4 seed 31) and poly-twist
    k = 2, 5, under both strategies: the shape (sorted lengths) of every
    event snapshot and of the partial fold halfway to the next event."""
    pairs = [("theta", theta_left(), theta_right(), True),
             ("twist3", *poly_twist_pair(3), True),
             ("k4", *k4_fold_pair(), True),
             ("poly2", *poly_twist_pair(2), False),
             ("poly5", *poly_twist_pair(5), False)]
    lines, k4_single = [], []
    for name, A, B, normalize in pairs:
        setup = prepare_folding_setup(A, B, normalize_target=normalize)
        for strategy in ("simultaneous", "single-vertex"):
            path = fast_fold(setup, strategy=strategy)
            ev = path.events
            rows = lines
            if (name, strategy) == ("k4", "single-vertex"):
                assert check_dR_geodesic(path.snapshots)[0]
                rows = k4_single
            times = sorted(set(ev) | {(a + b) / 2 for a, b in zip(ev, ev[1:])})
            for t in times:
                lengths = sorted(unsubdivided_lengths(point_at(path, t).graph))
                rows.append(f"{name} {strategy} {t} "
                            + " ".join(map(str, lengths)))
    assert (len(lines), len(k4_single)) == (71, 15)
    for rows, digest in ((lines, FOLD_SHAPES_SHA256),
                         (k4_single, K4_SINGLE_VERTEX_SHA256)):
        text = "\n".join(rows) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("k", [2, 3, 5])
def test_poly_fold_speed_ratio_formula(k):
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    for i in range(k):
        for delta in (F(0), F(1, 4), F(1, 2), F(3, 4)):
            rep = speeds(path, point_at(path, i + delta))
            assert rep.local_speed == F(2, k + 2 - i - 2 * delta)
            assert rep.toward_speed == F(2, 2 * k + 1 - 2 * i - 2 * delta)
            assert rep.ratio == F(k + 2 - i - 2 * delta,
                                  2 * k + 1 - 2 * i - 2 * delta)
            assert rep.ratio >= F(1, 2)


def test_poly_fold_multiplicities():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    point = point_at(path, F(3, 2))
    rep = speeds(path, point)
    assert rep.local_mu == 1 and rep.toward_mu == 1
    assert multiplicity(point, rep.local_witness) == 1


def test_multiplicity_rejects_an_unknown_dart():
    path = fold_pair(*poly_twist_pair(2), normalize_target=False)
    with pytest.raises(InvalidInputError,
                       match=r"unknown oriented edge \('Z', 1\)"):
        multiplicity(point_at(path, 0), (("Z", 1),))


def test_fold_event_budget_keeps_the_partial_path(monkeypatch):
    """Past `MAX_EVENTS` events the fold stops with a budget error whose
    partial path is a prefix of the whole path."""
    setup = prepare_folding_setup(*k4_fold_pair())
    whole = fast_fold(setup)
    assert len(whole.events) == 8
    monkeypatch.setattr(folding, "MAX_EVENTS", 3)
    with pytest.raises(BudgetExhaustedError,
                       match="fold event budget 3 exhausted") as info:
        fast_fold(setup)
    assert info.value.exit_code == 4
    part = info.value.partial
    assert len(part.events) == 4
    assert part.events == whole.events[:4]
    assert part.snapshots == whole.snapshots[:4]
    assert part.sigmas == whole.sigmas[:4]
    assert (part.target, part.witness, part.strategy) == \
        (whole.target, whole.witness, whole.strategy)


def test_witness_never_folded_and_length_constant():
    k = 3
    A, B = poly_twist_pair(k)
    setup = prepare_folding_setup(A, B, normalize_target=False)
    path = fast_fold(setup)
    w = word_of_loop(path.source_prepared, path.witness)
    base = translation_length(path.source_prepared, w)
    for i, g in enumerate(path.snapshots):
        assert translation_length(g, w) == base
        if path.events[i] < path.end_time:
            # the witness, realized in the snapshot, passes no folding turn
            loop = realize_word_as_loop(g, w)
            assert multiplicity(point_at(path, path.events[i]), loop) == 0


def test_mu_monotone_along_path():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    rng = random.Random(11)
    for _ in range(10):
        w = random_word(rng, 2, 6)
        if not realize_word_as_loop(path.snapshots[0], w):
            continue
        values = []
        for t, g in zip(path.events, path.snapshots):
            if t >= path.end_time:
                values.append(0)
                break
            values.append(multiplicity(point_at(path, t),
                                       realize_word_as_loop(g, w)))
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_volume_drop_dominates_elapsed_time():
    k = 5
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    for i in range(len(path.events) - 1):
        dv = volume(path.snapshots[i]) - volume(path.snapshots[i + 1])
        dt = path.events[i + 1] - path.events[i]
        assert dv >= dt


def test_dR_triangle_equality_along_path():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    lam_total = lambda_r(path.snapshots[0], path.target).value \
        * volume(path.snapshots[0]) / volume(path.target)
    for g in path.snapshots[1:-1]:
        lam1 = lambda_r(path.snapshots[0], g).value \
            * volume(path.snapshots[0]) / volume(g)
        lam2 = lambda_r(g, path.target).value * volume(g) / volume(path.target)
        assert lam1 * lam2 == lam_total
    assert check_dR_geodesic(path.snapshots)[0]


def test_final_snapshot_is_the_target():
    k = 2
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    final = path.snapshots[-1]
    rep = stretch_report(final, path.target)
    assert rep.Lambda == 1


def test_single_vertex_strategy_agrees_at_endpoints():
    k = 2
    A, B = poly_twist_pair(k)
    p1 = fold_pair(A, B, normalize_target=False)
    p2 = fold_pair(A, B, normalize_target=False, strategy="single-vertex")
    assert stretch_report(p1.snapshots[-1], p2.snapshots[-1]).Lambda == 1
    assert check_dR_geodesic(p2.snapshots)[0]


def random_fold_pair(seed):
    rng = random.Random(seed)
    A = random_graph(rng)
    B, _ = random_same_simplex_pair(rng)
    return A, apply_automorphism_to_marking(
        B, random_nielsen_automorphism(rng, 2, moves=2))


@pytest.mark.parametrize("pair", ["twist3", "random16"])
def test_single_vertex_strategy_folds_one_vertex_per_event(pair):
    # the twist folds at one vertex per event anyway; the random pair has
    # events with two active vertices, where the restriction acts
    A, B = poly_twist_pair(3) if pair == "twist3" else random_fold_pair(16)
    path = fold_pair(A, B, normalize_target=False, strategy="single-vertex")
    most = 0
    for t, G, sigma in zip(path.events, path.snapshots, path.sigmas):
        every = active_classes(G, path.target, sigma)
        one = active_classes(G, path.target, sigma, "single-vertex")
        most = max(most, len(every))
        if t == path.end_time:
            assert every == one == {}
            continue
        v = min(every)
        assert one == {v: every[v]}
        turns = point_at(path, t).turns
        assert turns
        assert all(G.origin(d) == v for turn in turns for d in turn)
    assert most == (1 if pair == "twist3" else 2)


def test_fold_random_pairs_geodesic_properties():
    rng = random.Random(23)
    done = 0
    while done < 6:
        A = random_graph(rng)
        phi = random_nielsen_automorphism(rng, 2, moves=2)
        B, _ = random_same_simplex_pair(rng)
        B = apply_automorphism_to_marking(B, phi)
        path = fold_pair(A, B)
        done += 1
        if len(path.snapshots) >= 3:
            assert check_dR_geodesic(path.snapshots)[0]
        w = word_of_loop(path.source_prepared, path.witness)
        base = translation_length(path.source_prepared, w)
        for g in path.snapshots:
            assert translation_length(g, w) == base
        for i in range(len(path.events) - 1):
            dv = volume(path.snapshots[i]) - volume(path.snapshots[i + 1])
            assert dv >= path.events[i + 1] - path.events[i]


def test_rank3_and_rank4_pairs_certify_and_fold():
    """Seeded K4 (rank 3) and K3,3 (rank 4) pairs, each target twisted by a
    2-move Nielsen automorphism: the optimizer certifies at its default
    budget and the fold runs to the target."""
    pairs = [("K4", seed) for seed in range(1001, 1007)]
    pairs += [("K33", seed) for seed in range(2001, 2004)]
    start = time.perf_counter()
    for family, seed in pairs:
        rng = random.Random(seed)
        A = random_tree_marked(rng, family)
        B = apply_automorphism_to_marking(
            random_tree_marked(rng, family),
            random_nielsen_automorphism(rng, A.rank, 2))
        setup = prepare_folding_setup(A, B)
        # the setup's map, read with the volume-one source lengths (collapsed
        # edges, stretched by 0, are gone), has the certified stretch
        An, _ = normalize_volume(A)
        f = setup.optimal_map
        assert validate_pl_map(f) == []
        assert max(pl_length(p) / An.length(e)
                   for e, p in f.edge_image.items()) \
            == lambda_r(An, normalize_volume(B)[0]).value
        # fast_fold raises unless its last snapshot is the target
        path = fast_fold(setup)
        if len(path.snapshots) >= 3:
            assert check_dR_geodesic(path.snapshots)[0]
    assert time.perf_counter() - start < 3


def straight_vertices(path, k):
    """The vertices of snapshot k, other than the basepoint, with two darts
    of different edges whose images leave one interior point of a target
    edge in opposite directions."""
    G, sigma, B = path.snapshots[k], path.sigmas[k], path.target
    out = []
    for v, ds in stars(G).items():
        if v == G.basepoint or len(ds) != 2 or ds[0][0] == ds[1][0]:
            continue
        (kind, *_), = {image_point(G, B, sigma, d, F(0)) for d in ds}
        if kind == "e" and len({germ_of_dart(G, B, sigma, d)[0]
                                for d in ds}) == 2:
            out.append(v)
    return out


def sweep_pair(family, seed):
    """The robustness sweep's pair: a tree-marked `family` graph, and
    another whose marking is twisted by a Nielsen automorphism of 1 to 4
    moves, all drawn from ``Random(10_000 + seed)``."""
    rng = random.Random(10_000 + seed)
    A = random_tree_marked(rng, family)
    moves = rng.randint(1, 4)
    B = apply_automorphism_to_marking(
        random_tree_marked(rng, family),
        random_nielsen_automorphism(rng, A.rank, moves))
    return A, B


@pytest.mark.parametrize("seed", [11, 64, 74, 95])
def test_k33_sweep_pairs_fold_without_straight_vertices(seed):
    """K3,3 pairs of the robustness sweep whose subdivided folds ran past
    the event budget (seeds 11, 64 and 74) or the recursion limit (95):
    each folds, and no snapshot after the prepared source keeps a straight
    vertex."""
    path = fast_fold(prepare_folding_setup(*sweep_pair("K33", seed)))
    assert path.end_time > 0
    for k in range(1, len(path.snapshots)):
        assert straight_vertices(path, k) == []


@pytest.mark.parametrize("family,seed", [("K4", 34), ("K4", 42),
                                         ("K33", 17)])
def test_sweep_pairs_whose_fold_leaves_a_hair(family, seed):
    """Sweep pairs with a one-gate vertex, the basepoint for K4 seed 34:
    its darts fold together and leave an edge with a valence-one end.  The
    fold collapses it, every snapshot is a consistently marked graph, and
    the path is a d_R geodesic."""
    setup = prepare_folding_setup(*sweep_pair(family, seed))
    G, B, sigma = setup.source, setup.target, setup.sigma
    gates = {v: {germ_of_dart(G, B, sigma, d) for d in ds}
             for v, ds in stars(G).items()}
    one_gate = [v for v, germs in gates.items() if len(germs) == 1]
    assert len(one_gate) == 1
    assert (one_gate[0] == G.basepoint) == (seed == 34)
    path = fast_fold(setup)
    for H in path.snapshots:
        assert validate_marked_graph(H).ok, validate_marked_graph(H).issues
    assert check_dR_geodesic(path.snapshots)[0]


def test_sweep_pairs_where_coordinate_descent_stalled_certify():
    """Sweep pairs on which the optimizer's moves crept toward a point above
    the optimum (K3,3 seed 97 exhausted the move budget; K3,3 seed 60 and
    the prism seeds ran for seconds): each certifies at the default
    budget, and K3,3 seed 97 folds along a d_R geodesic."""
    start = time.perf_counter()
    for family, seed in [("K33", 60), ("K33", 97), ("prism5", 8),
                         ("prism5", 12), ("prism5", 15)]:
        A, B = (normalize_volume(G)[0] for G in sweep_pair(family, seed))
        f = optimize_pl_map(A, B)
        assert validate_pl_map(f) == []
        assert stretch_analysis(f).stretch == lambda_r(A, B).value
    path = fast_fold(prepare_folding_setup(*sweep_pair("K33", 97)))
    assert check_dR_geodesic(path.snapshots)[0]
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("pair", ["theta", "twist3", "barbell"])
def test_folding_carries_labels_without_deriving(pair, monkeypatch):
    if pair == "theta":
        A, B = theta_left(), theta_right()
    elif pair == "twist3":
        A, B = poly_twist_pair(3)
    else:
        G = twisted_barbell()
        A, B = G.with_labels(derive_inverse_marking(G)), unit_rose(2)

    def no_derivation(G):
        raise AssertionError("folding re-derived inverse labels")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "outerspace" and \
                hasattr(module, "derive_inverse_marking"):
            monkeypatch.setattr(module, "derive_inverse_marking", no_derivation)
    setup = prepare_folding_setup(A, B)
    path = fast_fold(setup)
    for G in path.snapshots:
        assert validate_marked_graph(G).ok, validate_marked_graph(G).issues
    ends = path.events
    for t in ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]:
        G = point_at(path, t).graph
        assert validate_marked_graph(G).ok, validate_marked_graph(G).issues
    assert check_dR_geodesic(path.snapshots)[0]
    if pair == "barbell":
        # the bridge c has constant image and is collapsed in the setup
        assert "c" not in setup.optimal_map.edge_image
        assert len(path.events) - 1 == 8


# -- systole ----------------------------------------------------------------------------

def test_systole_rose():
    G = rose([F(1, 2), F(1, 2)])
    s, loop, thin = systole_and_thin_test(G, F(1, 4))
    assert s == F(1, 2)
    assert not thin


def test_systole_shrinking_sequence():
    values = []
    for k in range(1, 11):
        G = shrinking_petal_rose(3, k)
        s, _, thin = systole_and_thin_test(G, F(1, 5))
        values.append(s)
        assert s == F(1, 2 * k + 1)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert systole_and_thin_test(shrinking_petal_rose(3, 10), F(1, 5))[2]


def test_systole_attained_by_embedded_circle():
    rng = random.Random(31)
    from outerspace.stretch import enumerate_candidates

    for _ in range(10):
        G = random_graph(rng)
        s, _, _ = systole_and_thin_test(G, F(1))
        vol = volume(G)
        best = min(
            loop_length(G, c.loop) / vol for c in enumerate_candidates(G)
        )
        assert s == best


# -- checkers ---------------------------------------------------------------------------

def counting(dist):
    """dist wrapped to record the arguments of every call, and the record."""
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return dist(x, y)

    return counted, calls


def test_four_point_on_sqrt_metric():
    pts = [F(i, 10) for i in range(11)]
    dist, calls = counting(lambda s, t: math.sqrt(abs(t - s)))
    assert check_four_point(pts, dist) == (True, None)
    # one call per index pair j < k; a point's distance to itself is never
    # asked for
    assert len(calls) == len(set(calls)) == 11 * 10 // 2
    assert all(x != y for x, y in calls)


def test_four_point_fails_on_doubling_back():
    A = theta_left()
    B = theta_right()
    M = rose([F(1, 2), F(1, 2)])
    pts = [A, B, M, A]
    ok, violation = check_four_point(
        pts, lambda x, y: stretch_report(x, y).Lambda
    )
    assert not ok
    assert violation is not None


def test_four_point_on_fold_events():
    A, B = poly_twist_pair(3)
    path = fold_pair(A, B, normalize_target=False)
    ok, _ = check_four_point(
        path.snapshots, lambda x, y: stretch_report(x, y).Lambda
    )
    assert ok


def test_four_point_stops_at_the_first_violation():
    X, M, Y = theta_left(), rose_t(F(1, 2)), theta_right()
    dist, calls = counting(lambda x, y: stretch_report(x, y).Lambda)
    ok, violation = check_four_point([X, M, Y, M, X], dist)
    assert (ok, violation) == (False, (0, 0, 2, 3, 4, F(5, 2)))
    assert calls == [(X, M), (X, M), (X, Y)]


@pytest.mark.parametrize("n, lam, eps", [(3, F(1, 2), 0), (3, 10 ** 400, 0),
                                         (3, 2, math.nan), (3, 2, math.inf),
                                         (3, 2, -0.1), (1, 2, 0)],
                         ids=["constant-below-one", "constant-beyond-float",
                              "eps-nan", "eps-infinite", "eps-negative",
                              "one-point"])
def test_quasi_geodesic_rejects_before_any_distance(n, lam, eps):
    def no_distance(x, y):
        raise AssertionError("a distance was computed")

    with pytest.raises(InvalidInputError):
        check_quasi_geodesic(range(n), no_distance, lam, eps)


def test_quasi_geodesic_fold_piece():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    ok, _ = check_quasi_geodesic(
        path.snapshots, lambda x, y: stretch_report(x, y).Lambda, F(2), 0)
    assert ok


def test_quasi_geodesic_rejects_bad_constant():
    A, B = poly_twist_pair(3)
    path = fold_pair(A, B, normalize_target=False)
    ok, _ = check_quasi_geodesic(
        path.snapshots, lambda x, y: stretch_report(x, y).Lambda, F(1), 0)
    assert not ok  # the fold piece is not a d-geodesic


def test_quasi_geodesic_exact_verdict_is_the_power_comparison():
    """Distances that are powers of 2 and 3 make M ** q == d ** p happen,
    where the float screen cannot decide; every verdict equals the one read
    from exact powers."""
    rng = random.Random(17)
    values = [F(1), F(2), F(4), F(8), F(3, 2), F(9, 4), F(1, 2)]
    lams = [F(1), F(2), F(3), F(3, 2), F(4, 3), F(1001, 1000)]
    verdicts = set()
    for _ in range(300):
        n = rng.randint(2, 5)
        D = {(i, j): rng.choice(values)
             for i in range(n) for j in range(i + 1, n)}
        lam = rng.choice(lams)
        p, q = lam.numerator, lam.denominator
        expected = True
        for i in range(n):
            M = F(1)
            for j in range(i + 1, n):
                M *= D[(j - 1, j)]
                d = D[(i, j)]
                expected &= M ** q <= d ** p and d ** q <= M ** p
        ok, _ = check_quasi_geodesic(range(n), lambda i, j: D[(i, j)], lam, 0)
        assert ok == expected
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_dR_geodesic_on_simplex_segment():
    A = barbell(1, 1, 1)
    B = barbell(2, F(1, 2), 1)
    pts = [interpolate_in_simplex(A, B, t) for t in (F(0), F(1, 4), F(1, 2), F(1))]
    ok, failures = check_dR_geodesic(pts)
    assert ok, failures


def test_dR_geodesic_fails_at_wrong_crossing():
    X = theta_left()
    Y = theta_right()
    T = rose([F(1, 2), F(1, 2)])  # alpha = 1/2 instead of 5/8
    ok, failures = check_dR_geodesic([X, T, Y])
    assert not ok


def test_dR_geodesic_with_correct_crossing():
    from outerspace.fixtures import rose_t

    X = theta_left()
    Y = theta_right()
    ok, failures = check_dR_geodesic([X, rose_t(F(5, 8)), Y])
    assert ok, failures


# -- remaining invariants -----------------------------------------------------------------

def test_local_speed_finite_differences():
    """d(A_t, A_t+h)/h approaches the local speed monotonically as h
    shrinks."""
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    t = F(1, 2)
    target = float(speeds(path, point_at(path, t)).local_speed)
    errors = []
    for h in (F(1, 8), F(1, 16), F(1, 32)):
        G1 = point_at(path, t).graph
        G2 = point_at(path, t + h).graph
        d = math.log(float(stretch_report(G1, G2).Lambda))
        errors.append(abs(d / float(h) - target))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-2


def test_thick_path_speed_ratio_bound():
    """On a path staying in the eps-thick part the speed ratio is bounded
    below by eps/(2M), with M the computed maximal turn multiplicity of a
    simple candidate loop along the path."""
    from outerspace.stretch import CandidateShape, enumerate_candidates

    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    M = 0
    min_systole = None
    sample_times = [t for t in path.events[:-1]] + \
        [path.events[i] + F(1, 3) for i in range(len(path.events) - 1)]
    for t in sample_times:
        point = point_at(path, t)
        G = point.graph
        for cand in enumerate_candidates(G):
            if cand.shape == CandidateShape.DUMBBELL:
                continue
            M = max(M, multiplicity(point, cand.loop))
        s, _, _ = systole_and_thin_test(G, F(1, 100))
        min_systole = s if min_systole is None else min(min_systole, s)
    assert M >= 1
    eps = min_systole  # the path stays eps-thick for this eps
    bound = eps / (2 * M)
    for t in sample_times:
        assert speeds(path, point_at(path, t)).ratio >= bound


def test_train_track_rose_stretch_close_to_perron_frobenius():
    """On a near train-track rose every iterate stretches by roughly the
    Perron-Frobenius eigenvalue of the transition matrix."""
    from outerspace.fixtures import aut_exp

    # petal ratio approximating the golden ratio by a Fibonacci quotient
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    R = rose([F(fib[15], fib[14]), F(1)])
    phi = aut_exp()
    lam_pf = (1 + math.sqrt(5)) / 2
    lam1 = lambda_r(R, apply_automorphism_to_marking(R, phi)).value
    assert abs(float(lam1) - lam_pf) < 1e-4
    lam2 = lambda_r(
        R, apply_automorphism_to_marking(R, aut_power(phi, 2))
    ).value
    assert abs(float(lam2) - lam_pf ** 2) < 1e-3


def poly_fold():
    """The fold of `poly_twist_pair(2)`, events at 0, 1 and 2; its first
    snapshot has a loop edge a at v."""
    return fold_pair(*poly_twist_pair(2), normalize_target=False)


@pytest.mark.parametrize("call, expect", [
    (lambda: fast_fold(prepare_folding_setup(theta_left(), theta_left()),
                       "greedy"),
     InvalidInputError("unknown folding strategy 'greedy'")),
    (lambda: point_at(poly_fold(), 3),
     InvalidInputError("time 3 outside [0, 2]")),
    (lambda: multiplicity(point_at(poly_fold(), 0), (("a", 1), ("a", -1))),
     InvalidInputError("multiplicity needs a cyclically reduced loop")),
    (lambda: speeds(poly_fold(), point_at(poly_fold(), 2)),
     InvalidInputError("the path has no folding turn at its end")),
    (lambda: systole_and_thin_test(
        make_graph(0, {"e": ("u", "v", 1)}, "u", []), F(1, 2)),
     InvalidInputError("graph has no embedded circle")),
    (lambda: check_four_point([theta_left()] * 3, lambda_r),
     InvalidInputError("need at least four sample points")),
    (lambda: check_dR_geodesic([theta_left()] * 2),
     InvalidInputError("need at least three points")),
], ids=["strategy", "past-the-end", "unreduced-loop", "speeds-at-end",
        "tree-systole", "four-point-3", "dR-geodesic-2"])
def test_input_checks(call, expect):
    assert_outcome(call, expect)
