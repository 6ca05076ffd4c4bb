import math
import random
import sys
from fractions import Fraction as F

import pytest

from conftest import twisted_barbell
from outerspace.errors import InvalidInputError
from outerspace.fixtures import (
    aut_exp,
    aut_power,
    barbell,
    poly_twist_pair,
    random_graph,
    random_nielsen_automorphism,
    random_same_simplex_pair,
    random_word,
    rose,
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
    graph_at,
    multiplicity,
    prepare_folding_setup,
    sample_path,
    speeds,
    systole_and_thin_test,
    turns_at,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    canonicalize,
    derive_inverse_marking,
    interpolate_in_simplex,
    loop_length,
    scale_graph,
    translation_length,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from outerspace.plmaps import stretch_analysis, validate_pl_map
from outerspace.stretch import lambda_r, stretch_report
from outerspace.words import generator


def fold_pair(A, B, normalize_target=True, strategy="simultaneous"):
    setup = prepare_folding_setup(A, B, normalize_target=normalize_target)
    return fast_fold(setup, strategy=strategy)


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
        g = canonicalize(path.snapshots[i])
        lengths = sorted(g.length(e) for e in g.edges)
        assert lengths == sorted([1, k + 1 - i]) or (
            i == k and lengths == [1, 1]
        )
    final = canonicalize(path.snapshots[-1])
    assert sorted(final.length(e) for e in final.edges) == [1, 1]


@pytest.mark.parametrize("k", [3])
def test_poly_fold_intermediate_graph(k):
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    i, delta = 1, F(1, 2)
    G, f = sample_path(path, i + delta)
    assert validate_marked_graph(G).ok
    K = canonicalize(G)
    lengths = sorted(K.length(e) for e in K.edges)
    assert lengths == sorted([1 - delta, k + 1 - i - delta, delta])
    assert validate_pl_map(f) == []


@pytest.mark.parametrize("k", [2, 3, 5])
def test_poly_fold_speed_ratio_formula(k):
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    for i in range(k):
        for delta in (F(0), F(1, 4), F(1, 2), F(3, 4)):
            rep = speeds(path, i + delta)
            assert rep.local_speed == F(2, k + 2 - i - 2 * delta)
            assert rep.toward_speed == F(2, 2 * k + 1 - 2 * i - 2 * delta)
            assert rep.ratio == F(k + 2 - i - 2 * delta,
                                  2 * k + 1 - 2 * i - 2 * delta)
            assert rep.ratio >= F(1, 2)


def test_poly_fold_multiplicities():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    t = F(3, 2)
    rep = speeds(path, t)
    assert rep.local_mu == 1 and rep.toward_mu == 1
    # the witness loop is never folded
    G, _ = graph_at(path, t)
    assert multiplicity(path, t, rep.local_witness) == 1


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
            loop = None
            # the transported witness never passes a folding turn
            tloop = path.witness
            for tr in path.transports[:i]:
                tloop = tr(tloop, "loop")
            assert multiplicity(path, path.events[i], tloop) == 0


def test_mu_monotone_along_path():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    rng = random.Random(11)
    for _ in range(10):
        w = random_word(rng, 2, 6)
        from outerspace.graphs import realize_word_as_loop

        loop = realize_word_as_loop(path.snapshots[0], w)
        if not loop:
            continue
        values = []
        cur = loop
        for i in range(len(path.events)):
            t = path.events[i]
            if t >= path.end_time:
                values.append(0)
                break
            values.append(multiplicity(path, t, cur))
            cur = path.transports[i](cur, "loop")
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
        turns = turns_at(path, t)
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
        G, _ = sample_path(path, t)
        assert validate_marked_graph(G).ok, validate_marked_graph(G).issues
    assert check_dR_geodesic(path.snapshots)[0]
    if pair == "barbell":
        # the bridge c has constant image and is collapsed in the setup
        assert "c" not in setup.optimal_map.edge_image
        assert len(path.events) - 1 == 10


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

def test_four_point_on_sqrt_metric():
    pts = [F(i, 8) for i in range(9)]
    ok, _ = check_four_point(pts, lambda s, t: math.sqrt(abs(t - s)))
    assert ok


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


def test_quasi_geodesic_fold_piece():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    samples = [(t, g) for t, g in zip(path.events, path.snapshots)]
    ok, _ = check_quasi_geodesic(samples, F(2), 0, "d")
    assert ok


def test_quasi_geodesic_rejects_bad_constant():
    A, B = poly_twist_pair(3)
    path = fold_pair(A, B, normalize_target=False)
    samples = [(t, g) for t, g in zip(path.events, path.snapshots)]
    ok, _ = check_quasi_geodesic(samples, F(1), 0, "d")
    assert not ok  # the fold piece is not a d-geodesic


def test_dR_geodesic_on_simplex_segment():
    A = barbell(1, 1, 1)
    B = barbell(2, F(1, 2), 1)
    pts = [interpolate_in_simplex(A, B, t) for t in (F(0), F(1, 4), F(1, 2), F(1))]
    ok, failures, _ = check_dR_geodesic(pts)
    assert ok, failures


def test_dR_geodesic_fails_at_wrong_crossing():
    X = theta_left()
    Y = theta_right()
    T = rose([F(1, 2), F(1, 2)])  # alpha = 1/2 instead of 5/8
    ok, failures, _ = check_dR_geodesic([X, T, Y])
    assert not ok


def test_dR_geodesic_with_correct_crossing():
    from outerspace.fixtures import rose_t

    X = theta_left()
    Y = theta_right()
    ok, failures, _ = check_dR_geodesic([X, rose_t(F(5, 8)), Y])
    assert ok, failures


# -- remaining invariants -----------------------------------------------------------------

def test_local_speed_finite_differences():
    """d(A_t, A_t+h)/h approaches the local speed monotonically as h
    shrinks."""
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    t = F(1, 2)
    target = float(speeds(path, t).local_speed)
    errors = []
    for h in (F(1, 8), F(1, 16), F(1, 32)):
        G1, _ = sample_path(path, t)
        G2, _ = sample_path(path, t + h)
        d = math.log(float(stretch_report(G1, G2).Lambda))
        errors.append(abs(d / float(h) - target))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-2


def test_thick_path_speed_ratio_bound():
    """On a path staying in the eps-thick part the speed ratio is bounded
    below by eps/(2M), with M the computed maximal turn multiplicity of a
    simple candidate loop along the path."""
    from outerspace.folding import multiplicity_of_loop, turns_at
    from outerspace.stretch import CandidateShape, enumerate_candidates

    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    M = 0
    min_systole = None
    sample_times = [t for t in path.events[:-1]] + \
        [path.events[i] + F(1, 3) for i in range(len(path.events) - 1)]
    for t in sample_times:
        G, _ = sample_path(path, t)
        turns = turns_at(path, t)
        for cand in enumerate_candidates(G):
            if cand.shape == CandidateShape.DUMBBELL:
                continue
            M = max(M, multiplicity_of_loop(G, turns, cand.loop))
        s, _, _ = systole_and_thin_test(G, F(1, 100))
        min_systole = s if min_systole is None else min(min_systole, s)
    assert M >= 1
    eps = min_systole  # the path stays eps-thick for this eps
    bound = eps / (2 * M)
    for t in sample_times:
        assert speeds(path, t).ratio >= bound


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
