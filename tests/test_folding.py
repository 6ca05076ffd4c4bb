import hashlib
import math
import random
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

import outerspace.folding as folding
from conftest import (
    assert_outcome,
    fold_times,
    k4_fold_pair,
    pinned_fold_pairs,
    sweep_pair,
    twisted_barbell,
)
from outerspace.docs import (
    canonical_text,
    format_dart,
    format_fraction,
    graph_to_doc,
)
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
    check_fold_geodesic,
    check_four_point,
    check_quasi_geodesic,
    fast_fold,
    fold_step,
    germ_of_dart,
    multiplicity,
    next_event_delta,
    point_at,
    prepare_folding_setup,
    speeds,
    systole_and_thin_test,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    interpolate_in_simplex,
    loop_length,
    make_graph,
    normalize_volume,
    realize_word_as_loop,
    rev,
    stars,
    subdivide,
    translation_length,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from outerspace.plmaps import (
    optimize_pl_map,
    stretch_analysis,
    validate_pl_map,
)
from outerspace.stretch import lambda_r, stretch_report
from outerspace.words import identity


def fold_pair(A, B, normalize_target=True, strategy="simultaneous"):
    setup = prepare_folding_setup(A, B, normalize_target=normalize_target)
    return fast_fold(setup, strategy=strategy)


def assert_fold_point(f):
    """The map of a fold point is a valid PL map, isometric on edges, from
    a graph whose only bivalent vertex with darts of two edges can be the
    basepoint."""
    G = f.source
    assert validate_pl_map(f) == []
    assert all(f.edge_image[e].length == G.length(e) for e in G.edges)
    assert [v for v, ds in stars(G).items() if v != G.basepoint
            and len(ds) == 2 and ds[0][0] != ds[1][0]] == []


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
    A0 = setup.optimal_map.source
    # one petal of length 1 and one of length k+1
    assert volume(A0) == k + 2
    assert volume(setup.optimal_map.target) == 2
    lengths = sorted(A0.length(e) for e in A0.edges)
    assert lengths == [1, k + 1]
    assert lambda_r(A0, setup.optimal_map.target).value == 1


def test_setup_folds_onto_the_target_as_given():
    """The setup keeps the target as given (normalized unless asked not
    to), and its map sends every source edge to a path as long as the edge;
    the K4 pairs send vertices into target edges."""
    pairs = [(theta_left(), theta_right(), True),
             (*poly_twist_pair(3), False)]
    for seed in (31, 1001):
        rng = random.Random(seed)
        A = random_tree_marked(rng, "K4")
        B = apply_automorphism_to_marking(
            random_tree_marked(rng, "K4"),
            random_nielsen_automorphism(rng, A.rank, 2))
        pairs.append((A, B, True))
    inside = []
    for A, B, normalize in pairs:
        setup = prepare_folding_setup(A, B, normalize_target=normalize)
        f = setup.optimal_map
        assert f.target == (normalize_volume(B)[0] if normalize else B)
        assert validate_pl_map(f) == []
        assert all(f.edge_image[e].length == f.source.length(e)
                   for e in f.source.edges)
        inside += [pt[0] == "e" for pt in f.vertex_image.values()]
    assert any(inside)


def test_prepare_rejects_a_source_with_a_missing_petal():
    R = unit_rose(2)
    A = replace(R, marking=R.marking[:1])
    assert_outcome(lambda: prepare_folding_setup(A, R),
                   InvalidInputError("1 marking paths for rank 2"))


def test_prepare_stretches_by_one():
    rng = random.Random(5)
    for _ in range(5):
        A, B = random_same_simplex_pair(rng)
        setup = prepare_folding_setup(A, B)
        f = setup.optimal_map
        assert lambda_r(f.source, f.target).value == 1
        assert validate_pl_map(f) == []


# -- the polynomial-growth folding path ----------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 5])
def test_poly_fold_events_and_snapshots(k):
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    assert path.events == list(range(k + 1))
    # after stage i the canonical shape has loops of lengths 1 and k+1-i
    for i in range(k + 1):
        G = path.snapshots[i]
        assert sorted(G.length(e) for e in G.edges) == sorted([1, k + 1 - i])


@pytest.mark.parametrize("k", [3])
def test_poly_fold_intermediate_graph(k):
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    i, delta = 1, F(1, 2)
    point = point_at(path, i + delta)
    G = point.graph
    assert validate_marked_graph(G) == []
    lengths = sorted(G.length(e) for e in G.edges)
    assert lengths == sorted([1 - delta, k + 1 - i - delta, delta])
    assert_fold_point(point.map)


# SHA-256 of the shape table below, less the K4 single-vertex rows, as the
# fold before straight-vertex suppression read it (suppressing every
# bivalent vertex, one merge at a time), at the event times and mid-event
# points of the suppressed paths.  The fold on the map reads the same
# table off its own snapshots: none of these has a bivalent basepoint
FOLD_SHAPES_SHA256 = \
    "f183767857f37216553ddd0350a75c10d6cbe66602c8edb6bac0ba1f1d3ee87a"
# SHA-256 of the K4 single-vertex rows as the fold that suppressed joints
# read them; the fold that moves vertices reads the same rows.  That
# strategy folds at the least vertex name with a group, and the subdivided
# fold, naming vertices after the pieces it cut, took another path on this
# pair, so the digest above cannot cover it
K4_SINGLE_VERTEX_SHA256 = \
    "f68352c289a7ab6ae0d609c48974fffa457f68ff2441d231a302069dbf0d075c"


def test_edge_lengths_pin_fold_shapes():
    """The golden fold pairs (theta, twist3, K4 seed 31) and poly-twist
    k = 2, 5, under both strategies: the shape (sorted edge lengths) of
    every event snapshot and of the partial fold halfway to the next
    event."""
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
            rows = lines
            if (name, strategy) == ("k4", "single-vertex"):
                assert check_dR_geodesic(path.snapshots)[0]
                rows = k4_single
            for t in fold_times(path):
                G = point_at(path, t).graph
                lengths = sorted(G.length(e) for e in G.edges)
                rows.append(f"{name} {strategy} {t} "
                            + " ".join(map(str, lengths)))
    assert (len(lines), len(k4_single)) == (71, 15)
    for rows, digest in ((lines, FOLD_SHAPES_SHA256),
                         (k4_single, K4_SINGLE_VERTEX_SHA256)):
        text = "\n".join(rows) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 of every snapshot's canonical document and sorted edge images in
# the test below, as the fold that moves vertices on the map writes them:
# the ids it makes are `x`, `x.k` for edges and `f`, `f.k` for vertices
FOLD_SNAPSHOTS_SHA256 = \
    "87c05b0ef08ca60c284e57c483264f22e4366e971eabd30ed773900bba071ae4"


def test_fold_snapshots_pin_documents_and_maps():
    """The golden fold pairs (theta, twist3, K4 seed 31) and poly-twist
    k = 5, under both strategies: each snapshot's document, ids, edge
    orientations and labels included, and its edge images, byte for
    byte."""
    pairs = [("theta", theta_left(), theta_right(), True),
             ("twist3", *poly_twist_pair(3), True),
             ("k4", *k4_fold_pair(), True),
             ("poly5", *poly_twist_pair(5), False)]
    digest = hashlib.sha256()
    count = 0
    for name, A, B, normalize in pairs:
        setup = prepare_folding_setup(A, B, normalize_target=normalize)
        for strategy in ("simultaneous", "single-vertex"):
            path = fast_fold(setup, strategy=strategy)
            for f in path.maps:
                images = " ".join(
                    f"{e}:{segments_text(p.segs)}"
                    for e, p in sorted(f.edge_image.items()))
                digest.update(f"{name} {strategy}\n".encode())
                digest.update(canonical_text(graph_to_doc(f.source)).encode())
                digest.update(f"{images}\n".encode())
                count += 1
    assert count == 42
    assert digest.hexdigest() == FOLD_SNAPSHOTS_SHA256


def segments_text(segs):
    """A PL path's segments, on the target's dart names."""
    return " ".join(f"{format_dart(d)}:{format_fraction(a)}-"
                    f"{format_fraction(b)}" for d, a, b in segs)


def image_text(f, p):
    """An edge image of f, in the lesser of its two orientations."""
    L = {e: l for e, (_, _, l) in f.target.edges.items()}
    back = [(rev(d), L[d[0]] - b, L[d[0]] - a) for d, a, b in reversed(p.segs)]
    return min(segments_text(p.segs), segments_text(back))


# The event times and mid-event times of the subdivided fold (the engine
# before the fold on the optimizer's map), per pair and strategy
SUBDIVIDED_FOLD_TIMES = {
    ("theta", "simultaneous"): "0 1/4 1/2 2/3 5/6",
    ("theta", "single-vertex"): "0 1/4 1/2 2/3 5/6",
    ("twist3", "simultaneous"): "0 1/4 1/2 3/4 1 5/4 3/2",
    ("twist3", "single-vertex"): "0 1/4 1/2 3/4 1 5/4 3/2",
    ("k4", "simultaneous"):
        "0 2131/58156 2131/29078 5445/58156 1657/14539 1894/14539 "
        "2131/14539 2596/14539 3061/14539 6375/29078 3314/14539 "
        "4447/14539 180/469 7237/14539 8894/14539",
    ("k4", "single-vertex"):
        "0 2131/29078 2131/14539 5445/29078 3314/14539 3788/14539 "
        "4262/14539 4727/14539 5192/14539 6325/14539 7458/14539 "
        "7982/14539 8506/14539 11296/14539 14086/14539",
    ("k4-54", "simultaneous"):
        "0 7/418 7/209 15/418 8/209 23/418 15/209 91/1254 46/627 151/1254 "
        "35/209 215/1254 10/57",
    ("k4-54", "single-vertex"):
        "0 4/209 8/209 35/627 46/627 101/627 52/209 139/418 87/209 181/418 "
        "94/209 98/209 102/209",
}
# SHA-256 of the sorted edge images (`image_text`) at those times, as the
# subdivided fold read them with its joints contracted: a joint is a vertex
# other than the basepoint with two darts of different edges whose images
# leave in different directions
SUBDIVIDED_FOLD_IMAGES_SHA256 = \
    "de7e4511f5c122ee45285e984ec72c22ef7dd27dc4c5ba0245f4efbd07e05a61"


def test_fold_on_the_map_takes_the_subdivided_fold_path():
    """Theta, twist3, K4 seed 31 and the K4 sweep pair seed 54, under both
    strategies: at every event and mid-event time of the subdivided fold,
    the point has the same edge images; every fold point of the new path
    is a map that `assert_fold_point` accepts.  The sweep pair gains an
    event at 14/209, where an edge is used up at one end while a fold
    lengthens it at the other."""
    digest = hashlib.sha256()
    for name, (A, B) in pinned_fold_pairs().items():
        setup = prepare_folding_setup(A, B)
        for strategy in ("simultaneous", "single-vertex"):
            path = fast_fold(setup, strategy)
            old = SUBDIVIDED_FOLD_TIMES[name, strategy].split()
            for t in old:
                f = point_at(path, F(t)).map
                rows = sorted(image_text(f, p) for p in f.edge_image.values())
                digest.update(f"{name} {strategy} {t}\n".encode())
                digest.update(("\n".join(rows) + "\n").encode())
            for t in fold_times(path):
                assert_fold_point(point_at(path, t).map)
            gained = {str(t) for t in path.events} - set(old)
            assert gained == ({"14/209"} if (name, strategy) ==
                              ("k4-54", "simultaneous") else set())
    assert digest.hexdigest() == SUBDIVIDED_FOLD_IMAGES_SHA256


def test_mid_event_turns_are_the_event_turns():
    """A partial fold keeps every dart's id, so at each mid-event time of
    the pinned pairs the turns being folded are those of the event before,
    under both strategies."""
    for A, B in pinned_fold_pairs().values():
        setup = prepare_folding_setup(A, B)
        for strategy in ("simultaneous", "single-vertex"):
            path = fast_fold(setup, strategy)
            ev = path.events
            for a, b in zip(ev, ev[1:]):
                assert point_at(path, (a + b) / 2).turns == \
                    point_at(path, a).turns


FOLD_ID = re.compile(r"[xf](\.[1-9][0-9]*)?")


@pytest.mark.parametrize("pair", ["poly5", "K33-74"])
def test_fold_ids_stay_short(pair):
    """Every vertex and edge of every snapshot and mid-event map, under
    both strategies, keeps an id of the prepared source or has one the
    fold made: `x` or `x.k` for an edge, `f` or `f.k` for a vertex."""
    if pair == "poly5":
        setup = prepare_folding_setup(*poly_twist_pair(5),
                                      normalize_target=False)
    else:
        setup = prepare_folding_setup(*sweep_pair("K33", 74))
    A0 = setup.optimal_map.source
    for strategy in ("simultaneous", "single-vertex"):
        path = fast_fold(setup, strategy)
        for t in fold_times(path):
            G = point_at(path, t).graph
            for ids, old in ((G.edges, A0.edges), (G.vertices, A0.vertices)):
                assert all(i in old or FOLD_ID.fullmatch(i) for i in ids)


def test_fold_step_keeps_every_image_it_does_not_edit():
    """On the K4 sweep pair seed 54, under both strategies, each step
    returns the stored `PLPath` of every edge with no zipped end and no
    end at a vertex that moves, and a new path for every other edge it
    keeps; every image on every map of the fold carries its segments'
    sum as its length."""
    setup = prepare_folding_setup(*sweep_pair("K4", 54))
    kept = rebuilt = 0
    for strategy in ("simultaneous", "single-vertex"):
        path = fast_fold(setup, strategy)
        for f in path.maps[:-1]:
            classes = active_classes(f, strategy)
            g = fold_step(f, classes, next_event_delta(f, classes))
            zipped = {d for gs in classes.values() for grp in gs for d in grp}
            moved = {v for v in classes
                     if g.vertex_image.get(v) != f.vertex_image[v]}
            for e in g.edge_image.keys() & f.edge_image.keys():
                edited = any(d in zipped or f.source.origin(d) in moved
                             for d in ((e, 1), (e, -1)))
                assert (g.edge_image[e] is f.edge_image[e]) != edited, e
                kept += not edited
                rebuilt += edited
        for t in fold_times(path):
            for p in point_at(path, t).map.edge_image.values():
                assert p.length == sum(b - a for _, a, b in p.segs)
    assert (kept, rebuilt) == (27, 44)


# The fold keeps the joints of its source, and the simultaneous event at
# 1/2 comes from one of them: a fold that suppressed the source's joints
# had the events 0, 3/16, 5/16, 31/48, and a mend of the source joints
# (ROADMAP item 2) is to change this pin
BIVALENT_SOURCE_EVENTS = {"simultaneous": "0 3/16 5/16 1/2 31/48",
                          "single-vertex": "0 1/2 31/48 11/16"}


def test_bivalent_source_optimizes_and_folds(monkeypatch):
    """theta_left subdivided at A 1/12 and C 1/4, onto theta_right: an
    optimizer move slides a bivalent vertex, the map certifies, and under
    both strategies the snapshots satisfy the dR triangle equality and the
    event times are pinned."""
    import outerspace.plmaps as plmaps

    A, _ = subdivide(theta_left(), {"A": [F(1, 12)], "C": [F(1, 4)]})
    B = theta_right()
    step, moved = plmaps._next_v, []

    def recording(f, v, ana, star):
        moved.append(len(star[v]))
        return step(f, v, ana, star)

    monkeypatch.setattr(plmaps, "_next_v", recording)
    f = optimize_pl_map(A, B)
    assert 2 in moved
    assert stretch_analysis(f).stretch == lambda_r(A, B).value
    assert validate_pl_map(f) == []
    monkeypatch.undo()
    setup = prepare_folding_setup(A, B)
    for strategy, events in BIVALENT_SOURCE_EVENTS.items():
        path = fast_fold(setup, strategy)
        assert check_dR_geodesic(path.snapshots)[0], strategy
        assert " ".join(map(str, path.events)) == events


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
    assert part.maps == whole.maps[:4]
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
    for t, f in zip(path.events, path.maps):
        G = f.source
        every = active_classes(f)
        one = active_classes(f, "single-vertex")
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


def rank3_and_rank4_pairs():
    """Seeded K4 (rank 3) and K3,3 (rank 4) pairs, each target twisted by a
    2-move Nielsen automorphism."""
    for family, seeds in (("K4", range(1001, 1007)),
                          ("K33", range(2001, 2004))):
        for seed in seeds:
            rng = random.Random(seed)
            A = random_tree_marked(rng, family)
            yield A, apply_automorphism_to_marking(
                random_tree_marked(rng, family),
                random_nielsen_automorphism(rng, A.rank, 2))


def test_rank3_and_rank4_pairs_certify_and_fold():
    """On `rank3_and_rank4_pairs` the optimizer certifies at its default
    budget and the fold runs to the target."""
    start = time.perf_counter()
    for A, B in rank3_and_rank4_pairs():
        setup = prepare_folding_setup(A, B)
        # the setup's map, read with the volume-one source lengths (collapsed
        # edges, stretched by 0, are gone), has the certified stretch
        An, _ = normalize_volume(A)
        f = setup.optimal_map
        assert validate_pl_map(f) == []
        assert max(p.length / An.length(e)
                   for e, p in f.edge_image.items()) \
            == lambda_r(An, normalize_volume(B)[0]).value
        # fast_fold raises unless its last snapshot is the target
        path = fast_fold(setup)
        if len(path.snapshots) >= 3:
            assert check_dR_geodesic(path.snapshots)[0]
    assert time.perf_counter() - start < 3


def test_fold_certifies_its_own_geodesicity():
    """`check_fold_geodesic` agrees with `check_dR_geodesic` on the
    snapshots and the target of `rank3_and_rank4_pairs` under both
    strategies, and on K4 seed 31 it fails where one snapshot's edge
    length changes and where a snapshot is swapped for a point off the
    path, a single-vertex snapshot, as `check_dR_geodesic` does."""
    for A, B in rank3_and_rank4_pairs():
        setup = prepare_folding_setup(A, B)
        for strategy in ("simultaneous", "single-vertex"):
            path = fast_fold(setup, strategy)
            assert check_fold_geodesic(path) == (True, None)
            points = [*path.snapshots, path.target]
            assert len(points) < 3 or check_dR_geodesic(points)[0]
    setup = prepare_folding_setup(*k4_fold_pair())
    path = fast_fold(setup)
    f = path.maps[3]
    e = min(f.source.edges)
    o, t, l = f.source.edges[e]
    longer = replace(f, source=replace(
        f.source, edges={**f.source.edges, e: (o, t, l + F(1, 1000))}))
    off = fast_fold(setup, "single-vertex").maps[3]
    for mutant, failure in ((longer, ("edge", 3, e, l + F(1, 1000), l)),
                            (off, ("stretch", 2, F(7034, 5377)))):
        maps = [*path.maps[:3], mutant, *path.maps[4:]]
        mutated = replace(path, maps=maps)
        assert check_fold_geodesic(mutated) == (False, failure)
        assert not check_dR_geodesic([*mutated.snapshots, path.target])[0]


def assert_written_in_fractions(path):
    """Every event time, snapshot edge length, vertex-image offset and
    image coordinate of the path is a `Fraction`, not an int equal to
    one; consecutive maps share the `PLPath` of every image that the step
    left equal.  Returns the number of images so shared."""
    def point_ok(x):
        return x[0] == "v" or type(x[2]) is F

    assert all(type(t) is F for t in path.events)
    for f in path.maps:
        assert all(type(l) is F for _, _, l in f.source.edges.values())
        assert all(point_ok(x) for x in f.vertex_image.values())
        for p in f.edge_image.values():
            assert point_ok(p.anchor)
            assert all(type(a) is F and type(b) is F for _, a, b in p.segs)
    shared = 0
    for f, g in zip(path.maps, path.maps[1:]):
        for e in f.edge_image.keys() & g.edge_image.keys():
            if g.edge_image[e] == f.edge_image[e]:
                assert g.edge_image[e] is f.edge_image[e], e
                shared += 1
    return shared


def setup_denominator(setup):
    """The least common denominator of the setup map's lengths and
    coordinates, and of its target's lengths."""
    f = setup.optimal_map
    return math.lcm(*(x.denominator for x in (
        *(l for G in (f.source, f.target) for _, _, l in G.edges.values()),
        *(x for p in f.edge_image.values() for _, a, b in p.segs
          for x in (a, b)),
        *(x[2] for x in f.vertex_image.values() if x[0] == "e"))))


def test_no_int_leaves_the_fold(monkeypatch):
    """The fold computes in integer units of 1/D, but what a caller reads
    is written in `Fraction`s (`assert_written_in_fractions`): on the
    K3,3 sweep pair seed 74, whose simultaneous fold doubles D (an event
    time has a denominator that the setup's D does not divide), and on
    the `MAX_EVENTS` partial of K4 seed 31, which doubles D at its first
    event."""
    setup = prepare_folding_setup(*sweep_pair("K33", 74))
    path = fast_fold(setup)
    assert any(setup_denominator(setup) % t.denominator for t in path.events)
    assert assert_written_in_fractions(path) == 162
    setup = prepare_folding_setup(*k4_fold_pair())
    monkeypatch.setattr(folding, "MAX_EVENTS", 3)
    with pytest.raises(BudgetExhaustedError) as info:
        fast_fold(setup)
    part = info.value.partial
    assert part.maps[0] is setup.optimal_map
    assert setup_denominator(setup) % part.events[1].denominator != 0
    assert_written_in_fractions(part)


# the simultaneous event times of K4 seed 31, as the fold in `Fraction`s
# computed them; the first step is an odd number of half-units of the
# setup's denominator 14539
K4_EVENTS = ("0 2131/29078 1657/14539 2131/14539 3061/14539 3314/14539 "
             "180/469 8894/14539")


def test_fold_doubles_its_unit_at_an_odd_half(monkeypatch):
    """On K4 seed 31 every step of the fold is an int number of units,
    and the unit halves once, at the first step, an odd number of
    half-units: the target's integer lengths double there and nowhere
    else.  The event times are those of the fold in `Fraction`s."""
    step, steps = folding.fold_step, []

    def recording(f, classes, delta):
        steps.append((delta, f.target))
        return step(f, classes, delta)

    monkeypatch.setattr(folding, "fold_step", recording)
    setup = prepare_folding_setup(*k4_fold_pair())
    assert setup_denominator(setup) == 14539
    path = fast_fold(setup)
    assert " ".join(map(str, path.events)) == K4_EVENTS
    assert all(type(delta) is int for delta, _ in steps)
    e = min(path.target.edges)
    lengths = {B.length(e) for _, B in steps}
    assert lengths == {2 * 14539 * path.target.length(e)}
    assert all(type(x) is int for x in lengths)


@pytest.mark.parametrize("seed", [11, 64, 74, 95])
def test_k33_sweep_pairs_fold_without_straight_vertices(seed):
    """K3,3 pairs of the robustness sweep whose subdivided folds ran past
    the event budget (seeds 11, 64 and 74) or the recursion limit (95):
    each folds, and every fold point is a valid map, isometric on edges,
    that keeps no bivalent vertex other than the basepoint."""
    path = fast_fold(prepare_folding_setup(*sweep_pair("K33", seed)))
    assert path.end_time > 0
    for t in fold_times(path):
        assert_fold_point(point_at(path, t).map)


@pytest.mark.parametrize("family,seed", [("K4", 34), ("K4", 42),
                                         ("K33", 17)])
def test_sweep_pairs_whose_fold_leaves_a_hair(family, seed):
    """Sweep pairs with a one-gate vertex, the basepoint for K4 seed 34:
    its darts fold together, so the vertex moves along its gate rather than
    leave an edge with a valence-one end.  Every snapshot is a consistently
    marked graph, and the path is a d_R geodesic."""
    setup = prepare_folding_setup(*sweep_pair(family, seed))
    G = setup.optimal_map.source
    gates = {v: {germ_of_dart(setup.optimal_map, d) for d in ds}
             for v, ds in stars(G).items()}
    one_gate = [v for v, germs in gates.items() if len(germs) == 1]
    assert len(one_gate) == 1
    assert (one_gate[0] == G.basepoint) == (seed == 34)
    path = fast_fold(setup)
    for H in path.snapshots:
        assert validate_marked_graph(H) == []
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
        A, B = twisted_barbell(), unit_rose(2)

    def no_derivation(G):
        raise AssertionError("folding re-derived inverse labels")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "outerspace" and \
                hasattr(module, "derive_inverse_marking"):
            monkeypatch.setattr(module, "derive_inverse_marking", no_derivation)
    setup = prepare_folding_setup(A, B)
    path = fast_fold(setup)
    for G in path.snapshots:
        assert validate_marked_graph(G) == []
    ends = path.events
    for t in ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]:
        G = point_at(path, t).graph
        assert validate_marked_graph(G) == []
    assert check_dR_geodesic(path.snapshots)[0]
    if pair == "barbell":
        # the bridge c has constant image and is collapsed in the setup;
        # the subdivided fold also had events at 1/2 and 5/2, where a zip
        # only crossed a target vertex
        assert "c" not in setup.optimal_map.edge_image
        assert len(path.events) - 1 == 6


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


@pytest.mark.parametrize("n, lam, K", [(3, F(1, 2), 1), (3, 10 ** 400, 1),
                                       (3, math.nan, 1), (3, math.inf, 1),
                                       (3, 2, F(1, 2)), (3, 2, 0),
                                       (3, 2, math.nan), (3, 2, math.inf),
                                       (1, 2, 1)],
                         ids=["constant-below-one", "constant-beyond-float",
                              "constant-nan", "constant-infinite",
                              "k-below-one", "k-zero", "k-nan", "k-infinite",
                              "one-point"])
def test_quasi_geodesic_rejects_before_any_distance(n, lam, K):
    def no_distance(x, y):
        raise AssertionError("a distance was computed")

    with pytest.raises(InvalidInputError):
        check_quasi_geodesic(range(n), no_distance, lam, K)


def test_quasi_geodesic_fold_piece():
    k = 3
    A, B = poly_twist_pair(k)
    path = fold_pair(A, B, normalize_target=False)
    ok, _ = check_quasi_geodesic(
        path.snapshots, lambda x, y: stretch_report(x, y).Lambda, F(2), 1)
    assert ok


def test_quasi_geodesic_rejects_bad_constant():
    A, B = poly_twist_pair(3)
    path = fold_pair(A, B, normalize_target=False)
    ok, _ = check_quasi_geodesic(
        path.snapshots, lambda x, y: stretch_report(x, y).Lambda, F(1), 1)
    assert not ok  # the fold piece is not a d-geodesic


def test_quasi_geodesic_exact_verdict_is_the_power_comparison():
    """Distances that are powers of 2 and 3 make M ** q == (K d) ** p happen,
    where the float screen cannot decide; every verdict equals the one read
    from exact powers."""
    rng = random.Random(17)
    values = [F(1), F(2), F(4), F(8), F(3, 2), F(9, 4), F(1, 2)]
    lams = [F(1), F(2), F(3), F(3, 2), F(4, 3), F(1001, 1000)]
    Ks = [F(1), F(2), F(3, 2), F(9, 8)]
    verdicts = set()
    for _ in range(300):
        n = rng.randint(2, 5)
        D = {(i, j): rng.choice(values)
             for i in range(n) for j in range(i + 1, n)}
        lam, K = rng.choice(lams), rng.choice(Ks)
        p, q = lam.numerator, lam.denominator
        expected = True
        for i in range(n):
            M = F(1)
            for j in range(i + 1, n):
                M *= D[(j - 1, j)]
                d = D[(i, j)]
                expected &= M ** q <= (K * d) ** p and (d / K) ** q <= M ** p
        ok, _ = check_quasi_geodesic(range(n), lambda i, j: D[(i, j)], lam, K)
        assert ok == expected
        verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("K, ok", [(F(11, 10), True),
                                   (F(11, 10) - F(1, 10 ** 30), False)],
                         ids=["at-the-boundary", "just-below"])
def test_quasi_geodesic_constant_at_its_boundary(K, ok):
    """Every distance 11/10 gives M/d = 11/10 on the pair (0, 2), so K = 11/10
    passes and any smaller K fails, also where float logs cannot tell the
    two apart."""
    assert math.log(float(K)) == math.log(1.1)
    assert check_quasi_geodesic(range(3), lambda i, j: F(11, 10), 1, K)[0] \
        == ok


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


def test_dR_geodesic_stops_at_its_first_failing_triple(monkeypatch):
    calls = []
    original = folding.lambda_r

    def counting(A, B):
        calls.append((A, B))
        return original(A, B)

    monkeypatch.setattr(folding, "lambda_r", counting)
    X, M, Y, T = theta_left(), rose_t(F(1, 2)), theta_right(), rose_t(F(5, 8))
    assert check_dR_geodesic([X, M, Y, T]) == \
        (False, (0, 1, 2, F(5, 2), F(2)))
    assert calls == [(X, M), (M, Y), (X, Y)]


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


def poly_start():
    """The first map of `poly_fold` and its active classes."""
    f = poly_fold().maps[0]
    return f, active_classes(f)


def theta_start():
    """The theta setup map, from theta_left to theta_right, and its active
    classes."""
    f = prepare_folding_setup(theta_left(), theta_right()).optimal_map
    return f, active_classes(f)


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
        make_graph(0, {"e": ("u", "v", 1)}, "u", [], {"e": identity(0)}),
        F(1, 2)),
     InvalidInputError("graph has no embedded circle")),
    (lambda: check_four_point([theta_left()] * 3, lambda_r),
     InvalidInputError("need at least four sample points")),
    (lambda: check_dR_geodesic([theta_left()] * 2),
     InvalidInputError("need at least three points")),
    (lambda: point_at(poly_fold(), float("nan")),
     InvalidInputError("time nan is not a finite rational")),
    (lambda: point_at(poly_fold(), float("inf")),
     InvalidInputError("time inf is not a finite rational")),
    (lambda: point_at(poly_fold(), None),
     InvalidInputError("time None is not a finite rational")),
    (lambda: fold_step(*poly_start(), 0),
     InvalidInputError("fold step 0 is not positive")),
    (lambda: fold_step(*poly_start(), F(-1, 10)),
     InvalidInputError("fold step -1/10 is not positive")),
    (lambda: next_event_delta(poly_start()[0], {}),
     InvalidInputError("no active fold to advance")),
    (lambda: fold_step(*theta_start(), next_event_delta(*theta_start())
                       + F(1, 100)),
     InvalidInputError("step passes the next event")),
    (lambda: fold_step(theta_start()[0], {"u": [[("A", 1), ("B", 1)]]},
                       F(1, 100)),
     InvalidInputError("step passes the next event")),
    (lambda: systole_and_thin_test(theta_left(), float("nan")),
     InvalidInputError("thin-part threshold nan is not a finite rational")),
], ids=["strategy", "past-the-end", "unreduced-loop", "speeds-at-end",
        "tree-systole", "four-point-3", "dR-geodesic-2", "time-nan",
        "time-inf", "time-none", "step-zero", "step-negative", "no-classes",
        "step-past-event", "step-past-parting", "eps-nan"])
def test_input_checks(call, expect):
    assert_outcome(call, expect)
