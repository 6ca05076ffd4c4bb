"""Fast folding paths and their diagnostics.

A folding path starts at the optimizer's certified map, on the source
rescaled so that the map is isometric on edges: every edge goes to a
reduced path of the target as long as itself.  Folding then zips, at unit
speed and at every vertex simultaneously, the groups of darts whose images
leave in one direction.  An event happens where some zipping edge is used
up, or where a group's images part at a target vertex; there the quotient
is rebuilt and the process re-anchored.  Each snapshot is the point's own
graph with its map: no vertex other than the basepoint has two darts of
different edges whose images leave in different directions (a joint), so
no snapshot subdivides a smaller graph.  All times, lengths and stretch
factors stay rational.

The literal point-pair relation defining the quotient would also identify
distant fibre points in ways that break the homotopy type; the zip semantics
used here is the reading consistent with the worked examples, the turn
definition and the volume bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .docs import log_of
from .errors import (
    BudgetExhaustedError,
    InternalInvariantError,
    InvalidInputError,
)
from .graphs import (
    Dart,
    EdgePath,
    GaugedClasses,
    MarkedMetricGraph,
    chains,
    is_cyclically_reduced,
    loop_length,
    normalize_volume,
    path_length,
    realize_word_as_loop,
    reduce_darts,
    rev,
    stars,
    subdivide,
    translation_length,
    uf_find,
    uf_union,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from .plmaps import (
    PLMap,
    PLPath,
    dart_image,
    dart_len,
    dart_point,
    germ_of_dart,
    make_plpath,
    optimize_pl_map,
    path_end,
    pl_length,
)
from .stretch import enumerate_candidates, lambda_r
from .words import identity

# a fold that has not finished after this many events stops with a budget
# error carrying the path folded so far, rather than running on
MAX_EVENTS = 1000


def _rational_constant(x, name) -> Fraction:
    """The finite rational value of the argument ``name``."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name} {x!r} is not a finite rational") \
            from None


@dataclass(frozen=True)
class FoldSetup:
    optimal_map: PLMap     # the certified map, from the rescaled source A0
    witness: EdgePath      # candidate loop never folded


@dataclass
class FoldingPath:
    target: MarkedMetricGraph
    events: list                       # event times, starting at 0
    maps: list                         # per event, the map from the snapshot
                                       # to the target, isometric on edges
    witness: EdgePath
    strategy: str

    @property
    def snapshots(self) -> list:
        """The source of each map; none after the first has a joint."""
        return [f.source for f in self.maps]

    @property
    def source_prepared(self) -> MarkedMetricGraph:
        return self.maps[0].source

    @property
    def end_time(self) -> Fraction:
        return self.events[-1]


# -- preparation -----------------------------------------------------------------------

def _quotient(G: MarkedMetricGraph, edges: dict, labels: dict, base: str,
              image: dict) -> MarkedMetricGraph:
    """The graph on ``edges`` (id -> (origin, terminus, length)) with these
    labels and basepoint, whose petals are G's carried by the dart map
    ``image`` and reduced; a dart missing from the map is dropped."""
    return MarkedMetricGraph(
        rank=G.rank,
        vertices=frozenset({base, *(v for o, t, _ in edges.values()
                                    for v in (o, t))}),
        edges=edges,
        basepoint=base,
        marking=tuple(reduce_darts(image[d] for d in petal if d in image)
                      for petal in G.marking),
        labels=labels,
    )


def _class_quotient(vc: GaugedClasses, G: MarkedMetricGraph,
                    image: dict) -> MarkedMetricGraph:
    """The quotient of G by the vertex classes of ``vc`` (whose labels it
    takes) and the dart map ``image``.  The kept edges are the forward
    images, with the lengths they have in G."""
    kept = sorted({d[0] for d in image.values()})
    edges = {}
    for e in kept:
        o, t, l = G.edges[e]
        edges[e] = (vc.find(o), vc.find(t), l)
    return _quotient(G, edges, {e: vc.labels[e] for e in kept},
                     vc.find(G.basepoint), image)


def _edge_map(G: MarkedMetricGraph, B: MarkedMetricGraph,
              edge_image: dict) -> PLMap:
    """The map from G to B with these edge images, each vertex going where
    the images of its darts start."""
    vertex_image = {o: edge_image[e].anchor for e, (o, _, _) in G.edges.items()}
    for e, (_, t, _) in G.edges.items():
        if t not in vertex_image:
            vertex_image[t] = path_end(B, edge_image[e])
    return PLMap(G, B, vertex_image, edge_image)


def _suppress_joints(f: PLMap) -> PLMap:
    """f with every joint of its source suppressed.

    A joint is not the basepoint and has two darts, of different edges,
    whose images leave in different directions.  Each of the `chains`
    through the joints becomes one edge, with the chain's name and walk
    orientation; it reads the product of the chain's labels and maps along
    its darts' images in turn.  An edge on no chain stays as it is.
    """
    G = f.source
    joints = {v for v, ds in stars(G).items()
              if v != G.basepoint and len(ds) == 2 and ds[0][0] != ds[1][0]
              and germ_of_dart(f, ds[0]) != germ_of_dart(f, ds[1])}
    if not joints:
        return f
    edges, labels, edge_image, image = {}, {}, {}, {}
    for e, chain in chains(G, joints).items():
        image[chain[0]], image[rev(chain[-1])] = (e, 1), (e, -1)
        edges[e] = (G.origin(chain[0]), G.terminus(chain[-1]),
                    path_length(G, chain))
        labels[e] = math.prod(map(G.label_of_dart, chain),
                              start=identity(G.rank))
        edge_image[e] = make_plpath(
            f.target, [s for d in chain for s in dart_image(f, d)])
    return _edge_map(_quotient(G, edges, labels, G.basepoint, image),
                     f.target, edge_image)


def _collapse(f: PLMap, dead) -> PLMap:
    """f with the source edges ``dead`` collapsed, each gauged to read the
    identity first; the images of the other edges stay."""
    G = f.source
    vc = GaugedClasses({e: (o, t) for e, (o, t, _) in G.edges.items()},
                       G.labels, G.basepoint)
    for e in sorted(dead):
        o, t, _ = G.edges[e]
        if not vc.merge(o, t, vc.read((e, 1))):
            raise InternalInvariantError(
                f"collapsed edge {e} closes an essential loop")
    G2 = _class_quotient(vc, G, {d: d for d in G.darts() if d[0] not in dead})
    return _edge_map(G2, f.target, {e: f.edge_image[e] for e in G2.edges})


def _hairs(G: MarkedMetricGraph) -> set:
    """The edges with an end of valence one."""
    valence = Counter(v for o, t, _ in G.edges.values() for v in (o, t))
    return {e for e, (o, t, _) in G.edges.items()
            if valence[o] == 1 or valence[t] == 1}


def prepare_folding_setup(A: MarkedMetricGraph, B: MarkedMetricGraph,
                          normalize_target: bool = True,
                          max_moves: int = 500) -> FoldSetup:
    """The optimal map from A to B, on A rescaled so that the map is
    isometric on edges.

    The source is normalized to volume one before optimizing; the target is
    normalized unless ``normalize_target=False`` (stretching factors scale
    away, and some worked examples fix the target scale instead).  Edges
    with a constant image are collapsed first.
    """
    An, _ = normalize_volume(A)
    Bt, _ = normalize_volume(B) if normalize_target else (B, Fraction(1))
    f = optimize_pl_map(An, Bt, max_moves=max_moves)
    witness = lambda_r(An, Bt).witness.loop

    dead = {e for e, p in f.edge_image.items() if not p.segs}
    if any(d[0] in dead for d in witness):
        raise InternalInvariantError("witness loop crosses a collapsed edge")
    f = _collapse(f, dead)

    # rescale: edge lengths become image lengths, so f is isometric on edges
    edges = {e: (o, t, pl_length(f.edge_image[e]))
             for e, (o, t, _) in f.source.edges.items()}
    f = replace(f, source=replace(f.source, edges=edges))
    if not is_cyclically_reduced(f.source, witness):
        raise InternalInvariantError("witness loop degenerated in the setup")
    return FoldSetup(f, witness)


# -- the zip engine ---------------------------------------------------------------------

def active_classes(f: PLMap, strategy: str = "simultaneous") -> dict:
    """vertex -> list of dart groups (size >= 2) whose images leave in one
    direction.

    The single-vertex strategy folds only at the smallest vertex that has
    such a group.
    """
    out: dict[str, list] = {}
    for v, star in stars(f.source).items():
        by_germ: dict[Dart, list] = {}
        for d in star:
            by_germ.setdefault(germ_of_dart(f, d), []).append(d)
        groups = [sorted(ds) for _, ds in sorted(by_germ.items())
                  if len(ds) >= 2]
        if groups:
            out[v] = groups
            if strategy == "single-vertex":
                break
    return out


def folding_turns(classes: dict) -> set:
    """The set of unordered dart pairs being identified."""
    turns = set()
    for groups in classes.values():
        for g in groups:
            for i in range(len(g)):
                for j in range(i + 1, len(g)):
                    turns.add(frozenset((g[i], g[j])))
    return turns


def _shared_length(f: PLMap, group) -> Fraction:
    """How far the images of a group's darts run together: up to the target
    vertex where they part, or to the end of the shortest."""
    B = f.target
    total = Fraction(0)
    for segs in zip(*(dart_image(f, d) for d in group)):
        d, a, _ = segs[0]
        if any(s[0] != d for s in segs):
            break
        b = min(s[2] for s in segs)
        total += b - a
        if b < dart_len(B, d):
            break
    return total


def _zip_limits(f: PLMap, classes: dict) -> dict:
    """Each zipping dart with how far it can zip: half its edge if its
    reverse also zips, else the whole edge, and never past the target
    vertex where its group's images part."""
    G = f.source
    active = {d for groups in classes.values() for g in groups for d in g}
    limits = {}
    for groups in classes.values():
        for g in groups:
            shared = _shared_length(f, g)
            for d in g:
                l = G.length(d[0])
                limits[d] = min(shared, l / 2 if rev(d) in active else l)
    return limits


def next_event_delta(f: PLMap, classes: dict) -> Fraction:
    """Time until some edge of a zipping group is completely consumed, or
    some group's images part."""
    best = min(_zip_limits(f, classes).values(), default=None)
    if best is None or best <= 0:
        raise InvalidInputError("no active fold to advance")
    return best


def _split(B: MarkedMetricGraph, p: PLPath, cuts) -> list[PLPath]:
    """The pieces of p cut at the increasing arc lengths ``cuts``, each
    strictly inside p."""
    pieces, piece = [], []
    cuts = iter(cuts)
    c = next(cuts, None)
    x = Fraction(0)  # arc length of p at the start of the current segment
    for (d, a, b) in p.segs:
        while c is not None and c <= x + b - a:
            y = a + c - x
            if y > a:
                piece.append((d, a, y))
            pieces.append(piece)
            piece, a, x, c = [], y, c, next(cuts, None)
        if b > a:
            piece.append((d, a, b))
        x += b - a
    pieces.append(piece)
    return [PLPath(tuple(s), dart_point(B, s[0][0], s[0][1]))
            for s in pieces]


def fold_step(f: PLMap, classes: dict, delta: Fraction) -> PLMap:
    """Advance every active zip by ``delta`` and rebuild the quotient, with
    its hairs collapsed and its joints suppressed.

    Identified darts are gauged to read one word, so labels are carried;
    the returned map is isometric on edges, as f is.
    """
    delta = _rational_constant(delta, "fold step")
    if delta <= 0:
        raise InvalidInputError(f"fold step {delta} is not positive")
    G, B = f.source, f.target
    cuts: dict[str, set] = {}
    for (e, s), limit in _zip_limits(f, classes).items():
        if delta > limit:
            raise InvalidInputError("step passes the next event")
        l = G.length(e)
        cut = delta if s > 0 else l - delta
        if 0 < cut < l:
            cuts.setdefault(e, set()).add(cut)
    G1, exp = subdivide(G, {e: sorted(c) for e, c in cuts.items()})
    edge_image = {}
    for e, p in f.edge_image.items():
        pieces = _split(B, p, sorted(cuts.get(e, ())))
        for (piece, _), q in zip(exp[(e, 1)], pieces, strict=True):
            edge_image[piece] = q
    f1 = _edge_map(G1, B, edge_image)

    # union-find over darts; gauged classes over vertices
    dparent: dict[Dart, Dart] = {}
    vc = GaugedClasses({e: (o, t) for e, (o, t, _) in G1.edges.items()},
                       G1.labels, G1.basepoint)
    for v, groups in classes.items():
        for g in groups:
            firsts = [exp[d][0] for d in g]
            lead = firsts[0]
            for other in firsts[1:]:
                if uf_find(dparent, other) == uf_find(dparent, rev(lead)):
                    raise InternalInvariantError(
                        "fold identifies an edge with its own reverse"
                    )
                if uf_find(dparent, other) == uf_find(dparent, lead):
                    continue
                uf_union(dparent, lead, other)
                uf_union(dparent, rev(lead), rev(other))
                vc.merge(G1.terminus(lead), G1.terminus(other),
                         vc.read(lead).inverse() * vc.read(other))

    rep_of: dict[Dart, Dart] = {}
    for e in G1.edges:
        r = uf_find(dparent, (e, 1))
        rep_of[(e, 1)] = r
        rep_of[(e, -1)] = rev(r)
    G2 = _class_quotient(vc, G1, rep_of)
    # length, image and label consistency of merged darts
    for e in G1.edges:
        r = rep_of[(e, 1)]
        if r == (e, 1):
            continue
        if G1.length(e) != G1.length(r[0]):
            raise InternalInvariantError("folded edges have unequal lengths")
        if dart_image(f1, r) != dart_image(f1, (e, 1)):
            raise InternalInvariantError("merged darts disagree on their image")
        if vc.read(r) != vc.read((e, 1)):
            raise InternalInvariantError("merged darts read different words")
    # a vertex whose darts all folded together leaves a hair; collapsing it
    # slides the vertex along its one gate, inside the simplex
    f2 = _edge_map(G2, B, {e: edge_image[e] for e in G2.edges})
    while hairs := _hairs(f2.source):
        f2 = _collapse(f2, hairs)
    f3 = _suppress_joints(f2)
    if issues := validate_marked_graph(f3.source):
        raise InternalInvariantError(
            f"fold produced an invalid marked graph: {issues[0]}")
    return f3


def fast_fold(setup: FoldSetup, strategy: str = "simultaneous") -> FoldingPath:
    """Run the zips to completion; the result is the event-indexed folding
    path from the prepared source onto the target.  A fold still running
    after `MAX_EVENTS` events raises `BudgetExhaustedError` whose partial is
    the path up to its last event."""
    if strategy not in ("simultaneous", "single-vertex"):
        raise InvalidInputError(f"unknown folding strategy {strategy!r}")
    f = setup.optimal_map
    B = f.target
    # the witness is never folded: its word keeps one translation length
    w = word_of_loop(f.source, setup.witness)
    witness_len = translation_length(f.source, w)
    t = Fraction(0)
    maps = [f]
    events = [t]
    while True:
        classes = active_classes(f, strategy)
        if not classes:
            break
        if len(events) > MAX_EVENTS:
            raise BudgetExhaustedError(
                f"fold event budget {MAX_EVENTS} exhausted",
                partial=FoldingPath(B, events, maps, setup.witness,
                                    strategy))
        delta = next_event_delta(f, classes)
        f = fold_step(f, classes, delta)
        if translation_length(f.source, w) != witness_len:
            raise InternalInvariantError("witness loop was folded")
        t += delta
        events.append(t)
        maps.append(f)

    # the end of the path must be the target up to subdivision: the images
    # of the surviving edges partition every target edge exactly
    cover: dict[str, list] = {e: [] for e in B.edges}
    for p in f.edge_image.values():
        for (bd, a, b) in p.segs:
            L = dart_len(B, bd)
            cover[bd[0]].append((a, b) if bd[1] > 0 else (L - b, L - a))
    for e, ivs in sorted(cover.items()):
        ivs.sort()
        pos = Fraction(0)
        for (a, b) in ivs:
            if a != pos:
                raise InternalInvariantError("final map is not an isometry")
            pos = b
        if pos != B.length(e):
            raise InternalInvariantError("final map is not an isometry")

    end = f.source
    if lambda_r(end, B).value * lambda_r(B, end).value != 1:
        raise InternalInvariantError(
            "final snapshot is not isometric to the target as a marked graph"
        )
    return FoldingPath(
        target=B,
        events=events,
        maps=maps,
        witness=setup.witness,
        strategy=strategy,
    )


@dataclass(frozen=True)
class FoldPoint:
    """A folding path at one time: its map to the target and the turns
    being folded there (right-continuous; none at the end)."""
    time: Fraction
    map: PLMap
    turns: frozenset

    @property
    def graph(self) -> MarkedMetricGraph:
        return self.map.source


def point_at(path: FoldingPath, t: Fraction) -> FoldPoint:
    """The fold point at time t: an event's snapshot, or the partial fold
    from the last event before t, built once for every reader of that
    time."""
    t = _rational_constant(t, "time")
    if not (0 <= t <= path.end_time):
        raise InvalidInputError(f"time {t} outside [0, {path.end_time}]")
    i = bisect_right(path.events, t) - 1
    f = path.maps[i]
    if t == path.end_time:
        return FoldPoint(t, f, frozenset())
    classes = active_classes(f, path.strategy)
    if t > path.events[i]:
        f = fold_step(f, classes, t - path.events[i])
        classes = active_classes(f, path.strategy)
    return FoldPoint(t, f, frozenset(folding_turns(classes)))


def multiplicity(point: FoldPoint, loop: EdgePath) -> int:
    """Unoriented count of passages of a cyclically reduced loop of the
    point's graph through the turns being folded there."""
    if not is_cyclically_reduced(point.graph, loop):
        raise InvalidInputError("multiplicity needs a cyclically reduced loop")
    count = 0
    n = len(loop)
    for i in range(n):
        d_in = loop[i]
        d_out = loop[(i + 1) % n]
        if frozenset((rev(d_in), d_out)) in point.turns:
            count += 1
    return count


@dataclass(frozen=True)
class SpeedReport:
    local_speed: Fraction
    local_mu: int
    local_witness: EdgePath
    toward_speed: Fraction
    toward_mu: int
    ratio: Fraction


def speeds(path: FoldingPath, point: FoldPoint) -> SpeedReport:
    """Local speed 2 mu/l of the folding path at a point and the speed
    toward the target, with the loops realizing them."""
    if point.time >= path.end_time:
        raise InvalidInputError("the path has no folding turn at its end")
    G = point.graph
    best = None
    for cand in enumerate_candidates(G):
        mu = multiplicity(point, cand.loop)
        if mu == 0:
            continue
        l = loop_length(G, cand.loop)
        if best is None or Fraction(2 * mu) / l > best[0]:
            best = (Fraction(2 * mu) / l, mu, cand.loop)
    if best is None:
        raise InternalInvariantError("no candidate passes a folding turn")

    lamL = lambda_r(path.target, G)
    gamma_b = lamL.witness.loop
    w = word_of_loop(path.target, gamma_b)
    realized = realize_word_as_loop(G, w)
    mu_b = multiplicity(point, realized)
    # folding one vertex at a time may leave the witness unfolded for a while
    if mu_b < 1 and path.strategy != "single-vertex":
        raise InternalInvariantError(
            "the maximal stretch witness avoids every folding turn"
        )
    toward = Fraction(2 * mu_b) / loop_length(G, realized)
    return SpeedReport(
        local_speed=best[0], local_mu=best[1], local_witness=best[2],
        toward_speed=toward, toward_mu=mu_b, ratio=toward / best[0],
    )


# -- diagnostics ------------------------------------------------------------------------

def systole_and_thin_test(G: MarkedMetricGraph, eps: Fraction):
    """Shortest embedded circle relative to the volume, and whether the graph
    lies in the eps-thin part."""
    eps = _rational_constant(eps, "thin-part threshold")
    vol = volume(G)
    best = None
    for cand in enumerate_candidates(G):
        if cand.shape.value != "O":
            continue
        l = loop_length(G, cand.loop) / vol
        if best is None or l < best[0]:
            best = (l, cand.loop)
    if best is None:
        raise InvalidInputError("graph has no embedded circle")
    systole, loop = best
    return systole, loop, systole < eps


def pairwise(points, dist):
    """D(i, j) = dist(points[i], points[j]), computed when first asked and
    at most once per index pair."""
    memo = {}

    def D(i, j):
        if (i, j) not in memo:
            memo[(i, j)] = dist(points[i], points[j])
        return memo[(i, j)]

    return D


def check_four_point(points, dist):
    """Verify d(p_i, p_l) >= d(p_j, p_k) for all i <= j < k <= l.

    A point's distance to itself is the least value of a metric, so the
    pairs j == k cannot fail and are not compared.  Returns (flag, first
    violation or None); the distance callback must return comparable values
    and is called at most once per index pair.
    """
    n = len(points)
    if n < 4:
        raise InvalidInputError("need at least four sample points")
    D = pairwise(points, dist)
    for i in range(n):
        for l in range(i + 3, n):
            outer = D(i, l)
            for j in range(i, l + 1):
                for k in range(j + 1, l + 1):
                    inner = D(j, k)
                    if inner > outer:
                        return False, (i, j, k, l, inner, outer)
    return True, None


def _power_le(x, y, log_x, log_y, lam, lam_f) -> bool:
    """Exactly whether x ** q <= y ** p for lam = p/q, given the `log_of`
    values of the positive rationals x and y and the float lam_f of lam.

    Let b(z) = 1 + the bit lengths of z's numerator and denominator, so
    |ln z| < b(z).  `log_of(z)` rounds z (or its numerator and denominator)
    to floats and takes libm logs, each off by an ulp or so of a value below
    b(z), so it is within 2^-50 b(z) of ln z; rounding lam, the product and
    the difference add less than 2^-51 (b(x) + lam b(y)).  The float gap is
    thus within 2^-49 (b(x) + lam b(y)) of the true one, far inside
    ``bound``.  Only a gap inside the bound is decided by exact powers,
    whose size grows with q.
    """
    def b(z):
        return 1 + z.numerator.bit_length() + z.denominator.bit_length()

    gap = log_x - lam_f * log_y  # (q ln x - p ln y) / q
    bound = (b(x) + lam_f * b(y)) * 2.0 ** -38
    if gap > bound:
        return False
    if gap < -bound:
        return True
    return x ** lam.denominator <= y ** lam.numerator


def check_quasi_geodesic(points, dist, lam, K):
    """Check the two-sided quasi-geodesic inequality on a sampled path.

    ``dist`` is a multiplicative distance (a stretching factor >= 1) between
    points, taken in their order; the parameter in the inequality is the
    multiplicative arc length M (the product of consecutive distances).
    Each pair must satisfy M^(1/lam) <= K d and d <= K M^lam, the
    multiplicative form of a (lam, log K) quasi-geodesic; both rational
    constants are >= 1 and every verdict is exact (`_power_le`).  Returns
    (flag, (worst log margin, index pair)).
    """
    n = len(points)
    if n < 2:
        raise InvalidInputError("need at least two samples")
    lam = _rational_constant(lam, "quasi-geodesic constant")
    K = _rational_constant(K, "multiplicative constant K")
    if lam < 1:
        raise InvalidInputError("quasi-geodesic constant must be >= 1")
    try:
        lam_f = float(lam)
    except OverflowError:
        raise InvalidInputError(
            "quasi-geodesic constant is beyond the float range") from None
    if K < 1:
        raise InvalidInputError("multiplicative constant K must be >= 1")
    D = pairwise(points, dist)
    worst = None
    ok = True
    for i in range(n):
        M = Fraction(1)  # multiplicative arc length between i and j
        for j in range(i + 1, n):
            M *= D(j - 1, j)
            d = D(i, j)
            log_m, log_d = log_of(M), log_of(d)
            kd, d_k = K * d, d / K
            lower_ok = _power_le(M, kd, log_m, log_of(kd), lam, lam_f)
            upper_ok = _power_le(d_k, M, log_of(d_k), log_m, lam, lam_f)
            margin = log_d - log_m / lam_f
            if worst is None or margin < worst[0]:
                worst = (margin, (i, j))
            if not (lower_ok and upper_ok):
                ok = False
    return ok, worst


def check_dR_geodesic(points):
    """Exact right-factor triangle equality on every ordered triple.

    Volumes cancel, so raw stretching factors multiply exactly along a
    geodesic.  Returns (flag, first failure or None), a failure being
    ``(i, j, k, product, direct)``; `lambda_r` is called at most once per
    index pair, and not past the first failure.
    """
    graphs = list(points)
    n = len(graphs)
    if n < 3:
        raise InvalidInputError("need at least three points")
    D = pairwise(graphs, lambda_r)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                prod, direct = D(i, j).value * D(j, k).value, D(i, k).value
                if prod != direct:
                    return False, (i, j, k, prod, direct)
    return True, None
