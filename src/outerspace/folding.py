"""Fast folding paths and their diagnostics.

A folding path starts at the optimizer's certified map, on the source
rescaled so that the map is isometric on edges: every edge goes to a
reduced path of the target as long as itself.  Folding then zips, at unit
speed and at every vertex simultaneously, the groups of darts whose images
leave in one direction.  A step moves the point on its map, as a Stallings
fold: a vertex slides along a group, or a new vertex at the fold point
takes the group's darts, and an edge whose image is used up collapses;
every other vertex and edge keeps its id.  An event happens where some
zipping edge is used up, or where a group's images part at a target
vertex.  No step makes a joint, a vertex other than the basepoint with two
darts of different edges whose images leave in different directions, so a
snapshot subdivides a smaller graph only where the source does.  All
times, lengths and stretch factors stay rational.

The literal point-pair relation defining the quotient would also identify
distant fibre points in ways that break the homotopy type; the zip semantics
used here is the reading consistent with the worked examples, the turn
definition and the volume bound.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial
from itertools import combinations

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
    fresh_id,
    is_cyclically_reduced,
    loop_length,
    normalize_volume,
    realize_word_as_loop,
    reduce_darts,
    rev,
    stars,
    translation_length,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from .plmaps import (
    PLMap,
    _graph_in_units,
    _in_units,
    _map_in_units,
    dart_point,
    dart_segs,
    germ_of_dart,
    make_plpath,
    optimize_pl_map,
    reverse_segs,
    slide_ends,
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
        """The source of each map: the point's own graph, with no joint
        that the first lacks."""
        return [f.source for f in self.maps]

    @property
    def source_prepared(self) -> MarkedMetricGraph:
        return self.maps[0].source

    @property
    def end_time(self) -> Fraction:
        return self.events[-1]


# -- preparation -----------------------------------------------------------------------

def _collapse(f: PLMap, dead) -> PLMap:
    """f with the source edges ``dead`` collapsed, each gauged to read the
    identity first; the images of the other edges stay, and each merged
    vertex keeps the image of the vertex that names it."""
    G = f.source
    vc = GaugedClasses({e: (o, t) for e, (o, t, _) in G.edges.items()},
                       G.labels, G.basepoint)
    for e in sorted(dead):
        o, t, _ = G.edges[e]
        if not vc.merge(o, t, vc.read((e, 1))):
            raise InternalInvariantError(
                f"collapsed edge {e} closes an essential loop")
    edges = {e: (vc.find(o), vc.find(t), l)
             for e, (o, t, l) in sorted(G.edges.items()) if e not in dead}
    base = vc.find(G.basepoint)
    vertices = frozenset({base, *(v for o, t, _ in edges.values()
                                  for v in (o, t))})
    G2 = MarkedMetricGraph(
        rank=G.rank,
        vertices=vertices,
        edges=edges,
        basepoint=base,
        marking=tuple(reduce_darts(d for d in petal if d[0] in edges)
                      for petal in G.marking),
        labels={e: vc.labels[e] for e in edges},
    )
    return PLMap(G2, f.target, {v: f.vertex_image[v] for v in vertices},
                 {e: f.edge_image[e] for e in edges}, f.unit)


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
    edges = {e: (o, t, f.edge_image[e].length)
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
    return {frozenset(t) for groups in classes.values() for g in groups
            for t in combinations(g, 2)}


def _shared_length(f: PLMap, group) -> Fraction:
    """How far the images of a group's darts run together: up to the target
    vertex where they part, or to the end of the shortest."""
    B = f.target
    total = 0
    for segs in zip(*(dart_segs(f, d) for d in group)):
        d, a, _ = segs[0]
        if any(s[0] != d for s in segs):
            break
        b = min(s[2] for s in segs)
        total += b - a
        if b < B.length(d[0]):
            break
    return total


def next_event_delta(f: PLMap, classes: dict) -> Fraction:
    """Time until some zipping edge is used up, each end of it zipping at
    unit speed, or some group's images part.  On a map in integer units
    it is an int, or a `Fraction` for an odd number of half-units."""
    zipped = {d for groups in classes.values() for g in groups for d in g}
    L = f.source.length
    best = min([*(L(d[0]) if rev(d) in zipped else 2 * L(d[0])
                  for d in zipped),
                *(2 * _shared_length(f, g) for groups in classes.values()
                  for g in groups)], default=None)
    if best is None or best <= 0:
        raise InvalidInputError("no active fold to advance")
    if type(best) is int:
        return Fraction(best, 2) if best & 1 else best >> 1
    return best / 2


def _head(f: PLMap, d: Dart, x: Fraction) -> list:
    """The segments of d's image up to arc length x from d's origin."""
    head = []
    for (y, a, b) in dart_segs(f, d):
        if x <= b - a:
            return head + [(y, a, a + x)]
        head.append((y, a, b))
        x -= b - a
    return head


def fold_step(f: PLMap, classes: dict, delta: Fraction) -> PLMap:
    """Advance every active zip by ``delta``, on the map.

    A vertex that the fold leaves with at most two directions (at most one
    at the basepoint) slides along the common head of its first group.
    Every other group gets a new vertex at the fold point, joined to the
    old vertex by a new edge that maps onto the group's common head and
    reads the identity; the group's darts leave the new vertex, so each
    slides along its head.  `slide_ends` edits the paths at their ends,
    and edges whose image is used up are collapsed.  Every other vertex
    and edge keeps its id and image, and the returned map is isometric on
    edges, as f is.
    """
    if type(delta) is not int:  # a map in integer units steps by ints
        delta = _rational_constant(delta, "fold step")
    if delta <= 0:
        raise InvalidInputError(f"fold step {delta} is not positive")
    G, B = f.source, f.target
    zipped = {d for groups in classes.values() for g in groups for d in g}
    head = {d: _head(f, d, delta) for d in zipped}
    if any(head[d] != head[g[0]] or
           delta * (2 if rev(d) in zipped else 1) > G.length(d[0])
           for groups in classes.values() for g in groups for d in g):
        raise InvalidInputError("step passes the next event")
    star = stars(G)
    edges, labels = dict(G.edges), dict(G.labels)
    vertex_image = dict(f.vertex_image)
    moves = {}                 # moving vertex -> the head it slides along
    via: dict[Dart, str] = {}  # dart -> new edge to its new origin
    new = {}                   # new edge -> its image
    for v, groups in classes.items():
        # one direction per group and per dart in none
        if len(star[v]) - len(zipped.intersection(star[v])) + len(groups) \
                <= (1 if v == G.basepoint else 2):
            moves[v] = head[groups[0][0]]
            d, _, b = moves[v][-1]
            vertex_image[v] = dart_point(B, d, b)
            groups = groups[1:]
        for g in groups:
            x, w = fresh_id("x", edges), fresh_id("f", vertex_image)
            d, _, b = head[g[0]][-1]
            vertex_image[w] = dart_point(B, d, b)
            edges[x], labels[x] = (v, w, delta), identity(G.rank)
            new[x] = make_plpath(B, [*reverse_segs(B, moves.get(v, ())),
                                     *head[g[0]]], vertex_image[v])
            via.update(dict.fromkeys(g, x))
    rebuilt = {**slide_ends(f, {**{d: moves[v] for v in moves
                                   for d in star[v]}, **head}), **new}
    for e, p in rebuilt.items():
        o, t = (edges[via[d]][1] if d in via else edges[e][i]
                for i, d in enumerate(((e, 1), (e, -1))))
        edges[e] = (o, t, p.length)
    edge_image = {**f.edge_image, **rebuilt}

    def carried(d: Dart) -> list:
        """d in the folded graph, from its old origin to its old
        terminus: a dart that leaves a new vertex is reached over the new
        edge."""
        out = [(via[d], 1)] if d in via else []
        return out + [d] + ([(via[rev(d)], -1)] if rev(d) in via else [])

    marking = tuple(reduce_darts(x for d in petal for x in carried(d))
                    for petal in G.marking)
    f1 = PLMap(replace(G, vertices=frozenset(vertex_image), edges=edges,
                       marking=marking, labels=labels),
               B, vertex_image, edge_image, f.unit)
    dead = {e for e, p in edge_image.items() if not p.segs}
    if dead:
        f1 = _collapse(f1, dead)
    if issues := validate_marked_graph(f1.source):
        raise InternalInvariantError(
            f"fold produced an invalid marked graph: {issues[0]}")
    return f1


def fast_fold(setup: FoldSetup, strategy: str = "simultaneous") -> FoldingPath:
    """Run the zips to completion; the result is the event-indexed folding
    path from the prepared source onto the target.  A fold still running
    after `MAX_EVENTS` events raises `BudgetExhaustedError` whose partial is
    the path up to its last event.

    The fold runs in integer units of 1/D (``unit`` of its maps), D at
    first the setup's least common denominator, doubled where a step is
    an odd number of half-units.  Each event's map is written back in
    `Fraction`s, once per image."""
    if strategy not in ("simultaneous", "single-vertex"):
        raise InvalidInputError(f"unknown folding strategy {strategy!r}")
    f0 = setup.optimal_map
    B0 = f0.target
    f = _in_units(f0)
    fraction = cache(partial(Fraction, denominator=f.unit))
    # the witness is never folded: its word keeps one translation length
    w = word_of_loop(f.source, setup.witness)
    witness_len = translation_length(f.source, w)
    t = 0
    maps = [f0]
    events = [Fraction(0)]
    while True:
        classes = active_classes(f, strategy)
        if not classes:
            break
        if len(events) > MAX_EVENTS:
            raise BudgetExhaustedError(
                f"fold event budget {MAX_EVENTS} exhausted",
                partial=FoldingPath(B0, events, maps, setup.witness,
                                    strategy))
        delta = next_event_delta(f, classes)
        if type(delta) is not int:  # an odd number of half-units
            t, witness_len, delta = 2 * t, 2 * witness_len, int(2 * delta)
            f = _in_units(maps[-1], 2 * f.unit)
            fraction = cache(partial(Fraction, denominator=f.unit))
        # f is maps[-1] in units: an image the step keeps is written once
        kept = {e: (p, maps[-1].edge_image[e])
                for e, p in f.edge_image.items()}
        f = fold_step(f, classes, delta)
        if translation_length(f.source, w) != witness_len:
            raise InternalInvariantError("witness loop was folded")
        t += delta
        events.append(fraction(t))
        maps.append(_map_in_units(f, _graph_in_units(f.source, fraction), B0,
                                  fraction, kept=kept))

    # the end of the path must be the target up to subdivision: the images
    # of the surviving edges partition every target edge exactly
    B = f.target
    cover: dict[str, list] = {e: [] for e in B.edges}
    for p in f.edge_image.values():
        for (bd, a, b) in p.segs:
            L = B.length(bd[0])
            cover[bd[0]].append((a, b) if bd[1] > 0 else (L - b, L - a))
    for e, ivs in sorted(cover.items()):
        ivs.sort()
        pos = 0
        for (a, b) in ivs:
            if a != pos:
                raise InternalInvariantError("final map is not an isometry")
            pos = b
        if pos != B.length(e):
            raise InternalInvariantError("final map is not an isometry")

    end = maps[-1].source
    if lambda_r(end, B0).value * lambda_r(B0, end).value != 1:
        raise InternalInvariantError(
            "final snapshot is not isometric to the target as a marked graph"
        )
    return FoldingPath(
        target=B0,
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
    # a partial fold keeps every dart's id: its turns are the event's own
    classes = active_classes(f, path.strategy)
    if t > path.events[i]:
        f = fold_step(f, classes, t - path.events[i])
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


def check_fold_geodesic(path: FoldingPath):
    """Whether a fold path is a d_R geodesic, from its own maps and one
    `lambda_r` call per step along its points, the snapshots and then the
    target.  Returns (flag, first failure or None), a failure being
    ``("edge", i, e, length, image length)``, ``("witness", i, length,
    target length)`` or ``("stretch", i, raw λ_R from point i to i + 1)``.

    With every map isometric on edges, the witness as long as in the
    target, and each step's raw λ_R 1, every pair i < j reads 1: at most 1
    by the multiplicative triangle inequality for λ_R, at least 1 by the
    witness.  So the verdict rests on that inequality and on the candidate
    theorem, as every `lambda_r` value does.  On `fast_fold`'s paths the
    edge check also compares two separate write-backs of the integer
    fold: each edge's length and its image's segments.
    """
    B = path.target
    w = word_of_loop(path.source_prepared, path.witness)
    target_len = translation_length(B, w)
    for i, f in enumerate(path.maps):
        G = f.source
        for e in sorted(G.edges):
            if G.length(e) != f.edge_image[e].length:
                return False, ("edge", i, e, G.length(e),
                               f.edge_image[e].length)
        if (l := translation_length(G, w)) != target_len:
            return False, ("witness", i, l, target_len)
    points = [*path.snapshots, B]
    for i in range(len(points) - 1):
        if (v := lambda_r(points[i], points[i + 1]).value) != 1:
            return False, ("stretch", i, v)
    return True, None


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
