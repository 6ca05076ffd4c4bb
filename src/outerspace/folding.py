"""Fast folding paths and their diagnostics.

A prepared setup carries a rescaled, subdivided source whose map to the
target (never subdivided) sends every edge isometrically into a single target
edge, at a recorded offset; a source edge is cut only where its image crosses
a target vertex.  Folding then zips, at unit speed and at every vertex
simultaneously, the groups of darts with a common image germ; an event
happens whenever some edge of a zipping group is completely consumed, at
which point the quotient is rebuilt and the process re-anchored.  The
quotient keeps no straight vertex (one that maps inside a target edge with
its two darts continuing one another), so events are the path's own
breakpoints.  A bivalent vertex over a target vertex stays, so a snapshot
may still subdivide a graph with fewer edges (`unsubdivided_lengths` reads
that graph's lengths).  All times, lengths and stretch factors stay
rational.

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
    dart_len,
    optimize_pl_map,
    pl_length,
)
from .stretch import enumerate_candidates, lambda_r
from .words import identity

# a fold that has not finished after this many events stops with a budget
# error carrying the path folded so far, rather than running on
MAX_EVENTS = 1000

# image of a forward edge: it covers [offset, offset + length] of a target dart
Germ = tuple[Dart, Fraction]
Sigma = dict  # edge id -> Germ


def germ_of_dart(G: MarkedMetricGraph, B: MarkedMetricGraph, sigma: Sigma,
                 d: Dart) -> Germ:
    bd, off = sigma[d[0]]
    if d[1] > 0:
        return (bd, off)
    return (rev(bd), dart_len(B, bd) - off - G.length(d[0]))


@dataclass(frozen=True)
class FoldSetup:
    source: MarkedMetricGraph          # A0: rescaled and subdivided
    target: MarkedMetricGraph          # the target, normalized by default
    sigma: Sigma                       # isometric edge map into target edges
    witness: EdgePath                  # candidate loop never folded
    optimal_map: PLMap                 # the certified map the setup came from


@dataclass
class FoldingPath:
    target: MarkedMetricGraph
    events: list                       # event times, starting at 0
    snapshots: list                    # MarkedMetricGraph per event (labelled;
                                       # no straight vertex after the first)
    sigmas: list                       # edge map to the target per event
    witness: EdgePath
    strategy: str

    @property
    def source_prepared(self) -> MarkedMetricGraph:
        return self.snapshots[0]

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


def _suppress_joints(G: MarkedMetricGraph, B: MarkedMetricGraph,
                     sigma: Sigma):
    """G and its edge map with every straight vertex suppressed.

    A straight vertex (a joint) is not the basepoint and has two darts, of
    different edges, whose germs are (bd, x) and (rev bd, L - x) with
    0 < x: it maps inside the target edge.  Each of the `chains` through
    the joints becomes one edge, with the chain's name and walk
    orientation; it reads the product of the chain's labels and has its
    first dart's germ.  An edge on no chain stays as it is.
    """
    joints = set()
    for v, ds in stars(G).items():
        if v == G.basepoint or len(ds) != 2 or ds[0][0] == ds[1][0]:
            continue
        (bd, x), (bd2, y) = (germ_of_dart(G, B, sigma, d) for d in ds)
        if bd2 == rev(bd) and 0 < x and y == dart_len(B, bd) - x:
            joints.add(v)
    if not joints:
        return G, sigma
    edges, labels, sigma2, image = {}, {}, {}, {}
    for e, chain in chains(G, joints).items():
        image[chain[0]], image[rev(chain[-1])] = (e, 1), (e, -1)
        edges[e] = (G.origin(chain[0]), G.terminus(chain[-1]),
                    path_length(G, chain))
        labels[e] = math.prod(map(G.label_of_dart, chain),
                              start=identity(G.rank))
        sigma2[e] = germ_of_dart(G, B, sigma, chain[0])
    return _quotient(G, edges, labels, G.basepoint, image), sigma2


def _collapse_edges(G: MarkedMetricGraph, dead) -> tuple:
    """G with the edges ``dead`` collapsed, each gauged to read the identity
    first, and the vertex classes of the collapse."""
    vc = GaugedClasses({e: (o, t) for e, (o, t, _) in G.edges.items()},
                       G.labels, G.basepoint)
    for e in sorted(dead):
        o, t, _ = G.edges[e]
        if not vc.merge(o, t, vc.read((e, 1))):
            raise InternalInvariantError(
                f"collapsed edge {e} closes an essential loop")
    return _class_quotient(vc, G, {d: d for d in G.darts()
                                   if d[0] not in dead}), vc


def _collapse_constant_edges(f: PLMap):
    """Collapse source edges with constant image (their endpoints share the
    image); returns the smaller graph, the surviving map data, and the dart
    drop set."""
    A = f.source
    dead = {e for e, p in f.edge_image.items() if not p.segs}
    if not dead:
        return A, f, dead
    A2, vc = _collapse_edges(A, dead)
    drop = {(e, s) for e in dead for s in (1, -1)}
    vertex_image = {vc.find(v): f.vertex_image[v] for v in A.vertices}
    edge_image = {e: p for e, p in f.edge_image.items() if e not in dead}
    f2 = PLMap(A2, f.target, vertex_image, edge_image)
    return A2, f2, drop


def _hairs(G: MarkedMetricGraph) -> set:
    """The edges with an end of valence one."""
    valence = Counter(v for o, t, _ in G.edges.values() for v in (o, t))
    return {e for e, (o, t, _) in G.edges.items()
            if valence[o] == 1 or valence[t] == 1}


def prepare_folding_setup(A: MarkedMetricGraph, B: MarkedMetricGraph,
                          normalize_target: bool = True,
                          max_moves: int = 500) -> FoldSetup:
    """Rescale and subdivide the source so the optimal map sends every edge
    isometrically into one target edge.

    The source is normalized to volume one before optimizing; the target is
    normalized unless ``normalize_target=False`` (stretching factors scale
    away, and some worked examples fix the target scale instead).
    """
    An, _ = normalize_volume(A)
    Bt, _ = normalize_volume(B) if normalize_target else (B, Fraction(1))
    f = optimize_pl_map(An, Bt, max_moves=max_moves)
    lam = lambda_r(An, Bt)
    witness_loop = lam.witness.loop

    A1, f, dropped = _collapse_constant_edges(f)
    if any(d in dropped for d in witness_loop):
        raise InternalInvariantError("witness loop crosses a collapsed edge")

    # rescale: edge lengths become image lengths, so f is isometric on edges
    edges = {e: (o, t, pl_length(f.edge_image[e]))
             for e, (o, t, _) in A1.edges.items()}
    A2 = replace(A1, edges=edges)
    f = PLMap(A2, Bt, f.vertex_image, f.edge_image)

    # cut each source edge where its image crosses a target vertex: the
    # segments of a normalized PL path meet only there, so each piece maps
    # isometrically into a single target edge
    a_cuts: dict[str, list] = {}
    for e in sorted(A2.edges):
        segs = f.edge_image[e].segs
        if not segs:
            raise InternalInvariantError("constant image survived collapsing")
        pos, cuts = Fraction(0), []
        for _, a, b in segs[:-1]:
            pos += b - a
            cuts.append(pos)
        if cuts:
            a_cuts[e] = cuts
    A0, a_exp = subdivide(A2, a_cuts)

    sigma: Sigma = {}
    for e in sorted(A2.edges):
        for (pe, _), (bd, a, b) in zip(a_exp[(e, 1)], f.edge_image[e].segs,
                                       strict=True):
            if A0.length(pe) != b - a:
                raise InternalInvariantError("piece is not isometric")
            sigma[pe] = (bd, a)

    witness0 = tuple(x for d in witness_loop for x in a_exp[d])
    if not is_cyclically_reduced(A0, witness0):
        raise InternalInvariantError("witness loop degenerated in the setup")
    return FoldSetup(A0, Bt, sigma, witness0, f)


# -- the zip engine ---------------------------------------------------------------------

def active_classes(G: MarkedMetricGraph, B: MarkedMetricGraph, sigma: Sigma,
                   strategy: str = "simultaneous") -> dict:
    """vertex -> list of dart groups (size >= 2) sharing an image germ.

    The single-vertex strategy folds only at the smallest vertex that has
    such a group.
    """
    out: dict[str, list] = {}
    star = stars(G)
    for v in sorted(G.vertices):
        # group by target dart first: offsets (Fractions, slow to hash) are
        # only read where two darts share one
        by_dart: dict[Dart, list] = {}
        for d in star[v]:
            bd = sigma[d[0]][0]
            by_dart.setdefault(bd if d[1] > 0 else rev(bd), []).append(d)
        groups = []
        for _, ds in sorted(by_dart.items()):
            if len(ds) < 2:
                continue
            by_offset: dict[Fraction, list] = {}
            for d in ds:
                by_offset.setdefault(germ_of_dart(G, B, sigma, d)[1],
                                     []).append(d)
            groups += [sorted(g) for _, g in sorted(by_offset.items())
                       if len(g) >= 2]
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


def _zip_limits(G: MarkedMetricGraph, classes: dict) -> dict:
    """Each zipping dart with how far it can zip: half its edge if its
    reverse also zips, else the whole edge."""
    active = {d for groups in classes.values() for g in groups for d in g}
    return {d: G.length(d[0]) / 2 if rev(d) in active else G.length(d[0])
            for d in active}


def next_event_delta(G: MarkedMetricGraph, classes: dict) -> Fraction:
    """Time until some edge of a zipping group is completely consumed."""
    best = min(_zip_limits(G, classes).values(), default=None)
    if best is None or best <= 0:
        raise InternalInvariantError("no active fold to advance")
    return best


def fold_step(G: MarkedMetricGraph, B: MarkedMetricGraph, sigma: Sigma,
              classes: dict, delta: Fraction):
    """Advance every active zip by ``delta`` and rebuild the quotient, with
    its hairs collapsed and its straight vertices suppressed.

    Returns the new graph and its edge map.  Identified darts are gauged to
    read one word, so labels are carried.
    """
    cuts: dict[str, set] = {}
    for (e, s), limit in _zip_limits(G, classes).items():
        if delta > limit:
            raise InvalidInputError("step passes the next event")
        l = G.length(e)
        cut = delta if s > 0 else l - delta
        if 0 < cut < l:
            cuts.setdefault(e, set()).add(cut)
    G1, exp = subdivide(G, {e: sorted(c) for e, c in cuts.items()})

    sigma1: Sigma = {}
    for e in G.edges:
        bd, off = sigma[e]
        pos = off
        for piece in exp[(e, 1)]:
            sigma1[piece[0]] = (bd, pos)
            pos += dart_len(G1, piece)

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
    sigma2 = {e: sigma1[e] for e in G2.edges}
    # length, germ and label consistency of merged darts
    for e in G1.edges:
        r = rep_of[(e, 1)]
        if G1.length(e) != G2.length(r[0]):
            raise InternalInvariantError("folded edges have unequal lengths")
        if germ_of_dart(G2, B, sigma2, r) != \
                germ_of_dart(G1, B, sigma1, (e, 1)):
            raise InternalInvariantError("merged darts disagree on their image")
        if vc.read(r) != vc.read((e, 1)):
            raise InternalInvariantError("merged darts read different words")
    # a vertex whose darts all folded together leaves a hair; collapsing it
    # slides the vertex along its one gate, inside the simplex
    while hairs := _hairs(G2):
        G2 = _collapse_edges(G2, hairs)[0]
        sigma2 = {e: sigma2[e] for e in G2.edges}
    G3, sigma3 = _suppress_joints(G2, B, sigma2)
    if issues := validate_marked_graph(G3):
        raise InternalInvariantError(
            f"fold produced an invalid marked graph: {issues[0]}")
    return G3, sigma3


def fast_fold(setup: FoldSetup, strategy: str = "simultaneous") -> FoldingPath:
    """Run the zips to completion; the result is the event-indexed folding
    path from the prepared source onto the target.  A fold still running
    after `MAX_EVENTS` events raises `BudgetExhaustedError` whose partial is
    the path up to its last event."""
    if strategy not in ("simultaneous", "single-vertex"):
        raise InvalidInputError(f"unknown folding strategy {strategy!r}")
    G, B, sigma = setup.source, setup.target, setup.sigma
    # the witness is never folded: its word keeps one translation length
    w = word_of_loop(G, setup.witness)
    witness_len = translation_length(G, w)
    t = Fraction(0)
    snapshots = [G]
    sigmas = [sigma]
    events = [t]
    while True:
        classes = active_classes(G, B, sigma, strategy)
        if not classes:
            break
        if len(events) > MAX_EVENTS:
            raise BudgetExhaustedError(
                f"fold event budget {MAX_EVENTS} exhausted",
                partial=FoldingPath(B, events, snapshots, sigmas,
                                    setup.witness, strategy))
        delta = next_event_delta(G, classes)
        G, sigma = fold_step(G, B, sigma, classes, delta)
        if translation_length(G, w) != witness_len:
            raise InternalInvariantError("witness loop was folded")
        t += delta
        events.append(t)
        snapshots.append(G)
        sigmas.append(sigma)

    # the end of the path must be the target up to subdivision: the surviving
    # edges partition every target edge exactly
    cover: dict[str, list] = {e: [] for e in B.edges}
    for e in sorted(G.edges):
        bd, off = sigma[e]
        l = G.length(e)
        L = dart_len(B, bd)
        iv = (off, off + l) if bd[1] > 0 else (L - off - l, L - off)
        cover[bd[0]].append(iv)
    for e, ivs in sorted(cover.items()):
        ivs.sort()
        pos = Fraction(0)
        for (a, b) in ivs:
            if a != pos:
                raise InternalInvariantError("final map is not an isometry")
            pos = b
        if pos != B.length(e):
            raise InternalInvariantError("final map is not an isometry")

    end_rep = lambda_r(snapshots[-1], B).value * lambda_r(B, snapshots[-1]).value
    if end_rep != 1:
        raise InternalInvariantError(
            "final snapshot is not isometric to the target as a marked graph"
        )
    return FoldingPath(
        target=B,
        events=events,
        snapshots=snapshots,
        sigmas=sigmas,
        witness=setup.witness,
        strategy=strategy,
    )


@dataclass(frozen=True)
class FoldPoint:
    """A folding path at one time: the graph, its edge map to the target and
    the turns being folded there (right-continuous; none at the end)."""
    time: Fraction
    graph: MarkedMetricGraph
    sigma: Sigma
    turns: frozenset


def point_at(path: FoldingPath, t: Fraction) -> FoldPoint:
    """The fold point at time t: an event's snapshot, or the partial fold
    from the last event before t, built once for every reader of that
    time."""
    t = Fraction(t)
    if not (0 <= t <= path.end_time):
        raise InvalidInputError(f"time {t} outside [0, {path.end_time}]")
    i = bisect_right(path.events, t) - 1
    G, sigma = path.snapshots[i], path.sigmas[i]
    if t == path.end_time:
        return FoldPoint(t, G, sigma, frozenset())
    classes = active_classes(G, path.target, sigma, path.strategy)
    if t > path.events[i]:
        G, sigma = fold_step(G, path.target, sigma, classes,
                             t - path.events[i])
        classes = active_classes(G, path.target, sigma, path.strategy)
    return FoldPoint(t, G, sigma, frozenset(folding_turns(classes)))


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
    eps = Fraction(eps)
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


def _rational_constant(x, name) -> Fraction:
    """The finite rational value of a quasi-geodesic constant."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name} {x!r} is not a finite rational") \
            from None


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
