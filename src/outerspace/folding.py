"""Fast folding paths and their diagnostics.

A prepared setup carries a rescaled, subdivided source whose map to the
(subdivided) target sends every edge isometrically onto a single target edge.
Folding then zips, at unit speed and at every vertex simultaneously, the
groups of darts with a common image germ; an event happens whenever some edge
of a zipping group is completely consumed, at which point the quotient is
rebuilt and the process re-anchored.  All times, lengths and stretch factors
stay rational.

The literal point-pair relation defining the quotient would also identify
distant fibre points in ways that break the homotopy type; the zip semantics
used here is the reading consistent with the worked examples, the turn
definition and the volume bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .errors import (
    InternalInvariantError,
    InvalidInputError,
)
from .graphs import (
    Dart,
    EdgePath,
    GaugedClasses,
    MarkedMetricGraph,
    is_cyclically_reduced,
    loop_length,
    normalize_volume,
    realize_word_as_loop,
    reduce_darts,
    rev,
    subdivide,
    validate_marked_graph,
    volume,
    word_of_loop,
)
from .plmaps import (
    PLMap,
    dart_len,
    dart_point,
    make_plpath,
    optimize_pl_map,
    pl_length,
)
from .stretch import (
    enumerate_candidates,
    lambda_r,
)

# image of a forward edge: it covers [offset, offset + length] of a target dart
Germ = tuple[Dart, Fraction]
Sigma = dict  # edge id -> Germ


def germ_of_dart(G: MarkedMetricGraph, B: MarkedMetricGraph, sigma: Sigma,
                 d: Dart) -> Germ:
    bd, off = sigma[d[0]]
    if d[1] > 0:
        return (bd, off)
    return (rev(bd), dart_len(B, bd) - off - G.length(d[0]))


def image_point(G: MarkedMetricGraph, B: MarkedMetricGraph, sigma: Sigma,
                d: Dart, x: Fraction):
    """Image of the point at dart coordinate x on d."""
    bd, off = germ_of_dart(G, B, sigma, d)
    return dart_point(B, bd, off + x)


@dataclass(frozen=True)
class FoldSetup:
    source: MarkedMetricGraph          # A0: rescaled and subdivided
    target: MarkedMetricGraph          # the (subdivided) target
    sigma: Sigma                       # simplicial isometric edge map
    witness: EdgePath                  # candidate loop never folded
    optimal_map: PLMap                 # the certified map the setup came from


@dataclass
class FoldingPath:
    target: MarkedMetricGraph
    events: list                       # event times, starting at 0
    snapshots: list                    # MarkedMetricGraph per event (labelled)
    sigmas: list                       # edge map to the target per event
    witness: EdgePath
    transports: list                   # loop transport callables per stage
    strategy: str

    @property
    def source_prepared(self) -> MarkedMetricGraph:
        return self.snapshots[0]

    @property
    def end_time(self) -> Fraction:
        return self.events[-1]


def setup_as_plmap(source, target, sigma) -> PLMap:
    vertex_image = {}
    for v in sorted(source.vertices):
        d = source.star(v)[0]
        vertex_image[v] = image_point(source, target, sigma, d, Fraction(0))
    edge_image = {}
    for e in sorted(source.edges):
        bd, off = sigma[e]
        edge_image[e] = make_plpath(
            target, [(bd, off, off + source.length(e))]
        )
    return PLMap(source, target, vertex_image, edge_image)


# -- preparation -----------------------------------------------------------------------

def _find(parent: dict, x):
    """Root of x in a dict-based union-find; unseen elements are singletons."""
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict, a, b) -> None:
    """Merge the classes of a and b; the smaller root stays the root."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def _collapse_constant_edges(f: PLMap):
    """Collapse source edges with constant image (their endpoints share the
    image); returns the smaller graph, the surviving map data, and the dart
    drop set.  Collapsed edges are gauged to read the identity first."""
    A = f.source
    dead = {e for e, p in f.edge_image.items() if not p.segs}
    if not dead:
        return A, f, dead
    vc = GaugedClasses({e: (o, t) for e, (o, t, _) in A.edges.items()},
                       A.labels, A.basepoint)
    for e in sorted(dead):
        o, t, _ = A.edges[e]
        if not vc.merge(o, t, vc.read((e, 1))):
            raise InternalInvariantError(
                "constant image on an essential loop edge"
            )
    edges = {
        e: (vc.find(o), vc.find(t), l)
        for e, (o, t, l) in A.edges.items() if e not in dead
    }
    drop = {(e, s) for e in dead for s in (1, -1)}
    marking = tuple(
        reduce_darts(d for d in petal if d not in drop)
        for petal in A.marking
    )
    A2 = MarkedMetricGraph(
        rank=A.rank,
        vertices=frozenset(vc.find(v) for v in A.vertices),
        edges=edges,
        basepoint=vc.find(A.basepoint),
        marking=marking,
        labels={e: vc.labels[e] for e in edges},
    )
    vertex_image = {vc.find(v): f.vertex_image[v] for v in A.vertices}
    edge_image = {e: p for e, p in f.edge_image.items() if e not in dead}
    f2 = PLMap(A2, f.target, vertex_image, edge_image)
    return A2, f2, drop


def prepare_folding_setup(A: MarkedMetricGraph, B: MarkedMetricGraph,
                          normalize_target: bool = True,
                          max_moves: int = 500) -> FoldSetup:
    """Rescale and subdivide so the optimal map becomes simplicial and
    isometric on edges.

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

    # subdivide the target at interior vertex images
    b_cuts: dict[str, set] = {}
    for v, p in f.vertex_image.items():
        if p[0] == "e":
            b_cuts.setdefault(p[1], set()).add(p[2])
    Bs, b_exp = subdivide(Bt, {e: sorted(c) for e, c in b_cuts.items()})

    def refine_seg(seg):
        """Split one image segment into full darts of the subdivided target."""
        d, a, b = seg
        pieces = b_exp[d]
        out = []
        pos = Fraction(0)
        for pd in pieces:
            l = dart_len(Bs, pd)
            lo, hi = pos, pos + l
            pos = hi
            if hi <= a or lo >= b:
                continue
            if lo < a or hi > b:
                raise InternalInvariantError(
                    "image segment boundary misses every subdivision point"
                )
            out.append(pd)
        return out

    # subdivide the source so each edge maps onto exactly one target edge
    a_cuts: dict[str, list] = {}
    images: dict[str, list] = {}
    for e in sorted(A2.edges):
        darts = []
        for seg in f.edge_image[e].segs:
            darts.extend(refine_seg(seg))
        if not darts:
            raise InternalInvariantError("constant image survived collapsing")
        images[e] = darts
        cuts = []
        pos = Fraction(0)
        for pd in darts[:-1]:
            pos += dart_len(Bs, pd)
            cuts.append(pos)
        if cuts:
            a_cuts[e] = cuts
    A0, a_exp = subdivide(A2, a_cuts)

    sigma: Sigma = {}
    for e in sorted(A2.edges):
        pieces = a_exp[(e, 1)]
        if len(pieces) != len(images[e]):
            raise InternalInvariantError("subdivision mismatch")
        for piece, bd in zip(pieces, images[e]):
            pe = piece[0]
            if dart_len(A0, piece) != dart_len(Bs, bd):
                raise InternalInvariantError("piece is not isometric")
            if piece[1] < 0:
                bd = rev(bd)
            sigma[pe] = (bd, Fraction(0))

    witness0 = tuple(x for d in witness_loop for x in a_exp[d])
    if not is_cyclically_reduced(A0, witness0):
        raise InternalInvariantError("witness loop degenerated in the setup")
    return FoldSetup(A0, Bs, sigma, witness0, f)


# -- the zip engine ---------------------------------------------------------------------

def active_classes(G: MarkedMetricGraph, B: MarkedMetricGraph, sigma: Sigma,
                   strategy: str = "simultaneous") -> dict:
    """vertex -> list of dart groups (size >= 2) sharing an image germ.

    The single-vertex strategy folds only at the smallest vertex that has
    such a group.
    """
    out: dict[str, list] = {}
    for v in sorted(G.vertices):
        by_germ: dict[Germ, list] = {}
        for d in G.star(v):
            by_germ.setdefault(germ_of_dart(G, B, sigma, d), []).append(d)
        groups = [sorted(g) for k, g in sorted(by_germ.items())
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


def next_event_delta(G: MarkedMetricGraph, classes: dict) -> Fraction:
    """Time until some edge of a zipping group is completely consumed."""
    active = {d for groups in classes.values() for g in groups for d in g}
    best = None
    for d in sorted(active):
        l = G.length(d[0])
        avail = l / 2 if rev(d) in active else l
        if best is None or avail < best:
            best = avail
    if best is None or best <= 0:
        raise InternalInvariantError("no active fold to advance")
    return best


def fold_step(G: MarkedMetricGraph, B: MarkedMetricGraph, sigma: Sigma,
              classes: dict, delta: Fraction):
    """Advance every active zip by ``delta`` and rebuild the quotient.

    Returns the new graph, its edge map, and a loop transport callable.
    Identified darts are gauged to read one word, so labels are carried.
    """
    active = {d for groups in classes.values() for g in groups for d in g}
    cuts: dict[str, set] = {}
    for d in sorted(active):
        e, s = d
        l = G.length(e)
        both = rev(d) in active
        limit = l / 2 if both else l
        if delta > limit:
            raise InvalidInputError("step passes the next event")
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
                if _find(dparent, other) == _find(dparent, rev(lead)):
                    raise InternalInvariantError(
                        "fold identifies an edge with its own reverse"
                    )
                if _find(dparent, other) == _find(dparent, lead):
                    continue
                _union(dparent, lead, other)
                _union(dparent, rev(lead), rev(other))
                vc.merge(G1.terminus(lead), G1.terminus(other),
                         vc.read(lead).inverse() * vc.read(other))

    # rebuild the quotient graph
    new_edges: dict[str, tuple] = {}
    rep_of: dict[Dart, Dart] = {}
    for e in sorted(G1.edges):
        r = _find(dparent, (e, 1))
        rep_of[(e, 1)] = r
        rep_of[(e, -1)] = rev(r)
    kept = sorted({r[0] for r in rep_of.values()})
    for e in kept:
        o, t, l = G1.edges[e]
        new_edges[e] = (vc.find(o), vc.find(t), l)
    for e in G1.edges:
        r = rep_of[(e, 1)]
        if dart_len(G1, (e, 1)) != new_edges[r[0]][2]:
            raise InternalInvariantError("folded edges have unequal lengths")

    def map_dart(d: Dart) -> Dart:
        r = rep_of[(d[0], 1)]
        return r if d[1] > 0 else rev(r)

    def transport(path: EdgePath, mode: str = "path") -> EdgePath:
        return reduce_darts((map_dart(x) for d in path for x in exp[d]),
                            mode == "loop")

    marking = tuple(transport(p) for p in G.marking)
    sigma2 = {e: sigma1[e] for e in kept}
    G2 = MarkedMetricGraph(
        rank=G.rank,
        vertices=frozenset(vc.find(v) for v in G1.vertices),
        edges=new_edges,
        basepoint=vc.find(G.basepoint),
        marking=marking,
        labels={e: vc.labels[e] for e in kept},
    )
    betti = len(G2.edges) - len(G2.vertices) + 1
    if betti != G.rank:
        raise InternalInvariantError(
            "fold changed the rank; the setup map was not a homotopy "
            "equivalence"
        )
    # germ and label consistency of merged darts
    for e in G1.edges:
        r = rep_of[(e, 1)]
        if germ_of_dart(G2, B, sigma2, r) != \
                germ_of_dart(G1, B, sigma1, (e, 1)):
            raise InternalInvariantError("merged darts disagree on their image")
        if vc.read(r) != vc.read((e, 1)):
            raise InternalInvariantError("merged darts read different words")
    report = validate_marked_graph(G2)
    if not report.ok:
        raise InternalInvariantError(
            f"fold produced an invalid marked graph: {report.issues[0]}"
        )
    return G2, sigma2, transport


def fast_fold(setup: FoldSetup, strategy: str = "simultaneous",
              max_events: int = 1000) -> FoldingPath:
    """Run the zips to completion; the result is the event-indexed folding
    path from the prepared source onto the target."""
    if strategy not in ("simultaneous", "single-vertex"):
        raise InvalidInputError(f"unknown folding strategy {strategy!r}")
    G, B, sigma = setup.source, setup.target, setup.sigma
    witness = setup.witness
    witness_len = loop_length(G, witness)
    t = Fraction(0)
    snapshots = [G]
    sigmas = [sigma]
    events = [t]
    transports: list[Callable] = []
    while True:
        classes = active_classes(G, B, sigma, strategy)
        if not classes:
            break
        if len(events) > max_events:
            raise InternalInvariantError("event budget exceeded")
        delta = next_event_delta(G, classes)
        G, sigma, transport = fold_step(G, B, sigma, classes, delta)
        witness = transport(witness, "loop")
        if loop_length(G, witness) != witness_len:
            raise InternalInvariantError("witness loop was folded")
        t += delta
        events.append(t)
        snapshots.append(G)
        sigmas.append(sigma)
        transports.append(transport)

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
        transports=transports,
        strategy=strategy,
    )


def _stage_index(path: FoldingPath, t: Fraction) -> int:
    if not (0 <= t <= path.end_time):
        raise InvalidInputError(
            f"time {t} outside [0, {path.end_time}]"
        )
    for i in range(len(path.events) - 1, -1, -1):
        if path.events[i] <= t:
            return i
    raise InternalInvariantError("unreachable")


def graph_at(path: FoldingPath, t: Fraction):
    """(graph, sigma) at an arbitrary time, rebuilding partial folds."""
    t = Fraction(t)
    i = _stage_index(path, t)
    G, sigma = path.snapshots[i], path.sigmas[i]
    if t == path.events[i]:
        return G, sigma
    classes = active_classes(G, path.target, sigma, path.strategy)
    G2, sigma2, _ = fold_step(G, path.target, sigma, classes,
                              t - path.events[i])
    return G2, sigma2


def sample_path(path: FoldingPath, t: Fraction):
    """Marked graph and map to the target at time t (labels carried)."""
    G, sigma = graph_at(path, t)
    return G, setup_as_plmap(G, path.target, sigma)


def turns_at(path: FoldingPath, t: Fraction) -> set:
    """Unordered dart pairs being folded at time t (right-continuous)."""
    t = Fraction(t)
    if t >= path.end_time:
        return set()
    G, sigma = graph_at(path, t)
    return folding_turns(active_classes(G, path.target, sigma, path.strategy))


def multiplicity_of_loop(G: MarkedMetricGraph, turns: set,
                         loop: EdgePath) -> int:
    """Unoriented count of passages of a cyclically reduced loop through the
    given turns."""
    if not is_cyclically_reduced(G, loop):
        raise InvalidInputError("multiplicity needs a cyclically reduced loop")
    count = 0
    n = len(loop)
    for i in range(n):
        d_in = loop[i]
        d_out = loop[(i + 1) % n]
        if frozenset((rev(d_in), d_out)) in turns:
            count += 1
    return count


def multiplicity(path: FoldingPath, t: Fraction, loop: EdgePath) -> int:
    """Folding multiplicity of a loop of the time-t snapshot."""
    G, _ = graph_at(path, Fraction(t))
    return multiplicity_of_loop(G, turns_at(path, t), loop)


@dataclass(frozen=True)
class SpeedReport:
    local_speed: Fraction
    local_mu: int
    local_length: Fraction
    local_witness: EdgePath
    toward_speed: Fraction
    toward_mu: int
    toward_length: Fraction
    toward_witness: EdgePath
    ratio: Fraction


def speeds(path: FoldingPath, t: Fraction) -> SpeedReport:
    """Local speed 2 mu/l of the folding path and the speed toward the
    target, with the loops realizing them."""
    t = Fraction(t)
    if t >= path.end_time:
        raise InvalidInputError("the path has no folding turn at its end")
    G, sigma = graph_at(path, t)
    turns = turns_at(path, t)
    best = None
    for cand in enumerate_candidates(G):
        mu = multiplicity_of_loop(G, turns, cand.loop)
        if mu == 0:
            continue
        l = loop_length(G, cand.loop)
        if best is None or Fraction(2 * mu) / l > best[0]:
            best = (Fraction(2 * mu) / l, mu, l, cand.loop)
    if best is None:
        raise InternalInvariantError("no candidate passes a folding turn")

    lamL = lambda_r(path.target, G)
    gamma_b = lamL.witness.loop
    w = word_of_loop(path.target, gamma_b)
    realized = realize_word_as_loop(G, w)
    mu_b = multiplicity_of_loop(G, turns, realized)
    # folding one vertex at a time may leave the witness unfolded for a while
    if mu_b < 1 and path.strategy != "single-vertex":
        raise InternalInvariantError(
            "the maximal stretch witness avoids every folding turn"
        )
    l_b = loop_length(G, realized)
    toward = Fraction(2 * mu_b) / l_b
    return SpeedReport(
        local_speed=best[0], local_mu=best[1], local_length=best[2],
        local_witness=best[3],
        toward_speed=toward, toward_mu=mu_b, toward_length=l_b,
        toward_witness=realized,
        ratio=toward / best[0],
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


def check_four_point(points, dist):
    """Verify d(p_i, p_l) >= d(p_j, p_k) for all i <= j <= k <= l.

    Returns (flag, first violation or None); the distance callback must
    return comparable values.
    """
    n = len(points)
    if n < 4:
        raise InvalidInputError("need at least four sample points")
    for i in range(n):
        for l in range(i + 3, n):
            outer = dist(points[i], points[l])
            for j in range(i, l + 1):
                for k in range(j, l + 1):
                    inner = dist(points[j], points[k])
                    if inner > outer:
                        return False, (i, j, k, l, inner, outer)
    return True, None


def _lambda_products(graphs, metric: str):
    """Consecutive and pairwise exact distance data: D[i][j] = Lambda value
    between samples i < j (symmetric Lambda or normalized right factor)."""
    from .stretch import stretch_report

    n = len(graphs)
    D = {}
    for i in range(n):
        for j in range(i + 1, n):
            rep = stretch_report(graphs[i], graphs[j])
            D[(i, j)] = rep.Lambda if metric == "d" else rep.lambda_R
    return D


def check_quasi_geodesic(samples, lam, eps, metric: str = "d"):
    """Check the two-sided quasi-geodesic inequality on a sampled path.

    ``samples`` is a list of (parameter, graph) with strictly increasing
    parameters fixing the order; the parameter used in the inequality is the
    arc length (sum of consecutive distances).  With eps == 0 and rational
    lam the check is exact (power comparisons of rational Lambda values).
    """
    params = [p for (p, _) in samples]
    if any(b <= a for a, b in zip(params, params[1:])):
        raise InvalidInputError("parameters must be strictly increasing")
    graphs = [g for (_, g) in samples]
    n = len(graphs)
    if n < 2:
        raise InvalidInputError("need at least two samples")
    D = _lambda_products(graphs, metric)
    lam = Fraction(lam)
    if lam < 1:
        raise InvalidInputError("quasi-geodesic constant must be >= 1")
    exact = (eps == 0)
    worst = None
    ok = True
    for i in range(n):
        for j in range(i + 1, n):
            # multiplicative arc length between i and j
            M = Fraction(1)
            for k in range(i, j):
                M *= D[(k, k + 1)]
            dist = D[(i, j)]
            if exact:
                p, q = lam.numerator, lam.denominator
                lower_ok = M ** q <= dist ** p
                upper_ok = dist ** q <= M ** p
            else:
                lower_ok = math.log(M) / float(lam) - eps <= math.log(dist)
                upper_ok = math.log(dist) <= float(lam) * math.log(M) + eps
            margin = math.log(float(dist)) - math.log(float(M)) / float(lam)
            if worst is None or margin < worst[0]:
                worst = (margin, (i, j))
            if not (lower_ok and upper_ok):
                ok = False
    return ok, worst


def check_dR_geodesic(points):
    """Exact right-factor triangle equality on every ordered triple.

    Volumes cancel, so raw stretching factors multiply exactly along a
    geodesic.  Returns (flag, failures, consecutive witnesses).
    """
    graphs = list(points)
    n = len(graphs)
    if n < 3:
        raise InvalidInputError("need at least three points")
    lam = {}
    wit = {}
    for i in range(n):
        for j in range(i + 1, n):
            got = lambda_r(graphs[i], graphs[j])
            lam[(i, j)] = got.value
            wit[(i, j)] = got.witnesses
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if lam[(i, j)] * lam[(j, k)] != lam[(i, k)]:
                    failures.append(
                        (i, j, k, lam[(i, j)] * lam[(j, k)], lam[(i, k)])
                    )
    witnesses = [wit[(i, i + 1)] for i in range(n - 1)]
    return not failures, failures, witnesses
