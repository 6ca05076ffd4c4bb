"""Piecewise-linear maps between marked metric graphs.

A point of a graph is a vertex or an interior point of an edge pair,
``("v", vertex)`` or ``("e", edge, offset)`` with the offset measured along
the forward orientation.  A PL path is a tuple of segments ``(dart, a, b)``:
traverse ``dart`` over ``[a, b]`` of its own length parametrization.  Partial
segments appear only at the two ends; interior junctions sit at vertices and
never backtrack, so paths are reduced by construction.

A PL map stores one image path per forward edge plus a point per vertex; the
image of a reversed edge is the reversed path.  The homotopy class is pinned
by the witness invariant: pushing a marking petal through the map gives a
loop freely homotopic to the corresponding petal of the target.  Words are
read off image paths by snapping every interior point to the origin of its
edge: a path then crosses exactly the edges whose terminus one of its
segments reaches in the edge's forward orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .docs import format_fraction
from .errors import (
    BudgetExhaustedError,
    InternalInvariantError,
    InvalidInputError,
)
from .graphs import (
    Dart,
    EdgePath,
    MarkedMetricGraph,
    bfs_tree,
    read_labels,
    realize_word_as_path,
    reduce_darts,
    require_labels,
    rev,
    stars,
    subdivide,
    uf_find,
    uf_union,
    volume,
)
from .simplex import maximize
from .stretch import lambda_r
from .words import Word, cyclic_reduce, generator, identity

Point = tuple
Seg = tuple[Dart, Fraction, Fraction]


def dart_len(G: MarkedMetricGraph, d: Dart) -> Fraction:
    return G.length(d[0])


def dart_point(G: MarkedMetricGraph, d: Dart, x: Fraction) -> Point:
    """The point at dart coordinate x on d (0 = origin, length = terminus)."""
    l = dart_len(G, d)
    if not (0 <= x <= l):
        raise InvalidInputError(f"coordinate {x} outside [0, {l}] on {d}")
    if x == 0:
        return ("v", G.origin(d))
    if x == l:
        return ("v", G.terminus(d))
    off = x if d[1] > 0 else l - x
    return ("e", d[0], off)


@dataclass(frozen=True)
class PLPath:
    segs: tuple[Seg, ...]
    anchor: Point  # the start point; authoritative when segs is empty


def path_end(G: MarkedMetricGraph, p: PLPath) -> Point:
    if not p.segs:
        return p.anchor
    (d, _, b) = p.segs[-1]
    return dart_point(G, d, b)


def pl_length(p: PLPath) -> Fraction:
    return sum((b - a for (_, a, b) in p.segs), Fraction(0))


def make_plpath(G: MarkedMetricGraph, segs, anchor: Optional[Point] = None
                ) -> PLPath:
    """Normalize (merge same-dart mid-edge continuations) and validate."""
    norm: list[Seg] = []
    for (d, a, b) in segs:
        l = dart_len(G, d)
        if not (0 <= a < b <= l):
            raise InvalidInputError(f"bad segment ({d}, {a}, {b})")
        if norm:
            pd, pa, pb = norm[-1]
            if pd == d and pb == a and pb < l:
                norm[-1] = (pd, pa, b)  # mid-edge continuation
                continue
            if dart_point(G, pd, pb) != dart_point(G, d, a):
                raise InvalidInputError("segments are not contiguous")
            if pb == dart_len(G, pd) and d == rev(pd):
                raise InvalidInputError("path backtracks at a vertex")
            if pb < dart_len(G, pd):
                raise InvalidInputError("path turns at an interior point")
        norm.append((d, a, b))
    if anchor is None:
        if not norm:
            raise InvalidInputError("empty path needs an anchor point")
        anchor = dart_point(G, norm[0][0], norm[0][1])
    elif norm and dart_point(G, norm[0][0], norm[0][1]) != anchor:
        raise InvalidInputError("anchor does not match the first segment")
    return PLPath(tuple(norm), anchor)


def pl_word(B: MarkedMetricGraph, p: PLPath) -> Word:
    """Word (in B's labels) of a PL path between the snaps of its ends; for
    a closed path its conjugacy class is the loop's free homotopy class."""
    darts = [d for (d, a, b) in p.segs
             if (b == dart_len(B, d) if d[1] > 0 else a == 0)]
    require_labels(B, darts)
    return read_labels(B, darts)


# -- PL maps ------------------------------------------------------------------------

@dataclass(frozen=True)
class PLMap:
    source: MarkedMetricGraph
    target: MarkedMetricGraph
    vertex_image: dict  # vertex -> Point of target
    edge_image: dict    # forward edge id -> PLPath in target


def validate_pl_map(f: PLMap) -> list[str]:
    """Issues that keep f from representing the change of marking: missing
    images, image paths off their endpoints' images, and petals whose
    pushed word is not conjugate to the target's generator.

    Each edge image's word is read once by `pl_word`, which snaps every
    interior point to the origin of its edge.  Consecutive images share a
    vertex image, so their snapped ends agree, and a petal's word is the
    product of its edges' words, inverted on reversed darts.
    """
    issues = []
    A, B = f.source, f.target
    for v in sorted(A.vertices):
        if v not in f.vertex_image:
            issues.append(f"vertex {v} has no image")
    for e in sorted(A.edges):
        if e not in f.edge_image:
            issues.append(f"edge {e} has no image path")
            continue
        p = f.edge_image[e]
        o, t, _ = A.edges[e]
        if o in f.vertex_image and p.anchor != f.vertex_image[o]:
            issues.append(f"image of edge {e} does not start at the image of {o}")
        if t in f.vertex_image and path_end(B, p) != f.vertex_image[t]:
            issues.append(f"image of edge {e} does not end at the image of {t}")
    if issues:
        return issues
    words = {e: pl_word(B, p) for e, p in f.edge_image.items()}
    for i, petal in enumerate(A.marking, start=1):
        w = identity(B.rank)
        for (e, sign) in petal:
            w = w * (words[e] if sign > 0 else words[e].inverse())
        if cyclic_reduce(w)[0] != generator(i, A.rank):
            issues.append(
                f"pushed petal {i} is not freely homotopic to the target petal"
            )
    return issues


def initial_pl_map(A: MarkedMetricGraph, B: MarkedMetricGraph) -> PLMap:
    """A representative of the change of marking: every vertex goes to the
    target basepoint, each edge to the realization of its label word
    conjugated by spanning-tree connectors."""
    if A.rank != B.rank:
        raise InvalidInputError("ranks differ")
    if A.labels is None:
        raise InvalidInputError("source graph needs inverse labels")
    # BFS tree words from the basepoint
    conn: dict[str, Word] = {A.basepoint: identity(A.rank)}
    for w, d in bfs_tree(A, A.basepoint).items():
        if d is not None:
            conn[w] = conn[A.origin(d)] * A.label_of_dart(d)
    base_pt = ("v", B.basepoint)
    vertex_image = {v: base_pt for v in A.vertices}
    edge_image = {}
    for e, (o, t, _) in A.edges.items():
        w_e = conn[o] * A.labels[e] * conn[t].inverse()
        darts = realize_word_as_path(B, w_e)
        # a path of whole darts is anchored at its first dart's origin
        edge_image[e] = make_plpath(
            B, [(d, Fraction(0), dart_len(B, d)) for d in darts],
            None if darts else base_pt)
    return PLMap(A, B, vertex_image, edge_image)


# -- stretch analysis and optimality ---------------------------------------------------

@dataclass(frozen=True)
class StretchAnalysis:
    stretch: Fraction                  # S_f, the Lipschitz constant
    per_edge: dict                     # edge -> S_{f,e}
    a_max: frozenset                   # maximally stretched edges
    boundary: tuple                    # offending vertices of a_max


def terminal_germ(f: PLMap, d: Dart) -> Optional[Dart]:
    """Direction of arrival of the image of d at the image of its terminus,
    read off the stored path: for a reversed dart, the reverse of its first
    segment's dart."""
    p = f.edge_image[d[0]]
    if not p.segs:
        return None
    return p.segs[-1][0] if d[1] > 0 else rev(p.segs[0][0])


def _terminal_seg(f: PLMap, d: Dart) -> Seg:
    """The last segment of d's nonconstant image, read off the stored path:
    for a reversed dart, its first segment reversed."""
    p = f.edge_image[d[0]]
    if d[1] > 0:
        return p.segs[-1]
    (x, a, b) = p.segs[0]
    l = dart_len(f.target, x)
    return (rev(x), l - b, l - a)


def subgraph_boundary(f: PLMap, edges: frozenset) -> tuple:
    """Vertices of the subgraph all of whose subgraph darts terminating there
    share a common terminal partial edge in the image."""
    A = f.source
    germs: dict[str, set] = {}
    for e in edges:
        o, t, _ = A.edges[e]
        germs.setdefault(t, set()).add(terminal_germ(f, (e, 1)))
        germs.setdefault(o, set()).add(terminal_germ(f, (e, -1)))
    out = []
    for v in sorted(germs):
        if None in germs[v]:
            raise InternalInvariantError(
                "maximally stretched edge with a constant image"
            )
        if len(germs[v]) == 1:
            out.append(v)
    return tuple(out)


def stretch_analysis(f: PLMap) -> StretchAnalysis:
    per_edge = {
        e: pl_length(p) / f.source.length(e) for e, p in f.edge_image.items()
    }
    return _analysis(f, per_edge)


def _analysis(f: PLMap, per_edge: dict) -> StretchAnalysis:
    """The analysis of f, given its per-edge stretches."""
    S = max(per_edge.values())
    if S <= 0:
        raise InternalInvariantError("map collapses every edge")
    a_max = frozenset(e for e, s in per_edge.items() if s == S)
    return StretchAnalysis(S, per_edge, a_max, subgraph_boundary(f, a_max))


# -- the local improvement move ----------------------------------------------------------

Ends = dict[str, list[tuple[str, Dart]]]


def _incident_ends(A: MarkedMetricGraph) -> Ends:
    """Per vertex, its (edge, terminating dart) pairs in `star` order; a
    loop contributes both darts."""
    return {v: [(d[0], rev(d)) for d in star]
            for v, star in stars(A).items()}


def _move_vertex(f: PLMap, v: str, alpha: Dart, q: Fraction,
                 t: Fraction, ends: Ends) -> PLMap:
    """Slide the image of v backward along alpha by t (its current arrival
    coordinate on alpha being q), truncating aligned image ends and extending
    the others by one segment; ``ends`` is the source's `_incident_ends`.
    Only the end segments at v are edited, and every edited path is
    rebuilt through `make_plpath`.  Raises when the slide leaves the valid
    range."""
    A, B = f.source, f.target
    if t <= 0 or t > q:
        raise InvalidInputError(f"slide amount {t} outside (0, {q}]")
    at_v = ends[v]
    trunc = {d: terminal_germ(f, d) == alpha for (_, d) in at_v}
    for (e, d) in at_v:
        if trunc[d]:
            (_, a, b) = _terminal_seg(f, d)
            if b - a < t:
                raise InvalidInputError("slide crosses a segment boundary")
    new_fv = dart_point(B, alpha, q - t)
    l = dart_len(B, alpha)
    edge_image = dict(f.edge_image)
    for e in sorted({e for (e, _) in at_v}):
        p = edge_image[e]
        o, t_, _ = A.edges[e]
        segs = list(p.segs)
        if t_ == v:  # adjust the end of the stored path
            if trunc[(e, 1)]:
                d, a, b = segs.pop()
                if b - a > t:
                    segs.append((d, a, b - t))
            else:
                segs.append((rev(alpha), l - q, l - q + t))
        if o == v:  # adjust the start of the stored path
            if trunc[(e, -1)]:
                d, a, b = segs.pop(0)
                if b - a > t:
                    segs.insert(0, (d, a + t, b))
            else:
                segs.insert(0, (alpha, q - t, q))
        edge_image[e] = make_plpath(B, segs, new_fv if o == v else p.anchor)
    vertex_image = dict(f.vertex_image)
    vertex_image[v] = new_fv
    return PLMap(A, B, vertex_image, edge_image)


def next_v(f: PLMap, v: str) -> PLMap:
    """Pull the image of an offending vertex backward along the common
    terminal edge, up to the largest step that still lowers
    (stretch, #maximal edges) lexicographically."""
    return _next_v(f, v, stretch_analysis(f), _incident_ends(f.source))[0]


def _next_v(f: PLMap, v: str, ana: StretchAnalysis, ends: Ends
            ) -> tuple[PLMap, StretchAnalysis]:
    """`next_v` on a map whose analysis is ``ana``; ``ends`` is the
    source's `_incident_ends`.  Also returns the analysis of the moved
    map, for which only v's incident edges are measured again."""
    A, B = f.source, f.target
    if v not in ana.boundary:
        raise InvalidInputError(f"vertex {v} is not an offending vertex")

    at_v = ends[v]
    germs = {d: terminal_germ(f, d) for (_, d) in at_v}
    alpha_set = {germs[d] for (e, d) in at_v if e in ana.a_max}
    if len(alpha_set) != 1:
        raise InternalInvariantError("offending vertex without a common germ")
    alpha = next(iter(alpha_set))
    fv = f.vertex_image[v]
    # arrival coordinate of f(v) on alpha, read off a maximal arriving image
    sample = next(d for (e, d) in at_v if e in ana.a_max)
    q = _terminal_seg(f, sample)[2]
    if dart_point(B, alpha, q) != fv or q <= 0:
        raise InternalInvariantError("vertex image does not sit on its germ")

    limits = [q]
    slope: dict[str, int] = {}
    trunc_count: dict[str, int] = {}
    for (e, d) in at_v:
        if germs[d] == alpha:
            (_, a, b) = _terminal_seg(f, d)
            limits.append(b - a)
            slope[e] = slope.get(e, 0) - 1
            trunc_count[e] = trunc_count.get(e, 0) + 1
        else:
            slope[e] = slope.get(e, 0) + 1
    for e, k in trunc_count.items():
        if k == 2:
            limits.append(ana.per_edge[e] * A.length(e) / 2)
    t_feas = min(limits)
    if t_feas <= 0:
        raise InternalInvariantError("no room to move the vertex")

    # stretch lines s_e(t) = s_e + (slope_e / l_e) t.  Only v's incident
    # edges with a nonzero slope move; every other edge keeps its stretch.
    # The step lands on the breakpoint (stretch-equalization crossing or
    # feasibility limit) with the lexicographically best (max stretch,
    # #maximal edges, max stretch over v-incident edges); the last
    # component makes the vertex settle at its local balance point even
    # when distant edges pin the global maximum, which the bare supremum
    # rule cannot do.
    moving = {e: (ana.per_edge[e], k / A.length(e))
              for e, k in slope.items() if k}
    const = {e: s for e, s in ana.per_edge.items() if e not in moving}
    top = [max(const.values())] if const else []
    top_edges = frozenset(e for e, s in const.items() if s == top[0])
    local_const = [const[e] for e in slope if e in const]
    local_top = [max(local_const)] if local_const else []

    def key_at(t: Fraction):
        vals = {e: s + r * t for e, (s, r) in moving.items()}
        S_t = max([*vals.values(), *top])
        am_t = frozenset(e for e, s in vals.items() if s == S_t)
        if S_t in top:
            am_t |= top_edges
        local = max([*vals.values(), *local_top])
        return (S_t, len(am_t), local), am_t

    # crossings of two moving lines, and t_feas.  No crossing with a
    # constant line is needed: once the highest falling line drops below
    # a constant one, the maximum stays flat until the highest rising line
    # reaches it, and those two moving lines cross in between.
    crossings = {t_feas}
    items = sorted(moving.values())
    for i, (s1, r1) in enumerate(items):
        meets = [(s2 - s1) / (r1 - r2) for (s2, r2) in items[i + 1:]
                 if r1 != r2]
        crossings.update(t for t in meets if 0 < t <= t_feas)

    key0, _ = key_at(Fraction(0))
    best = None
    for tau in sorted(crossings):
        key, am_t = key_at(tau)
        # never let an edge outside the current maximal set take over
        if key[0] == ana.stretch and not (am_t < ana.a_max):
            continue
        if key[0] > ana.stretch:
            continue
        if best is None or (key, -tau) < (best[0], -best[1]):
            best = (key, tau)
    if best is None or best[0] >= key0:
        raise InternalInvariantError("next_v cannot make progress")
    t0 = best[1]

    out = _move_vertex(f, v, alpha, q, t0, ends)
    per_edge = dict(ana.per_edge)
    for e in sorted(slope):
        s, r = moving.get(e, (per_edge[e], 0))
        per_edge[e] = pl_length(out.edge_image[e]) / A.length(e)
        if per_edge[e] != s + r * t0:
            raise InternalInvariantError(
                f"moved image of edge {e} is off its stretch line"
            )
    out_ana = _analysis(out, per_edge)
    if out_ana.stretch > ana.stretch:
        raise InternalInvariantError("next_v increased the Lipschitz constant")
    return out, out_ana


def _cell_minimum(f: PLMap, target: Fraction
                  ) -> Optional[tuple[PLMap, StretchAnalysis]]:
    """The best map of f's cell with its analysis; None if no vertex image
    can slide.

    The cell keeps every image path's interior segments and the target edge
    of every vertex image.  Each vertex image inside a target edge slides
    along it, the endpoints of a constant-image edge together, while images
    at target vertices stay fixed; only the two end coordinates of each
    image path vary.  Image lengths are then affine in the offsets, so one
    exact LP gives the cell's least Lipschitz constant S*: minimize S
    subject to ``a <= b`` on every end segment and ``len_e(x) <= S l_e``.
    A second LP on the same rows plus ``S <= S*`` picks, among the optima,
    one of least total image length: a fold from the map starts at that
    volume, so the tightest optimum bounds the fold's length.  The map
    built from it must be valid with stretch exactly S*, and S* may not
    beat ``target``.
    """
    A, B = f.source, f.target
    parent: dict = {}
    for e, p in f.edge_image.items():
        if not p.segs:
            uf_union(parent, A.edges[e][0], A.edges[e][1])
    var: dict = {}      # free vertex -> its class's variable index
    edge_of: list = []  # variable index -> the target edge it slides on
    for v in sorted(A.vertices):
        pt = f.vertex_image[v]
        if pt[0] == "e":
            root = uf_find(parent, v)
            if root not in var:
                var[root] = len(edge_of)
                edge_of.append(pt[1])
            var[v] = var[root]
    if not var:
        return None
    k = len(edge_of)  # S is variable k

    def coordinate(d: Dart, i: int):
        """Dart coordinate of variable i's point: (constant, coefficient)."""
        if d[0] != edge_of[i]:
            raise InternalInvariantError("vertex image left its target edge")
        return (Fraction(0), 1) if d[1] > 0 else (B.length(d[0]), -1)

    rows = [({i: 1}, B.length(E)) for i, E in enumerate(edge_of)]
    fixed = [Fraction(0)]
    total = [Fraction(0)] * (k + 1)  # total image length's coefficients
    for e in sorted(A.edges):
        p = f.edge_image[e]
        o, t, l = A.edges[e]
        if not p.segs or (o not in var and t not in var):
            fixed.append(pl_length(p) / l)
            continue
        # len_e = const + sum(coef[i] x_i); a single segment's ends are a, b
        const, coef = pl_length(p), {}
        ends = [None, None]
        if o in var:
            (d, a, _) = p.segs[0]
            c0, c1 = coordinate(d, var[o])
            const += a - c0
            coef[var[o]] = coef.get(var[o], 0) - c1
            ends[0] = (c0, c1, var[o])
        if t in var:
            (d, _, b) = p.segs[-1]
            c0, c1 = coordinate(d, var[t])
            const += c0 - b
            coef[var[t]] = coef.get(var[t], 0) + c1
            ends[1] = (c0, c1, var[t])
        for i, c in coef.items():
            total[i] += c
        coef[k] = -l
        rows.append((coef, -const))
        if len(p.segs) == 1 and None not in ends:
            (a0, a1, i), (b0, b1, j) = ends
            row = {i: a1}
            row[j] = row.get(j, 0) - b1
            rows.append((row, b0 - a0))
    rows.append(({k: -1}, -max(fixed)))
    lp = maximize([0] * k + [-1], rows)
    if lp.status != "optimal":
        raise InternalInvariantError(f"cell LP is {lp.status}")
    S = -lp.value
    if S < target:
        raise InternalInvariantError("cell LP beats the candidate bound")
    lp = maximize([-c for c in total], rows + [({k: 1}, S)])
    if lp.status != "optimal":
        raise InternalInvariantError(f"least-length cell LP is {lp.status}")

    point = {v: dart_point(B, (edge_of[i], 1), lp.x[i])
             for v, i in var.items()}
    vertex_image = {v: point.get(v, pt) for v, pt in f.vertex_image.items()}
    edge_image = {}
    try:
        for e, p in f.edge_image.items():
            o, t, _ = A.edges[e]
            segs = [list(seg) for seg in p.segs]
            if segs and o in var:
                c0, c1 = coordinate(segs[0][0], var[o])
                segs[0][1] = c0 + c1 * lp.x[var[o]]
            if segs and t in var:
                c0, c1 = coordinate(segs[-1][0], var[t])
                segs[-1][2] = c0 + c1 * lp.x[var[t]]
            edge_image[e] = make_plpath(
                B, [tuple(seg) for seg in segs if seg[1] != seg[2]],
                vertex_image[o])
    except InvalidInputError as exc:
        raise InternalInvariantError(f"cell LP optimum is not a map: {exc}")
    g = PLMap(A, B, vertex_image, edge_image)
    ana = stretch_analysis(g)
    if validate_pl_map(g) or ana.stretch != S:
        raise InternalInvariantError("cell LP optimum is not certified")
    return g, ana


def optimize_pl_map(A: MarkedMetricGraph, B: MarkedMetricGraph,
                    max_moves: int = 500) -> PLMap:
    """Drive the initial map to a certified optimal one.

    The candidate value of the stretching factor is an exact termination
    certificate.  Each move slides the offending vertex moved least
    recently (smallest id first among ties); every sixth move solves the
    current cell exactly and adopts its optimum if that lowers the
    stretch, which returns it when it attains the target.  Each map is
    analysed once; the analysis travels with it through the loop.
    """
    if max_moves < 0:
        raise InvalidInputError(f"move budget {max_moves} is negative")
    target = lambda_r(A, B).value
    f = initial_pl_map(A, B)
    ana = stretch_analysis(f)
    ends = _incident_ends(A)
    last_moved: dict = {}
    moves = 0
    while True:
        if ana.stretch < target:
            raise InternalInvariantError(
                "map beats the candidate bound; candidate set must be wrong"
            )
        if ana.stretch == target:
            return f
        if moves >= max_moves:
            raise BudgetExhaustedError(
                f"optimization budget {max_moves} exhausted: best stretch "
                f"{format_fraction(ana.stretch)}, certified target "
                f"{format_fraction(target)}, gap "
                f"{format_fraction(ana.stretch - target)}",
                partial=(f, ana.stretch, target),
            )
        offenders = ana.boundary
        if not offenders:
            raise InternalInvariantError(
                "optimal map does not attain the candidate value"
            )
        # always picking the smallest offender can starve the others, and
        # coordinate descent then stalls above the optimum
        v = min(offenders, key=lambda u: (last_moved.get(u, -1), u))
        f, ana = _next_v(f, v, ana, ends)
        moves += 1
        last_moved[v] = moves
        if moves % 6 == 0:
            # at the target the LP map wins even when f is there too: it is
            # the cell's optimum of least total image length
            cell = _cell_minimum(f, target)
            if cell is not None and (cell[1].stretch < ana.stretch
                                     or cell[1].stretch == target):
                f, ana = cell


# -- bounded cancellation ---------------------------------------------------------------

def _loops_at_by_length(G: MarkedMetricGraph, v: str, length_cap: Fraction,
                        max_count: int):
    """Reduced edge loops based at v of length <= length_cap, breadth first
    (shortest loops first), stars in sorted dart order.  Yields at most
    max_count loops, then signals truncation by yielding None."""
    star = {u: sorted(darts) for u, darts in stars(G).items()}
    frontier: list[tuple[EdgePath, Fraction]] = [((), Fraction(0))]
    produced = 0
    while frontier:
        nxt = []
        for (path, used) in frontier:
            at = G.terminus(path[-1]) if path else v
            for d in star[at]:
                if path and d == rev(path[-1]):
                    continue
                l = used + G.length(d[0])
                if l > length_cap:
                    continue
                new = path + (d,)
                if G.terminus(d) == v:
                    produced += 1
                    if produced > max_count:
                        yield None
                        return
                    yield new
                nxt.append((new, l))
        frontier = nxt


def cut_target_images(f: PLMap) -> tuple[MarkedMetricGraph, dict]:
    """The target cut at every vertex image inside an edge, and each source
    dart's image as the darts of the pieces its segments cover."""
    cuts: dict[str, set] = {}
    for pt in f.vertex_image.values():
        if pt[0] == "e":
            cuts.setdefault(pt[1], set()).add(pt[2])
    C, expansion = subdivide(f.target, cuts)
    images = {}
    for e, p in f.edge_image.items():
        darts = []
        for (d, a, b) in p.segs:
            x = covered = Fraction(0)
            for piece in expansion[d]:
                l = C.length(piece[0])
                if a <= x and x + l <= b:
                    darts.append(piece)
                    covered += l
                x += l
            if covered != b - a:
                raise InternalInvariantError(f"a segment of the image of "
                                             f"edge {e} splits a cut piece")
        images[(e, 1)] = tuple(darts)
        images[(e, -1)] = tuple(rev(d) for d in reversed(darts))
    return C, images


def cancellation(G: MarkedMetricGraph, p: EdgePath, q: EdgePath) -> Fraction:
    """Length cancelled when the dart path q follows p: the common part of
    p read backward and q."""
    total = Fraction(0)
    for x, y in zip(reversed(p), q):
        if y != rev(x):
            break
        total += G.length(x[0])
    return total


def bounded_cancellation_bound(f: PLMap, pair_cap: int = 10 ** 6) -> Fraction:
    """An explicit bounded cancellation constant K + lambda vol(A) for a PL
    map f: A -> B: the concatenation of reduced loops loses at most twice
    this much image length.

    K maximizes (|f(alpha)| + |f(beta)| - |f(alpha beta)|)/2 over vertex-based
    loop pairs with |alpha|, |beta| <= 4 lambda vol(A) Lambda_L(A, B) and
    alpha beta cyclically reduced.  The enumeration pairs short loops first
    and is capped at ``pair_cap`` pairs; past the cap the partial maximum is
    reported as a lower bound through the raised error.
    """
    if pair_cap < 0:
        raise InvalidInputError(f"pair cap {pair_cap} is negative")
    A, B = f.source, f.target
    C, images = cut_target_images(f)
    lam = stretch_analysis(f).stretch
    cap = 4 * lam * volume(A) * lambda_r(B, A).value
    K = Fraction(0)
    pairs = 0
    max_loops = max(math.isqrt(pair_cap) + 1, 16)
    loops_truncated = False
    pairs_capped = False
    for v in sorted(A.vertices):
        loops: list[tuple[EdgePath, EdgePath]] = []
        for alpha in _loops_at_by_length(A, v, cap, max_loops):
            if alpha is None:
                loops_truncated = True
                break
            loops.append((alpha, reduce_darts(
                x for d in alpha for x in images[d])))
        for (alpha, fa) in loops:
            if pairs_capped:
                break
            for (beta, fb) in loops:
                # alpha . beta reduced at the junction, cyclically reduced
                if beta[0] == rev(alpha[-1]):
                    continue
                if alpha[0] == rev(beta[-1]):
                    continue
                pairs += 1
                if pairs > pair_cap:
                    pairs_capped = True
                    break
                K = max(K, cancellation(C, fa, fb))
        if pairs_capped:
            break
    bound = K + lam * volume(A)
    if loops_truncated or pairs_capped:
        raise BudgetExhaustedError(
            f"pair cap {pair_cap} reached; partial bound "
            f"{format_fraction(bound)} is a lower bound",
            partial=bound,
        )
    return bound
