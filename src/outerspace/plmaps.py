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

The optimizer runs in integer units.  A map's ``unit`` D says that each of
its lengths and coordinates x stands for x / D: D is 1 on a map in
`Fraction`s, and `_in_units` rescales a map to a unit D times finer, every
x becoming the int x D.  Per-edge stretches are then ints over one common
denominator (`_weights`).  D starts as the least common denominator
of the initial map and is multiplied by the denominator of every step or
cell-LP point that is not a whole number of units; `_in_fractions` writes
a map back.  The fold scales its maps by `_in_units` too, and writes them
back by `_map_in_units`, the routine under both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from fractions import Fraction
from typing import Optional

from .docs import format_fraction
from .errors import (
    BudgetExhaustedError,
    InternalInvariantError,
    InvalidInputError,
    RankMismatchError,
)
from .graphs import (
    Dart,
    EdgePath,
    MarkedMetricGraph,
    bfs_tree,
    marking_issues,
    read_labels,
    realize_word_as_path,
    reduce_darts,
    rev,
    stars,
    subdivide,
    uf_find,
    uf_union,
    volume,
)
from .simplex import maximize, maximize_on_optimum
from .stretch import lambda_r
from .words import Word, cyclic_reduce, generator, identity

Point = tuple
Seg = tuple[Dart, Fraction, Fraction]


def dart_point(G: MarkedMetricGraph, d: Dart, x: Fraction) -> Point:
    """The point at dart coordinate x on d (0 = origin, length = terminus)."""
    l = G.length(d[0])
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

    @cached_property
    def length(self) -> Fraction:
        # in the units of the segments: ints on a map in integer units
        return sum(b - a for (_, a, b) in self.segs)


def path_end(G: MarkedMetricGraph, p: PLPath) -> Point:
    if not p.segs:
        return p.anchor
    (d, _, b) = p.segs[-1]
    return dart_point(G, d, b)


def make_plpath(G: MarkedMetricGraph, segs, anchor: Optional[Point] = None
                ) -> PLPath:
    """Normalize (merge same-dart mid-edge continuations) and validate."""
    norm: list[Seg] = []
    for (d, a, b) in segs:
        if d[0] not in G.edges or d[1] not in (1, -1):
            raise InvalidInputError(f"unknown oriented edge {d}")
        l = G.edges[d[0]][2]
        if not (0 <= a < b <= l):
            raise InvalidInputError(f"bad segment ({d}, {a}, {b})")
        if norm:
            pd, pa, pb = norm[-1]
            if a or pb < lp:  # inside an edge: the same point, or a turn
                if d == pd and a == pb:
                    norm[-1] = (pd, pa, b)  # mid-edge continuation
                    continue
                raise InvalidInputError(
                    "path turns at an interior point"
                    if d == rev(pd) and pb + a == l
                    else "segments are not contiguous")
            if G.terminus(pd) != G.origin(d):
                raise InvalidInputError("segments are not contiguous")
            if d == rev(pd):
                raise InvalidInputError("path backtracks at a vertex")
        norm.append((d, a, b))
        lp = l
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
             if (b == B.length(d[0]) if d[1] > 0 else a == 0)]
    return read_labels(B, darts)


# -- PL maps ------------------------------------------------------------------------

@dataclass(frozen=True)
class PLMap:
    source: MarkedMetricGraph
    target: MarkedMetricGraph
    vertex_image: dict  # vertex -> Point of target
    edge_image: dict    # forward edge id -> PLPath in target
    unit: int = 1       # lengths and coordinates count 1/unit; 1 on a map
                        # in Fractions, D on one in integer units of 1/D


def reverse_segs(B: MarkedMetricGraph, segs):
    """The segments of a path in B, read backward, one at a time."""
    return ((rev(x), B.length(x[0]) - b, B.length(x[0]) - a)
            for (x, a, b) in reversed(segs))


def dart_segs(f: PLMap, d: Dart):
    """The segments of d's image under f, from d's origin, one at a time."""
    segs = f.edge_image[d[0]].segs
    return iter(segs) if d[1] > 0 else reverse_segs(f.target, segs)


def germ_of_dart(f: PLMap, d: Dart) -> Optional[Dart]:
    """The target dart along which the image of d leaves the image of d's
    origin; None for a constant image."""
    p = f.edge_image[d[0]]
    if not p.segs:
        return None
    return p.segs[0][0] if d[1] > 0 else rev(p.segs[-1][0])


def validate_pl_map(f: PLMap) -> list[str]:
    """Issues that keep f from representing the change of marking: the
    source's `marking_issues`, missing images, image paths off their
    endpoints' images, and petals whose pushed word is not conjugate to the
    target's generator.

    Each edge image's word is read once by `pl_word`, which snaps every
    interior point to the origin of its edge.  Consecutive images share a
    vertex image, so their snapped ends agree, and a petal's word is the
    product of its edges' words, inverted on reversed darts.
    """
    A, B = f.source, f.target
    issues = marking_issues(A)
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
        raise RankMismatchError(f"ranks differ: {A.rank} != {B.rank}")
    if issues := marking_issues(A):
        raise InvalidInputError(issues[0])
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
            B, [(d, Fraction(0), B.length(d[0])) for d in darts],
            None if darts else base_pt)
    return PLMap(A, B, vertex_image, edge_image)


# -- integer units -----------------------------------------------------------------

def _graph_in_units(G: MarkedMetricGraph, unit) -> MarkedMetricGraph:
    """G with every length l written unit(l)."""
    return replace(G, edges={e: (o, t, unit(l))
                             for e, (o, t, l) in G.edges.items()})


def _map_in_units(f: PLMap, source: MarkedMetricGraph,
                  target: MarkedMetricGraph, unit, D: int = 1,
                  kept=None) -> PLMap:
    """f from ``source`` onto ``target`` in units of 1/D, every coordinate
    x written unit(x); ``kept`` maps an edge to a pair (an image of f,
    that image so written), reused while f holds that very path."""
    def point(x):
        return x if x[0] == "v" else (*x[:2], unit(x[2]))

    images = {}
    for e, p in f.edge_image.items():
        old = kept.get(e) if kept else None
        images[e] = old[1] if old and old[0] is p else PLPath(
            tuple((d, unit(a), unit(b)) for d, a, b in p.segs),
            point(p.anchor))
    return PLMap(source, target,
                 {v: point(x) for v, x in f.vertex_image.items()}, images, D)


def _in_units(f: PLMap, D: Optional[int] = None) -> PLMap:
    """f in a unit D times finer: every length and coordinate x becomes
    the int x D.  D defaults to the least common denominator of the edge
    lengths and vertex-image offsets, which is every coordinate's: any
    other lies at a target vertex."""
    if D is None:
        D = math.lcm(*(x.denominator for x in (
            *(l for G in (f.source, f.target) for _, _, l in G.edges.values()),
            *(x[2] for x in f.vertex_image.values() if x[0] == "e"))))

    def scaled(x):
        return x.numerator * (D // x.denominator)

    return _map_in_units(f, _graph_in_units(f.source, scaled),
                         _graph_in_units(f.target, scaled), scaled,
                         D * f.unit)


def _in_fractions(f: PLMap, source: MarkedMetricGraph,
                  target: MarkedMetricGraph) -> PLMap:
    """f written back in `Fraction`s, on the graphs it was scaled from."""
    return _map_in_units(f, source, target,
                         partial(Fraction, denominator=f.unit))


# -- stretch analysis and optimality ---------------------------------------------------

@dataclass(frozen=True)
class StretchAnalysis:
    stretch: Fraction                  # S_f, the Lipschitz constant
    per_edge: dict                     # edge -> S_{f,e}; on a map in integer
                                       # units, times one common denominator
    a_max: frozenset                   # maximally stretched edges
    boundary: tuple                    # offending vertices of a_max


def subgraph_boundary(f: PLMap, edges: frozenset) -> tuple:
    """Vertices at which all subgraph darts leaving there have one gate:
    their images leave the vertex's image along one target dart."""
    A = f.source
    germs: dict[str, set] = {}
    for e in edges:
        for d in ((e, 1), (e, -1)):
            germs.setdefault(A.origin(d), set()).add(germ_of_dart(f, d))
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
        e: Fraction(p.length, f.source.length(e))
        for e, p in f.edge_image.items()
    }
    return _analysis(f, per_edge)


def _weights(G: MarkedMetricGraph) -> dict:
    """L / l_e per edge, L the lcm of G's integer lengths: an image of
    length x stretches e by x (L / l_e) / L."""
    L = math.lcm(*(l for _, _, l in G.edges.values()))
    return {e: L // l for e, (_, _, l) in G.edges.items()}


def _in_integer_units(f: PLMap) -> tuple[PLMap, StretchAnalysis]:
    """f in integer units (`_in_units` with its default D) and its
    analysis, with per-edge stretches over the common denominator of
    `_weights`."""
    g = _in_units(f)
    w = _weights(g.source)
    return g, _analysis(g, {e: p.length * w[e]
                            for e, p in g.edge_image.items()})


def _analysis(f: PLMap, per_edge: dict) -> StretchAnalysis:
    """The analysis of f, given its per-edge stretches (or their
    `_weights` numerators)."""
    S = max(per_edge.values())
    if S <= 0:
        raise InternalInvariantError("map collapses every edge")
    a_max = frozenset(e for e, s in per_edge.items() if s == S)
    e = min(a_max)
    return StretchAnalysis(
        Fraction(f.edge_image[e].length, f.source.length(e)), per_edge,
        a_max, subgraph_boundary(f, a_max))


# -- the local improvement move ----------------------------------------------------------

def _tightened(B: MarkedMetricGraph, head: list, segs: list, i: int) -> list:
    """The path ``segs`` (a list this edits) with the path ``head``, which
    leaves its start (i = 0) or its end (i = -1), joined there, reversed at
    the start, and the backtrack at the junction cancelled."""
    head = list(head)
    while head and segs:
        (x, a, b), (y, c, d) = head[0], segs[i]
        # the joined path doubles back over the end segment
        if not (x == y and a == c if i == 0 else
                x == rev(y) and a + d == B.length(y[0])):
            break
        n, k = b - a, d - c  # cancel the shorter of the two, or both
        if k < n:
            head[0] = (x, a + k, b)
        else:
            del head[0]
        if n < k:
            segs[i] = (y, c + n, d) if i == 0 else (y, c, d - n)
        else:
            del segs[i]
    return [*reverse_segs(B, head), *segs] if i == 0 else segs + head


def slide_ends(f: PLMap, heads: dict) -> dict:
    """The images of the edges with a dart in ``heads``, as the image of
    each such dart's origin slides along the target path ``heads[d]``: edge
    e's becomes ``heads[(e, 1)]`` reversed, the old image, then
    ``heads[(e, -1)]``, the backtrack at the two junctions cancelled, rebuilt
    by `make_plpath` at the end of ``heads[(e, 1)]`` or the old anchor.  The
    other edges keep their paths."""
    B = f.target
    out = {}
    for e in sorted({d[0] for d in heads}):
        p = f.edge_image[e]
        segs, anchor = list(p.segs), p.anchor
        if h := heads.get((e, 1)):
            segs = _tightened(B, h, segs, 0)
            anchor = dart_point(B, h[-1][0], h[-1][2])
        if h := heads.get((e, -1)):
            segs = _tightened(B, h, segs, -1)
        out[e] = make_plpath(B, segs, anchor)
    return out


def next_v(f: PLMap, v: str) -> PLMap:
    """Push the image of an offending vertex forward along the one gate of
    its maximally stretched darts, up to the largest step that still lowers
    (stretch, #maximal edges) lexicographically."""
    g, ana = _in_integer_units(f)
    return _in_fractions(_next_v(g, v, ana, stars(f.source))[0], f.source,
                         f.target)


def _next_v(f: PLMap, v: str, ana: StretchAnalysis, star: dict
            ) -> tuple[PLMap, StretchAnalysis]:
    """`next_v` on a map in integer units whose analysis is ``ana``;
    ``star`` is the source's `stars`.  Also returns the analysis of the
    moved map, for which only v's incident edges are measured again.  A
    fractional step first refines the unit by its denominator."""
    A, B = f.source, f.target
    if v not in ana.boundary:
        raise InvalidInputError(f"vertex {v} is not an offending vertex")

    germs = {d: germ_of_dart(f, d) for d in star[v]}
    gate = {germs[d] for d in star[v] if d[0] in ana.a_max}
    if len(gate) != 1:
        raise InternalInvariantError("offending vertex without a common germ")
    beta = next(iter(gate))
    # coordinate of f(v) on beta, read off a maximal leaving image
    sample = next(d for d in star[v] if d[0] in ana.a_max)
    a = next(dart_segs(f, sample))[1]
    if dart_point(B, beta, a) != f.vertex_image[v]:
        raise InternalInvariantError("vertex image does not sit on its germ")

    # the room to move, in half-units
    limits = [2 * (B.length(beta[0]) - a)]
    slope: dict[str, int] = {}
    trunc = {d for d in star[v] if germs[d] == beta}
    for d in star[v]:
        e = d[0]
        if d in trunc:
            (_, a0, b0) = next(dart_segs(f, d))
            limits.append(2 * (b0 - a0))
            if rev(d) in trunc:
                limits.append(f.edge_image[e].length)
        slope[e] = slope.get(e, 0) + (-1 if d in trunc else 1)
    t_feas = min(limits)
    if t_feas <= 0:
        raise InternalInvariantError("no room to move the vertex")

    # stretch lines s_e(t) = s_e + r_e t of v's incident edges, over the
    # common denominator of `_weights`; every other edge keeps its
    # stretch.  The step lands on the breakpoint (stretch-equalization
    # crossing or feasibility limit) with the lexicographically best (max
    # stretch, #maximal edges, max stretch over v-incident edges); the last
    # component makes the vertex settle at its local balance point even
    # when distant edges pin the global maximum, which the bare supremum
    # rule cannot do.  No crossing with a constant line is needed: once the
    # highest falling line drops below a constant one, the maximum stays
    # flat until the highest rising line reaches it, and those two moving
    # lines cross in between.  Every candidate step is P / Q units for one
    # Q, so the lines' values there, times Q, are ints.
    w = _weights(A)
    lines = {e: (ana.per_edge[e], k * w[e]) for e, k in slope.items()}
    items = sorted(x for x in lines.values() if x[1])
    meets = [(s2 - s1, r1 - r2) for i, (s1, r1) in enumerate(items)
             for (s2, r2) in items[i + 1:] if r1 != r2]
    Q = math.lcm(2, *(r for _, r in meets))
    P_feas = t_feas * Q // 2
    crossings = {P_feas, *(P for P in (s * (Q // r) for s, r in meets)
                           if 0 < P <= P_feas)}
    rest = {e: Q * s for e, s in ana.per_edge.items() if e not in slope}
    top = max(rest.values(), default=0)
    top_edges = frozenset(e for e, s in rest.items() if s == top)

    def key_at(P: int):
        vals = {e: Q * s + r * P for e, (s, r) in lines.items()}
        local = max(vals.values())
        S_t = max(local, top)
        am_t = frozenset(e for e, x in vals.items() if x == S_t)
        if S_t == top:
            am_t |= top_edges
        return (S_t, len(am_t), local), am_t

    S0 = Q * ana.per_edge[min(ana.a_max)]
    key0, _ = key_at(0)
    best = None
    for P in sorted(crossings):
        key, am_t = key_at(P)
        # never let an edge outside the current maximal set take over
        if key[0] == S0 and not (am_t < ana.a_max):
            continue
        if key[0] > S0:
            continue
        if best is None or (key, -P) < (best[0], -best[1]):
            best = (key, P)
    if best is None or best[0] >= key0:
        raise InternalInvariantError("next_v cannot make progress")
    # the step is best[1] / Q units: in a unit k times finer, t0 whole ones
    g = math.gcd(best[1], Q)
    k, t0 = Q // g, best[1] // g
    if k > 1:  # the weights w and the rates r do not depend on the unit
        f, a = _in_units(f, k), k * a
        A, B = f.source, f.target

    out = PLMap(A, B, {**f.vertex_image, v: dart_point(B, beta, a + t0)},
                {**f.edge_image,
                 **slide_ends(f, dict.fromkeys(star[v], [(beta, a, a + t0)]))},
                f.unit)
    per_edge = {e: k * s for e, s in ana.per_edge.items()}
    for e in sorted(slope):
        s, r = lines[e]
        per_edge[e] = out.edge_image[e].length * w[e]
        if per_edge[e] != k * s + r * t0:
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
    can slide.  f is in integer units, and the LP reads its rows in
    `Fraction`s; a point that is not a whole number of units stays an
    exact `Fraction` of one, and the optimizer rescales a map it adopts.

    The cell keeps every image path's interior segments and the target edge
    of every vertex image.  Each vertex image inside a target edge slides
    along it, the endpoints of a constant-image edge together, while images
    at target vertices stay fixed; only the two end coordinates of each
    image path vary.  Image lengths are then affine in the offsets, so one
    exact LP gives the cell's least Lipschitz constant S*: minimize S
    subject to ``a <= b`` on every end segment and ``len_e(x) <= S l_e``.
    The same run picks, on the optimal face, one of least total image
    length: a fold from the map starts at that volume, so the tightest
    optimum bounds the fold's length.  A tie is broken by solving the rows
    plus ``S <= S*`` from scratch.  Each vertex whose point moves slides
    there along its target edge through `slide_ends`.  The map must be
    valid with stretch exactly S*, and S* may not beat ``target``.
    """
    A, B, D = f.source, f.target, f.unit
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
    fraction = partial(Fraction, denominator=D)

    def coordinate(d: Dart, i: int):
        """Dart coordinate of variable i's point: (constant, coefficient)."""
        if d[0] != edge_of[i]:
            raise InternalInvariantError("vertex image left its target edge")
        return (0, 1) if d[1] > 0 else (B.length(d[0]), -1)

    rows = [({i: 1}, fraction(B.length(E))) for i, E in enumerate(edge_of)]
    fixed = [0]
    total = [0] * (k + 1)  # total image length's coefficients
    for e in sorted(A.edges):
        p = f.edge_image[e]
        o, t, l = A.edges[e]
        if not p.segs or (o not in var and t not in var):
            fixed.append(Fraction(p.length, l))
            continue
        # len_e = const + sum(coef[i] x_i); a single segment's ends are a, b
        const, coef = p.length, {}
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
        coef[k] = -fraction(l)
        rows.append((coef, fraction(-const)))
        if len(p.segs) == 1 and None not in ends:
            (a0, a1, i), (b0, b1, j) = ends
            row = {i: a1}
            row[j] = row.get(j, 0) - b1
            rows.append((row, fraction(b0 - a0)))
    rows.append(({k: -1}, -max(fixed)))
    least = [-c for c in total]
    first, lp, unique = maximize_on_optimum([0] * k + [-1], least, rows)
    if first.status != "optimal":
        raise InternalInvariantError(f"cell LP is {first.status}")
    S = -first.value
    if S < target:
        raise InternalInvariantError("cell LP beats the candidate bound")
    if not unique:
        lp = maximize(least, rows + [({k: 1}, S)])
    if lp.status != "optimal":
        raise InternalInvariantError(f"least-length cell LP is {lp.status}")

    star, heads, vertex_image = stars(A), {}, dict(f.vertex_image)
    try:
        for v, i in var.items():
            off, x = f.vertex_image[v][2], lp.x[i] * D
            if x != off:  # v slides along its target edge from off to x
                d = (edge_of[i], 1 if x > off else -1)
                c0, c1 = coordinate(d, i)
                vertex_image[v] = dart_point(B, d, c0 + c1 * x)
                heads.update(dict.fromkeys(
                    star[v], [(d, c0 + c1 * off, c0 + c1 * x)]))
        edge_image = {**f.edge_image, **slide_ends(f, heads)}
    except InvalidInputError as exc:
        raise InternalInvariantError(f"cell LP optimum is not a map: {exc}")
    g = PLMap(A, B, vertex_image, edge_image, D)
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

    It runs in integer units of 1/D, D refined at each step or cell-LP
    point that is not whole; the maps it hands back are in `Fraction`s,
    and the returned one is certified again by `stretch_analysis`.
    """
    if max_moves < 0:
        raise InvalidInputError(f"move budget {max_moves} is negative")
    target = lambda_r(A, B).value
    f, ana = _in_integer_units(initial_pl_map(A, B))
    star = stars(A)
    last_moved: dict = {}
    moves = 0
    while True:
        if ana.stretch < target:
            raise InternalInvariantError(
                "map beats the candidate bound; candidate set must be wrong"
            )
        if ana.stretch == target:
            g = _in_fractions(f, A, B)
            if stretch_analysis(g).stretch != target:
                raise InternalInvariantError(
                    "optimal map written back does not attain the target")
            return g
        if moves >= max_moves:
            raise BudgetExhaustedError(
                f"optimization budget {max_moves} exhausted: best stretch "
                f"{format_fraction(ana.stretch)}, certified target "
                f"{format_fraction(target)}, gap "
                f"{format_fraction(ana.stretch - target)}",
                partial=(_in_fractions(f, A, B), ana.stretch, target),
            )
        offenders = ana.boundary
        if not offenders:
            raise InternalInvariantError(
                "optimal map does not attain the candidate value"
            )
        # always picking the smallest offender can starve the others, and
        # coordinate descent then stalls above the optimum
        v = min(offenders, key=lambda u: (last_moved.get(u, -1), u))
        f, ana = _next_v(f, v, ana, star)
        moves += 1
        last_moved[v] = moves
        if moves % 6 == 0:
            # at the target the LP map wins even when f is there too: it is
            # the cell's optimum of least total image length
            cell = _cell_minimum(f, target)
            if cell is not None and (cell[1].stretch < ana.stretch
                                     or cell[1].stretch == target):
                f, ana = _in_integer_units(cell[0])


# -- bounded cancellation ---------------------------------------------------------------

def _loops_at_by_length(G: MarkedMetricGraph, star: dict[str, list[Dart]],
                        v: str, length_cap: Fraction, max_count: int):
    """Reduced edge loops based at v of length <= length_cap, breadth first
    (shortest loops first), each star of ``star`` in sorted dart order.
    Yields at most max_count loops, then signals truncation by yielding
    None."""
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
    max_loops = max(math.isqrt(pair_cap) + 1, 16)
    loops_truncated = False
    star = {u: sorted(darts) for u, darts in stars(A).items()}

    def admissible():
        """The image pairs of the admissible loop pairs, vertex by vertex."""
        nonlocal loops_truncated
        for v in sorted(A.vertices):
            loops: list[tuple[EdgePath, EdgePath]] = []
            for alpha in _loops_at_by_length(A, star, v, cap, max_loops):
                if alpha is None:
                    loops_truncated = True
                    break
                loops.append((alpha, reduce_darts(
                    x for d in alpha for x in images[d])))
            for (alpha, fa) in loops:
                for (beta, fb) in loops:
                    # alpha . beta reduced at the junction, cyclically reduced
                    if beta[0] != rev(alpha[-1]) and alpha[0] != rev(beta[-1]):
                        yield fa, fb

    K, capped = Fraction(0), False
    for n, (fa, fb) in enumerate(admissible(), start=1):
        if n > pair_cap:
            capped = True
            break
        K = max(K, cancellation(C, fa, fb))
    bound = K + lam * volume(A)
    if capped or loops_truncated:
        raise BudgetExhaustedError(
            f"pair cap {pair_cap} reached; partial bound "
            f"{format_fraction(bound)} is a lower bound",
            partial=bound,
        )
    return bound
