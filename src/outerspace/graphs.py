"""Marked metric graphs: points of unprojectivised Outer Space.

A graph stores, per edge pair, one forward orientation with endpoints and a
positive rational length.  An oriented edge ("dart") is a pair
``(edge_id, sign)``; the reversal involution flips the sign.  The marking is
kept in both directions:

* ``marking[i]`` is the edge path traced by the i-th rose petal, a loop at the
  basepoint;
* ``labels[e]`` is the word read when crossing ``e`` forward under the
  homotopy inverse of the marking.  Only input documents may omit labels
  (`derive_inverse_marking` recovers them); folds and moves carry them.

Consistency means: reading the labels along ``marking[i]`` reduces to exactly
the i-th generator.  Graphs are immutable by convention; every operation
returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidInputError, InternalInvariantError, RankMismatchError
from .words import Word, free_reduce, generator, identity, AutomorphismPair, \
    ValidationReport, validate_automorphism_pair, apply_endomorphism

Dart = tuple[str, int]
EdgePath = tuple[Dart, ...]


def rev(d: Dart) -> Dart:
    return (d[0], -d[1])


@dataclass(frozen=True, eq=True)
class MarkedMetricGraph:
    rank: int
    vertices: frozenset[str]
    edges: Mapping[str, tuple[str, str, Fraction]]  # id -> (origin, terminus, length)
    basepoint: str
    marking: tuple[EdgePath, ...]
    labels: Optional[Mapping[str, Word]] = None

    # -- structural accessors -------------------------------------------------

    def origin(self, d: Dart) -> str:
        o, t, _ = self.edges[d[0]]
        return o if d[1] > 0 else t

    def terminus(self, d: Dart) -> str:
        o, t, _ = self.edges[d[0]]
        return t if d[1] > 0 else o

    def length(self, e: str) -> Fraction:
        return self.edges[e][2]

    def darts(self) -> list[Dart]:
        out = []
        for e in sorted(self.edges):
            out.append((e, 1))
            out.append((e, -1))
        return out

    def star(self, v: str) -> list[Dart]:
        """Darts leaving ``v`` in sorted edge order (a loop at ``v``
        contributes ``(e, 1)`` then ``(e, -1)``); one entry of `stars`."""
        return stars(self).get(v, [])

    def label_of_dart(self, d: Dart) -> Word:
        if self.labels is None or d[0] not in self.labels:
            require_labels(self, (d,))  # raises
        w = self.labels[d[0]]
        return w if d[1] > 0 else w.inverse()

    def with_labels(self, labels: Optional[Mapping[str, Word]]) -> "MarkedMetricGraph":
        return replace(self, labels=labels)


def stars(G: MarkedMetricGraph) -> dict[str, list[Dart]]:
    """``{v: G.star(v)}`` for every vertex, in one pass over the sorted
    edges; callers that visit many vertices read this once."""
    out: dict[str, list[Dart]] = {v: [] for v in sorted(G.vertices)}
    for e in sorted(G.edges):
        o, t, _ = G.edges[e]
        out.setdefault(o, []).append((e, 1))
        out.setdefault(t, []).append((e, -1))
    return out


def make_graph(rank, edges, basepoint, marking, labels=None) -> MarkedMetricGraph:
    """Build a graph from plain data. ``edges`` maps id -> (origin, terminus,
    length); lengths are coerced to Fraction."""
    norm_edges = {
        e: (o, t, Fraction(l)) for e, (o, t, l) in edges.items()
    }
    vertices = frozenset(
        v for (o, t, _) in norm_edges.values() for v in (o, t)
    )
    return MarkedMetricGraph(
        rank=rank,
        vertices=vertices,
        edges=norm_edges,
        basepoint=basepoint,
        marking=tuple(tuple(p) for p in marking),
        labels=dict(labels) if labels is not None else None,
    )


# -- paths --------------------------------------------------------------------

def check_path(G: MarkedMetricGraph, path: EdgePath) -> None:
    for d in path:
        if d[0] not in G.edges or d[1] not in (1, -1):
            raise InvalidInputError(f"unknown oriented edge {d}")
    for a, b in zip(path, path[1:]):
        if G.terminus(a) != G.origin(b):
            raise InvalidInputError(f"non-incident steps {a} -> {b}")


def is_loop(G: MarkedMetricGraph, path: EdgePath) -> bool:
    if not path:
        return True
    return G.origin(path[0]) == G.terminus(path[-1])


def reduce_darts(path: Iterable[Dart], cyclic: bool = False) -> EdgePath:
    """Cancel backtracking in a dart sequence with one stack pass; with
    ``cyclic`` also cancel between its two ends.  No incidence checks, so it
    also serves while the carrying graph is being rebuilt."""
    out: list[Dart] = []
    for d in path:
        if out and out[-1] == rev(d):
            out.pop()
        else:
            out.append(d)
    if cyclic:
        while len(out) >= 2 and out[0] == rev(out[-1]):
            out = out[1:-1]
    return tuple(out)


def tighten(G: MarkedMetricGraph, path: EdgePath, mode: str = "path") -> EdgePath:
    """Reduce a path (cancel backtracking); in ``loop`` mode also reduce
    cyclically, which may move the basepoint of the loop."""
    check_path(G, path)
    if mode not in ("path", "loop"):
        raise InvalidInputError(f"unknown tighten mode {mode!r}")
    if mode == "loop" and not is_loop(G, path):
        raise InvalidInputError("tighten(mode='loop') needs a closed path")
    return reduce_darts(path, mode == "loop")


def is_cyclically_reduced(G: MarkedMetricGraph, path: EdgePath) -> bool:
    check_path(G, path)
    if not path or not is_loop(G, path):
        return False
    for a, b in zip(path, path[1:]):
        if b == rev(a):
            return False
    return path[0] != rev(path[-1]) or len(path) == 1


def path_length(G: MarkedMetricGraph, path: EdgePath) -> Fraction:
    return sum((G.length(d[0]) for d in path), Fraction(0))


def loop_length(G: MarkedMetricGraph, loop: EdgePath) -> Fraction:
    """Length of a cyclically reduced loop; sum of the edges crossed."""
    if not is_cyclically_reduced(G, loop):
        raise InvalidInputError("loop is not cyclically reduced")
    return path_length(G, loop)


# -- marking readouts ----------------------------------------------------------

def _realize_word(G: MarkedMetricGraph, w: Word, mode: str) -> EdgePath:
    if w.rank != G.rank:
        raise RankMismatchError(f"word rank {w.rank} != graph rank {G.rank}")
    if len(G.marking) < G.rank:
        raise InvalidInputError(
            f"{len(G.marking)} marking paths for rank {G.rank}")
    steps: list[Dart] = []
    for x in w.letters:
        petal = G.marking[abs(x) - 1]
        steps.extend(petal if x > 0 else tuple(rev(d) for d in reversed(petal)))
    return tighten(G, tuple(steps), mode)


def realize_word_as_path(G: MarkedMetricGraph, w: Word) -> EdgePath:
    """The based loop tracing ``w`` through the marking, tightened rel
    endpoints."""
    return _realize_word(G, w, "path")


def realize_word_as_loop(G: MarkedMetricGraph, w: Word) -> EdgePath:
    """Cyclically reduced loop representing the conjugacy class of ``w``."""
    return _realize_word(G, w, "loop")


def translation_length(G: MarkedMetricGraph, w: Word) -> Fraction:
    """Length of the shortest loop freely homotopic to the marking image of
    ``w``; zero iff ``w`` is the identity."""
    return path_length(G, realize_word_as_loop(G, w))


def require_labels(G: MarkedMetricGraph, path: EdgePath) -> None:
    """Raise unless every edge the path crosses has an inverse label."""
    if G.labels is None:
        raise InvalidInputError("graph has no inverse labels; derive them first")
    for (e, _) in path:
        if e not in G.labels:
            raise InvalidInputError(f"edge {e} has no inverse label")


def read_labels(G: MarkedMetricGraph, path: EdgePath) -> Word:
    """Freely reduced readout of the inverse labels along a path whose
    edges all have labels (see `require_labels`)."""
    letters: list[int] = []
    for (e, sign) in path:
        w = G.labels[e].letters
        letters.extend(w if sign > 0 else [-x for x in reversed(w)])
    return free_reduce(letters, G.rank)


def word_of_loop(G: MarkedMetricGraph, loop: EdgePath) -> Word:
    """Freely reduced readout of the inverse labels along a loop."""
    check_path(G, loop)
    if not is_loop(G, loop):
        raise InvalidInputError("word_of_loop needs a closed path")
    require_labels(G, loop)
    return read_labels(G, loop)


# -- volume and scaling ---------------------------------------------------------

def volume(G: MarkedMetricGraph) -> Fraction:
    return sum((l for (_, _, l) in G.edges.values()), Fraction(0))


def scale_graph(G: MarkedMetricGraph, c: Fraction) -> MarkedMetricGraph:
    c = Fraction(c)
    if c <= 0:
        raise InvalidInputError("scale factor must be positive")
    edges = {e: (o, t, l * c) for e, (o, t, l) in G.edges.items()}
    return replace(G, edges=edges)


def normalize_volume(G: MarkedMetricGraph) -> tuple[MarkedMetricGraph, Fraction]:
    """Rescale to total volume one; returns the graph and the scale used."""
    scale = Fraction(1) / volume(G)
    return scale_graph(G, scale), scale


def interpolate_in_simplex(A: MarkedMetricGraph, B: MarkedMetricGraph,
                           t: Fraction) -> MarkedMetricGraph:
    """Point (1-t)A + tB on the segment joining two graphs of the same
    simplex (identical underlying graph and marking)."""
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise InvalidInputError(f"interpolation parameter {t} outside [0, 1]")
    same = (
        A.rank == B.rank
        and A.vertices == B.vertices
        and set(A.edges) == set(B.edges)
        and all(A.edges[e][:2] == B.edges[e][:2] for e in A.edges)
        and A.basepoint == B.basepoint
        and A.marking == B.marking
        and A.labels == B.labels
    )
    if not same:
        raise InvalidInputError("graphs do not lie in a common simplex")
    edges = {
        e: (o, tt, (1 - t) * l + t * B.edges[e][2])
        for e, (o, tt, l) in A.edges.items()
    }
    return replace(A, edges=edges)


# -- validation ------------------------------------------------------------------

def validate_marked_graph(G: MarkedMetricGraph) -> ValidationReport:
    """Check every invariant of a marked metric graph; the first issue listed
    is the first violated invariant."""
    issues: list[str] = []

    if G.basepoint not in G.vertices:
        issues.append(f"basepoint {G.basepoint!r} is not a vertex")
    for e, (o, t, l) in sorted(G.edges.items()):
        if o not in G.vertices or t not in G.vertices:
            issues.append(f"edge {e} has endpoint outside the vertex set")
        if l <= 0:
            issues.append(f"edge {e} has non-positive length {l}")
    if issues:
        return ValidationReport(False, tuple(issues))

    # connectivity
    if G.vertices:
        seen = set(bfs_tree(G, G.basepoint))
        if seen != G.vertices:
            missing = sorted(G.vertices - seen)[0]
            issues.append(f"graph is not connected (vertex {missing} unreachable)")

    betti = len(G.edges) - len(G.vertices) + 1
    if betti != G.rank:
        issues.append(f"first Betti number {betti} != rank {G.rank}")

    star = stars(G)
    for v in sorted(G.vertices):
        if len(star[v]) < 2:
            issues.append(f"vertex {v} has valence {len(star[v])} < 2")

    issues += marking_issues(G)
    if len(G.marking) != G.rank:
        return ValidationReport(False, tuple(issues))

    if G.labels is None:
        issues.append("inverse labels are missing")
        return ValidationReport(False, tuple(issues))
    missing = sorted(set(G.edges) - set(G.labels))
    if missing:
        issues.append(f"edge {missing[0]} has no inverse label")
        return ValidationReport(False, tuple(issues))
    if not issues:
        # every petal is a checked loop and every edge has a label
        for i, petal in enumerate(G.marking, start=1):
            readout = read_labels(G, petal)
            if readout != generator(i, G.rank):
                issues.append(
                    f"marking consistency fails for generator {i}: "
                    f"readout {readout.letters}"
                )
    return ValidationReport(not issues, tuple(issues))


def marking_issues(G: MarkedMetricGraph) -> list[str]:
    """The marking's part of `validate_marked_graph`: one petal per
    generator, each a path of known darts that is a loop at the basepoint."""
    if len(G.marking) != G.rank:
        return [f"{len(G.marking)} marking paths for rank {G.rank}"]
    issues: list[str] = []
    for i, petal in enumerate(G.marking, start=1):
        try:
            check_path(G, petal)
        except InvalidInputError as exc:
            issues.append(f"marking path {i}: {exc}")
            continue
        if not petal or G.origin(petal[0]) != G.basepoint \
                or G.terminus(petal[-1]) != G.basepoint:
            issues.append(f"marking path {i} is not a loop at the basepoint")
    return issues


# -- marking actions ----------------------------------------------------------------

def apply_automorphism_to_marking(G: MarkedMetricGraph,
                                  phi: AutomorphismPair) -> MarkedMetricGraph:
    """The point G . phi: same metric graph, marking precomposed with phi.

    New petal i traces the old realization of phi(a_i); labels get the inverse
    automorphism applied so that readouts still give the plain generators.
    """
    if phi.rank != G.rank:
        raise RankMismatchError(f"automorphism rank {phi.rank} != graph rank {G.rank}")
    report = validate_automorphism_pair(phi)
    if not report.ok:
        raise InvalidInputError(f"invalid automorphism pair: {report.issues[0]}")
    new_marking = tuple(
        realize_word_as_path(G, w) for w in phi.forward_images
    )
    new_labels = None
    if G.labels is not None:
        new_labels = {
            e: apply_endomorphism(w, phi.inverse_images)
            for e, w in G.labels.items()
        }
    return replace(G, marking=new_marking, labels=new_labels)


# -- subdivision -----------------------------------------------------------------------

def fresh_id(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    k = 1
    while f"{base}.{k}" in taken:
        k += 1
    return f"{base}.{k}"


def subdivide(G: MarkedMetricGraph, cuts: Mapping[str, Sequence[Fraction]]
              ) -> tuple[MarkedMetricGraph, dict[Dart, EdgePath]]:
    """Subdivide edges at interior offsets (measured along the forward
    orientation).

    Returns the subdivided graph together with the dart expansion map.  The
    first piece keeps the old label, later pieces get the empty word, so
    readouts along any path are unchanged.
    """
    edges = dict(G.edges)
    labels = dict(G.labels) if G.labels is not None else None
    vertices = set(G.vertices)
    expansion: dict[Dart, EdgePath] = {}

    for e in sorted(cuts):
        offs = sorted(set(Fraction(x) for x in cuts[e]))
        o, t, l = edges[e]
        if any(not (0 < x < l) for x in offs):
            raise InvalidInputError(f"cut offsets for edge {e} not interior")
        if not offs:
            continue
        bounds = [Fraction(0)] + offs + [l]
        piece_ids = []
        taken = set(edges)  # holds the pieces of every edge cut so far
        for k in range(len(bounds) - 1):
            piece_ids.append(fresh_id(f"{e}.{k + 1}", taken))
            taken.add(piece_ids[-1])
        mids = []
        vtaken = set(vertices)
        for k in range(len(offs)):
            m = fresh_id(f"{e}:v{k + 1}", vtaken)
            vtaken.add(m)
            mids.append(m)
        vertices.update(mids)
        chain = [o] + mids + [t]
        del edges[e]
        for k, pid in enumerate(piece_ids):
            edges[pid] = (chain[k], chain[k + 1], bounds[k + 1] - bounds[k])
        if labels is not None:
            lab = labels.pop(e)
            for k, pid in enumerate(piece_ids):
                labels[pid] = lab if k == 0 else identity(G.rank)
        fwd = tuple((pid, 1) for pid in piece_ids)
        expansion[(e, 1)] = fwd
        expansion[(e, -1)] = tuple(rev(d) for d in reversed(fwd))

    for e in G.edges:
        if (e, 1) not in expansion:
            expansion[(e, 1)] = ((e, 1),)
            expansion[(e, -1)] = ((e, -1),)

    marking = tuple(
        tuple(x for d in petal for x in expansion[d]) for petal in G.marking
    )
    G2 = MarkedMetricGraph(
        rank=G.rank,
        vertices=frozenset(vertices),
        edges=edges,
        basepoint=G.basepoint,
        marking=marking,
        labels=labels,
    )
    return G2, expansion


# -- spanning trees and union-find ----------------------------------------------------

def bfs_tree(G: MarkedMetricGraph, root: str) -> dict[str, Optional[Dart]]:
    """Breadth-first spanning tree of the component of ``root``: each reached
    vertex maps to the dart it was reached along (``root`` to None), in
    discovery order, scanning every star in sorted dart order."""
    star = stars(G)
    tree: dict[str, Optional[Dart]] = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for d in star.get(v, ()):
                w = G.terminus(d)
                if w not in tree:
                    tree[w] = d
                    nxt.append(w)
        frontier = nxt
    return tree


def uf_find(parent: dict, x):
    """Root of x in a dict-based union-find; unseen elements are singletons."""
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def uf_union(parent: dict, a, b) -> None:
    """Merge the classes of a and b; the smaller root stays the root."""
    ra, rb = uf_find(parent, a), uf_find(parent, b)
    if ra != rb:
        parent[max(ra, rb)] = min(ra, rb)


def unsubdivided_lengths(G: MarkedMetricGraph) -> list[Fraction]:
    """Edge lengths of the graph that ``G`` subdivides: one total per
    maximal chain of edges through bivalent vertices, ordered by the least
    edge id of each chain.  The two ends of one loop edge make no joint."""
    parent: dict[str, str] = {}
    for star in stars(G).values():
        if len(star) == 2 and star[0][0] != star[1][0]:
            uf_union(parent, star[0][0], star[1][0])
    totals: dict[str, Fraction] = {}
    for e in sorted(G.edges):
        root = uf_find(parent, e)
        totals[root] = totals.get(root, Fraction(0)) + G.length(e)
    return [totals[root] for root in sorted(totals)]


# -- gauged vertex classes and label derivation ------------------------------------------

class GaugedClasses:
    """Union-find over vertices whose merges keep every loop's word.

    ``ends`` maps edges to (origin, terminus), ``labels`` (copied) to words.
    A merge gauges the class without the basepoint ``base``; the smaller root
    names the merged class; ``edges[root]`` holds the edges with an end in it.
    """

    def __init__(self, ends: Mapping, labels: Mapping, base) -> None:
        self.ends = ends
        self.labels = dict(labels)
        self.base = base
        self.parent = {base: base}
        self.edges: dict = {base: set()}
        for e, (o, t) in ends.items():
            for v in (o, t):
                self.parent[v] = v
                self.edges.setdefault(v, set()).add(e)

    def find(self, v):
        return uf_find(self.parent, v)

    def read(self, d: Dart) -> Word:
        w = self.labels[d[0]]
        return w if d[1] > 0 else w.inverse()

    def merge(self, a, b, c: Word) -> bool:
        """Join the classes of ``a`` and ``b`` so that a path from ``a`` to
        ``b`` reading ``c`` reads the identity; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb == self.find(self.base):
            ra, rb, c = rb, ra, c.inverse()
        for e in self.edges[rb]:
            o, t = self.ends[e]
            w = c * self.labels[e] if self.find(o) == rb else self.labels[e]
            self.labels[e] = w * c.inverse() if self.find(t) == rb else w
        self.parent[max(ra, rb)] = min(ra, rb)
        self.edges[min(ra, rb)] = self.edges.pop(ra) | self.edges.pop(rb)
        return True


def derive_inverse_marking(G: MarkedMetricGraph) -> dict[str, Word]:
    """Compute inverse labels from the forward marking alone.

    A wedge of subdivided circles, one per petal and carrying the petal's
    generator on its first edge, is folded onto ``G``: edges leaving a common
    vertex with the same image are identified, after a gauge move at the
    absorbed vertex keeps all petal readouts intact.  The fold fails exactly
    when the forward marking is not a marking isomorphism on the fundamental
    group.
    """
    # wedge edge k covers image[k]; 0 is the basepoint, k + 1 the vertex after k
    ends: dict[int, tuple[int, int]] = {}
    image: dict[int, Dart] = {}
    words: dict[int, Word] = {}
    for i, petal in enumerate(G.marking, start=1):
        path = tighten(G, petal, "path")
        if not path or not is_loop(G, path) or G.origin(path[0]) != G.basepoint:
            raise InvalidInputError(
                f"marking path {i} does not tighten to a basepoint loop"
            )
        prev = 0
        for j, d in enumerate(path):
            k = len(ends)
            nxt = 0 if j == len(path) - 1 else k + 1
            ends[k], image[k] = (prev, nxt), d
            words[k] = generator(i, G.rank) if j == 0 else identity(G.rank)
            prev = nxt
    vc = GaugedClasses(ends, words, 0)

    def next_fold():
        """The first two wedge darts, each with its far end, that leave the
        smallest class root with a shared image."""
        for x in sorted(vc.edges):
            by_dart: dict[Dart, list] = {}
            for k in sorted(vc.edges[x]):
                o, t = ends[k]
                if vc.find(o) == x:
                    by_dart.setdefault(image[k], []).append(((k, 1), t))
                if vc.find(t) == x:
                    by_dart.setdefault(rev(image[k]), []).append(((k, -1), o))
            for d in sorted(by_dart):
                if len(by_dart[d]) >= 2:
                    return by_dart[d][:2]
        return None

    while (pair := next_fold()) is not None:
        # absorb the far end of the second dart, never the basepoint
        (d1, y1), (d2, y2) = pair
        if vc.find(y2) == vc.find(0):
            (d1, y1), (d2, y2) = pair[::-1]
        if not vc.merge(y1, y2, vc.read(d1).inverse() * vc.read(d2)):
            raise InvalidInputError(
                "forward marking is not injective on the fundamental group "
                "(fold would reduce rank)"
            )
        # after the gauge the two folded darts read the same word
        if vc.read(d1) != vc.read(d2):
            raise InternalInvariantError("gauge did not align folded edges")
        for v in ends[d2[0]]:
            vc.edges[vc.find(v)].discard(d2[0])

    # extract: alive edges must biject with G's edges
    label_words: dict[str, Word] = {}
    vmap: dict[int, str] = {}
    alive = sorted({k for ks in vc.edges.values() for k in ks})
    if len(alive) != len(G.edges):
        raise InvalidInputError(
            "forward marking does not fold onto the graph "
            f"({len(alive)} folded edges for {len(G.edges)} graph edges)"
        )
    for k in alive:
        e, s = image[k]
        if e in label_words:
            raise InvalidInputError(
                f"forward marking folds two edges onto edge {e}"
            )
        label_words[e] = vc.read((k, s))
        o, t = ends[k]
        mo, mt = (vc.find(o), vc.find(t)) if s > 0 else (vc.find(t), vc.find(o))
        for mv, gv in ((mo, G.origin((e, 1))), (mt, G.terminus((e, 1)))):
            if vmap.setdefault(mv, gv) != gv:
                raise InvalidInputError(
                    "folded marking graph is not isomorphic to the graph"
                )
    if vmap.get(vc.find(0)) != G.basepoint:
        raise InvalidInputError("folded basepoint does not match the basepoint")
    if set(label_words) != set(G.edges):
        missing = sorted(set(G.edges) - set(label_words))[0]
        raise InvalidInputError(f"marking does not cover edge {missing}")
    return label_words


def ensure_labels(G: MarkedMetricGraph) -> MarkedMetricGraph:
    """Return G with inverse labels, deriving them if absent."""
    if G.labels is not None:
        return G
    return G.with_labels(derive_inverse_marking(G))
