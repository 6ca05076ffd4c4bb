"""Candidate loops and stretching factors.

The right-hand stretching factor between two marked graphs is the supremum of
length ratios over conjugacy classes; it is attained on a finite set of
candidate loops of the source that depends only on the source graph:
embedded circles, figure-eights (two embedded circles meeting at one point)
and barbells / dumbbells (two disjoint embedded circles joined by an embedded
arc).  Darts are numbered as integers (see `_darts`).  An enumeration finds
each circle once, reads it from a vertex when a join first asks for it,
checks reduction per piece, since then every junction is a turn (see
`_candidates_of_type`), and keeps the candidates as integer loops in a table
per combinatorial type, in the order found; the last few tables are kept.
A candidate's canonical key and its `CandidateLoop` are computed only where
read: to order the witnesses of a factor, or the whole set where listed.  A
candidate is evaluated through per-edge image paths: every edge label of the
source is realized once through the target's marking, and the candidate's
image is the cyclic reduction of its darts' images, found in one stack pass
that darts with the identity label skip.  Lengths are summed as integers,
each graph's scaled by the common denominator of its edge lengths, and ratios
are compared by cross-multiplication.  What the evaluation reads of a graph
is prepared once per graph object, and the last values asked for are kept,
both by graph identity: a graph must not be changed in place after a query.
Everything here is exact; logarithms are left to display.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import InvalidInputError, RankMismatchError
from .graphs import (
    Dart,
    EdgePath,
    MarkedMetricGraph,
    marking_issues,
    reduce_darts,
)


class CandidateShape(str, Enum):
    O = "O"
    FIGURE_EIGHT = "FIGURE_EIGHT"
    DUMBBELL = "DUMBBELL"


@dataclass(frozen=True)
class CandidateLoop:
    shape: CandidateShape
    loop: EdgePath


def _darts(edges: Iterable[str]) -> list[Dart]:
    """The darts of the edges, numbered by position: the i-th edge in sorted
    order is crossed backward as 2i and forward as 2i + 1, so integer order
    is `Dart` order and reversal is ``d ^ 1``."""
    return [(e, sign) for e in sorted(edges) for sign in (-1, 1)]


def _least_rotation(loop: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation among both orientations of an integer loop.

    It starts at the least dart of either orientation, the least edge's
    backward dart: in the loop where the loop crosses that edge backward,
    in its reverse where it crosses it forward.  Only the rotations starting
    there are compared, one when no dart repeats, as in every candidate loop
    (two when it crosses the edge both ways).
    """
    if not loop:
        return ()
    least = min(loop) & ~1
    seqs = [loop] if least in loop else []
    if (least | 1) in loop:
        seqs.append(tuple([d ^ 1 for d in reversed(loop)]))
    rotations = []
    for seq in seqs:
        i = -1
        for _ in range(seq.count(least)):
            i = seq.index(least, i + 1)
            rotations.append(seq[i:] + seq[:i])
    return min(rotations)


def _combinatorial_type(G: MarkedMetricGraph) -> tuple:
    """What the candidate set depends on: the vertex set and the sorted
    ``(edge, origin, terminus)`` triples, without lengths or marking."""
    return (G.vertices,
            tuple(sorted((e, o, t) for e, (o, t, _) in G.edges.items())))


def _incidence(vertices: frozenset[str],
               triples: tuple[tuple[str, str, str], ...]) -> tuple:
    """``(head, tail, star, turns)`` of a combinatorial type on integer
    darts and vertices (in sorted order): each dart's ends, each vertex's
    star in dart order, and after each dart the darts that continue it
    without backtracking, with their heads.  The searches run in star
    order."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    head: list[int] = []
    tail: list[int] = []
    star: list[list[int]] = [[] for _ in index]
    for i, (_, o, t) in enumerate(triples):
        o, t = index[o], index[t]
        head += (o, t)
        tail += (t, o)
        star[t].append(2 * i)
        star[o].append(2 * i + 1)
    turns = [tuple((x, head[x]) for x in star[w] if x != d ^ 1)
             for d, w in enumerate(head)]
    return head, tail, star, turns


def _simple_paths(turns: list, firsts: list, free: set[int],
                  stop: set[int]) -> list[tuple[int, ...]]:
    """Every path that leaves by one of ``firsts``, ``(dart, head)`` pairs
    in order, goes on through distinct ``free`` vertices and ends at the
    first ``stop`` vertex it reaches: depth first on an explicit stack, which
    hands ``free`` back as it found it."""
    paths: list[tuple[int, ...]] = []
    path: list[int] = []
    stack = [(iter(firsts), None)]
    while stack:
        for d, w in stack[-1][0]:
            if w in stop:
                paths.append(tuple(path) + (d,))
            elif w in free:
                free.remove(w)
                path.append(d)
                stack.append((iter(turns[d]), w))
                break
        else:
            w = stack.pop()[1]
            if w is not None:
                path.pop()
                free.add(w)
    return paths


def _embedded_circles(inc: tuple) -> list[tuple[int, ...]]:
    """All embedded circles in canonical form, sorted.

    Each is found once: from its least vertex s, in the orientation whose
    first dart is less than the reverse of its last.  That reverse also
    leaves s toward a later vertex, so the greatest such dart starts none.
    """
    head, _, star, turns = inc
    circles: list[tuple[int, ...]] = []
    later = set(range(len(star)))
    for v in range(len(star)):
        later.remove(v)
        circles += [(d,) for d in star[v] if head[d] == v and not d & 1]
        firsts = [(d, head[d]) for d in star[v] if head[d] in later]
        circles += [_least_rotation(c)
                    for c in _simple_paths(turns, firsts[:-1], later, {v})
                    if c[0] < c[-1] ^ 1]
    circles.sort()
    return circles


def _embedded_arcs(inc: tuple, src: set[int],
                   dst: set[int]) -> list[tuple[int, ...]]:
    """Embedded arcs from a vertex of src to a vertex of dst whose interior
    avoids both endpoint sets, each first dart out of src in order."""
    head, _, star, turns = inc
    return _simple_paths(turns,
                         [(d, head[d]) for v in sorted(src) for d in star[v]],
                         set(range(len(star))) - src - dst, dst)


def _reverse(path: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([d ^ 1 for d in reversed(path)])


def _rotations(c: tuple[int, ...], k: int) -> tuple:
    """Circle c read from its k-th dart, and the reverse of that."""
    r = c[k:] + c[:k]
    return r, _reverse(r)


class _CandidateTable:
    """The candidate set of one combinatorial type in enumeration order: each
    candidate's shape and integer loop.  Candidate k's canonical key and its
    `CandidateLoop` are computed when first asked for, then kept."""

    def __init__(self, darts: list[Dart], shapes: list[CandidateShape],
                 loops: list[tuple[int, ...]]):
        self.darts = darts
        self.shapes = shapes
        self.loops = loops
        self.keys: list[tuple | None] = [None] * len(loops)
        self.built: list[CandidateLoop | None] = [None] * len(loops)

    def decode(self, path: tuple[int, ...]) -> EdgePath:
        return tuple([self.darts[d] for d in path])

    def candidate(self, k: int) -> CandidateLoop:
        cand = self.built[k]
        if cand is None:
            cand = self.built[k] = CandidateLoop(
                self.shapes[k], self.decode(self.loops[k]))
        return cand

    def canonical(self, ks: Iterable[int]) -> list[int]:
        """The candidates ``ks``, given in enumeration order, sorted by their
        key, the shape (a str enum sorts by its value) and then the
        `_least_rotation` of the loop, keeping the first of each key.  Each
        key is computed once per table."""
        first: dict[tuple, int] = {}
        for k in ks:
            key = self.keys[k]
            if key is None:
                key = self.keys[k] = (self.shapes[k],
                                      _least_rotation(self.loops[k]))
            first.setdefault(key, k)
        return [first[key] for key in sorted(first)]

    @functools.cached_property
    def order(self) -> list[int]:
        """Every candidate in canonical order."""
        return self.canonical(range(len(self.loops)))


# Bounds of three module-level caches that drop the entry used least
# recently (README gives their sizes by tracemalloc): candidate tables by
# combinatorial type, `_GraphRecord`s by graph identity and `lambda_r`
# values by the identities of source and target; an identity entry keeps
# its graphs alive, so no other object can take their ids.
_TYPE_CACHE_SIZE = 16
_RECORD_CACHE_SIZE = 32
_PAIR_CACHE_SIZE = 256


def enumerate_candidates(G: MarkedMetricGraph) -> list[CandidateLoop]:
    """The finite candidate set of G: every embedded circle, figure-eight and
    dumbbell, each once up to rotation and inversion, sorted canonically.

    The set depends only on the combinatorial type of G.  The sets of the
    `_TYPE_CACHE_SIZE` types used last are kept in enumeration order in a
    module-level cache, never on the graph, which every fold snapshot would
    keep alive; the canonical order is sorted once, when first read.  Each
    call returns a fresh list of the shared frozen candidates.
    """
    table = _candidates_of_type(*_combinatorial_type(G))
    return [table.candidate(k) for k in table.order]


@functools.lru_cache(maxsize=_TYPE_CACHE_SIZE)
def _candidates_of_type(vertices: frozenset[str],
                        triples: tuple[tuple[str, str, str], ...]
                        ) -> _CandidateTable:
    """Each loop must be cyclically reduced, which is checked per piece:
    each circle embedded (its darts leave distinct vertices) and cyclically
    reduced, no loop edge in two circles, each arc reduced, its first dart
    ending outside src and its last starting outside dst.  Then each
    junction is a turn: a rotation leaves and enters its junction vertex
    along its circle, an arc leaves src and enters dst from outside them,
    and two circles sharing one vertex share no edge.  If a piece fails,
    the first loop that is not cyclically reduced is rejected."""
    inc = _incidence(vertices, triples)
    head, tail, _, turns = inc
    turn_pairs = {(d, x) for d, after in enumerate(turns) for (x, _) in after}
    circles = _embedded_circles(inc)
    shapes = [CandidateShape.O] * len(circles)
    loops = list(circles)
    # ``at[j][v]``: where circle j leaves v; ``rot[j][v]``: circle j, then
    # its reverse, read from v, built when a join first asks for it
    at = [{tail[d]: k for k, d in enumerate(c)} for c in circles]
    masks = [sum(1 << v for v in a) for a in at]
    rot = [{} for _ in circles]
    rings = [c[0] >> 1 for c in circles if len(c) == 1]
    ok = len(set(rings)) == len(rings) and all(
        len(a) == len(c) and turn_pairs.issuperset(zip(c, c[1:] + c[:1]))
        for a, c in zip(at, circles))
    arcs: dict[tuple[int, int], list[tuple]] = {}
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            common = masks[i] & masks[j]
            if common and not common & (common - 1):
                # exactly one common vertex: a figure-eight, on an empty arc
                v = common.bit_length() - 1
                shape, joins = CandidateShape.FIGURE_EIGHT, [((), (), v, v)]
            elif not common:
                pair = (masks[i], masks[j])
                if pair not in arcs:
                    found = _embedded_arcs(inc, set(at[i]), set(at[j]))
                    ok = ok and all(
                        head[a[0]] not in at[i] and tail[a[-1]] not in at[j]
                        and turn_pairs.issuperset(zip(a, a[1:]))
                        for a in found)
                    arcs[pair] = [(a, _reverse(a), tail[a[0]], head[a[-1]])
                                  for a in found]
                shape, joins = CandidateShape.DUMBBELL, arcs[pair]
            else:
                continue
            ri, rj = rot[i], rot[j]
            for (arc, arc_rev, u, w) in joins:
                r1 = (ri.get(u) or ri.setdefault(
                    u, _rotations(circles[i], at[i][u])))[0]
                for r2 in rj.get(w) or rj.setdefault(
                        w, _rotations(circles[j], at[j][w])):
                    shapes.append(shape)
                    loops.append(r1 + arc + r2 + arc_rev)

    table = _CandidateTable(_darts(e for (e, _, _) in triples), shapes, loops)
    for loop in [] if ok else loops:
        if not turn_pairs.issuperset(zip(loop, loop[1:] + loop[:1])):
            raise InvalidInputError(
                f"candidate loop {table.decode(loop)} is not cyclically "
                "reduced"
            )
    return table


@dataclass(frozen=True)
class StretchValue:
    value: Fraction
    witnesses: tuple[CandidateLoop, ...]

    @property
    def witness(self) -> CandidateLoop:
        return self.witnesses[0]


class _GraphRecord:
    """What `lambda_r` reads of a graph on either side, prepared once: its
    type key, the common denominator ``scale`` of its edge lengths and each
    dart's length times it, in `_darts` order, its labels by sorted edge,
    its volume, the first issue `marking_issues` finds (None if none) and,
    only if there is none, by letter each petal as a reduced path of integer
    darts."""

    __slots__ = ("key", "scale", "lengths", "labels", "volume", "issue",
                 "petals")

    def __init__(self, G: MarkedMetricGraph):
        self.key = _combinatorial_type(G)
        edges = sorted(G.edges)
        lengths = [G.length(e) for e in edges]
        self.scale = math.lcm(*(l.denominator for l in lengths))
        ints = [l.numerator * (self.scale // l.denominator) for l in lengths]
        self.lengths = [n for n in ints for _ in (0, 1)]
        self.volume = Fraction(sum(ints), self.scale)
        self.labels = [G.labels[e] for e in edges]
        self.issue = next(iter(marking_issues(G)), None)
        self.petals: dict[int, tuple[int, ...]] = {}
        if self.issue is None:
            code = {d: k for k, d in enumerate(_darts(edges))}
            for x, petal in enumerate(G.marking, start=1):
                path = tuple([code[d] for d in reduce_darts(petal)])
                self.petals[x], self.petals[-x] = path, _reverse(path)


_RECORDS: OrderedDict = OrderedDict()
_PAIRS: OrderedDict = OrderedDict()


def _identity_lru(cache: OrderedDict, size: int, build, *objs):
    """``build(*objs)``, kept in ``cache`` under the objects' ids with the
    ``size`` entries used last; a hit needs the very same objects."""
    key = tuple(map(id, objs))
    hit = cache.get(key)
    if hit is not None and all(map(operator.is_, hit[0], objs)):
        cache.move_to_end(key)
        return hit[1]
    value = build(*objs)
    cache[key] = (objs, value)
    if len(cache) > size:
        cache.popitem(last=False)
    return value


def _record(G: MarkedMetricGraph) -> _GraphRecord:
    return _identity_lru(_RECORDS, _RECORD_CACHE_SIZE, _GraphRecord, G)


def _realize(B: MarkedMetricGraph, rb: _GraphRecord, w) -> tuple[int, ...]:
    """The reduced path of B's integer darts tracing the word ``w``: each
    letter's petal pushed onto one stack, popping where it cancels against
    the top (only at a seam, as every petal is reduced).  A marking with an
    issue is rejected with its first issue."""
    if w.rank != B.rank:
        raise RankMismatchError(f"word rank {w.rank} != graph rank {B.rank}")
    if rb.issue is not None:
        raise InvalidInputError(rb.issue)
    stack: list[int] = []
    for x in w.letters:
        path = rb.petals[x]
        i = 0
        while stack and i < len(path) and stack[-1] == path[i] ^ 1:
            stack.pop()
            i += 1
        stack += path[i:]
    return tuple(stack)


def lambda_r(A: MarkedMetricGraph, B: MarkedMetricGraph) -> StretchValue:
    """Right-hand stretching factor sup l_B(w)/l_A(w), computed exactly on
    the candidate set of A, with every maximizing candidate as witness.

    The values of the last `_PAIR_CACHE_SIZE` pairs are kept by the
    identities of A and B (`_evaluate` computes them).
    """
    if A.rank != B.rank:
        raise RankMismatchError(f"ranks differ: {A.rank} != {B.rank}")
    return _identity_lru(_PAIRS, _PAIR_CACHE_SIZE, _evaluate, A, B)


def _evaluate(A: MarkedMetricGraph, B: MarkedMetricGraph) -> StretchValue:
    """`lambda_r` on the integer loops of A's candidate table, in its order.

    Each edge label of A is realized once as a reduced path of B's integer
    darts (`_realize`).  A candidate's image is its darts' images
    concatenated and cyclically reduced, which is the loop realizing the
    candidate's word, since free reduction is confluent.  One stack pass per
    candidate pushes each dart's image, popping where it cancels against the
    top (only at a seam, as every image is reduced), then trims matching
    ends; a dart with the identity label, whose image is empty, only adds
    its length.  B's length is the images' integer lengths (`_GraphRecord`)
    less twice each cancelled or trimmed dart's.  Ratios are compared by
    cross-multiplying these integers; one `Fraction` is built, and keys and
    `CandidateLoop`s only for the witnesses, listed in canonical order.
    """
    ra, rb = _record(A), _record(B)
    table = _candidates_of_type(*ra.key)
    length_b = rb.lengths
    # per dart of A: its image, the image's length and the dart's length
    image: list[tuple[tuple[int, ...], int, int]] = []
    for i, w in enumerate(ra.labels):
        path = _realize(B, rb, w)
        length = sum(length_b[x] for x in path)
        image += ((_reverse(path), length, ra.lengths[2 * i]),
                  (path, length, ra.lengths[2 * i]))
    best_b, best_a = 0, 1
    witnesses: list[int] = []
    for k, loop in enumerate(table.loops):
        stack: list[int] = []
        lb = la = 0
        for d in loop:
            path, length_path, length_d = image[d]
            la += length_d
            if path:
                lb += length_path
                i = 0
                while stack and i < len(path) and stack[-1] == path[i] ^ 1:
                    lb -= 2 * length_b[stack.pop()]
                    i += 1
                stack += path[i:]
        i, j = 0, len(stack) - 1
        while i < j and stack[i] == stack[j] ^ 1:
            lb -= 2 * length_b[stack[i]]
            i += 1
            j -= 1
        if lb <= 0:
            raise InvalidInputError(
                "candidate loop maps to a trivial class; marking is not an "
                "isomorphism"
            )
        cross = lb * best_a - best_b * la
        if cross > 0:
            best_b, best_a, witnesses = lb, la, [k]
        elif cross == 0:
            witnesses.append(k)
    if not witnesses:
        raise InvalidInputError("source graph has no candidate loop")
    return StretchValue(Fraction(best_b * ra.scale, best_a * rb.scale),
                        tuple(map(table.candidate,
                                  table.canonical(witnesses))))


@dataclass(frozen=True)
class StretchReport:
    lambda_R: Fraction          # on volume-one representatives
    lambda_L: Fraction
    Lambda: Fraction            # lambda_R * lambda_L (scale-invariant)
    witnesses_R: tuple[CandidateLoop, ...]
    witnesses_L: tuple[CandidateLoop, ...]


def stretch_report(A: MarkedMetricGraph, B: MarkedMetricGraph) -> StretchReport:
    """Both stretching factors on volume-one representatives, their
    product, and every maximizing candidate on either side.

    The factors are computed on A and B themselves and rescaled by their
    volumes: the candidates depend only on the topology and a positive
    factor keeps the maximizers, so values and witnesses are exactly those
    of the volume-one copies.
    """
    right, left = lambda_r(A, B), lambda_r(B, A)
    ratio = _record(A).volume / _record(B).volume
    lam_R, lam_L = right.value * ratio, left.value / ratio
    return StretchReport(lambda_R=lam_R, lambda_L=lam_L, Lambda=lam_R * lam_L,
                         witnesses_R=right.witnesses,
                         witnesses_L=left.witnesses)
