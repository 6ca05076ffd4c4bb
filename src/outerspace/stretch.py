"""Candidate loops and stretching factors.

The right-hand stretching factor between two marked graphs is the supremum of
length ratios over conjugacy classes; it is attained on a finite set of
candidate loops of the source that depends only on the source graph:
embedded circles, figure-eights (two embedded circles meeting at one point)
and barbells / dumbbells (two disjoint embedded circles joined by an embedded
arc).  Everything here is exact rational arithmetic; logarithms appear only
in the report fields meant for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .docs import format_fraction
from .errors import BudgetExhaustedError, InvalidInputError, RankMismatchError
from .graphs import (
    Dart,
    EdgePath,
    MarkedMetricGraph,
    is_cyclically_reduced,
    loop_length,
    normalize_volume,
    rev,
    translation_length,
    volume,
    word_of_loop,
)
from .words import Word


class CandidateShape(str, Enum):
    O = "O"
    FIGURE_EIGHT = "FIGURE_EIGHT"
    DUMBBELL = "DUMBBELL"


@dataclass(frozen=True)
class CandidateLoop:
    shape: CandidateShape
    loop: EdgePath
    components: tuple[EdgePath, ...]  # circles, then the arc for dumbbells

    def key(self):
        return (self.shape.value, canonical_loop(self.loop))


def canonical_loop(loop: EdgePath) -> EdgePath:
    """Least rotation among both orientations; identifies loops up to
    rotation and inversion."""
    if not loop:
        return ()
    best = None
    reversed_loop = tuple(rev(d) for d in reversed(loop))
    for seq in (loop, reversed_loop):
        for r in range(len(seq)):
            rot = seq[r:] + seq[:r]
            if best is None or rot < best:
                best = rot
    return best


def _rotate_to(loop: EdgePath, v: str, G: MarkedMetricGraph) -> EdgePath:
    for r in range(len(loop)):
        if G.origin(loop[r]) == v:
            return loop[r:] + loop[:r]
    raise InvalidInputError(f"loop does not pass through vertex {v}")


def _loop_vertices(G: MarkedMetricGraph, loop: EdgePath) -> frozenset[str]:
    return frozenset(G.origin(d) for d in loop)


def embedded_circles(G: MarkedMetricGraph) -> list[EdgePath]:
    """All embedded circles, one per rotation/inversion class."""
    found: dict[EdgePath, EdgePath] = {}
    order = {v: i for i, v in enumerate(sorted(G.vertices))}

    def extend(path: list[Dart], visited: set[str], start: str):
        at = G.terminus(path[-1])
        for d in sorted(G.star(at)):
            if d == rev(path[-1]):
                continue
            w = G.terminus(d)
            if w == start:
                # close; the corner at the start must be reduced too
                if d != rev(path[0]):
                    key = canonical_loop(tuple(path) + (d,))
                    found.setdefault(key, key)
                continue
            if w in visited or order[w] < order[start]:
                continue
            visited.add(w)
            path.append(d)
            extend(path, visited, start)
            path.pop()
            visited.remove(w)

    for v in sorted(G.vertices):
        for d in sorted(G.star(v)):
            if G.terminus(d) == v:
                found.setdefault(canonical_loop((d,)), canonical_loop((d,)))
            elif order[G.terminus(d)] > order[v]:
                extend([d], {v, G.terminus(d)}, v)
    return sorted(found.values())


def _embedded_arcs(G: MarkedMetricGraph, src: frozenset[str],
                   dst: frozenset[str]) -> list[EdgePath]:
    """Embedded arcs from a vertex of src to a vertex of dst whose interior
    avoids both endpoint sets."""
    arcs = []

    def extend(path: list[Dart], visited: set[str]):
        at = G.terminus(path[-1])
        if at in dst:
            arcs.append(tuple(path))
            return
        if at in src:
            return
        for d in sorted(G.star(at)):
            if d == rev(path[-1]):
                continue
            w = G.terminus(d)
            if w in visited:
                continue
            visited.add(w)
            path.append(d)
            extend(path, visited)
            path.pop()
            visited.discard(w)

    for v in sorted(src):
        for d in sorted(G.star(v)):
            extend([d], {v, G.terminus(d)})
    return arcs


def enumerate_candidates(G: MarkedMetricGraph) -> list[CandidateLoop]:
    """The finite candidate set of G: every embedded circle, figure-eight and
    dumbbell, each once up to rotation and inversion, sorted canonically."""
    circles = embedded_circles(G)
    out: dict[tuple, CandidateLoop] = {}

    for c in circles:
        cand = CandidateLoop(CandidateShape.O, c, (c,))
        out.setdefault(cand.key(), cand)

    for i, c1 in enumerate(circles):
        for c2 in circles[i + 1:]:
            v1 = _loop_vertices(G, c1)
            v2 = _loop_vertices(G, c2)
            common = v1 & v2
            if len(common) == 1:
                v = next(iter(common))
                r1 = _rotate_to(c1, v, G)
                for c2o in (c2, tuple(rev(d) for d in reversed(c2))):
                    r2 = _rotate_to(c2o, v, G)
                    loop = r1 + r2
                    cand = CandidateLoop(
                        CandidateShape.FIGURE_EIGHT, loop, (r1, r2)
                    )
                    out.setdefault(cand.key(), cand)
            elif not common:
                for arc in _embedded_arcs(G, v1, v2):
                    interior = {G.origin(d) for d in arc[1:]}
                    if interior & (v1 | v2):
                        continue
                    u = G.origin(arc[0])
                    w = G.terminus(arc[-1])
                    r1 = _rotate_to(c1, u, G)
                    arc_rev = tuple(rev(d) for d in reversed(arc))
                    for c2o in (c2, tuple(rev(d) for d in reversed(c2))):
                        r2 = _rotate_to(c2o, w, G)
                        loop = r1 + arc + r2 + arc_rev
                        cand = CandidateLoop(
                            CandidateShape.DUMBBELL, loop, (r1, r2, arc)
                        )
                        out.setdefault(cand.key(), cand)

    for cand in out.values():
        if not is_cyclically_reduced(G, cand.loop):
            raise InvalidInputError(
                f"candidate loop {cand.loop} is not cyclically reduced"
            )
    return sorted(out.values(), key=lambda c: c.key())


@dataclass(frozen=True)
class StretchValue:
    value: Fraction
    witnesses: tuple[CandidateLoop, ...]

    @property
    def witness(self) -> CandidateLoop:
        return self.witnesses[0]


def candidate_ratios(A: MarkedMetricGraph, B: MarkedMetricGraph,
                     candidates: Optional[Iterable[CandidateLoop]] = None
                     ) -> list[tuple[CandidateLoop, Word, Fraction, Fraction]]:
    """(candidate, word, length in A, length in B) for each candidate of A.

    Candidate images are evaluated through words, independently of any map.
    """
    if A.rank != B.rank:
        raise RankMismatchError(f"ranks differ: {A.rank} != {B.rank}")
    if candidates is None:
        candidates = enumerate_candidates(A)
    rows = []
    for cand in candidates:
        w = word_of_loop(A, cand.loop)
        la = loop_length(A, cand.loop)
        lb = translation_length(B, w)
        if lb <= 0:
            raise InvalidInputError(
                "candidate loop maps to a trivial class; marking is not an "
                "isomorphism"
            )
        rows.append((cand, w, la, lb))
    return rows


def lambda_r(A: MarkedMetricGraph, B: MarkedMetricGraph,
             candidates: Optional[Iterable[CandidateLoop]] = None
             ) -> StretchValue:
    """Right-hand stretching factor sup l_B(w)/l_A(w), computed exactly on
    the candidate set of A, with every maximizing candidate as witness."""
    rows = candidate_ratios(A, B, candidates)
    best = max(lb / la for (_, _, la, lb) in rows)
    witnesses = tuple(
        cand for (cand, _, la, lb) in rows if lb / la == best
    )
    return StretchValue(best, witnesses)


def lambda_l(A: MarkedMetricGraph, B: MarkedMetricGraph) -> StretchValue:
    return lambda_r(B, A)


@dataclass(frozen=True)
class StretchReport:
    lambda_R: Fraction          # on volume-one representatives
    lambda_L: Fraction
    Lambda: Fraction            # lambda_R * lambda_L (scale-invariant)
    d: float
    d_R: float
    d_L: float
    witness_R: CandidateLoop
    witness_L: CandidateLoop
    witnesses_R: tuple[CandidateLoop, ...]
    witnesses_L: tuple[CandidateLoop, ...]


def stretch_report(A: MarkedMetricGraph, B: MarkedMetricGraph) -> StretchReport:
    """Both stretching factors on volume-one representatives plus the
    symmetric and one-sided distances (logs are display-only)."""
    An, _ = normalize_volume(A)
    Bn, _ = normalize_volume(B)
    right = lambda_r(An, Bn)
    left = lambda_r(Bn, An)
    lam = right.value * left.value
    return StretchReport(
        lambda_R=right.value,
        lambda_L=left.value,
        Lambda=lam,
        d=math.log(lam),
        d_R=math.log(right.value),
        d_L=math.log(left.value),
        witness_R=right.witness,
        witness_L=left.witness,
        witnesses_R=right.witnesses,
        witnesses_L=left.witnesses,
    )


def distance(A: MarkedMetricGraph, B: MarkedMetricGraph) -> float:
    return stretch_report(A, B).d


# -- bounded cancellation ---------------------------------------------------------------

def _loops_at_by_length(G: MarkedMetricGraph, v: str, length_cap: Fraction,
                        max_count: int):
    """Reduced edge loops based at v of length <= length_cap, breadth first
    (shortest loops first).  Yields at most max_count loops, then signals
    truncation by yielding None."""
    frontier: list[tuple[EdgePath, Fraction]] = [((), Fraction(0))]
    produced = 0
    while frontier:
        nxt = []
        for (path, used) in frontier:
            at = G.terminus(path[-1]) if path else v
            for d in sorted(G.star(at)):
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


def bounded_cancellation_bound(A: MarkedMetricGraph, B: MarkedMetricGraph,
                               f, pair_cap: int = 10 ** 6) -> Fraction:
    """An explicit bounded cancellation constant K + lambda vol(A) for a PL
    map f: the concatenation of reduced loops loses at most twice this much
    image length.

    K maximizes (|f(alpha)| + |f(beta)| - |f(alpha beta)|)/2 over vertex-based
    loop pairs with |alpha|, |beta| <= 4 lambda vol(A) Lambda_L(A, B) and
    alpha beta cyclically reduced.  The enumeration pairs short loops first
    and is capped at ``pair_cap`` pairs; past the cap the partial maximum is
    reported as a lower bound through the raised error.
    """
    from .plmaps import pl_cancellation, push_loop, stretch_analysis

    lam = stretch_analysis(f).stretch
    lamL = lambda_l(A, B).value
    cap = 4 * lam * volume(A) * lamL
    K = Fraction(0)
    pairs = 0
    max_loops = max(int(pair_cap ** 0.5) + 1, 16)
    loops_truncated = False
    pairs_capped = False
    for v in sorted(A.vertices):
        loops: list[tuple[EdgePath, object]] = []
        for alpha in _loops_at_by_length(A, v, cap, max_loops):
            if alpha is None:
                loops_truncated = True
                break
            loops.append((alpha, push_loop(f, alpha)))
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
                K = max(K, pl_cancellation(f.target, fa, fb))
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
