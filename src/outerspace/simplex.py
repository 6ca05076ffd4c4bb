"""Exact linear programming: a fraction-free simplex method.

Solves ``maximize c.x subject to A x <= b, x >= 0`` in dictionary form
(Chvatal, "Linear Programming", 1983), a slack being a row name.  Each row
and the objective are scaled by an integer that clears their denominators
(which scales the row's slack: no sign, ratio or index read below moves),
so every entry is an integer over one denominator D = |det basis|; a pivot
on p divides each update by D exactly and sets D = |p| (Edmonds, J. Res.
NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968).  Bland's smallest-index
rule (Math. Oper. Res. 1977) rules out cycling; an infeasible start is
repaired by the two-phase method's auxiliary problem.  Only the result,
which is exact, holds Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

# a row D * x_basic = const + sum(coef[j] * x_j) over nonbasic j, in integers
Row = tuple[int, dict]


@dataclass(frozen=True)
class LPResult:
    status: str                        # "optimal", "infeasible", "unbounded"
    value: Optional[Fraction] = None   # the optimum of c.x
    x: Optional[tuple] = None          # an optimal basic solution


def _combine(q: int, row: Row, m: int, other: Row, D: int) -> Row:
    """``(q * row + m * other) / D``, exact, dropping zero coefficients."""
    coef = {j: q * a for j, a in row[1].items()}
    for j, a in other[1].items() if m else ():
        coef[j] = coef.get(j, 0) + m * a
    return ((q * row[0] + m * other[0]) // D,
            {j: a // D for j, a in coef.items() if a})


def _pivot(rows: dict, obj: Row, D: int, leave: int, enter: int) -> tuple:
    """Exchange basic ``leave`` and nonbasic ``enter`` in place; returns the
    rewritten objective row and the new denominator."""
    const, coef = rows.pop(leave)
    p = coef.pop(enter)
    coef[leave] = -D
    # the leaving row solved for the entering variable, over |p|
    t = -1 if p > 0 else 1
    new = (t * const, {j: t * a for j, a in coef.items()})
    q = abs(p)
    for i, row in rows.items():
        rows[i] = _combine(q, row, row[1].pop(enter, 0), new, D)
    rows[enter] = new
    return _combine(q, obj, obj[1].pop(enter, 0), new, D), q


def _optimize(rows: dict, obj: Row, D: int) -> tuple[Optional[Row], int]:
    """Bland's-rule pivots to an optimal dictionary; returns its objective
    row, or None when the objective is unbounded, and the denominator."""
    while True:
        enter = min((j for j, a in obj[1].items() if a > 0), default=None)
        if enter is None:
            return obj, D
        best = None  # (const, a, i) of least ratio const / a, then least i
        for i, (const, coef) in rows.items():
            a = -coef.get(enter, 0)
            if a > 0 and (best is None or const * best[1] < best[0] * a or (
                    const * best[1] == best[0] * a and i < best[2])):
                best = (const, a, i)
        if best is None:
            return None, D
        obj, D = _pivot(rows, obj, D, best[2], enter)


def _optimum(rows: dict, c: Sequence, D: int, n: int):
    """Pivots from the feasible dictionary ``rows`` to an optimum of
    ``sum(c[j] * x_j)``: its result, final objective row (None when
    unbounded) and denominator."""
    s = lcm(*(a.denominator for a in c))
    coef = {j: a.numerator * s // a.denominator for j, a in enumerate(c) if a}
    # the objective in terms of the current nonbasic variables
    obj = (0, {j: D * a for j, a in coef.items() if j not in rows})
    for j, a in coef.items():
        if j in rows:
            obj = _combine(1, obj, a, rows[j], 1)
    final, D = _optimize(rows, obj, D)
    if final is None:
        return LPResult("unbounded"), None, D
    x = tuple(Fraction(rows[j][0] if j in rows else 0, D) for j in range(n))
    return LPResult("optimal", Fraction(final[0], D * s), x), final, D


def maximize(c: Sequence, constraints: Sequence) -> LPResult:
    """Maximize ``sum(c[j] * x_j)`` over ``x >= 0`` subject to each
    ``(coef, rhs)`` in ``constraints``, meaning
    ``sum(coef[j] * x_j) <= rhs`` with ``coef`` a dict from variable index
    to coefficient.  Variables are numbered 0..len(c)-1; every number is an
    int or a Fraction."""
    return maximize_on_optimum(c, None, constraints)[0]


def maximize_on_optimum(c: Sequence, then: Optional[Sequence],
                        constraints: Sequence
                        ) -> tuple[LPResult, Optional[LPResult], bool]:
    """`maximize` c, then ``then`` on c's optimal face from the same
    dictionary.  Returns c's result, ``then``'s (None unless c is optimal
    and ``then`` given) and whether ``then``'s optimum is provably unique,
    hence the one `maximize` finds for ``then`` with ``c.x >= max`` added.
    """
    n = len(c)
    rows: dict[int, Row] = {}
    scale = []  # the integer each row is multiplied by
    for i, (coef, rhs) in enumerate(constraints):
        s = lcm(rhs.denominator, *(a.denominator for a in coef.values()))
        rows[n + i] = (rhs.numerator * s // rhs.denominator,
                       {j: -a.numerator * s // a.denominator
                        for j, a in coef.items() if a})
        scale.append(s)
    D = 1
    worst = min(range(len(rows)), key=lambda i: constraints[i][1], default=0)
    if rows and constraints[worst][1] < 0:
        # phase one: maximize -x0 with x0 added to every row, times its scale;
        # pivoting x0 into the most violated row makes the dictionary feasible
        x0 = n + len(rows)
        for i, (_, coef) in rows.items():
            coef[x0] = scale[i - n]
        aux, D = _optimize(rows, *_pivot(rows, (0, {x0: -1}), D, n + worst,
                                         x0))
        if aux[0] < 0:
            return LPResult("infeasible"), None, False
        if x0 in rows:
            # x0 is basic at 0; its row has a nonzero coefficient, for if
            # its row y of the inverse basis were 0 on every column but x0's,
            # the slack columns (the identity) would give y = 0, not y.x0 = 1
            _, D = _pivot(rows, aux, D, x0, min(rows[x0][1]))
        for _, coef in rows.values():
            coef.pop(x0, None)
    first, final, D = _optimum(rows, c, D, n)
    if final is None or then is None:
        return first, None, False
    # each column of the optimal objective row has a negative reduced cost,
    # so c's optimal face is where all of them are 0
    for _, coef in rows.values():
        for j in final[1]:
            coef.pop(j, None)
    second, last, _ = _optimum(
        rows, [0 if j in final[1] else a for j, a in enumerate(then)], D, n)
    # unique if each of the n nonbasic columns is fixed or lowers ``then``
    return first, second, last is not None and len(final[1]) + len(
        last[1]) == n
