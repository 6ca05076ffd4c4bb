"""Exact linear programming: the simplex method on Fractions.

Solves ``maximize c.x subject to A x <= b, x >= 0`` in dictionary form
(Chvatal, "Linear Programming", 1983, ch. 2-3): every basic variable is
kept as an affine expression in the nonbasic ones, so a slack is a row
name, not a column.  Bland's rule (Bland, "New finite pivoting rules for
the simplex method", Math. Oper. Res. 1977) picks the entering and the
leaving variable with the smallest index, which rules out cycling on
degenerate problems.  An infeasible starting dictionary is repaired by the
auxiliary problem of the two-phase method.  Every quantity stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

# a row x_basic = const + sum(coef[j] * x_j) over nonbasic j
Row = tuple[Fraction, dict]


@dataclass(frozen=True)
class LPResult:
    status: str                        # "optimal", "infeasible", "unbounded"
    value: Optional[Fraction] = None   # the optimum of c.x
    x: Optional[tuple] = None          # an optimal basic solution


def _plus(row: Row, m: Fraction, other: Row) -> Row:
    """``row + m * other``, dropping zero coefficients."""
    coef = dict(row[1])
    for j, c in other[1].items():
        s = coef.get(j, 0) + m * c
        if s:
            coef[j] = s
        else:
            coef.pop(j, None)
    return (row[0] + m * other[0], coef)


def _pivot(rows: dict, obj: Row, leave: int, enter: int) -> Row:
    """Exchange basic ``leave`` and nonbasic ``enter`` in place; returns the
    rewritten objective row."""
    const, coef = rows.pop(leave)
    inv = -1 / coef[enter]
    # the leaving row solved for the entering variable
    new = (const * inv, {j: c * inv for j, c in coef.items() if j != enter})
    new[1][leave] = -inv

    def substitute(row: Row) -> Row:
        m = row[1].get(enter)
        if m is None:
            return row
        rest = {j: c for j, c in row[1].items() if j != enter}
        return _plus((row[0], rest), m, new)

    for i in rows:
        rows[i] = substitute(rows[i])
    rows[enter] = new
    return substitute(obj)


def _optimize(rows: dict, obj: Row) -> Optional[Row]:
    """Bland's-rule pivots to an optimal dictionary; returns its objective
    row, or None when the objective is unbounded."""
    while True:
        enter = min((j for j, c in obj[1].items() if c > 0), default=None)
        if enter is None:
            return obj
        best = None
        for i, (const, coef) in rows.items():
            a = coef.get(enter, 0)
            if a < 0:
                key = (const / -a, i)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        obj = _pivot(rows, obj, best[1], enter)


def maximize(c: Sequence, constraints: Sequence) -> LPResult:
    """Maximize ``sum(c[j] * x_j)`` over ``x >= 0`` subject to each
    ``(coef, rhs)`` in ``constraints``, meaning
    ``sum(coef[j] * x_j) <= rhs`` with ``coef`` a dict from variable index
    to coefficient.  Variables are numbered 0..len(c)-1."""
    n = len(c)
    rows: dict[int, Row] = {}
    for i, (coef, rhs) in enumerate(constraints):
        rows[n + i] = (Fraction(rhs),
                       {j: -Fraction(a) for j, a in coef.items() if a})
    obj: Row = (Fraction(0), {j: Fraction(a) for j, a in enumerate(c) if a})

    worst = min(rows, key=lambda i: (rows[i][0], i), default=None)
    if worst is not None and rows[worst][0] < 0:
        # phase one: maximize -x0 with x0 added to every row; pivoting x0
        # into the most violated row makes the dictionary feasible
        x0 = n + len(rows)
        for _, coef in rows.values():
            coef[x0] = Fraction(1)
        aux = _optimize(rows, _pivot(rows, (Fraction(0), {x0: Fraction(-1)}),
                                     worst, x0))
        if aux[0] < 0:
            return LPResult("infeasible")
        if x0 in rows:  # degenerate: x0 is basic at value 0
            if rows[x0][1]:
                _pivot(rows, aux, x0, min(rows[x0][1]))
            else:
                del rows[x0]
        for _, coef in rows.values():
            coef.pop(x0, None)
        # the original objective in terms of the current nonbasic variables
        const, coef = obj
        obj = (const, {j: a for j, a in coef.items() if j not in rows})
        for j, a in coef.items():
            if j in rows:
                obj = _plus(obj, a, rows[j])

    final = _optimize(rows, obj)
    if final is None:
        return LPResult("unbounded")
    x = tuple(rows[j][0] if j in rows else Fraction(0) for j in range(n))
    return LPResult("optimal", final[0], x)
