import itertools
import random
from fractions import Fraction as F

from outerspace.simplex import LPResult, maximize, maximize_on_optimum


def _solve(A, b):
    """The solution of the square system A x = b, or None if singular."""
    n = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                m = M[r][col] / M[col][col]
                M[r] = [x - m * y for x, y in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def brute_force(c, constraints):
    """Best objective over the vertices of {A x <= b, x >= 0}: every choice
    of n tight constraints among the m rows and the n sign bounds; None when
    no vertex is feasible."""
    n = len(c)
    dense = [([F(coef.get(j, 0)) for j in range(n)], F(rhs))
             for coef, rhs in constraints]
    dense += [([F(-(j == k)) for j in range(n)], F(0)) for k in range(n)]
    best = None
    for tight in itertools.combinations(dense, n):
        x = _solve([row for row, _ in tight], [rhs for _, rhs in tight])
        if x is None:
            continue
        if all(sum(a * xi for a, xi in zip(row, x)) <= rhs
               for row, rhs in dense):
            value = sum(F(ci) * xi for ci, xi in zip(c, x))
            if best is None or value > best:
                best = value
    return best


def random_lp(rng, n, max_den=3):
    """A bounded LP (a box row caps every variable) whose other rows have
    signed right-hand sides, so some instances are infeasible.  Above the
    default ``max_den`` every row, the box row too, holds only Fractions
    over a denominator bound of its own, so each row has its own scale."""
    def num(den=max_den):
        return F(rng.randint(-6, 6), rng.randint(1, den))

    if max_den == 3:
        constraints = [({j: 1 for j in range(n)}, rng.randint(1, 9))]
    else:
        den = rng.randint(2, max_den)
        constraints = [({j: F(rng.randint(1, 6), rng.randint(1, den))
                         for j in range(n)},
                        F(rng.randint(1, 9), rng.randint(1, den)))]
    for _ in range(rng.randint(1, 4)):
        den = max_den if max_den == 3 else rng.randint(2, max_den)
        coef = {j: num(den) for j in range(n) if rng.random() < 0.8}
        constraints.append((coef, num(den)))
    return [num() for _ in range(n)], constraints


def test_matches_vertex_enumeration_on_random_lps():
    """Against vertex enumeration, on small denominators and on rows whose
    denominators run up to 50, different in every row; the second draw
    exercises the row scaling and the exact divisions of the pivots."""
    for seed, max_den in ((1977, 3), (1968, 50)):
        rng = random.Random(seed)
        statuses = set()
        for _ in range(240):
            c, constraints = random_lp(rng, rng.choice((2, 3)), max_den)
            res = maximize(c, constraints)
            expected = brute_force(c, constraints)
            statuses.add(res.status)
            if expected is None:
                assert res.status == "infeasible"
                continue
            assert res.status == "optimal"
            assert res.value == expected
            # the reported point is feasible and attains the value
            assert all(xi >= 0 for xi in res.x)
            for coef, rhs in constraints:
                assert sum(F(a) * res.x[j] for j, a in coef.items()) <= rhs
            assert sum(F(ci) * xi for ci, xi in zip(c, res.x)) == res.value
        assert statuses == {"optimal", "infeasible"}


def test_reports_infeasible():
    # x0 + x1 <= -1 has no nonnegative solution
    assert maximize([1, 1], [({0: 1, 1: 1}, -1)]).status == "infeasible"
    # x0 >= 2 and x0 <= 1
    res = maximize([0], [({0: -1}, -2), ({0: 1}, 1)])
    assert res.status == "infeasible"


def test_reports_unbounded():
    assert maximize([1, 0], [({1: 1}, 3)]).status == "unbounded"
    # unbounded after a phase-one repair: x0 - x1 <= -1
    res = maximize([0, 1], [({0: 1, 1: -1}, -1)])
    assert res.status == "unbounded"


def test_phase_one_reaches_the_optimum():
    # minimize x0 + x1 subject to x0 + 2 x1 >= 4, 3 x0 + x1 >= 6
    res = maximize([-1, -1], [({0: -1, 1: -2}, -4), ({0: -3, 1: -1}, -6)])
    assert res.status == "optimal"
    assert res.value == F(-14, 5) and res.x == (F(8, 5), F(6, 5))


def test_beale_cycling_example_terminates():
    """Beale's example (1955) cycles under the largest-coefficient rule;
    Bland's rule must reach the optimum."""
    c = [F(3, 4), -20, F(1, 2), -6]
    constraints = [
        ({0: F(1, 4), 1: -8, 2: -1, 3: 9}, 0),
        ({0: F(1, 2), 1: -12, 2: F(-1, 2), 3: 3}, 0),
        ({2: 1}, 1),
    ]
    res = maximize(c, constraints)
    assert res.status == "optimal"
    assert res.value == brute_force(c, constraints) == F(5, 4)
    assert res.x == (F(1), F(0), F(1), F(0))


def test_degenerate_cell_lp_keeps_its_vertex():
    """A stretch cell LP of the optimizer (K3,3 sweep pair 81) with more
    than one optimal vertex: the smallest-index tie in the ratio test
    decides which one is returned."""
    constraints = [
        ({0: 1}, F(2, 3)), ({1: 1}, 6), ({2: 1}, 6),
        ({1: 1, 3: F(-1, 3)}, 0), ({2: 1, 3: F(-1, 2)}, 0),
        ({1: 1, 3: F(-4, 3)}, F(-3, 2)), ({2: -1, 3: -1}, F(-22, 3)),
        ({0: -1, 1: -1, 3: F(-4, 3)}, F(-20, 3)),
        ({0: 1, 2: 1, 3: F(-6, 5)}, F(-5, 2)),
        ({0: 1, 3: -1}, F(-59, 12)), ({3: -1}, F(-37, 10)),
    ]
    res = maximize([0, 0, 0, -1], constraints)
    assert res.value == brute_force([0, 0, 0, -1], constraints) == F(-59, 12)
    assert res.x == (0, F(1, 9), F(29, 12), F(59, 12))


def test_no_constraints():
    assert maximize([F(-1), F(0)], []).value == 0
    assert maximize([F(1)], []).status == "unbounded"


def test_second_objective_on_the_optimal_face():
    """Against vertex enumeration on the optimal face of the first objective
    (the constraints plus ``c.x >= max``), and against `maximize` there
    where the optimum is flagged unique.  Objectives drawn from few small
    integers tie often, so faces of more than one vertex and tied second
    optima both occur."""
    rng = random.Random(2018)
    seen = set()
    for _ in range(240):
        c, constraints = random_lp(rng, rng.choice((2, 3)))
        c = [rng.randint(-1, 1) for _ in c]
        then = [rng.randint(-2, 1) for _ in c]
        first, second, unique = maximize_on_optimum(c, then, constraints)
        expected = brute_force(c, constraints)
        if expected is None:
            assert (first.status, second, unique) == ("infeasible", None,
                                                      False)
            continue
        assert first.status == "optimal" and first.value == expected
        face = constraints + [({j: -a for j, a in enumerate(c)}, -expected)]
        assert second.value == brute_force(then, face)
        assert sum(a * xi for a, xi in zip(c, second.x)) == expected
        if unique:
            assert second == maximize(then, face)
        seen.add((unique, first.x == second.x))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_tied_second_optimum_is_not_unique():
    # max x0 + x1 on the square [0, 2]^2 cut by x0 + x1 <= 2: the face is
    # the segment x0 + x1 = 2, on which -x0 - x1 ties and -x0 does not
    constraints = [({0: 1, 1: 1}, 2), ({0: 1}, 2), ({1: 1}, 2)]
    _, second, unique = maximize_on_optimum([1, 1], [-1, -1], constraints)
    assert second.value == -2 and not unique
    _, second, unique = maximize_on_optimum([1, 1], [-1, 0], constraints)
    assert second == LPResult("optimal", 0, (0, 2)) and unique


def test_first_objective_status_is_reported():
    assert maximize_on_optimum([1, 1], [1, 0], [({0: 1, 1: 1}, -1)]) == (
        LPResult("infeasible"), None, False)
    assert maximize_on_optimum([0, 1], [1, 0], [({0: 1, 1: -1}, -1)]) == (
        LPResult("unbounded"), None, False)
    # bounded first, unbounded second: x0 is free on the face x1 = 1
    assert maximize_on_optimum([0, 1], [1, 0], [({1: 1}, 1)]) == (
        LPResult("optimal", 1, (0, 1)), LPResult("unbounded"), False)
