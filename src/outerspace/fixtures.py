"""Standard marked metric graphs and automorphisms used by tests, the
reproduction reports, and as documentation of the expected encodings.

Conventions: generators of the free group are written a, b, c, ...; petal
edges of roses reuse those names.  Theta graphs come in two markings ("left"
and "right") chosen so that the circle tables of the no-symmetric-geodesic
example come out exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graphs import MarkedMetricGraph, bfs_tree, make_graph, rev
from .words import (
    AutomorphismPair,
    Word,
    compose,
    free_reduce,
    generator,
    identity,
    identity_automorphism,
)

F = Fraction


def rose(lengths, names=None) -> MarkedMetricGraph:
    """Rose with one petal per generator, identity marking."""
    rank = len(lengths)
    if names is None:
        names = [chr(ord("a") + i) for i in range(rank)]
    edges = {names[i]: ("v", "v", F(lengths[i])) for i in range(rank)}
    marking = [((names[i], 1),) for i in range(rank)]
    labels = {names[i]: generator(i + 1, rank) for i in range(rank)}
    return make_graph(rank, edges, "v", marking, labels)


def unit_rose(rank: int) -> MarkedMetricGraph:
    return rose([F(1)] * rank)


def rose_t(alpha) -> MarkedMetricGraph:
    """Rank-2 rose with petal a of length alpha and petal b of length
    1 - alpha (the interior of the common face in the crossing example)."""
    alpha = F(alpha)
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie strictly between 0 and 1")
    return rose([alpha, 1 - alpha])


def theta_left(lengths=(F(1, 6), F(1, 3), F(1, 2))) -> MarkedMetricGraph:
    """Theta graph with edges A, B, C from u to v and marking
    a -> A.B~, b -> C.B~ (the 'X' side of the crossing example)."""
    lA, lB, lC = (F(x) for x in lengths)
    edges = {"A": ("u", "v", lA), "B": ("u", "v", lB), "C": ("u", "v", lC)}
    marking = [
        (("A", 1), ("B", -1)),
        (("C", 1), ("B", -1)),
    ]
    labels = {
        "A": generator(1, 2),
        "B": identity(2),
        "C": generator(2, 2),
    }
    return make_graph(2, edges, "u", marking, labels)


def theta_right(lengths=(F(1, 2), F(1, 3), F(1, 6))) -> MarkedMetricGraph:
    """Theta graph with edges E, F, G from u to v and marking
    a -> E.F~, b -> F.G~ (the 'Y' side of the crossing example)."""
    lE, lF, lG = (F(x) for x in lengths)
    edges = {"E": ("u", "v", lE), "F": ("u", "v", lF), "G": ("u", "v", lG)}
    marking = [
        (("E", 1), ("F", -1)),
        (("F", 1), ("G", -1)),
    ]
    labels = {
        "E": generator(1, 2),
        "F": identity(2),
        "G": generator(2, 2).inverse(),
    }
    return make_graph(2, edges, "u", marking, labels)


def barbell(l1, l2, l3) -> MarkedMetricGraph:
    """Two disjoint circles a (at u) and b (at w) joined by a separating edge
    c; marking a -> a, b -> c.b.c~."""
    edges = {
        "a": ("u", "u", F(l1)),
        "c": ("u", "w", F(l3)),
        "b": ("w", "w", F(l2)),
    }
    marking = [
        (("a", 1),),
        (("c", 1), ("b", 1), ("c", -1)),
    ]
    labels = {"a": generator(1, 2), "b": generator(2, 2), "c": identity(2)}
    return make_graph(2, edges, "u", marking, labels)


# -- automorphisms ---------------------------------------------------------------

def aut_poly() -> AutomorphismPair:
    """a -> a, b -> ba (polynomial growth)."""
    a, b = generator(1, 2), generator(2, 2)
    return AutomorphismPair((a, b * a), (a, b * a.inverse()), 2)


def aut_exp() -> AutomorphismPair:
    """a -> ab, b -> a (exponential growth)."""
    a, b = generator(1, 2), generator(2, 2)
    return AutomorphismPair(
        (a * b, a),
        (b, b.inverse() * a),
        2,
    )


def aut_power(phi: AutomorphismPair, k: int) -> AutomorphismPair:
    out = identity_automorphism(phi.rank)
    step = phi if k >= 0 else phi.inverse()
    for _ in range(abs(k)):
        out = compose(step, out)
    return out


def poly_twist_pair(k: int) -> tuple[MarkedMetricGraph, MarkedMetricGraph]:
    """The polynomial-growth folding fixture: the rose with petals of length
    k+1 and its k-th twist by a -> a, b -> ba with unit petals.

    The target's marking sends a to its a-petal and b to b.a^k, which is the
    identity rose moved by the k-th power of the twist.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    source = rose([F(k + 1), F(k + 1)])
    a, b = generator(1, 2), generator(2, 2)
    marking = [
        (("a", 1),),
        tuple([("b", 1)] + [("a", 1)] * k),
    ]
    labels = {"a": a, "b": b * (a.inverse() ** k)}
    target = make_graph(
        2,
        {"a": ("v", "v", F(1)), "b": ("v", "v", F(1))},
        "v",
        marking,
        labels,
    )
    return source, target


def shrinking_petal_rose(n: int, k: int) -> MarkedMetricGraph:
    """Volume-one rank-n rose whose first petal was scaled by 1/k and the
    whole graph renormalized: petal lengths 1/(kn-k+1) and k/(kn-k+1)."""
    d = F(k * n - k + 1)
    return rose([F(1) / d] + [F(k) / d] * (n - 1))


# -- random generators (seeded, exact) --------------------------------------------

def random_fraction(rng: random.Random, max_num=6, max_den=6) -> Fraction:
    return F(rng.randint(1, max_num), rng.randint(1, max_den))


def random_graph(rng: random.Random, shape=None) -> MarkedMetricGraph:
    """A random rank-2 graph: perturbed rose, theta, or barbell."""
    if shape is None:
        shape = rng.choice(["rose", "theta_left", "theta_right", "barbell"])
    ls = [random_fraction(rng) for _ in range(3)]
    if shape == "rose":
        return rose(ls[:2])
    if shape == "theta_left":
        return theta_left(ls)
    if shape == "theta_right":
        return theta_right(ls)
    return barbell(*ls)


def random_same_simplex_pair(rng: random.Random, shape=None):
    A = random_graph(rng, shape)
    lengths = {e: random_fraction(rng) for e in A.edges}
    B = MarkedMetricGraph(
        rank=A.rank,
        vertices=A.vertices,
        edges={e: (o, t, lengths[e]) for e, (o, t, _) in A.edges.items()},
        basepoint=A.basepoint,
        marking=A.marking,
        labels=A.labels,
    )
    return A, B


def random_nielsen_automorphism(rng: random.Random, rank: int,
                                moves: int = 3) -> AutomorphismPair:
    out = identity_automorphism(rank)
    for _ in range(moves):
        i = rng.randrange(1, rank + 1)
        kind = rng.choice(["invert", "right"])
        fw = list(identity_automorphism(rank).forward_images)
        bw = list(identity_automorphism(rank).forward_images)
        if kind == "invert":
            fw[i - 1] = generator(i, rank).inverse()
            bw[i - 1] = generator(i, rank).inverse()
        else:
            j = rng.choice([x for x in range(1, rank + 1) if x != i])
            fw[i - 1] = generator(i, rank) * generator(j, rank)
            bw[i - 1] = generator(i, rank) * generator(j, rank).inverse()
        out = compose(AutomorphismPair(tuple(fw), tuple(bw), rank), out)
    return out


def _cycle(names) -> list[tuple[str, str]]:
    return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]


_OUTER = [f"o{i}" for i in range(5)]
_INNER = [f"i{i}" for i in range(5)]

# vertex pairs of the graphs `random_tree_marked` draws lengths for
FAMILIES = {
    # K4, rank 3
    "K4": [(f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)],
    # K_{3,3}, rank 4
    "K33": [(f"v{i}", f"w{j}") for i in range(3) for j in range(3)],
    # the pentagonal prism, rank 6
    "prism5": _cycle(_OUTER) + _cycle(_INNER) + list(zip(_OUTER, _INNER)),
    # the Petersen graph (inner pentagram), rank 6
    "petersen": _cycle(_OUTER) + _cycle(_INNER[::2] + _INNER[1::2])
    + list(zip(_OUTER, _INNER)),
}


def random_tree_marked(rng: random.Random, family: str) -> MarkedMetricGraph:
    """One of the `FAMILIES` graphs with random ``p/q`` edge lengths and a
    spanning-tree marking, labels written directly: the breadth-first tree
    from the smallest vertex reads the identity, the i-th remaining edge
    (in id order) reads the i-th generator, and petal i runs through the
    tree to that edge and back."""
    pairs = FAMILIES[family]
    edges = {f"e{k:02d}": (o, t, random_fraction(rng))
             for k, (o, t) in enumerate(pairs)}
    base = min(v for pair in pairs for v in pair)
    tree = bfs_tree(make_graph(0, edges, base, [],
                               dict.fromkeys(edges, identity(0))), base)

    def from_base(v) -> list:
        steps = []
        while tree[v] is not None:
            steps.append(tree[v])
            v = edges[tree[v][0]][0 if tree[v][1] > 0 else 1]
        return steps[::-1]

    tree_edges = {d[0] for d in tree.values() if d is not None}
    loose = [e for e in sorted(edges) if e not in tree_edges]
    rank = len(loose)
    marking = [
        tuple(from_base(edges[e][0])) + ((e, 1),)
        + tuple(rev(d) for d in reversed(from_base(edges[e][1])))
        for e in loose
    ]
    gen = {e: i for i, e in enumerate(loose, start=1)}
    labels = {e: generator(gen[e], rank) if e in gen else identity(rank)
              for e in sorted(edges)}
    return make_graph(rank, edges, base, marking, labels)


def random_word(rng: random.Random, rank: int, max_len: int = 10) -> Word:
    n = rng.randrange(0, max_len + 1)
    letters = []
    for _ in range(n):
        x = rng.choice([i for i in range(1, rank + 1)] +
                       [-i for i in range(1, rank + 1)])
        letters.append(x)
    return free_reduce(letters, rank)
