"""Seeded input generator for the benchmark (standard library only).

Every input is plain data: graphs are dicts of edge lists with ``"p/q"``
lengths, spanning-tree markings and inverse labels written down directly,
and Nielsen automorphisms are tuples of letter tuples.  Nothing here imports
the library, so the digest of a run's inputs does not depend on library code.

Each workload owns a fixed pool of instances, generated from a fixed pool
seed, whose exact answers are stored in ``refs.json``.  A run is the whole
pool, in an order and under vertex and edge names drawn from
``random.Random(seed)``; the pool is never filtered by cost or outcome, so
slow folds and budget exhaustions stay in it.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# One run is the whole pool; at the baseline commit each pool ran for 9 to
# 14 reference seconds (see speed.py).
POOL_SIZE = {"geodesic-rank2": 60, "distance-highrank": 420,
             "optfold-highrank": 19}


# -- free-group words as letter tuples ----------------------------------------

def reduce_word(letters) -> tuple:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w) -> tuple:
    return tuple(-x for x in reversed(w))


def substitute(w, images) -> tuple:
    out: list[int] = []
    for x in w:
        out.extend(images[x - 1] if x > 0 else invert(images[-x - 1]))
    return reduce_word(out)


def nielsen_automorphism(rng: random.Random, rank: int, moves: int) -> dict:
    """Composition of ``moves`` random Nielsen moves (a_i -> a_i^-1 or
    a_i -> a_i a_j), each applied after the previous ones, with inverse."""
    gens = [(i,) for i in range(1, rank + 1)]
    fwd, inv = list(gens), list(gens)
    for _ in range(moves):
        i = rng.randrange(1, rank + 1)
        mf, mi = list(gens), list(gens)
        if rng.choice(["invert", "right"]) == "invert":
            mf[i - 1] = mi[i - 1] = (-i,)
        else:
            j = rng.choice([x for x in range(1, rank + 1) if x != i])
            mf[i - 1] = (i, j)
            mi[i - 1] = (i, -j)
        fwd = [substitute(w, mf) for w in fwd]
        inv = [substitute(w, inv) for w in mi]
    return {"forward": fwd, "inverse": inv}


# -- graphs -------------------------------------------------------------------

def length(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 6), rng.randint(1, 6)))


def graph(rank, edges, basepoint, marking, labels) -> dict:
    return {"rank": rank, "edges": edges, "basepoint": basepoint,
            "marking": marking, "labels": labels}


def rank2_graph(rng: random.Random, shape: str) -> dict:
    """Rose, theta (two markings) or barbell with random ``p/q`` lengths."""
    l1, l2, l3 = (length(rng) for _ in range(3))
    if shape == "rose":
        return graph(2, [["a", "v", "v", l1], ["b", "v", "v", l2]], "v",
                     [[["a", 1]], [["b", 1]]], {"a": (1,), "b": (2,)})
    if shape == "theta_left":
        return graph(2, [["A", "u", "v", l1], ["B", "u", "v", l2],
                         ["C", "u", "v", l3]], "u",
                     [[["A", 1], ["B", -1]], [["C", 1], ["B", -1]]],
                     {"A": (1,), "B": (), "C": (2,)})
    if shape == "theta_right":
        return graph(2, [["E", "u", "v", l1], ["F", "u", "v", l2],
                         ["G", "u", "v", l3]], "u",
                     [[["E", 1], ["F", -1]], [["F", 1], ["G", -1]]],
                     {"E": (1,), "F": (), "G": (-2,)})
    return graph(2, [["a", "u", "u", l1], ["c", "u", "w", l3],
                     ["b", "w", "w", l2]], "u",
                 [[["a", 1]], [["c", 1], ["b", 1], ["c", -1]]],
                 {"a": (1,), "b": (2,), "c": ()})


def tree_marked(ends, lengths) -> dict:
    """Spanning-tree marking of a connected graph given by ``ends`` (edge id
    -> (origin, terminus)): non-tree edge i reads generator i, tree edges read
    the identity, and petal i runs through the tree to edge i and back."""
    verts = sorted({v for ot in ends.values() for v in ot})
    base = verts[0]
    to_base: dict[str, list] = {base: []}  # vertex -> darts from base
    tree = set()
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for e in sorted(ends):
                o, t = ends[e]
                for d, a, b in (((e, 1), o, t), ((e, -1), t, o)):
                    if a == v and b not in to_base:
                        to_base[b] = to_base[v] + [list(d)]
                        tree.add(e)
                        nxt.append(b)
        frontier = nxt
    if len(to_base) != len(verts):
        raise ValueError("graph is not connected")
    loose = [e for e in sorted(ends) if e not in tree]
    marking = []
    for e in loose:
        o, t = ends[e]
        back = [[x, -s] for x, s in reversed(to_base[t])]
        marking.append(to_base[o] + [[e, 1]] + back)
    labels = {e: () for e in tree}
    labels.update({e: (i,) for i, e in enumerate(loose, start=1)})
    edges = [[e, ends[e][0], ends[e][1], lengths[e]] for e in sorted(ends)]
    return graph(len(loose), edges, base, marking, labels)


def complete_ends(left, right=None) -> dict:
    """K_n on ``left`` vertices, or K_{m,n} when ``right`` is given."""
    if right is None:
        pairs = [(a, b) for i, a in enumerate(left) for b in left[i + 1:]]
    else:
        pairs = [(a, b) for a in left for b in right]
    return {f"e{k:02d}": p for k, p in enumerate(pairs)}


def random_trivalent_ends(rng: random.Random, rank: int) -> dict:
    """Connected trivalent graph of the given rank: random pairing of
    half-edges (loops and multi-edges allowed), disconnected draws rejected."""
    n = 2 * (rank - 1)
    while True:
        halves = [f"v{i}" for i in range(n) for _ in range(3)]
        rng.shuffle(halves)
        ends = {f"e{k:02d}": (halves[2 * k], halves[2 * k + 1])
                for k in range(3 * (rank - 1))}
        seen, stack = {"v0"}, ["v0"]
        while stack:
            v = stack.pop()
            for o, t in ends.values():
                for a, b in ((o, t), (t, o)):
                    if a == v and b not in seen:
                        seen.add(b)
                        stack.append(b)
        if len(seen) == n:
            return ends


def topology(g: dict) -> tuple:
    return tuple(sorted((e, o, t) for e, o, t, _ in g["edges"]))


# -- workload pools -----------------------------------------------------------

RANK2_SHAPES = ["rose", "theta_left", "theta_right", "barbell"]


def geodesic_instance(rng: random.Random) -> dict:
    """Random rank-2 source; target of a random shape and lengths, twisted by
    one to three Nielsen moves (the acceptance-criterion-5 mix)."""
    A = rank2_graph(rng, rng.choice(RANK2_SHAPES))
    phi = nielsen_automorphism(rng, 2, rng.randrange(1, 4))
    B = rank2_graph(rng, rng.choice(RANK2_SHAPES))
    return {"A": A, "B": B, "phi": phi}


def optfold_instance(rng: random.Random, family: str) -> dict:
    """K4 (rank 3) or K_{3,3} (rank 4) source and a target on the same graph
    with independent lengths, twisted by a 2-move Nielsen automorphism."""
    if family == "K4":
        ends = complete_ends(["v0", "v1", "v2", "v3"])
    else:
        ends = complete_ends(["v0", "v1", "v2"], ["w0", "w1", "w2"])
    A = tree_marked(ends, {e: length(rng) for e in ends})
    B = tree_marked(ends, {e: length(rng) for e in ends})
    phi = nielsen_automorphism(rng, A["rank"], 2)
    return {"family": family, "A": A, "B": B, "phi": phi}


def pool(workload: str) -> list[dict]:
    """A workload's fixed instance pool."""
    size = POOL_SIZE[workload]
    rng = random.Random(f"outerspace-bench-pool/{workload}")
    if workload == "geodesic-rank2":
        return [geodesic_instance(rng) for _ in range(size)]
    if workload == "optfold-highrank":
        # two K4 pairs for every K_{3,3} pair
        return [optfold_instance(rng, "K33" if k % 3 == 2 else "K4")
                for k in range(size)]
    if workload == "distance-highrank":
        out, types = [], set()
        while len(out) < size:
            rank = rng.randint(4, 6)
            pair = []
            while len(pair) < 2:
                ends = random_trivalent_ends(rng, rank)
                g = tree_marked(ends, {e: length(rng) for e in ends})
                if topology(g) not in types:
                    types.add(topology(g))
                    pair.append(g)
            out.append({"A": pair[0], "B": pair[1]})
        return out
    raise KeyError(workload)


def rename(inst, names: dict):
    """Copy of plain data with every vertex and edge id replaced through
    ``names``; letters, lengths and signs are kept."""
    if isinstance(inst, dict):
        if "edges" in inst:
            g = dict(inst)
            g["edges"] = [[names[e], names[o], names[t], l]
                          for e, o, t, l in inst["edges"]]
            g["basepoint"] = names[inst["basepoint"]]
            g["marking"] = [[[names[e], s] for e, s in petal]
                            for petal in inst["marking"]]
            g["labels"] = {names[e]: w for e, w in inst["labels"].items()}
            return g
        return {k: rename(v, names) for k, v in inst.items()}
    return inst


def ids(g: dict) -> set:
    return {x for e, o, t, _ in g["edges"] for x in (e, o, t)}


def draw(workload: str, seed: int) -> list[tuple[int, dict]]:
    """The run's batch: every pool member in seeded order, each with its
    pool index, under one seeded renaming of vertex and edge ids.

    The renaming sends ids to random four-letter tokens and keeps their sort
    order; all edge ids of an instance have one length, and so do all its
    vertex ids, so derived ids such as ``"e01.1"`` also sort as before.  The
    library therefore does the same work, tie-breaks included, for every
    seed, and the stored exact answers hold for every seed.
    """
    members = pool(workload)
    rng = random.Random(seed)
    old = sorted({x for m in members for k in ("A", "B") for x in ids(m[k])})
    letters = "abcdefghijklmnopqrstuvwxyz"
    fresh: set[str] = set()
    while len(fresh) < len(old):
        fresh.add("".join(rng.choice(letters) for _ in range(4)))
    names = dict(zip(old, sorted(fresh)))
    order = rng.sample(range(len(members)), len(members))
    return [(k, rename(members[k], names)) for k in order]


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
