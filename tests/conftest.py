import random

import pytest

import outerspace.stretch as stretch
from outerspace.docs import canonical_text, graph_to_doc
from outerspace.fixtures import random_nielsen_automorphism, random_tree_marked
from outerspace.graphs import apply_automorphism_to_marking, make_graph
from outerspace.words import Word, cyclic_reduce


def clear_stretch_caches():
    """Empty the module-level caches of `outerspace.stretch`."""
    stretch._candidates_of_type.cache_clear()
    stretch._RECORDS.clear()
    stretch._PAIRS.clear()


@pytest.fixture(autouse=True)
def empty_stretch_caches():
    """Every test starts with the stretch caches empty, so that no test's
    result depends on the tests run before it."""
    clear_stretch_caches()


def canonical_loop(loop):
    """Least rotation among both orientations of a dart loop; identifies
    loops up to rotation and inversion.  Numbers the loop's darts as
    `stretch._darts` does, which keeps their order."""
    darts = stretch._darts({e for (e, _) in loop})
    code = {d: k for k, d in enumerate(darts)}
    least = stretch._least_rotation(tuple(code[d] for d in loop))
    return tuple(darts[k] for k in least)


def candidate_key(cand):
    """A `CandidateLoop`'s canonical key: its shape's value, then
    `canonical_loop`; the key by which the candidate tables sort."""
    return (cand.shape.value, canonical_loop(cand.loop))


def save_graph(path, G):
    """Write G as a graph document in canonical form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(graph_to_doc(G)))


def assert_outcome(call, expect):
    """``call()`` raises an error of exactly ``expect``'s type and text
    when ``expect`` is an exception, and returns ``expect`` otherwise."""
    if isinstance(expect, Exception):
        with pytest.raises(Exception) as err:
            call()
        assert type(err.value) is type(expect)
        assert str(err.value) == str(expect)
    else:
        assert call() == expect


def cyclic_key(w):
    """Canonical representative of the conjugacy class of ``w`` up to
    inversion: the least rotation among the cyclic core and its inverse."""
    core = cyclic_reduce(w)[0].letters
    if not core:
        return ()
    best = None
    for seq in (core, tuple(-x for x in reversed(core))):
        for r in range(len(seq)):
            rot = seq[r:] + seq[:r]
            if best is None or rot < best:
                best = rot
    return best


def cyclically_reduced_words(rank, max_len):
    """One representative per rotation+inversion class, length <= max_len."""
    gens = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    seen = set()
    out = []
    frontier = [()]
    for _ in range(max_len):
        new = []
        for seq in frontier:
            for x in gens:
                if seq and seq[-1] == -x:
                    continue
                new.append(seq + (x,))
        for seq in new:
            if seq[0] == -seq[-1] and len(seq) > 1:
                continue
            w = Word(seq, rank)
            key = cyclic_key(w)
            if key not in seen:
                seen.add(key)
                out.append(w)
        frontier = new
    return out


def twisted_barbell():
    """Barbell with loops a at u and b at w and bridge c from u to w, all of
    length 1, basepoint u, marking a c b c~ a a and c b c~ a a a c b c~ a a,
    and no labels.  Its optimal map to the unit rose is constant on c, whose
    derived label aaBaaB is nontrivial."""
    a, b, c, C = ("a", 1), ("b", 1), ("c", 1), ("c", -1)
    edges = {"a": ("u", "u", 1), "b": ("w", "w", 1), "c": ("u", "w", 1)}
    marking = [(a, c, b, C, a, a), (c, b, C, a, a, a, c, b, C, a, a)]
    return make_graph(2, edges, "u", marking)


def k4_fold_pair():
    """The rank-3 pair of the golden case ``foldpath-k4``: two tree-marked
    K4 graphs drawn from ``Random(31)``, the target's marking twisted by two
    Nielsen moves.  It folds in 7 events."""
    rng = random.Random(31)
    A = random_tree_marked(rng, "K4")
    B = apply_automorphism_to_marking(
        random_tree_marked(rng, "K4"),
        random_nielsen_automorphism(rng, A.rank, 2))
    return A, B
