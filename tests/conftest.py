from outerspace.graphs import make_graph
from outerspace.words import Word, cyclic_key


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
