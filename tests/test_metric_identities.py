"""The stretching factor's own identities at rank 3-10.

Every value here is exact, so each identity is checked with equality or an
exact inequality.  The rank 3-6 triples come from the robustness sweep's
recipe on the `FAMILIES` graphs: K4 (rank 3), K3,3 (rank 4), the pentagonal
prism and the Petersen graph (rank 6).  The rank-8 and rank-10 triples are
random trivalent graphs drawn by the benchmark's generator, `bench/gen.py`.
The optimizer and the fold are checked for the same equivariance on K4 and
K3,3 sweep pairs.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

from conftest import trivalent_triple
from outerspace.folding import fast_fold, prepare_folding_setup
from outerspace.fixtures import (
    FAMILIES,
    random_nielsen_automorphism,
    random_tree_marked,
    random_word,
)
from outerspace.graphs import (
    MarkedMetricGraph,
    apply_automorphism_to_marking,
    normalize_volume,
    scale_graph,
    translation_length,
    word_of_loop,
)
from outerspace.stretch import lambda_r

# family -> the sweep seeds drawn for it; rank 6 costs the most
SEEDS = {"K4": range(24), "K33": range(16), "prism5": range(8),
         "petersen": range(6)}


def sweep_triple(family, seed):
    """The sweep's pair A, B drawn from ``Random(10_000 + seed)``, a third
    graph C twisted the same way, and the rng, for further draws."""
    rng = random.Random(10_000 + seed)

    def twisted(moves):
        return apply_automorphism_to_marking(
            random_tree_marked(rng, family),
            random_nielsen_automorphism(rng, A.rank, moves))

    A = random_tree_marked(rng, family)
    B = twisted(rng.randint(1, 4))
    C = twisted(rng.randint(1, 4))
    return A, B, C, rng


def triples():
    for family, seeds in SEEDS.items():
        for seed in seeds:
            yield (family, seed), *sweep_triple(family, seed)


def renamed(G: MarkedMetricGraph) -> MarkedMetricGraph:
    """G with every vertex and edge id renamed so that the sorted order of
    each kind of id is reversed."""
    def reverse_order(ids, prefix):
        ids = sorted(ids)
        return {x: f"{prefix}{len(ids) - i:03d}" for i, x in enumerate(ids)}

    v, e = reverse_order(G.vertices, "n"), reverse_order(G.edges, "k")
    return MarkedMetricGraph(
        rank=G.rank,
        vertices=frozenset(v.values()),
        edges={e[x]: (v[o], v[t], l) for x, (o, t, l) in G.edges.items()},
        basepoint=v[G.basepoint],
        marking=tuple(tuple((e[x], s) for x, s in petal)
                      for petal in G.marking),
        labels={e[x]: w for x, w in G.labels.items()},
    )


def test_families_span_ranks_3_to_6():
    ranks = {f: sweep_triple(f, 0)[0].rank for f in FAMILIES}
    assert ranks == {"K4": 3, "K33": 4, "prism5": 6, "petersen": 6}


def assert_identities(key, A, B, C, rng):
    """On the triple A, B, C:

    * equivariance: for one automorphism phi on both sides,
      lambda_R(A phi, B phi) = lambda_R(A, B), with the same witness loop
      (A phi has A's graph);
    * lambda_R >= 1 between volume-one representatives;
    * lambda_R(A, B) lambda_R(B, C) >= lambda_R(A, C);
    * l_B(w) <= lambda_R(A, B) l_A(w) for sampled words w, with equality at
      the word of the witness loop;
    * an order-changing renaming of every id changes no value.
    """
    AB = lambda_r(A, B)
    lam = AB.value

    phi = random_nielsen_automorphism(rng, A.rank, rng.randint(1, 4))
    twisted = lambda_r(apply_automorphism_to_marking(A, phi),
                       apply_automorphism_to_marking(B, phi))
    assert twisted.value == lam, key
    assert twisted.witness.loop == AB.witness.loop, key

    An, Bn = normalize_volume(A)[0], normalize_volume(B)[0]
    assert lambda_r(An, Bn).value >= 1, key
    assert lambda_r(Bn, An).value >= 1, key

    assert lam * lambda_r(B, C).value >= lambda_r(A, C).value, key

    w = word_of_loop(A, AB.witness.loop)
    assert translation_length(B, w) == lam * translation_length(A, w), key
    for _ in range(20):
        w = random_word(rng, A.rank, 12)
        assert translation_length(B, w) <= lam * translation_length(A, w), key

    assert lambda_r(renamed(A), renamed(B)).value == lam, key
    assert lambda_r(renamed(B), renamed(A)).value == lambda_r(B, A).value, key


def test_metric_identities_at_rank_3_to_6():
    """`assert_identities` on every sweep triple."""
    start = time.perf_counter()
    for key, A, B, C, rng in triples():
        assert_identities(key, A, B, C, rng)
    assert time.perf_counter() - start < 3


def test_metric_identities_at_rank_8_and_10():
    """`assert_identities` on one rank-8 and one rank-10 triple of random
    trivalent graphs."""
    start = time.perf_counter()
    for rank in (8, 10):
        A, B, C, rng = trivalent_triple(rank, 0)
        assert A.rank == rank
        assert_identities(rank, A, B, C, rng)
    assert time.perf_counter() - start < 3


def test_one_point_axiom():
    """lambda_R(A, B) = lambda_R(B, A) = 1 between volume-one
    representatives only when A and B are one point, on the sweep triples'
    first graphs: a rescaled copy of A reads 1 both ways, and A with one
    edge made 3/2 as long reads a product above 1 (raw factors: the
    product does not depend on the scales)."""
    for key, A, _, _, _ in triples():
        An, Sn = normalize_volume(A)[0], normalize_volume(
            scale_graph(A, Fraction(7, 3)))[0]
        assert lambda_r(An, Sn).value == lambda_r(Sn, An).value == 1, key
        e = min(A.edges)
        o, t, l = A.edges[e]
        A2 = replace(A, edges={**A.edges, e: (o, t, l * Fraction(3, 2))})
        assert lambda_r(A, A2).value * lambda_r(A2, A).value > 1, key


def test_optimizer_and_fold_are_equivariant():
    """Out(F_n) acts on the markings and not on the graphs, so for one
    automorphism phi on both sides of a K4 or K3,3 sweep pair, (A phi,
    B phi) has the same optimal map as (A, B), and under both strategies
    a fold with the same event times and the same vertex and edge images,
    id by id, at every event."""
    def images(f):
        return f.vertex_image, f.edge_image

    start = time.perf_counter()
    for family, seeds in (("K4", range(8)), ("K33", range(5))):
        for seed in seeds:
            A, B, _, rng = sweep_triple(family, seed)
            phi = random_nielsen_automorphism(rng, A.rank, rng.randint(1, 4))
            setup = prepare_folding_setup(A, B)
            twisted = prepare_folding_setup(
                apply_automorphism_to_marking(A, phi),
                apply_automorphism_to_marking(B, phi))
            key = family, seed
            assert images(twisted.optimal_map) == \
                images(setup.optimal_map), key
            for strategy in ("simultaneous", "single-vertex"):
                path, path_phi = (fast_fold(s, strategy)
                                  for s in (setup, twisted))
                assert path_phi.events == path.events, key
                assert [images(f) for f in path_phi.maps] == \
                    [images(f) for f in path.maps], key
    assert time.perf_counter() - start < 3
