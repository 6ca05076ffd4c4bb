import random

import pytest
from hypothesis import given, strategies as st

from conftest import assert_outcome
from outerspace.errors import InvalidInputError, RankMismatchError
from outerspace.words import (
    AutomorphismPair,
    ValidationReport,
    Word,
    apply_endomorphism,
    compose,
    cyclic_reduce,
    free_reduce,
    generator,
    identity_automorphism,
    validate_automorphism_pair,
)

letters = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=40
)
letters2 = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=40
)


def naive_reduce(seq):
    """Repeated-scan reducer used as an independent oracle."""
    seq = list(seq)
    done = False
    while not done:
        done = True
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i:i + 2]
                done = False
                break
    return tuple(seq)


def test_reduce_cancellation():
    # "a A b" -> "b"
    assert free_reduce([1, -1, 2], 2).letters == (2,)


def test_reduce_identity():
    assert free_reduce([], 2).letters == ()


@given(letters)
def test_reduce_matches_stack_oracle(seq):
    assert free_reduce(seq, 3).letters == naive_reduce(seq)


@given(letters)
def test_reduce_idempotent_and_nonincreasing(seq):
    w = free_reduce(seq, 3)
    assert free_reduce(w.letters, 3) == w
    assert len(w) <= len(seq)


def test_reduce_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        free_reduce([5], 2)


def test_cyclic_reduce_basic():
    core, conj = cyclic_reduce(free_reduce([1, 2, -1], 2))
    assert core.letters == (2,)
    assert conj.letters == (1,)


def test_cyclic_reduce_already_reduced():
    w = free_reduce([1, 2], 2)
    core, conj = cyclic_reduce(w)
    assert core == w and conj.letters == ()


def test_cyclic_reduce_reconstructs():
    rng = random.Random(7)
    for _ in range(50):
        v = free_reduce([rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(10)], 3)
        core_v, _ = cyclic_reduce(v)
        u = free_reduce([rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(6)], 3)
        w = u * core_v * u.inverse()
        core_w, conj = cyclic_reduce(w)
        assert conj * core_w * conj.inverse() == w
        # the core is a rotation of core_v
        rotations = {
            core_v.letters[r:] + core_v.letters[:r] for r in range(max(1, len(core_v)))
        }
        assert core_w.letters in rotations


def phi_poly():
    """a -> a, b -> ba (with its inverse)."""
    a, b = generator(1, 2), generator(2, 2)
    return AutomorphismPair(
        forward_images=(a, b * a),
        inverse_images=(a, b * a.inverse()),
        rank=2,
    )


def test_apply_endomorphism_poly_example():
    # b -> ba
    w = apply_endomorphism(generator(2, 2), phi_poly().forward_images)
    assert w.letters == (2, 1)


def test_apply_endomorphism_identity():
    imgs = identity_automorphism(2).forward_images
    rng = random.Random(3)
    for _ in range(20):
        w = free_reduce([rng.choice([1, -1, 2, -2]) for _ in range(12)], 2)
        assert apply_endomorphism(w, imgs) == w


def test_apply_endomorphism_twice():
    # phi^2(b) = baa
    images = phi_poly().forward_images
    w = apply_endomorphism(apply_endomorphism(generator(2, 2), images), images)
    assert w.letters == (2, 1, 1)


def test_apply_endomorphism_rank_mismatch():
    with pytest.raises(RankMismatchError):
        apply_endomorphism(generator(1, 2), (generator(1, 2),))


@given(letters2, letters2)
def test_apply_endomorphism_distributes(seq1, seq2):
    images = phi_poly().forward_images
    u = free_reduce(seq1, 2)
    v = free_reduce(seq2, 2)
    assert apply_endomorphism(u * v, images) == \
        apply_endomorphism(u, images) * apply_endomorphism(v, images)


def test_validate_pair_accepts():
    assert validate_automorphism_pair(phi_poly()).ok


def test_validate_pair_rejects_non_inverse():
    a, b = generator(1, 2), generator(2, 2)
    bad = AutomorphismPair((a, b * a), (a, b * a), 2)
    report = validate_automorphism_pair(bad)
    assert not report.ok
    assert "a_2" in report.issues[0]


def nielsen_moves(rank):
    """Elementary automorphisms with recorded inverses."""
    moves = []
    for i in range(1, rank + 1):
        fw = list(identity_automorphism(rank).forward_images)
        fw[i - 1] = generator(i, rank).inverse()
        moves.append(AutomorphismPair(tuple(fw), tuple(fw), rank))
        for j in range(1, rank + 1):
            if i == j:
                continue
            fw = list(identity_automorphism(rank).forward_images)
            fw[i - 1] = generator(i, rank) * generator(j, rank)
            bw = list(identity_automorphism(rank).forward_images)
            bw[i - 1] = generator(i, rank) * generator(j, rank).inverse()
            moves.append(AutomorphismPair(tuple(fw), tuple(bw), rank))
    return moves


def test_validate_pair_random_nielsen_compositions():
    rng = random.Random(11)
    moves = nielsen_moves(3)
    for _ in range(25):
        phi = identity_automorphism(3)
        for _ in range(rng.randrange(1, 6)):
            phi = compose(phi, rng.choice(moves))
        assert validate_automorphism_pair(phi).ok


a, b = generator(1, 2), generator(2, 2)


@pytest.mark.parametrize("call, expect", [
    (lambda: Word((3,), 2),
     InvalidInputError("letter 3 out of range for rank 2")),
    (lambda: Word((1, -1), 2),
     InvalidInputError("word is not freely reduced")),
    (lambda: (a * b) ** -2, Word((-2, -1, -2, -1), 2)),
    (lambda: compose(identity_automorphism(2), identity_automorphism(3)),
     RankMismatchError("cannot compose automorphisms of different ranks")),
    (lambda: validate_automorphism_pair(AutomorphismPair((a,), (a, b), 2)),
     ValidationReport(False, (
         "expected 2 forward and inverse images, got 1 and 2",))),
], ids=["letter-range", "unreduced", "negative-power", "compose-ranks",
        "image-count"])
def test_input_checks(call, expect):
    assert_outcome(call, expect)
