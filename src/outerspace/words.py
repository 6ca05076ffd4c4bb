"""Words in a finitely generated free group.

A letter is a nonzero integer: ``+i`` is the i-th generator (1-based), ``-i``
its inverse.  Words are stored freely reduced; all operations keep them that
way.  Nothing here knows about any textual syntax; that lives in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInputError, RankMismatchError


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group of rank ``rank``."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        for x in self.letters:
            if x == 0 or abs(x) > self.rank:
                raise InvalidInputError(
                    f"letter {x} out of range for rank {self.rank}"
                )
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise InvalidInputError("word is not freely reduced")

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise RankMismatchError(f"ranks differ: {self.rank} != {other.rank}")
        return free_reduce(self.letters + other.letters, self.rank)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)), self.rank)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = identity(self.rank)
        for _ in range(n):
            out = out * self
        return out


def identity(rank: int) -> Word:
    return Word((), rank)


def generator(i: int, rank: int) -> Word:
    """The i-th generator (1-based) as a Word."""
    return Word((i,), rank)


def free_reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence.

    The result equals the input as a group element; reduction is done with a
    single stack pass, so it is linear in the input length.
    """
    stack: list[int] = []
    for x in letters:
        if x == 0 or abs(x) > rank:
            raise InvalidInputError(f"letter {x} out of range for rank {rank}")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return Word(tuple(stack), rank)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w`` as ``conjugator * core * conjugator^-1`` with cyclically
    reduced ``core``.

    Returns ``(core, conjugator)``.
    """
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return Word(letters[i:j], w.rank), Word(letters[:i], w.rank)


def apply_endomorphism(w: Word, images: Sequence[Word]) -> Word:
    """Substitute each generator of ``w`` by its image and freely reduce.

    ``images[i-1]`` replaces generator ``i``; negative letters get the
    inverted image.
    """
    if len(images) != w.rank:
        raise RankMismatchError(
            f"{len(images)} images given for a rank-{w.rank} word"
        )
    if images:
        target_rank = images[0].rank
        for im in images:
            if im.rank != target_rank:
                raise RankMismatchError("images have inconsistent ranks")
    else:
        target_rank = w.rank
    out: list[int] = []
    for x in w.letters:
        im = images[abs(x) - 1]
        out.extend(im.letters if x > 0 else im.inverse().letters)
    return free_reduce(out, target_rank)


@dataclass(frozen=True)
class AutomorphismPair:
    """An automorphism of F_n given by generator images together with the
    images under its inverse.

    The inverse is supplied, not computed; `validate_automorphism_pair`
    checks that the two lists really are mutually inverse.
    """

    forward_images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]
    rank: int

    def inverse(self) -> "AutomorphismPair":
        return AutomorphismPair(self.inverse_images, self.forward_images, self.rank)


def identity_automorphism(rank: int) -> AutomorphismPair:
    gens = tuple(generator(i, rank) for i in range(1, rank + 1))
    return AutomorphismPair(gens, gens, rank)


def compose(p: AutomorphismPair, q: AutomorphismPair) -> AutomorphismPair:
    """The composition p o q (apply q first)."""
    if p.rank != q.rank:
        raise RankMismatchError("cannot compose automorphisms of different ranks")
    fwd = tuple(apply_endomorphism(w, p.forward_images) for w in q.forward_images)
    inv = tuple(apply_endomorphism(w, q.inverse_images) for w in p.inverse_images)
    return AutomorphismPair(fwd, inv, p.rank)


def validate_automorphism_pair(p: AutomorphismPair) -> list[str]:
    """The issues that keep forward and inverse images from inverting each
    other, the first violated invariant first; empty means accept.

    Reports the first generator whose round-trip fails, in each direction.
    """
    if len(p.forward_images) != p.rank or len(p.inverse_images) != p.rank:
        return [f"expected {p.rank} forward and inverse images, got "
                f"{len(p.forward_images)} and {len(p.inverse_images)}"]
    issues = []
    for i in range(1, p.rank + 1):
        gen = generator(i, p.rank)
        round_trip = apply_endomorphism(p.forward_images[i - 1], p.inverse_images)
        if round_trip != gen:
            issues.append(f"inverse(forward(a_{i})) = {round_trip.letters}, not a_{i}")
            break
    for i in range(1, p.rank + 1):
        gen = generator(i, p.rank)
        round_trip = apply_endomorphism(p.inverse_images[i - 1], p.forward_images)
        if round_trip != gen:
            issues.append(f"forward(inverse(a_{i})) = {round_trip.letters}, not a_{i}")
            break
    return issues
