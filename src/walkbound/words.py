"""Exact reduced-word arithmetic in finitely generated free groups.

A word is a sequence of letters over a fixed basis of rank ``d``. Letters are
nonzero integers: ``i`` (1-based) is the i-th basis generator, ``-i`` its
inverse. A word is freely reduced when no letter is followed by its inverse;
every :class:`Word` maintains that invariant, so equality of words is equality
of group elements.

Text encoding: lowercase ``a``..``z`` are generators 1..26, uppercase
``A``..``Z`` their inverses, and the bare string ``"1"`` is the identity. The
same encoding is used in config files, CSV cells and JSON values.

Rank is carried by every word and checked on every binary operation; mixing
words of different ranks is an error, never a silent re-interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Word",
    "Ray",
    "common_prefix_length",
    "free_reduce",
    "MAX_RANK",
]

MAX_RANK = 26  # limited by the letter encoding


def free_reduce(letters: Iterable[int]) -> list[int]:
    """Freely reduce a letter sequence by cancelling adjacent inverse pairs."""
    out: list[int] = []
    push = out.append
    pop = out.pop
    for s in letters:
        if out and out[-1] == -s:
            pop()
        else:
            push(s)
    return out


def _check_letters(rank: int, letters: tuple[int, ...]) -> None:
    prev = 0
    for s in letters:
        if not isinstance(s, int) or s == 0 or not -rank <= s <= rank:
            raise ValueError(f"letter {s!r} out of range for rank {rank}")
        if s == -prev:
            raise ValueError("word is not freely reduced")
        prev = s


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word; the canonical form of a free-group element."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be in [1, {MAX_RANK}], got {self.rank}")
        _check_letters(self.rank, self.letters)

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls(rank, ())

    @classmethod
    def from_letters(cls, rank: int, letters: Iterable[int]) -> "Word":
        """Build a word from an arbitrary letter sequence, reducing it."""
        return cls(rank, tuple(free_reduce(letters)))

    @classmethod
    def generator(cls, rank: int, index: int, sign: int = 1) -> "Word":
        return cls(rank, (index if sign > 0 else -index,))

    @classmethod
    def parse(cls, rank: int, text: str) -> "Word":
        """Parse the letter encoding; ``"1"`` is the identity."""
        text = text.strip()
        if text == "1":
            return cls(rank, ())
        letters = []
        for ch in text:
            if "a" <= ch <= "z":
                letters.append(ord(ch) - 96)
            elif "A" <= ch <= "Z":
                letters.append(-(ord(ch) - 64))
            else:
                raise ValueError(f"invalid character {ch!r} in word {text!r}")
        word = cls(rank, tuple(letters))  # raises if out of rank or unreduced
        return word

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(chr(96 + s) if s > 0 else chr(64 - s) for s in self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        a, b = self.letters, other.letters
        # cancel across the junction, then concatenate the survivors
        i, j = len(a), 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return _reduced_word(self.rank, a[:i] + b[j:])

    def inverse(self) -> "Word":
        return _reduced_word(self.rank, tuple(-s for s in reversed(self.letters)))

    def conjugate(self, by: "Word") -> "Word":
        """``by * self * by^-1``."""
        return by * self * by.inverse()

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Split ``self = conjugator * core * conjugator^-1``.

        The core is cyclically reduced (its first letter is not the inverse of
        its last), hence of minimal length in the conjugacy class.
        """
        letters = self.letters
        lo = _conjugator_length(letters)
        return Word(self.rank, letters[lo : len(letters) - lo]), Word(self.rank, letters[:lo])

    def is_cyclically_reduced(self) -> bool:
        w = self.letters
        return len(w) < 2 or w[0] != -w[-1]

    # -- prefix combinatorics ----------------------------------------------

    def prefix(self, k: int) -> "Word":
        if k < 0:
            raise ValueError("prefix length must be >= 0")
        return Word(self.rank, self.letters[:k])

    def starts_with(self, other: "Word") -> bool:
        return self.letters[: len(other.letters)] == other.letters


def _conjugator_length(letters: Sequence[int]) -> int:
    """|c| for a reduced word c·core·c⁻¹ with a cyclically reduced core."""
    lo, n = 0, len(letters)
    while n - 2 * lo >= 2 and letters[lo] == -letters[n - 1 - lo]:
        lo += 1
    return lo


def _reduced_word(rank: int, letters: tuple[int, ...]) -> Word:
    """A Word built without checking its letters.

    Only for letters reduced by construction: the step kernel's stacks (it
    pushes letters of valid words and cancels at every junction), products
    and inverses of words, automorphism images, and the prefixes and exact
    images of rays. Re-checking them would cost a pass over the whole word.
    """
    word = object.__new__(Word)
    object.__setattr__(word, "rank", rank)
    object.__setattr__(word, "letters", letters)
    return word


def common_prefix_length(u: Word, v: Word) -> int:
    if u.rank != v.rank:
        raise ValueError(f"rank mismatch: {u.rank} vs {v.rank}")
    n = 0
    for a, b in zip(u.letters, v.letters):
        if a != b:
            break
        n += 1
    return n


@dataclass(frozen=True, slots=True)
class Ray:
    """An eventually periodic boundary point: the infinite word head·cycle^∞.

    Only eventually periodic rays are representable; that is enough for the
    probe-and-prefix computations this package performs, and any finite prefix
    can be extracted exactly. The constructor enforces that the infinite word
    is freely reduced: the cycle is cyclically reduced, nonempty, and neither
    junction (head→cycle, cycle→cycle) cancels.
    """

    head: Word
    cycle: Word

    def __post_init__(self) -> None:
        if self.head.rank != self.cycle.rank:
            raise ValueError("head and cycle must share a rank")
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        if not self.cycle.is_cyclically_reduced():
            raise ValueError("cycle must be cyclically reduced")
        if self.head and self.head.letters[-1] == -self.cycle.letters[0]:
            raise ValueError("head→cycle junction cancels")

    @property
    def rank(self) -> int:
        return self.head.rank

    @classmethod
    def parse(cls, rank: int, text: str) -> "Ray":
        """Parse ``"<head>|<cycle>"``, e.g. ``"1|b"`` for b·b·b···."""
        if "|" not in text:
            raise ValueError(f"ray must be written as 'head|cycle', got {text!r}")
        head_text, cycle_text = text.split("|", 1)
        return cls(Word.parse(rank, head_text), Word.parse(rank, cycle_text))

    @classmethod
    def constant(cls, rank: int, letter: int) -> "Ray":
        """The ray letter^∞."""
        return cls(Word.identity(rank), Word(rank, (letter,)))

    def __str__(self) -> str:
        return f"{self.head}|{self.cycle}"

    def letter(self, i: int) -> int:
        """The i-th letter (0-based) of the infinite word."""
        h = len(self.head.letters)
        if i < h:
            return self.head.letters[i]
        return self.cycle.letters[(i - h) % len(self.cycle.letters)]

    def prefix(self, k: int) -> Word:
        """The first ``k`` letters of the infinite word, as a word."""
        if k < 0:
            raise ValueError("prefix length must be >= 0")
        h = self.head.letters
        if k <= len(h):
            return _reduced_word(self.rank, h[:k])
        c = self.cycle.letters
        need = k - len(h)
        reps = need // len(c) + 1
        return _reduced_word(self.rank, (h + c * reps)[:k])
