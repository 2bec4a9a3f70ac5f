"""Words over a finite involutive alphabet, ordered by subword embedding.

The default alphabet is the two-letter one with ``+`` and ``-`` exchanged
by the involution; general finite alphabets with the identity involution are
supported as well.  Letters are compared by equality only: the subword order
is the one induced by the discrete letter order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class AlphabetMismatch(ValueError):
    """Two values over different alphabets were combined."""


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet with a self-inverse involution on its letters."""

    letters: tuple[str, ...]
    involution_pairs: tuple[tuple[str, str], ...]
    _inv: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters")
        carrier = set(self.letters)
        inv = dict(self.involution_pairs)
        if set(inv) != carrier:
            raise ValueError("involution must be defined on every letter")
        for a, b in inv.items():
            if b not in carrier or inv[b] != a:
                raise ValueError(f"involution is not self-inverse at {a!r}")
        object.__setattr__(self, "_inv", inv)

    @classmethod
    def plus_minus(cls) -> Alphabet:
        """The zigzag alphabet: letters + and -, exchanged by the involution."""
        return cls(("+", "-"), (("+", "-"), ("-", "+")))

    @classmethod
    def identity(cls, letters: Iterable[str]) -> Alphabet:
        """Alphabet with the identity involution (used for free-monoid work)."""
        letters = tuple(letters)
        return cls(letters, tuple((a, a) for a in letters))

    def involute_letter(self, a: str) -> str:
        return self._inv[a]

    def position(self, a: str) -> int:
        return self.letters.index(a)


PLUS_MINUS = Alphabet.plus_minus()


@dataclass(frozen=True)
class Word:
    """An immutable finite word; the empty word prints as the empty string."""

    alphabet: Alphabet
    letters: tuple[str, ...] = ()

    def __post_init__(self):
        for a in self.letters:
            if a not in self.alphabet.letters:
                raise ValueError(f"letter {a!r} not in alphabet")

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet = PLUS_MINUS) -> Word:
        """Parse a word from a plain string, one character per letter."""
        return cls(alphabet, tuple(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def __add__(self, other: Word) -> Word:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("cannot concatenate over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __le__(self, other: Word) -> bool:
        return subword_leq(self, other)

    def involute(self) -> Word:
        inv = self.alphabet.involute_letter
        return Word(self.alphabet, tuple(inv(a) for a in reversed(self.letters)))

    def is_empty(self) -> bool:
        return not self.letters

    def prefix(self, k: int) -> Word:
        return Word(self.alphabet, self.letters[:k])

    def suffix_from(self, k: int) -> Word:
        return Word(self.alphabet, self.letters[k:])

    def sort_key(self) -> tuple:
        """Length-then-lexicographic key (lex by alphabet position)."""
        pos = self.alphabet.position
        return (len(self.letters), tuple(pos(a) for a in self.letters))

    def to_json(self):
        """Plain string for single-character alphabets, else a list of
        symbol names."""
        if all(len(a) == 1 for a in self.alphabet.letters):
            return str(self)
        return list(self.letters)

    @classmethod
    def from_json(cls, payload, alphabet: Alphabet = PLUS_MINUS) -> Word:
        if isinstance(payload, str):
            return cls.parse(payload, alphabet)
        return cls(alphabet, tuple(payload))


def subword_leq(u: Word, v: Word) -> bool:
    """Subword embedding: u is obtained from v by deleting letters, decided
    by the left-greedy scan."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch("cannot compare words over different alphabets")
    if len(u) > len(v):
        return False
    it = iter(v.letters)
    return all(a in it for a in u.letters)


def greedy_prefix_match(x: Word, g: Word) -> int:
    """Largest k such that x[:k] embeds into g by the left-greedy scan.

    The greedy scan matches the longest possible prefix, so ``g + u``
    contains x as a subword iff u contains x[k:].
    """
    k = 0
    for b in g.letters:
        if k < len(x) and x.letters[k] == b:
            k += 1
    return k


def all_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All words of length <= max_len in length-then-lex order."""
    level = [()]
    yield Word(alphabet, ())
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in alphabet.letters]
        for w in level:
            yield Word(alphabet, w)


def minimize_words(words: Iterable[Word]) -> tuple[Word, ...]:
    """Antichain of minimal words of the given set, sorted length-then-lex."""
    ws = sorted(set(words), key=Word.sort_key)
    kept: list[Word] = []
    for w in ws:
        if not any(m <= w for m in kept):
            kept.append(w)
    return tuple(kept)


def is_antichain(words: Iterable[Word]) -> bool:
    ws = list(words)
    return all(not (ws[i] <= ws[j] or ws[j] <= ws[i])
               for i in range(len(ws)) for j in range(i + 1, len(ws)))


def minimal_common_superwords(a: Word, b: Word) -> tuple[Word, ...]:
    """Antichain of minimal words containing both arguments as subwords.

    The first letter of a minimal merge must serve the leftmost embedding of
    one of the arguments, and with equal heads both embeddings share it.  The
    merges of each pair of suffixes are memoized and filled from an explicit
    stack, so long words do not hit the recursion limit.
    """
    memo: dict[tuple[int, int], tuple[tuple[str, ...], ...]] = {}
    stack = [(0, 0)]
    while stack:
        i, j = stack[-1]
        if (i, j) in memo:
            stack.pop()
            continue
        if i == len(a):
            memo[(i, j)] = (b.letters[j:],)
            continue
        if j == len(b):
            memo[(i, j)] = (a.letters[i:],)
            continue
        x, y = a.letters[i], b.letters[j]
        needs = [(i + 1, j + 1)] if x == y else [(i + 1, j), (i, j + 1)]
        missing = [k for k in needs if k not in memo]
        if missing:
            stack.extend(missing)
            continue
        if x == y:
            memo[(i, j)] = tuple((x,) + t for t in memo[(i + 1, j + 1)])
        else:
            branches = {(x,) + t for t in memo[(i + 1, j)]}
            branches.update((y,) + t for t in memo[(i, j + 1)])
            memo[(i, j)] = tuple(branches)
    return minimize_words(Word(a.alphabet, t) for t in memo[(0, 0)])
