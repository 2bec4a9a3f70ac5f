"""Words over a finite involutive alphabet, ordered by subword embedding.

The default alphabet is the two-letter one with ``+`` and ``-`` exchanged
by the involution; general finite alphabets with the identity involution are
supported as well.  Letters are compared by equality only: the subword order
is the one induced by the discrete letter order.

The kernel works on codes: a word is a plain ``str`` with one character per
letter, the letter at alphabet position i being ``chr(43 + 2 * i)``.  So
``+`` (43) and ``-`` (45) code themselves, multi-character letter names fit,
and ``(len(code), code)`` is the length-then-lex key.  The antichain
functions take codes, and ``covers`` is their one subword test, a greedy
``str.find`` scan; ``Word`` is a single word at the API edge and carries its
code.
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
    _code: dict = field(init=False, repr=False, compare=False, hash=False)
    _text: dict = field(init=False, repr=False, compare=False, hash=False)
    _inv_code: dict = field(init=False, repr=False, compare=False, hash=False)

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
        code = {a: chr(43 + 2 * i) for i, a in enumerate(self.letters)}
        object.__setattr__(self, "_inv", inv)
        object.__setattr__(self, "_code", code)
        # str.translate tables: code -> letter name, code -> involuted code
        object.__setattr__(self, "_text", {ord(c): a for a, c in code.items()})
        object.__setattr__(self, "_inv_code",
                           {ord(c): code[inv[a]] for a, c in code.items()})

    @classmethod
    def plus_minus(cls) -> Alphabet:
        """The zigzag alphabet: letters + and -, exchanged by the involution."""
        return PLUS_MINUS

    @classmethod
    def identity(cls, letters: Iterable[str]) -> Alphabet:
        """Alphabet with the identity involution (used for free-monoid work)."""
        letters = tuple(letters)
        return cls(letters, tuple((a, a) for a in letters))

    def involute_letter(self, a: str) -> str:
        return self._inv[a]

    def same(self, other: Alphabet) -> bool:
        return self is other or self == other

    def encode(self, letters: Iterable[str]) -> str:
        try:
            return "".join([self._code[a] for a in letters])
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} not in alphabet") from None

    def decode(self, code: str) -> tuple[str, ...]:
        return tuple(self._text[ord(c)] for c in code)

    def text(self, code: str) -> str:
        """The letter names of a code, concatenated."""
        return code.translate(self._text)

    def involute(self, code: str) -> str:
        """The code of the reversed word with every letter involuted."""
        return code.translate(self._inv_code)[::-1]


PLUS_MINUS = Alphabet(("+", "-"), (("+", "-"), ("-", "+")))


@dataclass(frozen=True)
class Word:
    """An immutable finite word; the empty word prints as the empty string."""

    alphabet: Alphabet
    letters: tuple[str, ...] = ()
    code: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "code", self.alphabet.encode(self.letters))

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet = PLUS_MINUS) -> Word:
        """Parse a word from a plain string, one character per letter."""
        return cls(alphabet, tuple(text))

    @classmethod
    def from_code(cls, alphabet: Alphabet, code: str) -> Word:
        return cls(alphabet, alphabet.decode(code))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def __add__(self, other: Word) -> Word:
        if not self.alphabet.same(other.alphabet):
            raise AlphabetMismatch("cannot concatenate over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __le__(self, other: Word) -> bool:
        return subword_leq(self, other)

    def involute(self) -> Word:
        return Word.from_code(self.alphabet, self.alphabet.involute(self.code))

    def is_empty(self) -> bool:
        return not self.letters

    def prefix(self, k: int) -> Word:
        return Word(self.alphabet, self.letters[:k])

    def suffix_from(self, k: int) -> Word:
        return Word(self.alphabet, self.letters[k:])

    def sort_key(self) -> tuple[int, str]:
        """Length-then-lexicographic key (lex by alphabet position)."""
        return len(self.code), self.code

    def to_json(self):
        """Plain string for single-character alphabets, else letter names."""
        if all(len(a) == 1 for a in self.alphabet.letters):
            return str(self)
        return list(self.letters)

    @classmethod
    def from_json(cls, payload, alphabet: Alphabet = PLUS_MINUS) -> Word:
        if isinstance(payload, str):
            return cls.parse(payload, alphabet)
        return cls(alphabet, tuple(payload))


def covers(gens: Iterable[str], w: str) -> bool:
    """Some code of ``gens``, sorted by length, embeds into the code w."""
    n, find = len(w), w.find
    for g in gens:
        if len(g) > n:
            return False
        i = -1
        for c in g:
            i = find(c, i + 1)
            if i < 0:
                break
        else:
            return True
    return False


def subword_leq(u: Word, v: Word) -> bool:
    """Subword embedding: u is obtained from v by deleting letters."""
    if not u.alphabet.same(v.alphabet):
        raise AlphabetMismatch("cannot compare words over different alphabets")
    return covers((u.code,), v.code)


def greedy_prefix_match(x: str, g: str) -> int:
    """Largest k such that the code x[:k] embeds into the code g.

    The greedy scan matches the longest possible prefix, so ``g + u``
    contains x as a subword iff u contains x[k:].
    """
    i = -1
    for k, c in enumerate(x):
        i = g.find(c, i + 1)
        if i < 0:
            return k
    return len(x)


def sort_codes(codes: Iterable[str]) -> list[str]:
    """Length-then-lex order: a lex sort, then a stable sort by length."""
    return sorted(sorted(codes), key=len)


def all_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All words of length <= max_len in length-then-lex order."""
    level = [()]
    yield Word(alphabet, ())
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in alphabet.letters]
        for w in level:
            yield Word(alphabet, w)


def minimize_words(codes: Iterable[str]) -> tuple[str, ...]:
    """Antichain of the minimal codes of the given set, sorted
    length-then-lex; each code is tested only against shorter kept ones."""
    kept: list[str] = []
    for w in sort_codes(set(codes)):
        if not covers(kept, w):  # no kept code is longer than w
            kept.append(w)
    return tuple(kept)


def minimal_common_superwords(a: str, b: str) -> tuple[str, ...]:
    """Antichain of the minimal codes containing both codes as subwords.

    The first letter of a minimal merge must serve the leftmost embedding of
    one of the arguments, and with equal heads both embeddings share it.  The
    merges of each pair of suffixes are memoized and filled from an explicit
    stack, so long words do not hit the recursion limit.
    """
    memo: dict[tuple[int, int], tuple[str, ...]] = {}
    stack = [(0, 0)]
    while stack:
        i, j = stack[-1]
        if (i, j) in memo:
            stack.pop()
            continue
        if i == len(a):
            memo[(i, j)] = (b[j:],)
            continue
        if j == len(b):
            memo[(i, j)] = (a[i:],)
            continue
        x, y = a[i], b[j]
        needs = [(i + 1, j + 1)] if x == y else [(i + 1, j), (i, j + 1)]
        missing = [k for k in needs if k not in memo]
        if missing:
            stack.extend(missing)
            continue
        if x == y:
            memo[(i, j)] = tuple(x + t for t in memo[(i + 1, j + 1)])
        else:
            branches = {x + t for t in memo[(i + 1, j)]}
            branches.update(y + t for t in memo[(i, j + 1)])
            memo[(i, j)] = tuple(branches)
    return minimize_words(memo[(0, 0)])
