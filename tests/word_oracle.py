"""Oracle: the word kernel as it was before words became code strings.

Words are tuples of letter names compared by the left-greedy scan, and every
final-segment operation re-minimizes through ``minimize_words``, which sorts
by (length, alphabet positions) and tests each word against every kept one.
The tests compare the string kernel in ``gmspace`` against these routines.
``is_antichain`` works on code strings; no production path needs it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from gmspace.words import Alphabet, covers


@dataclass(frozen=True)
class OldWord:
    alphabet: Alphabet
    letters: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: OldWord) -> OldWord:
        return OldWord(self.alphabet, self.letters + other.letters)

    def __le__(self, other: OldWord) -> bool:
        return subword_leq(self, other)

    def involute(self) -> OldWord:
        inv = self.alphabet.involute_letter
        return OldWord(self.alphabet, tuple(inv(a) for a in reversed(self.letters)))

    def prefix(self, k: int) -> OldWord:
        return OldWord(self.alphabet, self.letters[:k])

    def suffix_from(self, k: int) -> OldWord:
        return OldWord(self.alphabet, self.letters[k:])

    def sort_key(self) -> tuple:
        pos = self.alphabet.letters.index
        return (len(self.letters), tuple(pos(a) for a in self.letters))


def subword_leq(u: OldWord, v: OldWord) -> bool:
    if len(u) > len(v):
        return False
    it = iter(v.letters)
    return all(a in it for a in u.letters)


def greedy_prefix_match(x: OldWord, g: OldWord) -> int:
    k = 0
    for b in g.letters:
        if k < len(x) and x.letters[k] == b:
            k += 1
    return k


def minimize_words(words) -> tuple[OldWord, ...]:
    ws = sorted(set(words), key=OldWord.sort_key)
    kept: list[OldWord] = []
    for w in ws:
        if not any(m <= w for m in kept):
            kept.append(w)
    return tuple(kept)


def minimal_common_superwords(a: OldWord, b: OldWord) -> tuple[OldWord, ...]:
    memo: dict = {}
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
    return minimize_words(OldWord(a.alphabet, t) for t in memo[(0, 0)])


@dataclass(frozen=True)
class OldSegment:
    alphabet: Alphabet
    generators: tuple[OldWord, ...]

    @classmethod
    def of(cls, alphabet: Alphabet, words) -> OldSegment:
        return cls(alphabet, minimize_words(words))

    def contains(self, w: OldWord) -> bool:
        return any(g <= w for g in self.generators)

    def leq(self, other: OldSegment) -> bool:
        return all(self.contains(g) for g in other.generators)

    def meet(self, other: OldSegment) -> OldSegment:
        return OldSegment.of(self.alphabet, self.generators + other.generators)

    def join(self, other: OldSegment) -> OldSegment:
        if self.leq(other):
            return other
        if other.leq(self):
            return self
        merged = [w for g in self.generators for h in other.generators
                  for w in minimal_common_superwords(g, h)]
        return OldSegment.of(self.alphabet, merged)

    def oplus(self, other: OldSegment) -> OldSegment:
        return OldSegment.of(self.alphabet, [g + h for g in self.generators
                                             for h in other.generators])

    def involute(self) -> OldSegment:
        return OldSegment.of(self.alphabet, [g.involute() for g in self.generators])


def word_quotient_upset(v: OldSegment, g: OldWord, side: str) -> OldSegment:
    if side == "left":
        rest = [x.suffix_from(greedy_prefix_match(x, g)) for x in v.generators]
    else:
        rest = [x.prefix(len(x) - greedy_prefix_match(x.involute(), g.involute()))
                for x in v.generators]
    return OldSegment.of(v.alphabet, rest)


def residual(v: OldSegment, b: OldSegment, side: str) -> OldSegment:
    if not b.generators:
        return OldSegment(v.alphabet, (OldWord(v.alphabet, ()),))
    out: Optional[OldSegment] = None
    for g in b.generators:
        quo = word_quotient_upset(v, g, side)
        out = quo if out is None else out.join(quo)
    return out


def residual_distance(p: OldSegment, q: OldSegment) -> OldSegment:
    left = residual(p.involute(), q.involute(), "right")
    right = residual(q, p, "left")
    return left.join(right)


def is_antichain(codes: Iterable[str]) -> bool:
    """No code of the collection is a subword of another."""
    ws = list(codes)
    return all(not covers((ws[i],), ws[j]) and not covers((ws[j],), ws[i])
               for i in range(len(ws)) for j in range(i + 1, len(ws)))
