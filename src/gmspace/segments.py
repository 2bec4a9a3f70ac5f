"""The involutive quantale of final segments of words.

A final segment (upset) is represented canonically by its finite antichain
of minimal words, sorted length-then-lex.  The quantale order is reverse
inclusion, so the least element 0 is the full word set, represented by the
antichain containing only the empty word; the empty set is the antichain ().
Words are ordered by subword embedding under the discrete letter order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from . import automata
from .words import PLUS_MINUS, Alphabet, AlphabetMismatch, Word, all_words, \
    greedy_prefix_match, minimal_common_superwords, minimize_words


@dataclass(frozen=True)
class FinalSegment:
    """Upward-closed word set, canonically generated by a minimal antichain."""

    alphabet: Alphabet
    generators: tuple[Word, ...]

    @classmethod
    def of(cls, alphabet: Alphabet, words: Iterable[Word | str]) -> FinalSegment:
        ws = [w if isinstance(w, Word) else Word.parse(w, alphabet) for w in words]
        for w in ws:
            if w.alphabet != alphabet:
                raise AlphabetMismatch("generator over a different alphabet")
        return cls(alphabet, minimize_words(ws))

    @classmethod
    def zero(cls, alphabet: Alphabet = PLUS_MINUS) -> FinalSegment:
        """The least element: the set of all words."""
        return cls(alphabet, (Word(alphabet, ()),))

    @classmethod
    def empty(cls, alphabet: Alphabet = PLUS_MINUS) -> FinalSegment:
        """The empty word set (the top element)."""
        return cls(alphabet, ())

    def is_zero(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_empty()

    def is_empty_set(self) -> bool:
        return not self.generators

    def contains(self, w: Word) -> bool:
        return any(g <= w for g in self.generators)

    def leq(self, other: FinalSegment) -> bool:
        """Quantale order: self <= other iff self contains other as a set."""
        self._check(other)
        return all(self.contains(g) for g in other.generators)

    def meet(self, other: FinalSegment) -> FinalSegment:
        """Lattice meet = set union, re-minimized."""
        self._check(other)
        return FinalSegment.of(self.alphabet, self.generators + other.generators)

    def join(self, other: FinalSegment) -> FinalSegment:
        """Lattice join = set intersection.

        The minimal words of an intersection of upsets are minimal common
        superwords of generator pairs.
        """
        self._check(other)
        if self.leq(other):
            return other
        if other.leq(self):
            return self
        merged = [w for g in self.generators for h in other.generators
                  for w in minimal_common_superwords(g, h)]
        return FinalSegment.of(self.alphabet, merged)

    def oplus(self, other: FinalSegment) -> FinalSegment:
        """Monoid operation: pointwise concatenation, re-minimized."""
        self._check(other)
        return FinalSegment.of(self.alphabet,
                               [g + h for g in self.generators
                                for h in other.generators])

    def involute(self) -> FinalSegment:
        return FinalSegment.of(self.alphabet,
                               [g.involute() for g in self.generators])

    def to_automaton(self) -> automata.Automaton:
        return automata.upset_automaton(self.alphabet, self.generators)

    def to_json(self) -> list[str]:
        return [str(g) for g in self.generators]

    @classmethod
    def from_json(cls, payload: Iterable[str],
                  alphabet: Alphabet = PLUS_MINUS) -> FinalSegment:
        return cls.of(alphabet, list(payload))

    def _check(self, other: FinalSegment):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("final segments over different alphabets")

    def __str__(self) -> str:
        return "{" + ", ".join(str(g) or "□" for g in self.generators) + "}"


def word_quotient_upset(v: FinalSegment, g: Word, side: str) -> FinalSegment:
    """{u : ug in v} or {u : gu in v}, at the antichain level: the greedy
    maximal prefix (suffix) of each generator embeds into g and the rest is
    the quotient generator."""
    if side == "left":
        rest = [x.suffix_from(greedy_prefix_match(x, g)) for x in v.generators]
    elif side == "right":
        rest = [x.prefix(len(x) - greedy_prefix_match(x.involute(), g.involute()))
                for x in v.generators]
    else:
        raise ValueError("side must be 'left' or 'right'")
    return FinalSegment.of(v.alphabet, rest)


def residual(v: FinalSegment, b: FinalSegment, side: str) -> FinalSegment:
    """Least r (in the quantale order) with v <= r (+) b  (side='right')
    or v <= b (+) r  (side='left').

    The intersection of word quotients by the generators of b: quantifying
    over minimal words suffices because v is upward-closed.
    """
    v._check(b)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if b.is_empty_set():
        return FinalSegment.zero(v.alphabet)
    out: Optional[FinalSegment] = None
    for g in b.generators:
        quo = word_quotient_upset(v, g, side)
        out = quo if out is None else out.join(quo)
    return out


def residual_distance(p: FinalSegment, q: FinalSegment) -> FinalSegment:
    """Canonical distance on the quantale: the least r such that
    p <= q (+) involute(r) and q <= p (+) r."""
    left = residual(p.involute(), q.involute(), "right")
    right = residual(q, p, "left")
    return left.join(right)


def in_macneille(z: FinalSegment) -> tuple[bool, Optional[tuple[Word, Word]]]:
    """Membership in the MacNeille completion of the word poset, decided by
    the cancellation rule: u+v and u-v in Z imply uv in Z.

    Searches a triple product of the determinized acceptor for a reachable
    common prefix u whose two one-letter extensions accept some common
    suffix v that the bare prefix does not; returns a shortest witness.
    """
    alpha = z.alphabet
    if len(alpha.letters) != 2 or \
            alpha.involute_letter(alpha.letters[0]) != alpha.letters[1]:
        raise ValueError("cancellation rule needs a two-letter involutive alphabet")
    plus, minus = alpha.letters
    dfa = automata._complete(automata.determinize(z.to_automaton()))
    delta = {k: v[0] for k, v in dfa._delta.items()}
    (start,) = dfa.initial
    acc = dfa.accepting

    # 0/1-BFS over prefix states and suffix triples; the split is a free move.
    seen_pre: dict[int, tuple[str, ...]] = {start: ()}
    seen_post: dict[tuple[int, int, int], tuple[tuple[str, ...], tuple[str, ...]]] = {}
    queue: deque = deque([("pre", start)])
    while queue:
        kind, node = queue.popleft()
        if kind == "pre":
            u = seen_pre[node]
            triple = (delta[(node, plus)], delta[(node, minus)], node)
            if triple not in seen_post:
                # the split costs nothing: 0-1 BFS keeps witnesses shortest
                seen_post[triple] = (u, ())
                queue.appendleft(("post", triple))
            for a in alpha.letters:
                nxt = delta[(node, a)]
                if nxt not in seen_pre:
                    seen_pre[nxt] = u + (a,)
                    queue.append(("pre", nxt))
        else:
            u, v = seen_post[node]
            s1, s2, s0 = node
            if s1 in acc and s2 in acc and s0 not in acc:
                return False, (Word(alpha, u), Word(alpha, v))
            for a in alpha.letters:
                nt = (delta[(s1, a)], delta[(s2, a)], delta[(s0, a)])
                if nt not in seen_post:
                    seen_post[nt] = (u, v + (a,))
                    queue.append(("post", nt))
    return True, None


def is_self_dual(v: FinalSegment) -> bool:
    return v.involute() == v


def is_accessible(v: FinalSegment, candidates: Iterable[FinalSegment]) -> bool:
    """Search the candidate set for r with v not<= r and v <= r (+) inv(r).

    The quantale is infinite, so the existential is bounded by an explicit
    candidate set; principal upsets of bounded length are a sound default
    for elements of the MacNeille completion.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate set must be nonempty")
    for r in cands:
        if not v.leq(r) and v.leq(r.oplus(r.involute())):
            return True
    return False


def principal_upsets(alphabet: Alphabet, max_len: int) -> list[FinalSegment]:
    """All principal final segments generated by one word of length <= max_len."""
    return [FinalSegment(alphabet, (w,)) for w in all_words(alphabet, max_len)]


def default_accessibility_candidates(v: FinalSegment) -> list[FinalSegment]:
    longest = max((len(g) for g in v.generators), default=0)
    return principal_upsets(v.alphabet, longest + 1)
