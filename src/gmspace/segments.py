"""The involutive quantale of final segments of words.

A final segment (upset) is represented canonically by its finite antichain
of minimal words, a tuple of codes (see ``words``) sorted length-then-lex.
The quantale order is reverse inclusion, so the least element 0 is the full
word set, represented by the antichain containing only the empty word; the
empty set is the antichain ().  Words are ordered by subword embedding under
the discrete letter order.

Results known to be canonical are not re-minimized.  If u and v are
incomparable, so are uw and vw (uw <= vw forces u <= v), and wu and wv, and
appending or prepending w keeps the length-then-lex order: ``oplus`` by a
one-generator segment, on either side, is a plain map.  ``involute`` keeps
the antichain and only re-sorts, and ``meet`` compares only pairs across its
two antichains.  The constructor checks canonical form; the kernel builds
its results through ``FinalSegment._canonical``.

``in_macneille`` reads words through the vector of greedy match lengths of
the generators, one state per vector, and builds no automaton; a principal
segment is a member without a search.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Optional

from .words import PLUS_MINUS, Alphabet, AlphabetMismatch, Word, all_words, \
    covers, greedy_prefix_match, minimal_common_superwords, minimize_words, \
    sort_codes


@dataclass(frozen=True)
class FinalSegment:
    """Upward-closed word set, canonically generated by a minimal antichain."""

    alphabet: Alphabet
    generators: tuple[str, ...]

    def __post_init__(self):
        gens = self.generators
        if not (isinstance(gens, tuple) and all(isinstance(g, str) for g in gens)):
            raise ValueError("generators must be a tuple of codes")
        if any(ord(c) not in self.alphabet._text for g in gens for c in g):
            raise ValueError("generator code outside the alphabet")
        if minimize_words(gens) != gens:
            raise ValueError("generators must be a sorted antichain")

    @classmethod
    def _canonical(cls, alphabet: Alphabet, gens: tuple[str, ...]) -> FinalSegment:
        """The segment of generators already known to be canonical."""
        seg = object.__new__(cls)
        object.__setattr__(seg, "alphabet", alphabet)
        object.__setattr__(seg, "generators", gens)
        return seg

    @classmethod
    def of(cls, alphabet: Alphabet, words: Iterable[Word | str]) -> FinalSegment:
        """The upset of any words; a string is read one character per letter."""
        codes = []
        for w in words:
            if isinstance(w, Word) and not w.alphabet.same(alphabet):
                raise AlphabetMismatch("generator over a different alphabet")
            codes.append(w.code if isinstance(w, Word) else alphabet.encode(w))
        return cls._canonical(alphabet, minimize_words(codes))

    @classmethod
    def zero(cls, alphabet: Alphabet = PLUS_MINUS) -> FinalSegment:
        """The least element: the set of all words."""
        return cls._canonical(alphabet, ("",))

    @classmethod
    def empty(cls, alphabet: Alphabet = PLUS_MINUS) -> FinalSegment:
        """The empty word set (the top element)."""
        return cls._canonical(alphabet, ())

    def is_zero(self) -> bool:
        return self.generators == ("",)

    def is_empty_set(self) -> bool:
        return not self.generators

    def contains(self, w: Word) -> bool:
        if not w.alphabet.same(self.alphabet):
            raise AlphabetMismatch("word over a different alphabet")
        return covers(self.generators, w.code)

    def leq(self, other: FinalSegment) -> bool:
        """Quantale order: self <= other iff self contains other as a set."""
        self._check(other)
        return all(covers(self.generators, h) for h in other.generators)

    def meet(self, other: FinalSegment) -> FinalSegment:
        """Lattice meet = set union: the generators of other that self does
        not cover are new, and one of self stays unless a new one embeds
        into it."""
        self._check(other)
        a = self.generators
        fresh = [y for y in other.generators if not covers(a, y)]
        if not fresh:
            return self
        return FinalSegment._canonical(self.alphabet, tuple(
            sort_codes([x for x in a if not covers(fresh, x)] + fresh)))

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
        return FinalSegment._canonical(self.alphabet, minimize_words(merged))

    def oplus(self, other: FinalSegment) -> FinalSegment:
        """Monoid operation: pointwise concatenation; a one-generator factor
        on either side maps the other's antichain without re-minimizing."""
        self._check(other)
        a, b = self.generators, other.generators
        if len(b) == 1:
            gens = tuple([g + b[0] for g in a])
        elif len(a) == 1:
            gens = tuple([a[0] + h for h in b])
        else:
            gens = minimize_words([g + h for g in a for h in b])
        return FinalSegment._canonical(self.alphabet, gens)

    def involute(self) -> FinalSegment:
        """Involution keeps the antichain, so it only re-sorts."""
        inv = self.alphabet.involute
        return FinalSegment._canonical(
            self.alphabet, tuple(sort_codes([inv(g) for g in self.generators])))

    def to_json(self) -> list[str]:
        return [self.alphabet.text(g) for g in self.generators]

    @classmethod
    def from_json(cls, payload: list[str],
                  alphabet: Alphabet = PLUS_MINUS) -> FinalSegment:
        if not (isinstance(payload, list)
                and all(isinstance(w, str) for w in payload)):
            raise ValueError("a final segment is a JSON list of words")
        return cls.of(alphabet, payload)

    def _check(self, other: FinalSegment):
        if not self.alphabet.same(other.alphabet):
            raise AlphabetMismatch("final segments over different alphabets")

    def __str__(self) -> str:
        return "{" + ", ".join(self.alphabet.text(g) or "□"
                               for g in self.generators) + "}"


def residual(v: FinalSegment, b: FinalSegment, side: str) -> FinalSegment:
    """Least r (in the quantale order) with v <= r (+) b  (side='right')
    or v <= b (+) r  (side='left').

    The intersection of the word quotients {u : ug in v} (or {u : gu in v})
    by the generators g of b: quantifying over minimal words suffices because
    v is upward-closed.  A quotient is generated by what is left of each
    generator of v after its greedy maximal prefix (suffix) embedded into g.
    """
    v._check(b)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if b.is_empty_set():
        return FinalSegment.zero(v.alphabet)
    out: Optional[FinalSegment] = None
    for g in b.generators:
        if side == "left":
            rest = [x[greedy_prefix_match(x, g):] for x in v.generators]
        else:
            rest = [x[:len(x) - greedy_prefix_match(x[::-1], g[::-1])]
                    for x in v.generators]
        quo = FinalSegment._canonical(v.alphabet, minimize_words(rest))
        out = quo if out is None else out.join(quo)
    return out


# The final-segment quantale in the sense of `_orders`; the canonical distance
# is `_orders.canonical_distance(SEGMENTS, p, q)`.
SEGMENTS = SimpleNamespace(leq=FinalSegment.leq, oplus=FinalSegment.oplus,
                           inv=FinalSegment.involute, join=FinalSegment.join,
                           meet=FinalSegment.meet, residual=residual)


def in_macneille(z: FinalSegment) -> tuple[bool, Optional[tuple[Word, Word]]]:
    """Membership in the MacNeille completion of the word poset, decided by
    the cancellation rule: u+v and u-v in Z imply uv in Z.

    A state after reading a word is the vector of greedy match lengths of
    the generators: entry k is the length of the longest prefix of the
    generator that embeds into the word, and the state accepts when some
    generator is matched whole.  A 0-1 BFS over prefix states and suffix
    triples looks for a prefix u whose two one-letter extensions accept some
    common suffix v that the bare prefix does not; it returns a shortest
    witness.

    A principal segment up(g) is a member without a search (a poset embeds
    in its MacNeille completion): if g embeds into u+v and u-v but not uv,
    let p be the greedy prefix match of g into u and s its greedy suffix
    match into v; then p + s < len(g), so g[p:] does not embed into v, and
    both embeddings force g[p] to be the inserted letter, + and - at once.
    Membership is invariant under the involution, which maps u+v to
    inv(v)-inv(u): a witness (u, v) for Z gives (inv(v), inv(u)) for inv(Z).
    """
    alpha = z.alphabet
    if len(alpha.letters) != 2 or \
            alpha.involute_letter(alpha.letters[0]) != alpha.letters[1]:
        raise ValueError("cancellation rule needs a two-letter involutive alphabet")
    gens = z.generators
    if len(gens) == 1:
        return True, None
    codes = [alpha.encode(a) for a in alpha.letters]
    steps: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def step(state: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        out = steps.get(state)
        if out is None:
            out = steps[state] = tuple(
                tuple([k + 1 if k < len(g) and g[k] == c else k
                       for g, k in zip(gens, state)]) for c in codes)
        return out

    def accepts(state: tuple[int, ...]) -> bool:
        return any(k == len(g) for g, k in zip(gens, state))

    start = (0,) * len(gens)
    seen_pre: dict[tuple[int, ...], str] = {start: ""}
    seen_post: dict[tuple, tuple[str, str]] = {}
    queue: deque = deque([("pre", start)])
    while queue:
        kind, node = queue.popleft()
        if kind == "pre":
            u = seen_pre[node]
            nxt = step(node)
            triple = (nxt[0], nxt[1], node)
            if triple not in seen_post:
                # the split costs nothing: 0-1 BFS keeps witnesses shortest
                seen_post[triple] = (u, "")
                queue.appendleft(("post", triple))
            for c, t in zip(codes, nxt):
                if t not in seen_pre:
                    seen_pre[t] = u + c
                    queue.append(("pre", t))
        else:
            u, v = seen_post[node]
            s1, s2, s0 = node
            if accepts(s1) and accepts(s2) and not accepts(s0):
                return False, (Word.from_code(alpha, u), Word.from_code(alpha, v))
            for c, nt in zip(codes, zip(step(s1), step(s2), step(s0))):
                if nt not in seen_post:
                    seen_post[nt] = (u, v + c)
                    queue.append(("post", nt))
    return True, None


def is_self_dual(v: FinalSegment) -> bool:
    return v.involute() == v


def principal_upsets(alphabet: Alphabet, max_len: int) -> list[FinalSegment]:
    """All principal final segments generated by one word of length <= max_len."""
    return [FinalSegment._canonical(alphabet, (w.code,))
            for w in all_words(alphabet, max_len)]


def default_accessibility_candidates(v: FinalSegment) -> list[FinalSegment]:
    """Principal upsets one letter longer than v's longest generator: the
    quantale is infinite, so `_orders.is_accessible` needs an explicit
    candidate set, and these are a sound one for elements of the MacNeille
    completion."""
    longest = max((len(g) for g in v.generators), default=0)
    return principal_upsets(v.alphabet, longest + 1)
