"""Factorization of nonempty final segments into irreducibles.

The nonempty final segments of a free monoid of words form a free monoid
under concatenation; every member factors uniquely into irreducibles.

A split f = g (+) h, neither side the full word set, is read off the
generators of f.  By cancellativity every generator u of g is used by a
minimal word u + v of f with v a generator of h (else g without u would give
the same product), and so is every generator v of h, which is nonempty.  So g
is an antichain of proper prefixes, and every generator w of f starts with
exactly one member u of g (the prefixes of w form a chain), with w[len(u):] a
generator of h.  `_splits` grows g depth first over the sorted proper
prefixes.  When every generator of f starts with a member, the remainders
generate the one possible partner h, unique by cancellativity (the residual
of f by g).  Then g (+) h contains every w = u + w[len(u):], so it equals f
iff it lies in f: iff u + v is in f for every member u and remainder v.

Unique factorization makes any split as good as the leftmost, since factoring
both sides gives the one irreducible sequence: `factorize` takes the first
split found and works from an explicit stack, and `is_irreducible` asks for
one split.
"""
from __future__ import annotations

from functools import lru_cache, reduce

from .segments import FinalSegment
from .spaces import SizeGuard
from .words import covers, minimize_words, sort_codes


class EmptySegment(ValueError):
    """Factorization is defined on nonempty final segments only."""


def _splits(f: FinalSegment, guard: int = 1 << 16):
    """Every split f = g (+) h, with h the canonical partner of g; more than
    `guard` candidate antichains g raise SizeGuard."""
    words, alphabet = f.generators, f.alphabet
    prefixes = sort_codes({w[:k] for w in words for k in range(1, len(w))})
    # below[i]: bitmask of the earlier prefixes embedding into prefixes[i]
    below = [-1] * len(prefixes)
    stack: list[tuple[tuple[str, ...], int, int]] = [((), 0, 0)]
    visited = 0
    while stack:
        g, mask, start = stack.pop()
        if g:
            visited += 1
            if visited > guard:
                raise SizeGuard(f"more than {guard} candidate antichains")
            if all(w.startswith(g) for w in words):
                # the members that start w form a chain: there is just one
                tails = [w[len(u):] for w in words for u in g if w.startswith(u)]
                if all(covers(words, u + v) for u in g for v in tails):
                    yield (FinalSegment._canonical(alphabet, g),
                           FinalSegment._canonical(alphabet, minimize_words(tails)))
        # a later prefix is no shorter than the members, so it joins the
        # antichain unless one of them embeds into it
        for i in range(len(prefixes) - 1, start - 1, -1):
            if mask and below[i] < 0:
                below[i] = sum(1 << j for j in range(i)
                               if covers((prefixes[j],), prefixes[i]))
            if not mask & below[i]:
                stack.append((g + (prefixes[i],), mask | 1 << i, i + 1))


@lru_cache(maxsize=None)
def decompose_once(f: FinalSegment) -> tuple[tuple[FinalSegment, FinalSegment], ...]:
    """All proper splits f = g (+) h, sorted by the generators of g."""
    if f.is_empty_set():
        raise EmptySegment("cannot decompose the empty segment")
    return tuple(sorted(_splits(f), key=lambda gh: tuple(
        (len(w), w) for w in gh[0].generators)))


@lru_cache(maxsize=None)
def is_irreducible(f: FinalSegment) -> bool:
    """Not the full word set and not a proper concatenation; the empty
    segment is irreducible by convention."""
    if f.is_empty_set():
        return True
    return not f.is_zero() and next(_splits(f), None) is None


def factorize(f: FinalSegment) -> list[FinalSegment]:
    """The unique irreducible factor sequence; the full word set factors as
    the empty sequence.  Both sides of the first split found are factored in
    turn, and recomposition is asserted."""
    if f.is_empty_set():
        raise EmptySegment("cannot factorize the empty segment")
    factors: list[FinalSegment] = []
    todo = [] if f.is_zero() else [f]
    while todo:
        part = todo.pop()
        split = next(_splits(part), None)
        if split is None:
            factors.append(part)
        else:
            todo.extend(reversed(split))  # the left side comes off first
    if reduce(FinalSegment.oplus, factors, FinalSegment.zero(f.alphabet)) != f:
        raise AssertionError("factorization does not recompose: engine bug")
    return factors


def all_factor_sequences(f: FinalSegment) -> set[tuple[FinalSegment, ...]]:
    """Every maximal decomposition tree's irreducible sequence (test oracle
    for uniqueness; exponential, desk scale only)."""
    if f.is_zero():
        return {()}
    pairs = decompose_once(f)
    if not pairs:
        return {(f,)}
    out: set[tuple[FinalSegment, ...]] = set()
    for g, h in pairs:
        for left in all_factor_sequences(g) if not is_irreducible(g) else {(g,)}:
            for right in all_factor_sequences(h):
                out.add(tuple(left) + tuple(right))
    return out
