"""Factorization of nonempty final segments into irreducibles.

The nonempty final segments of a free monoid of words form a free monoid
under concatenation; every member factors uniquely into irreducibles.  The
decomposition search enumerates candidate left factors among antichains of
proper prefixes of the generators and derives the right partner by
residuation, which is the unique maximal partner.

Completeness of the prefix candidate space rests on cancellativity: every
minimal word of g (+) h splits as a minimal-g prefix times a minimal-h
suffix, and a generator of g used by no such split would contradict
cancellation.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .segments import FinalSegment, residual
from .spaces import SizeGuard
from .words import is_antichain, sort_codes


class EmptySegment(ValueError):
    """Factorization is defined on nonempty final segments only."""


def _proper_prefixes(f: FinalSegment) -> list[str]:
    return sort_codes({g[:k] for g in f.generators for k in range(1, len(g))})


def _candidate_antichains(prefixes: list[str], guard: int = 1 << 16):
    """Antichains among the sorted prefixes; each comes out sorted."""
    count = 0
    for r in range(1, len(prefixes) + 1):
        for combo in combinations(prefixes, r):
            if is_antichain(combo):
                count += 1
                if count > guard:
                    raise SizeGuard(f"more than {guard} candidate antichains")
                yield combo


def left_partner(f: FinalSegment, g: FinalSegment) -> FinalSegment:
    """Least h with f <= g (+) h, i.e. the left residual of f by g."""
    return residual(f, g, "left")


@lru_cache(maxsize=None)
def decompose_once(f: FinalSegment) -> tuple[tuple[FinalSegment, FinalSegment], ...]:
    """All proper splittings f = g (+) h with h the canonical partner of g.

    Every factorization has its left factor generated by proper prefixes of
    the minimal words of f (a full word as a generator would force the
    partner to be the neutral element), so scanning prefix antichains is
    complete.
    """
    if f.is_empty_set():
        raise EmptySegment("cannot decompose the empty segment")
    out = []
    for combo in _candidate_antichains(_proper_prefixes(f)):
        g = FinalSegment._canonical(f.alphabet, combo)
        if g.is_zero():
            continue
        h = left_partner(f, g)
        if h.is_zero() or h.is_empty_set():
            continue
        if g.oplus(h) == f:
            out.append((g, h))
    out.sort(key=lambda gh: tuple((len(w), w) for w in gh[0].generators))
    return tuple(out)


@lru_cache(maxsize=None)
def is_irreducible(f: FinalSegment) -> bool:
    """Not the full word set and not a proper concatenation; the empty
    segment is irreducible by convention."""
    if f.is_empty_set():
        return True
    if f.is_zero():
        return False
    return not decompose_once(f)


def factorize(f: FinalSegment) -> list[FinalSegment]:
    """The unique irreducible factor sequence, by leftmost decomposition.

    The full word set factors as the empty sequence.  Recomposition is
    asserted; by freeness all decomposition orders agree, which the test
    suite checks by enumerating whole decomposition trees.
    """
    if f.is_empty_set():
        raise EmptySegment("cannot factorize the empty segment")
    factors = _leftmost(f)
    recomposed = FinalSegment.zero(f.alphabet)
    for part in factors:
        recomposed = recomposed.oplus(part)
    if recomposed != f:
        raise AssertionError("factorization does not recompose: engine bug")
    return factors


def _leftmost(f: FinalSegment) -> list[FinalSegment]:
    if f.is_zero():
        return []
    pairs = decompose_once(f)
    if not pairs:
        return [f]
    for g, h in pairs:
        if is_irreducible(g):
            return [g] + _leftmost(h)
    raise AssertionError("no irreducible left factor found: engine bug")


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
