"""Shared helpers for finite orders: bounds, the distance axioms, the
Helly property of ball families, and the error for maps that break
preservation."""
from __future__ import annotations

import itertools
from typing import Callable, Collection, Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")


class PreservationViolated(ValueError):
    """A partial map fails to preserve the relations it must preserve (the
    members of a partition lattice, or the congruences on the integers)."""


class MissingJoin(ValueError):
    """A required supremum or infimum does not exist in the finite order."""


class NotResiduated(MissingJoin):
    """No least residual of x by y exists; ``pair`` is (x, y)."""

    def __init__(self, x, y):
        super().__init__(f"no least residual of {x!r} by {y!r}")
        self.pair = (x, y)


def least_of(candidates: Iterable[T], leq: Callable[[T, T], bool]) -> Optional[T]:
    cands = list(candidates)
    for c in cands:
        if all(leq(c, d) for d in cands):
            return c
    return None


def greatest_of(candidates: Iterable[T], leq: Callable[[T, T], bool]) -> Optional[T]:
    return least_of(candidates, lambda a, b: leq(b, a))


def join_of(elements: Iterable[T], subset: Iterable[T],
            leq: Callable[[T, T], bool]) -> T:
    sub = list(subset)
    uppers = [u for u in elements if all(leq(s, u) for s in sub)]
    lub = least_of(uppers, leq)
    if lub is None:
        raise MissingJoin(f"no least upper bound for {sub!r}")
    return lub


def meet_of(elements: Iterable[T], subset: Iterable[T],
            leq: Callable[[T, T], bool]) -> T:
    sub = list(subset)
    lowers = [u for u in elements if all(leq(u, s) for s in sub)]
    glb = greatest_of(lowers, leq)
    if glb is None:
        raise MissingJoin(f"no greatest lower bound for {sub!r}")
    return glb


def axiom_violations(points: Sequence, rows: Sequence[Sequence], zero,
                     inv: Callable, leq: Callable, oplus: Callable) -> list[tuple]:
    """Every violation of separation, involution symmetry and the triangle
    inequality by the table rows[i][j] = d(points[i], points[j]), with a
    witness: separation and involution over (x, y) first, then the triangle
    over (x, z, y) with y innermost.  The points must be distinct."""
    bad = []
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if (rows[i][j] == zero) != (i == j):
                bad.append(("separation", x, y))
            if inv(rows[j][i]) != rows[i][j]:
                bad.append(("involution", x, y))
    for i, x in enumerate(points):
        for k, z in enumerate(points):
            for j, y in enumerate(points):
                if not leq(rows[i][j], oplus(rows[i][k], rows[k][j])):
                    bad.append(("triangle", x, z, y))
    return bad


def is_helly(sets: Collection[frozenset], points: Sequence) -> bool:
    """Every pairwise-intersecting subfamily of the nonempty subsets `sets`
    of `points` has a common point.  By Berge and Duchet (1975), exactly
    when for every three points the members holding at least two of them
    have a common point (all of `points` when no member does)."""
    ground = frozenset(points)
    for a, b, c in itertools.combinations(points, 3):
        common = ground
        for s in sets:
            if (a in s) + (b in s) + (c in s) >= 2:
                common &= s
        if not common:
            return False
    return True
