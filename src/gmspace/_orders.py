"""Shared helpers for finite orders: bounds, the quantale constructions, the
distance axioms, the Helly property of ball families, the error for maps that
break preservation, and the search for maps that preserve binary relations.

The quantale functions take a value quantale `q`, an ordered monoid with an
involution, through six operations and no enumeration of its elements:
q.leq(a, b) the order, q.oplus(a, b) the monoid operation, q.inv(a) the
involution (order-preserving, self-inverse, reversing oplus), q.join(a, b)
and q.meet(a, b) the lattice bounds, and q.residual(v, b, side) the least r
with v <= r (+) b (side "right") or v <= b (+) r (side "left").  A
`spaces.MonoidTable` is one (its join and meet take any number of
elements); `segments.SEGMENTS` binds the final-segment quantale's."""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence, TypeVar

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


def canonical_distance(q, p, r):
    """The least d with p <= r (+) inv(d) and r <= p (+) d: the join of the
    residual of inv(p) by inv(r) on the right and of r by p on the left.
    Over a Heyting table it makes the table a hyperconvex space."""
    return q.join(q.residual(q.inv(p), q.inv(r), "right"),
                  q.residual(r, p, "left"))


def is_accessible(q, v, candidates: Iterable) -> bool:
    """Some candidate r has v not<= r and v <= r (+) inv(r).  The caller
    bounds the existential: all elements of a table, or an explicit set of
    an infinite quantale."""
    cands = list(candidates)
    if not cands:
        raise ValueError("candidate set must be nonempty")
    return any(not q.leq(v, r) and q.leq(v, q.oplus(r, q.inv(r)))
               for r in cands)


def axiom_violations(points: Sequence, rows: Sequence[Sequence], q,
                     zero) -> list[tuple]:
    """Every violation of separation, involution symmetry and the triangle
    inequality by the table rows[i][j] = d(points[i], points[j]) over the
    quantale q with neutral element zero, with a witness: separation and
    involution over (x, y) first, then the triangle over (x, z, y) with y
    innermost.  The points must be distinct."""
    bad = []
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if (rows[i][j] == zero) != (i == j):
                bad.append(("separation", x, y))
            if q.inv(rows[j][i]) != rows[i][j]:
                bad.append(("involution", x, y))
    for i, x in enumerate(points):
        for k, z in enumerate(points):
            for j, y in enumerate(points):
                if not q.leq(rows[i][j], q.oplus(rows[i][k], rows[k][j])):
                    bad.append(("triangle", x, z, y))
    return bad


def is_helly(masks: Iterable[int], n: int) -> bool:
    """Every pairwise-intersecting subfamily of the point bitmasks `masks`
    over 0..n-1 has a common point.  By Berge and Duchet (1975), exactly when
    for every three points the members holding two of them have a common
    point: pair[a][b] & pair[a][c] & pair[b][c], where pair[a][b] is the
    meet of the members holding a and b (all points when none does)."""
    pair = [[(1 << n) - 1] * n for _ in range(n)]
    for s in masks:
        for a, b in itertools.combinations(members(s), 2):
            pair[a][b] &= s
    return all(pair[a][b] & pair[a][c] & pair[b][c]
               for a, b, c in itertools.combinations(range(n), 3))


def first_map(domains: Sequence[int], allowed: Sequence[Sequence[dict]], *,
              fewest_first: bool = False, reorder: Optional[Callable] = None,
              seed: Optional[tuple] = None, forbidden: Optional[Sequence] = None,
              leaf: Optional[Callable] = None) -> Optional[dict]:
    """The first map f of the variables 0..n-1, in depth-first order, with
    f(x) in domains[x] and not in forbidden[x], f(y) in allowed[x][f(x)][y]
    wherever that entry exists, and leaf(f) true; its keys follow the order
    of assignment.  All of these sets are bitmasks of value indices.  Each
    pair is checked from the side assigned first, so a table allowing w for
    y after x = v must allow v for x after y = w.

    Variables go in index order, or with `fewest_first` the one with the
    fewest values left, lowest index first.  Values go in ascending order,
    or in the order reorder(t) gives, t being a domain's ascending tuple at
    the start and its kept values in their previous order after a narrowing.
    A domain left with forbidden values only cuts the branch.  A `seed`
    (x0, v0) is assigned first; its limits allowed[x0][v0] apply only as the
    root branches and narrows, so that the root's variable order does not
    see them."""
    orders = reorder and [reorder(members(d)) for d in domains]
    assign, pending = {}, {}
    if seed:
        x0, v0 = seed
        assign, pending = {x0: v0}, allowed[x0][v0]
    return _extend(allowed, forbidden or [0] * len(domains), reorder, leaf,
                   fewest_first, assign, domains, orders, pending,
                   [y for y in range(len(domains)) if y not in assign])


def members(mask: int) -> tuple:
    """The indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _extend(allowed, forbidden, reorder, leaf, fewest_first, assign, domains,
            orders, pending, free) -> Optional[dict]:
    """One level of `first_map` over the variables `free` not yet assigned;
    no closure holds its tables."""
    if not free:
        return dict(assign) if leaf is None or leaf(assign) else None
    free = list(free)
    sizes = [domains[y].bit_count() if fewest_first else 0 for y in free]
    x = free.pop(sizes.index(min(sizes)))
    avail = domains[x] & ~forbidden[x] & pending.get(x, -1)
    for v in (members(avail) if orders is None else
              [v for v in orders[x] if avail >> v & 1]):
        limits = allowed[x][v]
        kept, order = list(domains), orders and list(orders)
        for y in free:
            kept[y] = keep = kept[y] & limits.get(y, -1) & pending.get(y, -1)
            if orders is not None:
                order[y] = reorder(tuple(w for w in order[y] if keep >> w & 1))
            if not keep & ~forbidden[y]:
                break
        else:
            assign[x] = v
            found = _extend(allowed, forbidden, reorder, leaf, fewest_first,
                            assign, kept, order, {}, free)
            if found:
                return found
            del assign[x]
    return None
