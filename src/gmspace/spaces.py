"""Finite generalized metric spaces over a tabulated involutive ordered monoid.

The value monoid is given by explicit finite tables and validated at load:
the order is a partial order with the neutral element least, the operation is
associative, monotone and reversed by the self-inverse involution.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping, Optional, Sequence

from ._orders import MissingJoin, NotResiduated, axiom_violations, \
    canonical_distance, first_map, is_accessible, is_helly, join_of, least_of, \
    meet_of, members


class SizeGuard(ValueError):
    """An enumeration would exceed the configured size guard."""


class MonoidTable:
    """Finite involutive ordered monoid given by tables."""

    def __init__(self, elements: Sequence, leq_pairs: Iterable[tuple],
                 oplus: Mapping, involution: Mapping, zero):
        self.elements = tuple(elements)
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate monoid elements")
        pairs = list(map(tuple, leq_pairs))
        self._leq = {(a, a) for a in self.elements} | set(pairs)
        self._oplus = dict(oplus)
        self._inv = dict(involution)
        self.zero = zero
        self._validate(elems, pairs)

    def _validate(self, elems, pairs):
        """Names the first violating pair in the order given."""
        for a, b in pairs:
            if a not in elems or b not in elems:
                raise ValueError(f"order pair {(a, b)!r} uses unknown elements")
        for a, b in pairs:
            if a != b and (b, a) in self._leq:
                raise ValueError(f"order is not antisymmetric at {(a, b)!r}")
            for c in self.elements:
                if (b, c) in self._leq and (a, c) not in self._leq:
                    raise ValueError("order is not transitive")
        if self.zero not in elems:
            raise ValueError("zero must be an element")
        for a in self.elements:
            if not self.leq(self.zero, a):
                raise ValueError("zero must be the least element")
            if self._inv.get(a) not in elems:
                raise ValueError(f"involution undefined at {a!r}")
            if self._inv[self._inv[a]] != a:
                raise ValueError(f"involution is not self-inverse at {a!r}")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self._oplus or self._oplus[(a, b)] not in elems:
                    raise ValueError(f"operation undefined at {(a, b)!r}")
            if self.oplus(a, self.zero) != a or self.oplus(self.zero, a) != a:
                raise ValueError("zero is not neutral")
        for a in self.elements:
            for b in self.elements:
                if self.inv(self.oplus(a, b)) != self.oplus(self.inv(b), self.inv(a)):
                    raise ValueError("involution does not reverse the operation")
                if self.leq(a, b):
                    if not self.leq(self.inv(a), self.inv(b)):
                        raise ValueError("involution is not order-preserving")
                    for c in self.elements:
                        if not (self.leq(self.oplus(a, c), self.oplus(b, c))
                                and self.leq(self.oplus(c, a), self.oplus(c, b))):
                            raise ValueError("operation is not monotone")
                for c in self.elements:
                    if self.oplus(self.oplus(a, b), c) != self.oplus(a, self.oplus(b, c)):
                        raise ValueError("operation is not associative")

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def oplus(self, a, b):
        return self._oplus[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def join(self, *items):
        return join_of(self.elements, items, self.leq)

    def meet(self, *items):
        return meet_of(self.elements, items, self.leq)

    def inaccessible_elements(self) -> frozenset:
        return frozenset(v for v in self.elements
                         if not is_accessible(self, v, self.elements))

    # --- stock constructions -------------------------------------------------

    @classmethod
    def from_join_semilattice(cls, elements: Sequence,
                              leq_pairs: Iterable[tuple]) -> MonoidTable:
        """Join as the operation, identity involution, bottom as zero."""
        elements = tuple(elements)
        leq = {(a, a) for a in elements} | set(map(tuple, leq_pairs))
        def le(a, b):
            return (a, b) in leq
        bottom = least_of(elements, le)
        if bottom is None:
            raise ValueError("semilattice needs a least element")
        oplus = {(a, b): join_of(elements, [a, b], le)
                 for a in elements for b in elements}
        return cls(elements, leq, oplus, {a: a for a in elements}, bottom)

    @classmethod
    def chain(cls, n: int) -> MonoidTable:
        """The (n+1)-chain 0 < 1 < ... < n with join, identity involution."""
        elems = list(range(n + 1))
        return cls.from_join_semilattice(
            elems, [(i, j) for i in elems for j in elems if i < j])

    @classmethod
    def boolean(cls, indices: Sequence) -> MonoidTable:
        """Powerset of the index set with union; identity involution."""
        elems = [frozenset(s) for r in range(len(indices) + 1)
                 for s in itertools.combinations(indices, r)]
        return cls.from_join_semilattice(
            elems, [(a, b) for a in elems for b in elems if a < b])

    @classmethod
    def divisor_lattice(cls, n: int) -> MonoidTable:
        """Divisors of n under divisibility with lcm as the operation."""
        divs = [d for d in range(1, n + 1) if n % d == 0]
        return cls.from_join_semilattice(
            divs, [(a, b) for a in divs for b in divs if a != b and b % a == 0])

    @classmethod
    def _saturating(cls, below: Mapping, inv: Mapping) -> MonoidTable:
        """The elements of `below` (each mapped to the set of those under
        it), with "0" neutral and every product of nonzero elements "t"."""
        leq = [(a, b) for b, lows in below.items() for a in lows]
        oplus = {(a, b): "t" for a in below for b in below}
        for a in below:
            oplus[("0", a)] = oplus[(a, "0")] = a
        return cls(list(below), leq, oplus, inv, "0")

    @classmethod
    def involutive_four(cls) -> MonoidTable:
        """0 < p, m < t with p and m exchanged by the involution and every
        product of nonzero elements saturating to t.  Not meet-distributive
        (p and m meet at 0); kept as a plain involutive monoid example."""
        return cls._saturating(
            {"0": set(), "p": {"0"}, "m": {"0"}, "t": {"0", "p", "m"}},
            {"0": "0", "p": "m", "m": "p", "t": "t"})

    @classmethod
    def zigzag_truncation(cls) -> MonoidTable:
        """Five-element quotient of the final-segment quantale of +/- words
        that collapses everything of minimal length >= 2 to the top.

        0 < n < p, m < t where n stands for the nonempty words, p and m for
        the upsets of + and -, and t for the absorbing top.  This is a finite
        involutive Heyting algebra whose inaccessible elements are 0 and n:
        the only r not above n is 0, and 0 (+) inv(0) = 0.  Every nonzero
        element lies above n, so only a space of diameter 0 over it is
        bounded; its own canonical space has diameter t."""
        return cls._saturating(
            {"0": set(), "n": {"0"}, "p": {"0", "n"}, "m": {"0", "n"},
             "t": {"0", "n", "p", "m"}},
            {"0": "0", "n": "n", "p": "m", "m": "p", "t": "t"})

    def is_heyting(self) -> bool:
        """Complete lattice whose operation distributes over meets on both
        sides (binary meets plus top absorption suffice in a finite lattice)."""
        try:
            top = self.join(*self.elements)
            meets = {(a, b): self.meet(a, b)
                     for a in self.elements for b in self.elements}
            for a in self.elements:
                for b in self.elements:
                    self.join(a, b)
        except MissingJoin:
            return False
        for a in self.elements:
            if self.oplus(a, top) != top or self.oplus(top, a) != top:
                return False
            for b in self.elements:
                for c in self.elements:
                    if self.oplus(a, meets[(b, c)]) != \
                            meets[(self.oplus(a, b), self.oplus(a, c))]:
                        return False
                    if self.oplus(meets[(b, c)], a) != \
                            meets[(self.oplus(b, a), self.oplus(c, a))]:
                        return False
        return True

    def residual(self, v, beta, side: str):
        """Least r with v <= r + beta (side='right') or v <= beta + r;
        raises NotResiduated when no least such r exists."""
        if side == "right":
            cands = [r for r in self.elements if self.leq(v, self.oplus(r, beta))]
        elif side == "left":
            cands = [r for r in self.elements if self.leq(v, self.oplus(beta, r))]
        else:
            raise ValueError("side must be 'left' or 'right'")
        r = least_of(cands, self.leq)
        if r is None:
            raise NotResiduated(v, beta)
        return r


class FiniteGms:
    """A finite point set with a monoid-valued distance table."""

    def __init__(self, points: Sequence, monoid: MonoidTable,
                 dist: Mapping[tuple, object]):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")
        self.monoid = monoid
        self.dist = dict(dist)
        elems = set(monoid.elements)
        for x in self.points:
            for y in self.points:
                if (x, y) not in self.dist or self.dist[(x, y)] not in elems:
                    raise ValueError(f"distance undefined at {(x, y)!r}")
        self._violations: Optional[list[tuple]] = None

    def d(self, x, y):
        return self.dist[(x, y)]

    def check_axioms(self) -> list[tuple]:
        """Report every violation of separation, triangle and involution
        symmetry with a witness."""
        m = self.monoid
        rows = [[self.dist[(x, y)] for y in self.points] for x in self.points]
        return axiom_violations(self.points, rows, m, m.zero)

    def _require_axioms(self):
        if self._violations is None:  # once per space: the table is fixed
            self._violations = self.check_axioms()
        if self._violations:
            raise ValueError("space violates the distance axioms: "
                             f"{self._violations[0]}")

    @functools.cached_property
    def _balls(self) -> tuple:
        """Built once, as the table is fixed: rows[x][y] indexes d(x, y) in
        the monoid's elements, and the point bitmasks of the closed balls
        out[x][r] = {z : d(x, z) <= r} and into[x][r] = {z : d(z, x) <= r}."""
        m, n = self.monoid, len(self.points)
        slot = {e: i for i, e in enumerate(m.elements)}
        up = [[slot[r] for r in m.elements if m.leq(e, r)] for e in m.elements]
        rows = [[slot[self.dist[(x, y)]] for y in self.points] for x in self.points]
        out = [[0] * len(slot) for _ in range(n)]
        into = [[0] * len(slot) for _ in range(n)]
        for x, z in itertools.product(range(n), repeat=2):
            for r in up[rows[x][z]]:
                out[x][r] |= 1 << z
                into[z][r] |= 1 << x
        return rows, out, into

    def _index(self, x) -> int:
        if x not in self.points:
            raise ValueError(f"ball center {x!r} is not a point of the space")
        return self.points.index(x)

    def ball(self, x, r) -> frozenset:
        i = self._index(x)
        if r not in self.monoid.elements:
            raise ValueError(f"ball radius {r!r} is not a monoid element")
        _, out, _ = self._balls
        mask = out[i][self.monoid.elements.index(r)]
        return frozenset(self.points[z] for z in members(mask))

    def is_convex(self) -> bool:
        """Whenever d(x, y) <= p + q, the p-ball out of x meets the q-ball
        into y; the order is read only where these balls do not meet."""
        self._require_axioms()
        m = self.monoid
        _, out, into = self._balls
        for (i, x), (j, y) in itertools.product(enumerate(self.points), repeat=2):
            for (a, p), (b, q) in itertools.product(enumerate(m.elements), repeat=2):
                if not out[i][a] & into[j][b] and m.leq(self.d(x, y), m.oplus(p, q)):
                    return False
        return True

    def is_2helly(self) -> bool:
        """Every pairwise-intersecting family of balls has a common point
        (`_orders.is_helly`, the Berge-Duchet triple test, on the distinct
        ball bitmasks)."""
        self._require_axioms()
        return is_helly({b for row in self._balls[1] for b in row}, len(self.points))

    def is_hyperconvex(self) -> bool:
        """Convexity plus the 2-Helly property (the tests compare it with a
        direct enumeration of compatible ball families)."""
        return self.is_convex() and self.is_2helly()

    def diameter(self, subset: Optional[Iterable] = None):
        pts = list(self.points if subset is None else subset)
        return self.monoid.join(*[self.d(x, y) for x in pts for y in pts])

    def radius(self, subset: Iterable):
        """Least radius r with the subset inside B(x, r) for some center x
        drawn from the subset itself."""
        pts = [self._index(x) for x in subset]
        if not pts:
            raise ValueError("radius needs a nonempty subset")
        _, out, _ = self._balls
        want = sum(1 << i for i in set(pts))
        candidates = [r for a, r in enumerate(self.monoid.elements)
                      if any(out[i][a] & want == want for i in pts)]
        if not candidates:
            raise MissingJoin("no radius covers the subset from inside")
        return self.monoid.meet(*candidates)

    def is_equally_centered(self, subset: Iterable) -> bool:
        pts = list(subset)
        if not pts:
            return False
        return self.radius(pts) == self.diameter(pts)

    def ball_intersections(self) -> set[frozenset]:
        """All intersections of families of closed balls (the empty family
        contributes the whole point set)."""
        balls = {b for row in self._balls[1] for b in row}
        masks = frontier = balls | {(1 << len(self.points)) - 1}
        while frontier:
            frontier = {a & b for a in frontier for b in balls} - masks
            masks = masks | frontier
        return {frozenset(self.points[z] for z in members(m)) for m in masks}

    def has_normal_structure(self) -> bool:
        """No ball intersection other than a singleton is equally centered."""
        self._require_axioms()
        for inter in self.ball_intersections():
            if len(inter) != 1 and inter and self.is_equally_centered(inter):
                return False
        return True

    def is_bounded(self, inaccessibles: Optional[Iterable] = None) -> bool:
        """Zero is the only inaccessible element below the diameter."""
        if inaccessibles is None:
            inaccessibles = self.monoid.inaccessible_elements()
        delta = self.diameter()
        return all(v == self.monoid.zero for v in inaccessibles
                   if self.monoid.leq(v, delta))

    # --- self maps ------------------------------------------------------------

    def is_nonexpansive_selfmap(self, f: Mapping) -> bool:
        m = self.monoid
        return all(m.leq(self.d(f[x], f[y]), self.d(x, y))
                   for x in self.points for y in self.points)

    def nonexpansive_selfmaps(self, guard: int = 8):
        """All non-expansive self maps, enumerated exhaustively."""
        if len(self.points) > guard:
            raise SizeGuard(f"{len(self.points)} points exceeds the guard {guard}")
        for values in itertools.product(self.points, repeat=len(self.points)):
            f = dict(zip(self.points, values))
            if self.is_nonexpansive_selfmap(f):
                yield f

    def fpp_check(self, guard: int = 8) -> tuple[bool, Optional[dict]]:
        """Whether every non-expansive self map has a fixed point; if not,
        the witness is the first fixed-point-free one.  The table must
        satisfy the distance axioms, as for hyperconvexity.

        `first_map` assigns the points in order, each to the other points in
        order.  f(x) = v limits f(y) to the d(x, y)-ball out of v; by the
        axioms it is the d(y, x)-ball into v, the same limit seen from y."""
        n = len(self.points)
        if n > guard:
            raise SizeGuard(f"{n} points exceeds the guard {guard}")
        self._require_axioms()
        rows, out, _ = self._balls
        allowed = [[{y: ball[rows[x][y]] for y in range(n) if y != x}
                    for ball in out] for x in range(n)]
        found = first_map([(1 << n) - 1] * n, allowed,
                          forbidden=[1 << i for i in range(n)])
        if found is None:
            return True, None
        return False, {self.points[i]: self.points[v] for i, v in found.items()}

    def commuting_fpp_check(self, maps: Sequence[Mapping]) -> bool:
        """Common fixed point of a commuting family of non-expansive maps."""
        for f in maps:
            if not self.is_nonexpansive_selfmap(f):
                raise ValueError("map in the family is not non-expansive")
        for f in maps:
            for g in maps:
                if any(f[g[x]] != g[f[x]] for x in self.points):
                    raise ValueError("maps in the family do not commute")
        common = set(self.points)
        for f in maps:
            common &= {x for x in self.points if f[x] == x}
        return bool(common)


def canonical_distance_space(monoid: MonoidTable) -> FiniteGms:
    """The monoid itself as a metric space under its canonical distance."""
    dist = {(p, q): canonical_distance(monoid, p, q)
            for p in monoid.elements for q in monoid.elements}
    return FiniteGms(monoid.elements, monoid, dist)


def space_from_json(payload: Mapping) -> FiniteGms:
    def conv(e):
        # lists in JSON stand for tuple-valued monoid elements
        return tuple(e) if isinstance(e, list) else e

    mon = payload["monoid"]
    monoid = MonoidTable(
        [conv(e) for e in mon["elements"]],
        [(conv(a), conv(b)) for a, b in mon["leq"]],
        {(conv(a), conv(b)): conv(c) for a, b, c in mon["oplus"]},
        {conv(a): conv(b) for a, b in mon["involution"]},
        conv(mon["zero"]))
    points = [str(p) for p in payload["points"]]
    rows = payload["dist"]
    if len(rows) != len(points) or any(len(row) != len(points) for row in rows):
        raise ValueError("dist must have one row and one column per point")
    dist = {(points[i], points[j]): conv(rows[i][j])
            for i in range(len(points)) for j in range(len(points))}
    return FiniteGms(points, monoid, dist)
