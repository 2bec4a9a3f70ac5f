"""Semirigidity of finite equivalence systems and the plane constructions.

A system is semirigid when its only unary preserving maps are the identity
and the constants.  Plane point sets carry the three kernels of x, y and
x + y; exact rational coordinates keep the kernel relations decidable.

Only finite carriers are decided here.  Monogenic asymmetric plane sets of
every cardinality up to the continuum yield semirigid systems; whether any
exist on strictly larger sets is an open problem, out of reach of
computation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._orders import first_map, members
from .partitions import EquivSystem, Partition, preserves_partition
from .spaces import SizeGuard

Point = tuple[Fraction, Fraction]


def point(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def parse_points(payload: Iterable) -> tuple[Point, ...]:
    pts = []
    for p in payload:
        x, y = p
        try:
            pts.append((Fraction(str(x)), Fraction(str(y))))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in point {p!r}") from None
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    return tuple(sorted(pts))


def points_to_json(points: Iterable[Point]) -> list[list[str]]:
    return [[str(x), str(y)] for x, y in points]


# --- systems ------------------------------------------------------------------


def plane_system(points: Sequence[Point]) -> EquivSystem:
    """The three kernels on a plane set: equal x, equal y, equal x + y."""
    pts = tuple(sorted(points))

    def kernel(proj):
        groups: dict = {}
        for p in pts:
            groups.setdefault(proj(p), []).append(p)
        return Partition.from_blocks(pts, groups.values())

    return EquivSystem(pts, (kernel(lambda p: p[0]),
                             kernel(lambda p: p[1]),
                             kernel(lambda p: p[0] + p[1])))


def zadori_system(n: int) -> EquivSystem:
    """The three-relation semirigid system on n points (n = 3 or n > 4).

    Even n = 2k+2 uses the displayed blocks (unlisted elements are
    singletons); odd n deletes element 0 of the (n+1)-point system and
    relabels i to i-1."""
    if n in (1, 2, 4) or n <= 0:
        raise ValueError(f"no system for n = {n}")
    if n % 2 == 0:
        return _zadori_even(n)
    big = _zadori_even(n + 1)
    keep = [x for x in big.carrier if x != 0]
    relabel = {x: x - 1 for x in keep}
    carrier = tuple(relabel[x] for x in keep)
    rels = []
    for rho in big.relations:
        blocks = [[relabel[x] for x in b if x != 0] for b in rho.blocks]
        rels.append(Partition.from_blocks(carrier, [b for b in blocks if b]))
    return EquivSystem(carrier, tuple(rels))


def _zadori_even(n: int) -> EquivSystem:
    k = (n - 2) // 2
    carrier = tuple(range(n))
    rho = [[0], list(range(1, k + 1)), list(range(k + 1, 2 * k + 2))]
    sigma = [[0, 1, k + 1]] + [[i, k + i] for i in range(2, k + 1)]
    tau = [[i, k + 1 + i] for i in range(1, k)] + [[0, k, 2 * k + 1]]
    return EquivSystem.of(carrier, [rho, sigma, tau])


# --- semirigidity deciders ------------------------------------------------------


def preserving_maps(system: EquivSystem, guard: int = 7):
    """Every preserving self map, by exhaustive enumeration (the oracle)."""
    n = len(system.carrier)
    if n > guard:
        raise SizeGuard(f"{n}^{n} maps exceed the exhaustive guard")
    blocks = [[rho.block_id(x) for x in system.carrier] for rho in system.relations]
    grouped = [[[i for i, x in enumerate(system.carrier) if rho.same(x, b[0])]
                for b in rho.blocks] for rho in system.relations]
    for values in itertools.product(range(n), repeat=n):
        ok = True
        for ids, groups in zip(blocks, grouped):
            for members in groups:
                first = ids[values[members[0]]]
                if any(ids[values[m]] != first for m in members[1:]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield {system.carrier[i]: system.carrier[v]
                   for i, v in enumerate(values)}


def is_semirigid_bruteforce(system: EquivSystem, guard: int = 7
                            ) -> tuple[bool, Optional[dict]]:
    for f in preserving_maps(system, guard):
        if _is_witness(system.carrier, f):
            return False, f
    return True, None


def _is_witness(carrier, f) -> bool:
    return any(f[x] != x for x in carrier) and len(set(f.values())) > 1


def is_semirigid(system: EquivSystem, guard: int = 12
                 ) -> tuple[bool, Optional[dict]]:
    """Search for a preserving map that is neither the identity nor constant.

    One `first_map` search per seed f(x0) = v0 with v0 != x0, in carrier
    order, since every non-identity map moves some point; constants are
    filtered at the leaves.  f(x) = v limits f(y), for y sharing a block
    with x, to the meet (a bitmask of indices) of v's blocks over the
    relations relating x and y.  An exhausted seed proves that no witness
    has f(x0) = v0, so later seeds forbid v0 for x0: that cuts only subtrees
    without a witness, so the witness stays the same.

    The witness is the first one found, so it depends on the seed order, the
    variable order (fewest values first) and the order of the domains, which
    are sets of carrier points and follow the points' hashes.  Each seed is
    decided in index order, since reordering a domain changes no verdict;
    the first seed with a witness runs again with each domain in the
    iteration order of such a set, built once per sequence of surviving
    points.  Only numbers and tuples of numbers hash alike in every process:
    any other carrier (str hashes are salted) builds these sets on indices."""
    carrier = system.carrier
    n = len(carrier)
    if n > guard:
        raise SizeGuard(f"{n} points exceeds the backtracking guard {guard}")
    if n <= 1:
        return True, None
    index = {x: i for i, x in enumerate(carrier)}
    blocks = [[sum(1 << index[y] for y in rho.block_of(x))
               for rho in system.relations] for x in carrier]
    others = [[members(b & ~(1 << x)) for b in row]
              for x, row in enumerate(blocks)]
    allowed = [[{} for _ in carrier] for _ in carrier]
    for x, v in itertools.product(range(n), repeat=2):
        limits = allowed[x][v]
        for ys, image in zip(others[x], blocks[v]):
            for y in ys:
                limits[y] = limits.get(y, -1) & image
    stable = all(isinstance(c, (int, float, Fraction)) for x in carrier
                 for c in (x if isinstance(x, tuple) else (x,)))
    labels, slot = (carrier, index) if stable else (range(n), range(n))
    orders: dict = {}

    def rebuilt(kept: tuple) -> tuple:
        # iteration order of the set of labels inserted in the order of kept
        order = orders.get(kept)
        if order is None:
            order = orders[kept] = tuple(slot[p] for p in
                                         {labels[i] for i in kept})
        return order

    exhausted = [0] * n
    everything = [(1 << n) - 1] * n
    options = {"fewest_first": True, "forbidden": exhausted,
               "leaf": lambda f: _is_witness(range(n), f)}
    for x0, v0 in itertools.permutations(range(n), 2):
        if first_map(everything, allowed, seed=(x0, v0), **options):
            found = first_map(everything, allowed, seed=(x0, v0),
                              reorder=rebuilt, **options)
            witness = {carrier[i]: carrier[v] for i, v in found.items()}
            if not _is_witness(range(n), found) or not all(
                    preserves_partition(witness, rho) for rho in system.relations):
                raise AssertionError("is_semirigid found a map that is not "
                                     "a witness: engine bug")
            return False, witness
        exhausted[x0] |= 1 << v0
    return True, None


# --- plane geometry -------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """Ordered triangle (u0, u1, u2): u0 and u1 share y, u1 and u2 share the
    coordinate sum, u2 and u0 share x."""

    u0: Point
    u1: Point
    u2: Point

    def __post_init__(self):
        if not (self.u0[1] == self.u1[1]
                and self.u1[0] + self.u1[1] == self.u2[0] + self.u2[1]
                and self.u2[0] == self.u0[0]
                and len({self.u0, self.u1, self.u2}) == 3):
            raise ValueError("points do not form a triangle")

    def points(self) -> frozenset[Point]:
        return frozenset((self.u0, self.u1, self.u2))


def triangles(points: Sequence[Point]) -> list[Triangle]:
    """All nontrivial triangles in the set: corner (a,b) with (a+t,b) and
    (a,b+t) for a nonzero offset t."""
    pts = set(points)
    ordered = sorted(pts)
    out = []
    for (a, b) in ordered:
        for (c, d) in ordered:
            if d == b and c != a:
                t = c - a
                if (a, b + t) in pts:
                    out.append(Triangle((a, b), (c, d), (a, b + t)))
    return out


def is_monogenic(points: Sequence[Point]
                 ) -> tuple[bool, Optional[tuple[Point, ...]]]:
    """Whether a seed of at most two points generates the whole set.

    Generation walks the triangle hypergraph two points at a time: a triangle
    is reached when it shares two points with the seed or with an earlier
    triangle.  Every point must be covered by the seed or a reached triangle;
    without the coverage requirement a triangle-free set would count as
    monogenic, which would break the semirigidity theorem.
    """
    pts = tuple(sorted(points))
    tris = [t.points() for t in triangles(pts)]
    seeds = [()] if not pts else \
        [(p,) for p in pts] + list(itertools.combinations(pts, 2))
    for seed in seeds:
        reached = set(seed)
        remaining = list(tris)
        grew = True
        while grew:
            grew = False
            for t in list(remaining):
                if len(t & reached) >= 2:
                    remaining.remove(t)
                    reached |= t
                    grew = True
        if not remaining and reached == set(pts):
            return True, seed
    return False, None


def has_center_of_symmetry(points: Sequence[Point]
                           ) -> tuple[bool, Optional[Point]]:
    """The point c with 2c - C = C, if any.  The reflection in c reverses
    the lexicographic order, so it swaps the least and greatest points and c
    is their midpoint: the one candidate, tested in linear time."""
    pts = set(points)
    if not pts:
        return False, None
    (a, b), (p, q) = min(pts), max(pts)
    c = ((a + p) / 2, (b + q) / 2)
    if all((2 * c[0] - x, 2 * c[1] - y) in pts for x, y in pts):
        return True, c
    return False, None


# --- stock point sets -----------------------------------------------------------


def t_n(n: int) -> tuple[Point, ...]:
    """Lattice triangle {(i, j) : i + j <= n}, (n+1)(n+2)/2 points."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(sorted(point(i, j) for i in range(n + 1)
                        for j in range(n + 1 - i)))


def t_n2(n: int) -> tuple[Point, ...]:
    """The two outer layers of t_n: points with i + j in {n-1, n}."""
    return tuple(sorted(p for p in t_n(n) if p[0] + p[1] in (n - 1, n)))


def t_n2_prime(n: int) -> tuple[Point, ...]:
    return tuple(sorted(set(t_n2(n)) | {point(0, 0)}))


def band_truncation(x_range: tuple[int, int]) -> tuple[Point, ...]:
    """Finite slice of the infinite band {x + y in {1, 2}} plus the origin."""
    lo, hi = x_range
    pts = {point(0, 0)}
    for x in range(lo, hi + 1):
        pts.add(point(x, 1 - x))
        pts.add(point(x, 2 - x))
    return tuple(sorted(pts))


def system_isomorphism(a: EquivSystem, b: EquivSystem) -> Optional[dict]:
    """A carrier bijection carrying the relations of one system onto the
    other's, in some relation order; None when none exists.  For each order
    of b's relations, `first_map` maps a's points in carrier order, each to
    the unused points of b with the same block sizes, in carrier order."""
    n = len(a.carrier)
    if len(b.carrier) != n or len(b.relations) != len(a.relations) or \
            sorted(sorted(map(len, r.blocks)) for r in a.relations) != \
            sorted(sorted(map(len, r.blocks)) for r in b.relations):
        return None
    for perm in itertools.permutations(b.relations):
        # per system, each point's block sizes and, for each pair of points,
        # the relations relating them
        (size_a, sig_a), (size_b, sig_b) = [
            ([tuple(len(r.block_of(x)) for r in rels) for x in pts],
             [[tuple(r.same(x, z) for r in rels) for z in pts] for x in pts])
            for pts, rels in ((a.carrier, a.relations), (b.carrier, perm))]
        images = [{} for _ in range(n)]  # y -> signature -> mask of w != y
        for y, w in itertools.permutations(range(n), 2):
            images[y][sig_b[y][w]] = images[y].get(sig_b[y][w], 0) | 1 << w
        allowed = [[{z: images[y].get(sig_a[x][z], 0) for z in range(n)
                     if z != x} for y in range(n)] for x in range(n)]
        domains = [sum(1 << y for y in range(n) if size_b[y] == size_a[x])
                   for x in range(n)]
        found = first_map(domains, allowed)
        if found:
            return {a.carrier[x]: b.carrier[y] for x, y in found.items()}
    return None
