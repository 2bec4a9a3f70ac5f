"""Congruence-preserving maps on the integers and their polynomial calculus.

Integer-valued polynomials live in the binomial basis; a polynomial preserves
every congruence exactly when its k-th basis coefficient is divisible by
lcm(1..k).  All arithmetic is exact.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ._orders import PreservationViolated


class WindowTooSmall(ValueError):
    """The grid window lacks the probe points needed for the checks."""


class NotAGroup(ValueError):
    pass


def lcm_upto(n: int) -> int:
    """lcm of 1..n, with the empty case equal to 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.lcm(*range(1, n + 1)) if n >= 1 else 1


def binom(x: int, k: int) -> int:
    """Binomial coefficient as a polynomial in x, exact for any integer x."""
    num = 1
    for i in range(k):
        num *= x - i
    return num // math.factorial(k)


@dataclass(frozen=True)
class IntPoly:
    """Integer combination of binomial polynomials: sum of coeffs[k]*C(x,k)."""

    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, coeffs: Sequence[int]) -> IntPoly:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(int(c) for c in cs))

    @classmethod
    def from_standard(cls, coeffs: Sequence) -> IntPoly:
        """Convert from power-basis coefficients (rationals allowed) via
        forward differences at 0..n; rejects non-integer-valued polynomials."""
        coeffs = [Fraction(c) for c in coeffs]
        n = len(coeffs) - 1 if coeffs else 0
        values = [sum(c * x ** k for k, c in enumerate(coeffs))
                  for x in range(n + 1)]
        out = []
        while values:
            lead = values[0]
            if lead.denominator != 1:
                raise ValueError("polynomial is not integer-valued")
            out.append(int(lead))
            values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        return cls.of(out)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, x: int) -> int:
        return sum(c * binom(x, k) for k, c in enumerate(self.coeffs))

    def __add__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly.of([x + y for x, y in zip(a, b)])

    def scale(self, c: int) -> IntPoly:
        return IntPoly.of([c * v for v in self.coeffs])

    def to_standard(self) -> list[Fraction]:
        """Power-basis coefficients (low degree first), exact rationals."""
        out = [Fraction(0)] * max(len(self.coeffs), 1)
        for k, c in enumerate(self.coeffs):
            poly = [Fraction(1)]  # running product of (x - i)
            for i in range(k):
                shifted = [Fraction(0)] + poly
                poly = [s - i * p for s, p in
                        zip(shifted, poly + [Fraction(0)])]
            scale = Fraction(c, math.factorial(k))
            for j, a in enumerate(poly):
                out[j] += scale * a
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{c}*C(x,{k})" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) or "0"


def cgg_generator(n: int) -> IntPoly:
    """lcm(n) * C(x, n): the degree-n generator of the congruence-preserving
    polynomials."""
    return IntPoly.of([0] * n + [lcm_upto(n)])


def is_congruence_preserving(p: IntPoly) -> tuple[bool, Optional[tuple[int, int]]]:
    """Coefficient test: every coeffs[k] divisible by lcm(1..k).

    On failure a numeric witness (x, k) with k not dividing p(x+k) - p(x) is
    produced by scanning k <= deg and x in [0, deg]; the scan is complete
    because a difference polynomial vanishing mod k on 0..deg has all its
    binomial coefficients divisible by k.
    """
    ok = all(c % lcm_upto(k) == 0 for k, c in enumerate(p.coeffs))
    if ok:
        return True, None
    deg = p.degree()
    for k in range(1, deg + 1):
        for x in range(deg + 1):
            if (p(x + k) - p(x)) % k != 0:
                return False, (x, k)
    raise AssertionError("coefficient test failed but no witness: engine bug")


def divisibility_scan(p: IntPoly, max_k: int, x_range: Sequence[int]) -> bool:
    """Sampling oracle: k | p(x+k) - p(x) over the given window."""
    return all((p(x + k) - p(x)) % k == 0
               for k in range(1, max_k + 1) for x in x_range)


def pn_basis(n: int) -> IntPoly:
    """The enumeration basis: C(x+k, 2k) for n = 2k, C(x+k, 2k+1) for 2k+1,
    expanded over the binomial basis by Vandermonde convolution."""
    k, m = n // 2, n
    shift = k
    return IntPoly.of([binom(shift, m - j) for j in range(m + 1)])


def enumeration_points(count: int) -> list[int]:
    """0, -1, 1, -2, 2, ...: the order in which the basis above picks up one
    new point per step (p_n vanishes on all earlier points)."""
    out = [0]
    k = 1
    while len(out) < count:
        out.append(-k)
        if len(out) < count:
            out.append(k)
        k += 1
    return out[:count]


def pn_expand(values: Mapping[int, int]) -> list[int]:
    """Greedy expansion of a window function over the p_n basis.

    The window must be a symmetric interval [-m, m].  Unitriangularity of the
    basis against the enumeration order is asserted at every step (the value
    at the new point is +1 at even and -1 at odd steps), so the extracted
    coefficients are integers and reconstruction is exact.
    """
    points = sorted(values)
    m = max(points) if points else 0
    if points != list(range(-m, m + 1)):
        raise ValueError("window must be a symmetric interval around 0")
    order = enumeration_points(2 * m + 1)
    residue = dict(values)
    coeffs = []
    for n, t in enumerate(order):
        p = pn_basis(n)
        for earlier in order[:n]:
            if p(earlier) != 0:
                raise AssertionError("basis not unitriangular: engine bug")
        lead = p(t)
        if lead != (1 if n % 2 == 0 else -1):
            raise AssertionError("unexpected leading value: engine bug")
        a = residue[t] * lead
        coeffs.append(a)
        for x in points:
            residue[x] -= a * p(x)
    if any(residue[x] != 0 for x in points):
        raise AssertionError("expansion does not reconstruct the window")
    return coeffs


def pn_reconstruct(coeffs: Sequence[int], x: int) -> int:
    return sum(a * pn_basis(n)(x) for n, a in enumerate(coeffs))


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> Optional[tuple[int, int]]:
    g = math.gcd(m1, m2)
    if (r1 - r2) % g != 0:
        return None
    l = math.lcm(m1, m2)
    # lift r1 by multiples of m1 into the class of r2 mod m2
    k = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    x = (r1 + k * m1) % l
    return x, l


def extend_congruence_map(f: Mapping[int, int], z: int) -> int:
    """Extend a finite congruence-preserving map to a new integer point.

    Requires (a-b) | (f(a)-f(b)) on the domain; the new value is the least
    nonnegative solution of v = f(a) (mod |z-a|) over all domain points,
    which exists because pairwise gcd conditions are inherited.
    """
    pts = sorted(f)
    if z in f:
        raise ValueError("z already in the domain")
    for a in pts:
        for b in pts:
            if a != b and (f[a] - f[b]) % (a - b) != 0:
                raise PreservationViolated(f"({a},{b}) breaks preservation")
    r, m = 0, 1
    for a in pts:
        mod = abs(z - a)
        if mod == 0:
            continue
        combined = _crt_pair(r, m, f[a] % mod, mod)
        if combined is None:
            raise AssertionError("incompatible moduli: engine bug")
        r, m = combined
    return r % m


@dataclass(frozen=True)
class GridMap:
    """Total map on a finite box window in Z^n."""

    dimension: int
    window: tuple[tuple[int, int], ...]
    values: Mapping[tuple, tuple]

    def points(self):
        return itertools.product(*(range(lo, hi + 1) for lo, hi in self.window))

    @classmethod
    def of(cls, dimension: int, window, values: Mapping) -> GridMap:
        window = tuple((int(lo), int(hi)) for lo, hi in window)
        if len(window) != dimension:
            raise ValueError("window must give bounds per axis")
        values = {tuple(map(int, k)): tuple(map(int, v)) for k, v in values.items()}
        g = cls(dimension, window, values)
        for p in g.points():
            v = values.get(p)
            if v is None or len(v) != dimension:
                raise ValueError(f"value missing or malformed at {p}")
        return g


@dataclass(frozen=True)
class Affine:
    offset: tuple[int, ...]
    multiplier: int


@dataclass(frozen=True)
class NotAffine:
    reason: str
    witness: tuple


def _coset_key(p: tuple, k: int, l: Optional[int]) -> tuple:
    """Two points differ by a member of the axis-k subgroup (l is None) or of
    the anti-diagonal (k, l) subgroup exactly when their keys agree: the
    other coordinates, plus a_k + a_l for the anti-diagonal."""
    rest = tuple(c for i, c in enumerate(p) if i != k and i != l)
    return rest if l is None else rest + (p[k] + p[l],)


def zn_affine_check(g: GridMap) -> Affine | NotAffine:
    """Decide whether a window map looks affine with a scalar multiplier.

    Checks preservation of the congruences of the axis subgroups, then the
    anti-diagonal subgroups: one holds when the values share a coset key
    within every coset of window points.  For the first broken subgroup the
    witness is its first broken pair (a, b), a < b, with a outer and b inner
    in the iteration order of the window's point set.  Then the offset is
    fitted from g(0) and the multiplier from g(e_0) - g(0), and the formula
    is verified on the window, where it cannot fail (an engine bug): axis
    preservation makes value coordinate i depend on p_i alone, and on the
    box window the anti-diagonal checks make every axis step by one slope.
    """
    n = g.dimension
    if n < 2:
        raise ValueError("dimension must be at least 2")
    zero = (0,) * n
    units = [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
    probes = [zero] + units + [tuple(u + v for u, v in zip(units[k], units[l]))
                               for k in range(n) for l in range(k + 1, n)]
    pts = set(g.points())
    missing = [p for p in probes if p not in pts]
    if missing:
        raise WindowTooSmall(f"window lacks probe points {missing}")
    subgroups = [(f"axis-{k}", k, None) for k in range(n)] + \
        [(f"antidiagonal-({k},{l})", k, l)
         for k in range(n) for l in range(k + 1, n)]
    for name, k, l in subgroups:
        keys = {p: (_coset_key(p, k, l), _coset_key(g.values[p], k, l))
                for p in pts}
        cosets: dict = {}
        for p, (key, _) in keys.items():
            cosets.setdefault(key, []).append(p)
        if all(len({keys[p][1] for p in c}) == 1 for c in cosets.values()):
            continue
        for a in pts:
            key, vkey = keys[a]
            for b in cosets[key]:
                if a < b and keys[b][1] != vkey:
                    return NotAffine(f"{name} congruence broken", (a, b))
    offset = g.values[zero]
    m = g.values[units[0]][0] - offset[0]
    for p in pts:
        if g.values[p] != tuple(offset[i] + m * p[i] for i in range(n)):
            raise AssertionError(
                f"congruences hold but the affine fit fails at {p}: engine bug")
    return Affine(offset, m)


class AbelianGroup:
    """Finite abelian group given by its addition table."""

    def __init__(self, elements: Sequence, add: Mapping):
        self.elements = tuple(elements)
        self._add = dict(add)
        elems = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                c = self._add.get((a, b))
                if c not in elems:
                    raise NotAGroup(f"addition undefined at {(a, b)!r}")
                if self._add[(b, a)] != c:
                    raise NotAGroup("addition is not commutative")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.add(self.add(a, b), c) != self.add(a, self.add(b, c)):
                        raise NotAGroup("addition is not associative")
        zeros = [e for e in self.elements
                 if all(self.add(e, a) == a for a in self.elements)]
        if len(zeros) != 1:
            raise NotAGroup("no unique neutral element")
        self.zero = zeros[0]
        self._neg = {}
        for a in self.elements:
            invs = [b for b in self.elements if self.add(a, b) == self.zero]
            if len(invs) != 1:
                raise NotAGroup(f"no unique inverse for {a!r}")
            self._neg[a] = invs[0]

    def add(self, a, b):
        return self._add[(a, b)]

    def sub(self, a, b):
        return self.add(a, self._neg[b])

    @classmethod
    def cyclic(cls, n: int) -> AbelianGroup:
        elems = list(range(n))
        return cls(elems, {(a, b): (a + b) % n for a in elems for b in elems})


@dataclass(frozen=True)
class SquareDecomposition:
    base: tuple
    endomorphism: Mapping


@dataclass(frozen=True)
class SquareWitness:
    relation: str
    pair: tuple


def abelian_square_check(group: AbelianGroup,
                         f: Mapping) -> SquareDecomposition | SquareWitness:
    """Check a self map of A x A against the three product congruences
    (equal sum, equal first, equal second); on success decompose it as a
    translation plus a doubled additive endomorphism.
    """
    es = group.elements
    square = [(x, y) for x in es for y in es]
    for p in square:
        if p not in f or f[p] not in set(square):
            raise ValueError(f"map undefined at {p!r}")
    for (x, y) in square:
        for (x2, y2) in square:
            u, v = f[(x, y)], f[(x2, y2)]
            if group.add(x, y) == group.add(x2, y2) and \
                    group.add(*u) != group.add(*v):
                return SquareWitness("equal-sum", ((x, y), (x2, y2)))
            if x == x2 and u[0] != v[0]:
                return SquareWitness("equal-first", ((x, y), (x2, y2)))
            if y == y2 and u[1] != v[1]:
                return SquareWitness("equal-second", ((x, y), (x2, y2)))
    x0, y0 = f[(group.zero, group.zero)]
    h = {x: group.sub(f[(x, group.zero)][0], x0) for x in es}
    for a in es:
        for b in es:
            if h[group.add(a, b)] != group.add(h[a], h[b]):
                raise AssertionError("extracted map is not additive: engine bug")
    for (x, y) in square:
        if f[(x, y)] != (group.add(x0, h[x]), group.add(y0, h[y])):
            raise AssertionError("decomposition mismatch: engine bug")
    return SquareDecomposition((x0, y0), h)
