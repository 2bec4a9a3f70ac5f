import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gmspace.zcong import (AbelianGroup, Affine, GridMap, IntPoly, NotAffine,
                           NotAGroup, PreservationViolated,
                           SquareDecomposition, SquareWitness, WindowTooSmall,
                           abelian_square_check, binom, cgg_generator,
                           divisibility_scan, enumeration_points,
                           extend_congruence_map, is_congruence_preserving,
                           lcm_upto, pn_basis, pn_expand, pn_reconstruct,
                           zn_affine_check)


def test_lcm_examples():
    assert lcm_upto(0) == 1
    assert lcm_upto(3) == 6
    assert lcm_upto(6) == 60
    with pytest.raises(ValueError):
        lcm_upto(-1)


def test_binomial_basis_examples():
    assert IntPoly.from_standard([0, 0, 1]).coeffs == (0, 1, 2)     # x^2
    assert IntPoly.from_standard([7]).coeffs == (7,)
    assert IntPoly.of([0, 0, 0, 1]).coeffs == (0, 0, 0, 1)          # C(x,3)
    with pytest.raises(ValueError):
        IntPoly.from_standard([0, Fraction(1, 3)])


def test_round_trip_standard_basis():
    rng = random.Random(41)
    for _ in range(100):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        p = IntPoly.of(coeffs)
        back = IntPoly.from_standard(p.to_standard())
        assert back == p


def test_eval_exact_on_negatives():
    p = IntPoly.of([0, 0, 1])  # C(x,2)
    assert [p(x) for x in (-3, -1, 0, 2, 5)] == [6, 1, 0, 1, 10]
    assert binom(-2, 3) == -4


def test_cgg_generator_examples():
    g2 = cgg_generator(2)
    assert all(g2(x) == x * x - x for x in range(-6, 7))
    assert cgg_generator(0).coeffs == (1,)
    g3 = cgg_generator(3)
    assert all(g3(x) == x * (x - 1) * (x - 2) for x in range(-6, 7))


def test_congruence_preserving_examples():
    known_good = IntPoly.from_standard(
        [0, 0, Fraction(1, 2), -1, Fraction(1, 2)])  # x^2 (x-1)^2 / 2
    assert is_congruence_preserving(known_good) == (True, None)
    ok, witness = is_congruence_preserving(IntPoly.of([0, 0, 1]))
    assert not ok and witness == (0, 2)
    p = IntPoly.of([0, 0, 1])
    x, k = witness
    assert (p(x + k) - p(x)) % k != 0
    assert is_congruence_preserving(IntPoly.from_standard([3, -2, 5]))[0]


def test_generators_pass_scan_desk_scale():
    for n in range(9):
        gen = cgg_generator(n)
        assert is_congruence_preserving(gen)[0]
        assert divisibility_scan(gen, 30, range(-30, 31))


def test_coefficient_test_iff_scan_on_random_polys():
    rng = random.Random(42)
    for _ in range(500):
        deg = rng.randint(0, 6)
        coeffs = [rng.randint(-12, 12) for _ in range(deg + 1)]
        p = IntPoly.of(coeffs)
        ok, witness = is_congruence_preserving(p)
        scan = divisibility_scan(p, 6, range(0, 7))
        assert ok == scan, coeffs
        if not ok:
            x, k = witness
            assert (p(x + k) - p(x)) % k != 0


def test_pn_basis_examples():
    assert pn_basis(0).coeffs == (1,)
    assert pn_basis(1).coeffs == (0, 1)
    p2 = pn_basis(2)
    assert all(p2(x) * 2 == x * x + x for x in range(-5, 6))
    # vanishing pattern: p_n is zero on the first n enumerated points and
    # +1/-1 at the n-th
    pts = enumeration_points(9)
    assert pts == [0, -1, 1, -2, 2, -3, 3, -4, 4]
    for n in range(9):
        pn = pn_basis(n)
        assert all(pn(t) == 0 for t in pts[:n])
        assert pn(pts[n]) == (1 if n % 2 == 0 else -1)


def test_pn_expand_examples():
    ident = {x: x for x in range(-2, 3)}
    assert pn_expand(ident) == [0, 1, 0, 0, 0]
    const = {x: 9 for x in range(-3, 4)}
    assert pn_expand(const) == [9, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        pn_expand({0: 1, 1: 2})  # not symmetric


def test_pn_expand_round_trip_random():
    rng = random.Random(43)
    for _ in range(60):
        m = rng.randint(0, 4)
        values = {x: rng.randint(-50, 50) for x in range(-m, m + 1)}
        coeffs = pn_expand(values)
        assert all(pn_reconstruct(coeffs, x) == values[x] for x in values)


def test_pn_expand_congruence_preserving_sample():
    g = cgg_generator(2)
    window = {x: g(x) for x in range(-4, 5)}
    coeffs = pn_expand(window)
    assert all(a % lcm_upto(n) == 0 for n, a in enumerate(coeffs))
    g3 = cgg_generator(3)
    coeffs3 = pn_expand({x: g3(x) for x in range(-5, 6)})
    assert all(a % lcm_upto(n) == 0 for n, a in enumerate(coeffs3))


def test_extension_examples():
    assert extend_congruence_map({0: 0, 2: 4}, 1) == 0
    assert extend_congruence_map({0: 1, 3: 7}, 1) == 1
    sq = {x: x * x for x in (0, 1, 2)}
    v = extend_congruence_map(sq, 5)
    assert v == 25
    with pytest.raises(PreservationViolated):
        extend_congruence_map({0: 0, 2: 1}, 4)
    with pytest.raises(ValueError):
        extend_congruence_map({0: 0}, 0)


def test_extension_random_reverify():
    rng = random.Random(44)
    done = 0
    while done < 60:
        pts = rng.sample(range(-8, 9), rng.randint(2, 4))
        poly = cgg_generator(rng.randint(0, 3))
        shift = rng.randint(-5, 5)
        f = {a: poly(a) + shift for a in pts}
        z = rng.choice([x for x in range(-8, 9) if x not in f])
        v = extend_congruence_map(f, z)
        assert all((v - f[a]) % (z - a) == 0 for a in f)
        done += 1


def grid_values(fn, m=2, dim=2):
    import itertools
    pts = itertools.product(range(-m, m + 1), repeat=dim)
    return {p: fn(p) for p in pts}


def test_affine_examples():
    win = [(-2, 2), (-2, 2)]
    good = GridMap.of(2, win, grid_values(lambda p: (1 + 3 * p[0], 2 + 3 * p[1])))
    assert zn_affine_check(good) == Affine((1, 2), 3)
    swap = GridMap.of(2, win, grid_values(lambda p: (p[1], p[0])))
    res = zn_affine_check(swap)
    assert isinstance(res, NotAffine) and "axis" in res.reason
    const = GridMap.of(2, win, grid_values(lambda p: (4, 7)))
    assert zn_affine_check(const) == Affine((4, 7), 0)


def test_affine_window_guard():
    small = GridMap.of(2, [(0, 0), (0, 0)], {(0, 0): (0, 0)})
    with pytest.raises(WindowTooSmall):
        zn_affine_check(small)
    with pytest.raises(ValueError):
        zn_affine_check(GridMap.of(1, [(0, 1)], {(0,): (0,), (1,): (1,)}))


def test_affine_three_dimensional():
    win = [(-1, 1)] * 3
    g = GridMap.of(3, win, grid_values(lambda p: tuple(5 - 2 * c for c in p),
                                       m=1, dim=3))
    assert zn_affine_check(g) == Affine((5, 5, 5), -2)


def test_square_examples():
    z4 = AbelianGroup.cyclic(4)
    f = {(x, y): ((1 + 3 * x) % 4, (2 + 3 * y) % 4)
         for x in z4.elements for y in z4.elements}
    res = abelian_square_check(z4, f)
    assert isinstance(res, SquareDecomposition)
    assert res.base == (1, 2) and res.endomorphism[1] == 3
    swap = {(x, y): (y, x) for x in z4.elements for y in z4.elements}
    res = abelian_square_check(z4, swap)
    assert isinstance(res, SquareWitness) and res.relation == "equal-first"
    const = {(x, y): (2, 3) for x in z4.elements for y in z4.elements}
    res = abelian_square_check(z4, const)
    assert isinstance(res, SquareDecomposition) and res.base == (2, 3)
    assert all(v == 0 for v in res.endomorphism.values())


def test_not_a_group():
    with pytest.raises(NotAGroup):
        AbelianGroup([0, 1], {(a, b): 0 for a in (0, 1) for b in (0, 1)})


# --- the all-pairs scan that zn_affine_check replaced, kept as its oracle ---

def _axis_subgroup_member(v: tuple, k: int) -> bool:
    return all(c == 0 for i, c in enumerate(v) if i != k)


def _antidiag_subgroup_member(v: tuple, k: int, l: int) -> bool:
    return all(c == 0 for i, c in enumerate(v) if i not in (k, l)) \
        and v[k] == -v[l]


def pairwise_zn_affine_check(g: GridMap) -> Affine | NotAffine:
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

    def diff(a, b):
        return tuple(x - y for x, y in zip(a, b))

    pairs = [(a, b) for a in pts for b in pts if a < b]
    for k in range(n):
        for a, b in pairs:
            if _axis_subgroup_member(diff(a, b), k):
                if not _axis_subgroup_member(diff(g.values[a], g.values[b]), k):
                    return NotAffine(f"axis-{k} congruence broken", (a, b))
    for k in range(n):
        for l in range(k + 1, n):
            for a, b in pairs:
                if _antidiag_subgroup_member(diff(a, b), k, l):
                    if not _antidiag_subgroup_member(
                            diff(g.values[a], g.values[b]), k, l):
                        return NotAffine(f"antidiagonal-({k},{l}) congruence broken",
                                         (a, b))
    offset = g.values[zero]
    m = g.values[units[0]][0] - offset[0]
    for p in pts:
        expect = tuple(offset[i] + m * p[i] for i in range(n))
        if g.values[p] != expect:
            return NotAffine("affine fit fails on the window", (p,))
    return Affine(offset, m)


def seeded_grid(rng, kind):
    """A window map of dimension 2-4 on an asymmetric window around the
    probes: affine with 0-5 perturbed values, affine per axis with its own
    multiplier, a coordinate swap of an affine map, or fully random."""
    dim = rng.choice((2, 2, 2, 3, 3, 4))
    below, above = {2: (3, 3), 3: (1, 2), 4: (1, 1)}[dim]
    window = [(-rng.randint(0, below), rng.randint(1, above)) for _ in range(dim)]
    pts = list(itertools.product(*(range(lo, hi + 1) for lo, hi in window)))
    offset = [rng.randint(-4, 4) for _ in range(dim)]
    mults = [rng.randint(-3, 3)] * dim
    if kind == "per-axis":
        mults = [rng.randint(-3, 3) for _ in range(dim)]
    values = {p: [offset[i] + mults[i] * p[i] for i in range(dim)] for p in pts}
    if kind == "random":
        values = {p: [rng.randint(-2, 2) for _ in range(dim)] for p in pts}
    if kind == "swap":
        k, l = rng.sample(range(dim), 2)
        for v in values.values():
            v[k], v[l] = v[l], v[k]
    if kind == "perturbed":
        for p in rng.sample(pts, min(len(pts), rng.randint(0, 5))):
            values[p][rng.randrange(dim)] += rng.choice((-2, -1, 1, 2))
    return GridMap.of(dim, window, values)


def test_affine_check_matches_pairwise_scan():
    rng = random.Random(1010)
    kinds = ("perturbed",) * 6 + ("per-axis", "swap", "random")
    seen = {"Affine": 0, "axis": 0, "antidiagonal": 0}
    for case in range(3000):
        g = seeded_grid(rng, kinds[case % len(kinds)])
        got = zn_affine_check(g)
        assert got == pairwise_zn_affine_check(g), (case, g)
        if isinstance(got, Affine):
            seen["Affine"] += 1
        else:
            seen[got.reason.split("-")[0]] += 1
    assert min(seen.values()) >= 100, seen


@given(st.integers(0, 4).flatmap(lambda m: st.lists(
    st.integers(-50, 50), min_size=2 * m + 1, max_size=2 * m + 1)))
def test_pn_expand_reconstructs_the_window(column):
    m = len(column) // 2
    values = dict(zip(range(-m, m + 1), column))
    coeffs = pn_expand(values)
    assert len(coeffs) == len(values)
    assert all(pn_reconstruct(coeffs, x) == v for x, v in values.items())
