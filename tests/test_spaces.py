import itertools
import random

import pytest

from gmspace._orders import is_helly
from gmspace.spaces import (FiniteGms, MonoidTable, SizeGuard,
                            canonical_distance_space, space_from_json)

from conftest import fpp_check


def divisor12_space():
    mon = MonoidTable.divisor_lattice(12)
    return canonical_distance_space(mon)


def two_point_swap_space():
    mon = MonoidTable.involutive_four()
    return FiniteGms(["x", "y"], mon,
                     {("x", "x"): "0", ("y", "y"): "0",
                      ("x", "y"): "t", ("y", "x"): "t"})


def test_monoid_validation():
    with pytest.raises(ValueError):
        MonoidTable([0, 1], [(1, 0)], {(a, b): max(a, b) for a in (0, 1)
                                       for b in (0, 1)}, {0: 0, 1: 1}, 0)
    with pytest.raises(ValueError):  # zero not least
        MonoidTable([0, 1], [], {(a, b): max(a, b) for a in (0, 1)
                                 for b in (0, 1)}, {0: 0, 1: 1}, 0)
    chain = MonoidTable.chain(2)
    assert chain.leq(0, 2) and not chain.leq(2, 1)
    assert chain.join(1, 2) == 2 and chain.meet(1, 2) == 1
    assert chain.join() == 0 and chain.meet(*chain.elements) == 0


def test_monoid_heyting_flags():
    assert MonoidTable.divisor_lattice(12).is_heyting()
    assert MonoidTable.boolean("ab").is_heyting()
    assert MonoidTable.zigzag_truncation().is_heyting()
    assert not MonoidTable.involutive_four().is_heyting()


def test_check_axioms_examples():
    space = divisor12_space()
    assert space.check_axioms() == []
    mon = MonoidTable.chain(1)
    bad = FiniteGms(["x", "y"], mon, {("x", "x"): 0, ("y", "y"): 0,
                                      ("x", "y"): 0, ("y", "x"): 0})
    assert ("separation", "x", "y") in bad.check_axioms()
    asym = FiniteGms(["x", "y"], mon, {("x", "x"): 0, ("y", "y"): 0,
                                       ("x", "y"): 1, ("y", "x"): 0})
    kinds = {v[0] for v in asym.check_axioms()}
    assert "involution" in kinds or "separation" in kinds


def test_ball_examples():
    mon = MonoidTable.chain(2)
    sp = FiniteGms(["x", "y"], mon, {("x", "x"): 0, ("y", "y"): 0,
                                     ("x", "y"): 1, ("y", "x"): 1})
    assert sp.ball("x", 0) == frozenset({"x"})
    assert sp.ball("x", 2) == frozenset({"x", "y"})
    assert sp.ball("x", 1) == frozenset({"x", "y"})
    canonical = canonical_distance_space(MonoidTable.chain(2))
    with pytest.raises(ValueError, match="radius 99"):
        canonical.ball(0, 99)
    with pytest.raises(ValueError, match="center 42"):
        canonical.ball(42, 0)


def test_hyperconvexity_examples():
    one = FiniteGms(["p"], MonoidTable.chain(1), {("p", "p"): 0})
    assert one.is_hyperconvex()
    # the canonical space over a finite distributive lattice is hyperconvex
    assert divisor12_space().is_hyperconvex()
    assert canonical_distance_space(MonoidTable.boolean("ab")).is_hyperconvex()
    assert canonical_distance_space(MonoidTable.zigzag_truncation()).is_hyperconvex()
    # 2-point space with an unsplittable distance is not convex
    sp = two_point_swap_space()
    assert not sp.is_convex()
    assert not sp.is_hyperconvex()


def test_properties_raise_on_every_call_when_axioms_fail():
    mon = MonoidTable.chain(1)
    bad = FiniteGms(["x", "y"], mon, {("x", "x"): 0, ("y", "y"): 0,
                                      ("x", "y"): 0, ("y", "x"): 0})
    for check in (bad.is_convex, bad.is_2helly, bad.is_convex,
                  bad.is_hyperconvex, bad.has_normal_structure):
        with pytest.raises(ValueError, match="violates the distance axioms"):
            check()


def test_hyperconvex_decomposition_is_consistent():
    for mon in (MonoidTable.chain(2), MonoidTable.boolean("a")):
        sp = canonical_distance_space(mon)
        if sp.is_hyperconvex():
            assert sp.is_convex() and sp.is_2helly()


def test_diameter_radius_examples():
    one = FiniteGms(["p"], MonoidTable.chain(1), {("p", "p"): 0})
    assert one.diameter() == 0
    space = divisor12_space()
    assert space.diameter() == 12
    assert space.is_equally_centered([1])          # singleton
    assert not space.is_equally_centered([])
    rng = random.Random(21)
    for _ in range(50):
        pts = rng.sample(space.points, rng.randint(1, 6))
        r = space.radius(pts)
        assert space.monoid.leq(r, space.diameter(pts)) or \
            space.diameter(pts) == space.monoid.zero
    with pytest.raises(ValueError):
        space.radius([])


def test_radius_leq_diameter_on_random_spaces():
    rng = random.Random(22)
    mon = MonoidTable.boolean("ab")
    sp = canonical_distance_space(mon)
    for _ in range(50):
        pts = rng.sample(sp.points, rng.randint(1, 4))
        assert sp.monoid.leq(sp.radius(pts), sp.diameter(pts))


def test_normal_structure_and_boundedness():
    space = divisor12_space()
    # identity involution with idempotent join makes everything inaccessible
    assert space.monoid.inaccessible_elements() == frozenset(space.monoid.elements)
    assert not space.is_bounded()
    zt = MonoidTable.zigzag_truncation()
    assert zt.inaccessible_elements() == frozenset({"0", "n"})
    zt_space = canonical_distance_space(zt)
    assert zt_space.diameter() == "t" and not zt_space.is_bounded()
    one = FiniteGms(["p"], MonoidTable.chain(1), {("p", "p"): 0})
    assert one.is_bounded() and one.has_normal_structure()


def test_fpp_examples():
    one = FiniteGms(["p"], MonoidTable.chain(1), {("p", "p"): 0})
    assert fpp_check(one) == (True, None)
    ok, witness = fpp_check(two_point_swap_space())
    assert not ok and witness == {"x": "y", "y": "x"}
    # the divisor-of-12 canonical space is hyperconvex but unbounded, and a
    # fixed-point-free non-expansive map exists (verified by the oracle too)
    space = divisor12_space()
    ok, witness = fpp_check(space)
    assert not ok
    assert all(witness[x] != x for x in space.points)
    assert space.is_nonexpansive_selfmap(witness)
    oracle_free = [f for f in space.nonexpansive_selfmaps()
                   if all(f[x] != x for x in space.points)]
    assert oracle_free


def test_fpp_backtracking_matches_oracle():
    rng = random.Random(23)
    mon = MonoidTable.zigzag_truncation()
    elems = [e for e in mon.elements if e != "0"]
    for _ in range(25):
        pts = ["a", "b", "c"]
        dist = {(p, p): "0" for p in pts}
        for i in range(3):
            for j in range(i + 1, 3):
                v = rng.choice(elems)
                dist[(pts[i], pts[j])] = v
                dist[(pts[j], pts[i])] = mon.inv(v)
        sp = FiniteGms(pts, mon, dist)
        if sp.check_axioms():
            continue
        ok, _ = fpp_check(sp)
        oracle = not any(all(f[x] != x for x in pts)
                         for f in sp.nonexpansive_selfmaps())
        assert ok == oracle


def test_fpp_matches_reference_search():
    # every stock table as a space, and random spaces over the truncation
    # table with 1-6 points, both verdicts well represented; tables that
    # break the axioms get no verdict
    spaces = [canonical_distance_space(mon) for mon in (
        MonoidTable.chain(1), MonoidTable.chain(4), MonoidTable.boolean("ab"),
        MonoidTable.boolean("abc"), MonoidTable.divisor_lattice(12),
        MonoidTable.divisor_lattice(30), MonoidTable.zigzag_truncation())]
    rng = random.Random(25)
    mon = MonoidTable.zigzag_truncation()
    elems = [e for e in mon.elements if e != "0"]
    broken = 0
    while len(spaces) < 300:
        pts = [f"p{i}" for i in range(rng.randint(1, 6))]
        dist = {(p, p): "0" for p in pts}
        for i, j in itertools.combinations(range(len(pts)), 2):
            v = rng.choice(elems)
            back = mon.inv(v) if len(spaces) % 2 else rng.choice(elems)
            dist[(pts[i], pts[j])], dist[(pts[j], pts[i])] = v, back
        sp = FiniteGms(pts, mon, dist)
        if not sp.check_axioms():
            spaces.append(sp)
        else:
            broken += 1
            with pytest.raises(ValueError, match="violates the distance axioms"):
                sp.fpp_check()
    assert broken > 100
    verdicts = [fpp_check(sp)[0] for sp in spaces]
    assert 20 < sum(verdicts) < len(verdicts) - 20


def test_size_guard():
    mon = MonoidTable.chain(1)
    pts = [f"p{i}" for i in range(9)]
    dist = {(a, b): (0 if a == b else 1) for a in pts for b in pts}
    sp = FiniteGms(pts, mon, dist)
    with pytest.raises(SizeGuard):
        sp.fpp_check()


def test_commuting_family():
    space = divisor12_space()
    ident = {x: x for x in space.points}
    to_top = {x: 12 for x in space.points}
    assert space.commuting_fpp_check([ident, to_top])
    ok, witness = fpp_check(space)
    with pytest.raises(ValueError):
        space.commuting_fpp_check([{x: 1 for x in space.points},
                                   {x: 12 for x in space.points}])
    swap_sp = two_point_swap_space()
    _, swap = fpp_check(swap_sp)
    assert not swap_sp.commuting_fpp_check([swap])


def test_retracts_preserve_fpp():
    # a retract of a space with the fixed-point property keeps it
    rng = random.Random(24)
    mon = MonoidTable.zigzag_truncation()
    checked = 0
    trials = 0
    while checked < 20 and trials < 400:
        trials += 1
        n = rng.randint(2, 4)
        pts = [f"p{i}" for i in range(n)]
        elems = [e for e in mon.elements if e != "0"]
        dist = {(p, p): "0" for p in pts}
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice(elems)
                dist[(pts[i], pts[j])] = v
                dist[(pts[j], pts[i])] = mon.inv(v)
        sp = FiniteGms(pts, mon, dist)
        if sp.check_axioms() or not fpp_check(sp)[0]:
            continue
        sub = rng.sample(pts, rng.randint(1, n - 1))
        retraction = None
        for values in itertools.product(sub, repeat=n):
            f = dict(zip(pts, values))
            if all(f[s] == s for s in sub) and sp.is_nonexpansive_selfmap(f):
                retraction = f
                break
        if retraction is None:
            continue
        retract = FiniteGms(sub, mon, {(a, b): sp.d(a, b)
                                       for a in sub for b in sub})
        assert fpp_check(retract)[0]
        checked += 1
    assert checked == 20


def test_order_residual_helper():
    mon = MonoidTable.divisor_lattice(12)
    for side in ("left", "right"):
        assert mon.residual(4, 2, side) == 4
        assert mon.residual(2, 2, side) == 1


def test_space_json_round_trip():
    mon = MonoidTable.chain(1)
    payload = {
        "points": ["x", "y"],
        "monoid": {"elements": [0, 1], "leq": [[0, 1]],
                   "oplus": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
                   "involution": [[0, 0], [1, 1]], "zero": 0},
        "dist": [[0, 1], [1, 0]],
    }
    sp = space_from_json(payload)
    assert sp.check_axioms() == []
    assert sp.d("x", "y") == 1


def ball_by_scan(space, x, r):
    """Oracle: the closed ball {y : d(x, y) <= r}, from the distance table
    and the order alone."""
    return frozenset(y for y in space.points if space.monoid.leq(space.d(x, y), r))


def hyperconvex_by_enumeration(space):
    """Oracle: every family of balls whose centres are compatible,
    d(x_i, x_j) <= r_i + inv(r_j), has a common point."""
    m = space.monoid
    balls = [(x, r) for x in space.points for r in m.elements]
    for k in range(1, len(balls) + 1):
        for family in itertools.combinations(balls, k):
            if all(m.leq(space.d(xi, xj), m.oplus(ri, m.inv(rj)))
                   for xi, ri in family for xj, rj in family):
                common = frozenset(space.points)
                for x, r in family:
                    common &= ball_by_scan(space, x, r)
                if not common:
                    return False
    return True


def convex_by_scan(space):
    """Oracle: the z-scan that `is_convex` replaced; whenever
    d(x, y) <= p + q, some z has d(x, z) <= p and d(z, y) <= q."""
    m = space.monoid
    for x in space.points:
        for y in space.points:
            for p in m.elements:
                for q in m.elements:
                    if m.leq(space.d(x, y), m.oplus(p, q)) and not any(
                            m.leq(space.d(x, z), p) and m.leq(space.d(z, y), q)
                            for z in space.points):
                        return False
    return True


def small_monoids():
    return [MonoidTable.chain(1), MonoidTable.chain(2), MonoidTable.chain(3),
            MonoidTable.boolean("ab"), MonoidTable.involutive_four()]


def symmetric_spaces(mon, n):
    """Every table on n points with zero diagonal and d(y, x) = inv d(x, y)."""
    pts = [f"p{i}" for i in range(n)]
    pairs = list(itertools.combinations(pts, 2))
    for values in itertools.product(mon.elements, repeat=len(pairs)):
        dist = {(x, x): mon.zero for x in pts}
        for (x, y), v in zip(pairs, values):
            dist[(x, y)], dist[(y, x)] = v, mon.inv(v)
        yield FiniteGms(pts, mon, dist)


def small_spaces():
    """Every space on 1-3 points whose distances satisfy the axioms, over
    monoids with at most four elements."""
    for mon in small_monoids():
        for n in (1, 2, 3):
            for space in symmetric_spaces(mon, n):
                if not space.check_axioms():
                    yield space


def axioms_by_scan(space):
    """Oracle: the direct scan over point names, reporting separation and
    involution over (x, y), then the triangle over (x, z, y)."""
    m, d, bad = space.monoid, space.d, []
    for x in space.points:
        for y in space.points:
            if (d(x, y) == m.zero) != (x == y):
                bad.append(("separation", x, y))
            if m.inv(d(y, x)) != d(x, y):
                bad.append(("involution", x, y))
    for x in space.points:
        for z in space.points:
            for y in space.points:
                if not m.leq(d(x, y), m.oplus(d(x, z), d(z, y))):
                    bad.append(("triangle", x, z, y))
    return bad


def test_check_axioms_matches_scan_on_small_tables():
    """Every table on 1-2 points, every symmetric table on 3 points, and
    random tables on 3 points, violating the axioms or not."""
    rng = random.Random(25)
    kinds = set()
    for mon in small_monoids():
        spaces = [sp for n in (1, 2, 3) for sp in symmetric_spaces(mon, n)]
        for n in (1, 2):
            pts = [f"p{i}" for i in range(n)]
            cells = list(itertools.product(pts, repeat=2))
            for values in itertools.product(mon.elements, repeat=len(cells)):
                spaces.append(FiniteGms(pts, mon, dict(zip(cells, values))))
        cells = list(itertools.product(["p0", "p1", "p2"], repeat=2))
        for _ in range(1000):
            dist = {c: rng.choice(mon.elements) for c in cells}
            spaces.append(FiniteGms(["p0", "p1", "p2"], mon, dist))
        for sp in spaces:
            bad = sp.check_axioms()
            assert bad == axioms_by_scan(sp), (sp.points, sp.dist)
            kinds.update(v[0] for v in bad)
    assert kinds == {"separation", "involution", "triangle"}


def test_hyperconvexity_matches_ball_family_enumeration():
    spaces = list(small_spaces())
    verdicts = [sp.is_hyperconvex() for sp in spaces]
    assert len(spaces) > 50 and any(verdicts) and not all(verdicts)
    for sp, got in zip(spaces, verdicts):
        assert got == hyperconvex_by_enumeration(sp), (sp.points, sp.monoid.elements)


# --- the maximal-clique 2-Helly test that is_helly replaced, kept as its oracle ---


def maximal_cliques(nodes: list, adjacent):
    """Bron-Kerbosch over node indices; yields each maximal clique as a list."""
    neigh = [set() for _ in nodes]
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if adjacent(i, j):
                neigh[i].add(j)
                neigh[j].add(i)
    yield from _expand_cliques(neigh, set(), set(range(len(nodes))), set())


def _expand_cliques(neigh: list[set], r: set, p: set, x: set):
    if not p and not x:
        yield sorted(r)
        return
    pivot = max(p | x, key=lambda v: len(neigh[v] & p))
    for v in sorted(p - neigh[pivot]):
        yield from _expand_cliques(neigh, r | {v}, p & neigh[v], x & neigh[v])
        p = p - {v}
        x = x | {v}


def helly_by_cliques(sets, points):
    """Any pairwise-intersecting family extends to a maximal clique of the
    intersection graph, so it suffices to intersect the maximal cliques."""
    sets = list(sets)
    for clique in maximal_cliques(sets, lambda i, j: bool(sets[i] & sets[j])):
        common = frozenset(points)
        for i in clique:
            common &= sets[i]
        if not common:
            return False
    return True


def random_spaces(rng, count):
    """Seeded spaces of 4-8 points over the stock monoids: subspaces of
    canonical spaces, and symmetric tables over the monoids in which every
    product of nonzero values is the top, where any such table is a space."""
    canonical = [canonical_distance_space(m) for m in (
        MonoidTable.chain(7), MonoidTable.boolean("abc"),
        MonoidTable.divisor_lattice(60), MonoidTable.zigzag_truncation())]
    saturating = [MonoidTable.involutive_four(), MonoidTable.zigzag_truncation()]
    for case in range(count):
        if case % 2:
            sp = rng.choice(canonical)
            pts = rng.sample(sp.points, min(len(sp.points), rng.randint(4, 8)))
            yield FiniteGms(pts, sp.monoid, {(x, y): sp.d(x, y)
                                             for x in pts for y in pts})
            continue
        mon = rng.choice(saturating)
        pts = [f"p{i}" for i in range(rng.randint(4, 8))]
        dist = {(x, x): mon.zero for x in pts}
        for x, y in itertools.combinations(pts, 2):
            v = rng.choice([e for e in mon.elements if e != mon.zero])
            dist[(x, y)], dist[(y, x)] = v, mon.inv(v)
        yield FiniteGms(pts, mon, dist)


def test_2helly_matches_maximal_cliques_on_random_spaces():
    rng = random.Random(26)
    verdicts = []
    for sp in random_spaces(rng, 300):
        balls = {ball_by_scan(sp, x, r) for x in sp.points for r in sp.monoid.elements}
        assert sp._ball_sets() == balls
        got = sp.is_2helly()
        assert got == helly_by_cliques(balls, sp.points), (sp.points, sp.dist)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_convexity_matches_the_scan():
    """Every small space, and 300 seeded spaces of 4-8 points (all satisfy
    the axioms), with both verdicts among each."""
    sampled = list(random_spaces(random.Random(28), 300))
    assert not any(sp.check_axioms() for sp in sampled)
    for spaces in (list(small_spaces()), sampled):
        verdicts = [sp.is_convex() for sp in spaces]
        assert any(verdicts) and not all(verdicts)
        for sp, got in zip(spaces, verdicts):
            assert got == convex_by_scan(sp), (sp.points, sp.dist)


def test_helly_triple_test_matches_maximal_cliques_on_random_families():
    rng = random.Random(27)
    verdicts = []
    for _ in range(3000):
        points = list(range(rng.randint(1, 6)))
        sets = {frozenset(rng.sample(points, rng.randint(1, len(points))))
                for _ in range(rng.randint(1, 8))}
        got = is_helly(sets, points)
        assert got == helly_by_cliques(sets, points), (sets, points)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)
