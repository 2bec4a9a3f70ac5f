import itertools
import random
from fractions import Fraction
from typing import Optional

import pytest

from gmspace import semirigid
from gmspace.partitions import EquivSystem, Partition, all_partitions
from gmspace.semirigid import (Triangle, _is_witness, band_truncation,
                               has_center_of_symmetry, is_monogenic,
                               is_semirigid, is_semirigid_bruteforce,
                               parse_points, plane_system, point,
                               preserving_maps, system_isomorphism, t_n, t_n2,
                               t_n2_prime, triangles, zadori_system)
from gmspace.spaces import SizeGuard

from conftest import Budget


def test_zadori_even_formula():
    z6 = zadori_system(6)
    assert [r.to_json() for r in z6.relations] == [
        [[0], [1, 2], [3, 4, 5]],
        [[0, 1, 3], [2, 4], [5]],
        [[0, 2, 5], [1, 4], [3]],
    ]


def test_zadori_arguments():
    for n in (1, 2, 4):
        with pytest.raises(ValueError):
            zadori_system(n)
    assert len(zadori_system(3).carrier) == 3
    assert len(zadori_system(5).carrier) == 5


def test_zadori_semirigid_desk_scale():
    for n in (3, 5, 6, 7):
        system = zadori_system(n)
        ok, _ = is_semirigid(system)
        assert ok, n
        if n <= 6:
            okb, _ = is_semirigid_bruteforce(system)
            assert okb, n


def test_pierce_lemma_instance():
    C3 = (0, 1, 2)
    system = EquivSystem(C3, tuple(Partition.pair(C3, x, y)
                                   for x, y in itertools.combinations(C3, 2)))
    assert is_semirigid_bruteforce(system)[0]


def test_not_semirigid_witness():
    C3 = (0, 1, 2)
    delta_only = EquivSystem.of(C3, [[[0], [1], [2]]])
    ok, witness = is_semirigid(delta_only)
    assert not ok
    assert any(witness[x] != x for x in C3)
    assert len(set(witness.values())) > 1
    assert delta_only.preserves(witness)


def test_backtracking_matches_bruteforce():
    rng = random.Random(51)
    pools = {n: list(all_partitions(tuple(range(n)))) for n in (4, 5, 6)}
    proper = {n: [p for p in pool if 1 < len(p.blocks) < n]
              for n, pool in pools.items()}
    # three uniform relations on 5 points; then three or four relations,
    # none of them equality or the full relation, on 4-6 points, the mix in
    # which semirigid systems are least rare
    cases = [(5, 3, pools[5])] * 40
    cases += [(n, 4 if k % 4 else 3, proper[n])
              for k, n in zip(range(150), itertools.cycle((4, 5, 6)))]
    verdicts = []
    for n, k, pool in cases:
        system = EquivSystem(tuple(range(n)), tuple(rng.sample(pool, k)))
        ok, witness = is_semirigid(system)
        assert ok == is_semirigid_bruteforce(system)[0], system
        if not ok:
            assert system.preserves(witness)
            assert _is_witness(system.carrier, witness)
        verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)


def test_guard():
    carrier = tuple(range(13))
    with pytest.raises(SizeGuard):
        is_semirigid(EquivSystem.of(carrier, [[[x] for x in carrier]]))


def test_no_semirigid_triple_on_four_points():
    # computed fact: no system of three equivalences on 4 points is semirigid
    carrier = (0, 1, 2, 3)
    parts = list(all_partitions(carrier))
    assert len(parts) == 15
    for trio in itertools.combinations_with_replacement(parts, 3):
        ok, _ = is_semirigid_bruteforce(EquivSystem(carrier, trio), guard=4)
        assert not ok


def test_plane_system_example():
    t1 = t_n(1)
    system = plane_system(t1)
    sizes = [sorted(len(b) for b in r.blocks) for r in system.relations]
    assert sizes == [[1, 2], [1, 2], [1, 2]]
    single = plane_system((point(3, 4),))
    assert all(len(r.blocks) == 1 for r in single.relations)
    t2 = plane_system(t_n(2))
    assert all(sorted(len(b) for b in r.blocks) == [1, 2, 3]
               for r in t2.relations)


def test_triangles_examples_and_oracle():
    assert len(triangles(t_n(1))) == 1
    assert triangles(parse_points([[0, 0], [1, 0], [2, 0]])) == []

    def oracle(pts):
        out = set()
        for a, b, c in itertools.permutations(pts, 3):
            if a[1] == b[1] and b[0] + b[1] == c[0] + c[1] and c[0] == a[0]:
                out.add(frozenset((a, b, c)))
        return out

    for pts in (t_n(2), t_n(3), t_n2(4), t_n2_prime(4), band_truncation((-2, 2))):
        assert {t.points() for t in triangles(pts)} == oracle(pts)
    with pytest.raises(ValueError):
        Triangle(point(0, 0), point(1, 1), point(0, 1))


def test_monogenic_examples():
    for n in (1, 2, 3, 4):
        ok, seed = is_monogenic(t_n(n))
        assert ok and len(seed) <= 2
    ok, _ = is_monogenic(t_n2_prime(4))
    assert ok
    # no triangle and more than two points: not monogenic
    ok, _ = is_monogenic(parse_points([[0, 0], [1, 0], [5, 7]]))
    assert not ok
    # one or two points are generated by themselves
    assert is_monogenic([point(2, 2)])[0]
    assert is_monogenic([point(0, 0), point(5, 5)])[0]


def test_center_of_symmetry_examples():
    square = parse_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    ok, center = has_center_of_symmetry(square)
    assert ok and center == (Fraction(1, 2), Fraction(1, 2))
    assert not has_center_of_symmetry(t_n(1))[0]
    for n in (1, 2, 3):
        assert not has_center_of_symmetry(t_n(n))[0]
    # odd point fixed by the reflection
    cross = parse_points([[0, 0], [1, 1], [-1, -1]])
    ok, center = has_center_of_symmetry(cross)
    assert ok and center == (Fraction(0), Fraction(0))


def reference_center_of_symmetry(points):
    """The centre search before the one-candidate test: every pairwise
    midpoint and the bounding-box midpoint, in sorted order."""
    pts = sorted(points)
    if not pts:
        return False, None
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    candidates = {((min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2)}
    candidates.update(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
                      for p in pts for q in pts)
    sset = set(pts)
    for c in sorted(candidates):
        if all((2 * c[0] - p[0], 2 * c[1] - p[1]) in sset for p in pts):
            return True, c
    return False, None


def test_center_of_symmetry_matches_midpoint_scan():
    rng = random.Random(53)
    sets = [(), (point(1, 2),), t_n(2), t_n2_prime(3), band_truncation((-2, 2))]
    sets += [random_plane_set(rng, 1, 9) for _ in range(200)]
    sets += [symmetric_plane_set(rng) for _ in range(200)]
    centred = 0
    for pts in sets:
        got = has_center_of_symmetry(pts)
        assert got == reference_center_of_symmetry(pts), pts
        if got[0]:
            assert [str(c) for c in got[1]] == \
                [str(c) for c in reference_center_of_symmetry(pts)[1]]
        centred += got[0]
    assert centred >= 200


def test_generator_counts():
    assert len(t_n(2)) == 6
    assert len(t_n(3)) == 10
    assert len(t_n2(4)) == 9
    assert len(t_n2_prime(4)) == 10
    assert len(band_truncation((-3, 3))) == 15
    with pytest.raises(ValueError):
        t_n(0)


def reference_system_isomorphism(a: EquivSystem, b: EquivSystem
                                 ) -> Optional[dict]:
    """The isomorphism search before `first_map`: for each order of b's
    relations, plain backtracking over a's carrier, each point tried with
    the unused points of b with the same block sizes, in carrier order."""
    if len(a.carrier) != len(b.carrier) or \
            len(a.relations) != len(b.relations):
        return None

    def profile(system, x, perm):
        return tuple(len(system.relations[i].block_of(x)) for i in perm)

    def extend(perm, prof_b, assign):
        if len(assign) == len(a.carrier):
            return dict(assign)
        x = next(z for z in a.carrier if z not in assign)
        for y in prof_b.get(profile(a, x, range(len(a.relations))), []):
            if y not in assign.values() and all(
                    a.relations[i].same(x, z) == b.relations[perm[i]].same(y, w)
                    for i in range(len(a.relations))
                    for z, w in assign.items()):
                assign[x] = y
                found = extend(perm, prof_b, assign)
                if found:
                    return found
                del assign[x]
        return None

    sizes_a = sorted(sorted(len(blk) for blk in r.blocks) for r in a.relations)
    sizes_b = sorted(sorted(len(blk) for blk in r.blocks) for r in b.relations)
    for perm in itertools.permutations(range(len(b.relations))):
        if sizes_a != sizes_b:
            continue
        prof_b: dict = {}
        for y in b.carrier:
            prof_b.setdefault(profile(b, y, perm), []).append(y)
        iso = extend(perm, prof_b, {})
        if iso:
            return iso
    return None


def assert_same_isomorphism(a, b):
    got, want = system_isomorphism(a, b), reference_system_isomorphism(a, b)
    assert got == want, (a, b, got, want)
    assert list((got or {}).items()) == list((want or {}).items())
    return got


def test_isomorphic_to_zadori_layouts():
    assert assert_same_isomorphism(plane_system(t_n2_prime(4)),
                                   zadori_system(10)) is not None
    assert assert_same_isomorphism(plane_system(t_n2(4)),
                                   zadori_system(9)) is not None
    assert assert_same_isomorphism(plane_system(t_n(1)),
                                   zadori_system(3)) is not None


def test_isomorphism_matches_reference_search():
    # random systems against relabelled, relation-shuffled copies of
    # themselves and against unrelated systems of the same shape
    rng = random.Random(52)
    found = 0
    for _ in range(300):
        a = random_int_system(rng)
        carrier = a.carrier
        image = dict(zip(carrier, rng.sample(carrier, len(carrier))))
        rels = [Partition.from_blocks(carrier, [[image[x] for x in blk]
                                                for blk in r.blocks])
                for r in a.relations]
        rng.shuffle(rels)
        copy = EquivSystem(carrier, tuple(rels))
        found += assert_same_isomorphism(a, copy) is not None
        other = EquivSystem(carrier, tuple(random_partition(rng, carrier)
                                           for _ in a.relations))
        assert_same_isomorphism(a, other)
    assert found == 300


def test_main_theorem_desk_scale():
    cases = [t_n(1), t_n(2), t_n(3),
             t_n2(2), t_n2(3), t_n2(4),
             t_n2_prime(2), t_n2_prime(3), t_n2_prime(4),
             band_truncation((0, 1)), band_truncation((-1, 2))]
    for pts in cases:
        if len(pts) > 10:
            continue
        mono, _ = is_monogenic(pts)
        sym, _ = has_center_of_symmetry(pts)
        if mono and not sym:
            ok, witness = is_semirigid(plane_system(pts))
            assert ok, (pts, witness)


def test_preserving_maps_send_triangles_to_triangles_or_points():
    for pts in (t_n(1), t_n(2), t_n2_prime(2)):
        system = plane_system(pts)
        tris = triangles(pts)
        for f in preserving_maps(system, guard=6):
            for t in tris:
                image = {f[p] for p in t.points()}
                if len(image) == 1:
                    continue
                assert len(image) == 3
                found = any(set(u.points()) == image for u in triangles(pts))
                assert found, (t, image)


# --- the search against a reference search --------------------------------------

# Reference: the seeded search with a full consistency check against every
# assigned pair and no pruning across seeds.  is_semirigid must return the
# same witness with the same key order, since the CLI prints it and the
# benchmark pins the printed reports.
def reference_is_semirigid(system: EquivSystem, guard: int = 12
                           ) -> tuple[bool, Optional[dict]]:
    """Backtracking search for a preserving map that is neither the identity
    nor constant; most-constrained-first variable order with forward
    checking, branching on a forced non-fixed point first."""
    carrier = system.carrier
    n = len(carrier)
    if n > guard:
        raise SizeGuard(f"{n} points exceeds the backtracking guard {guard}")
    if n <= 1:
        return True, None
    rel_ids = [{x: rho.block_id(x) for x in carrier} for rho in system.relations]

    def consistent(x, v, assign):
        # preservation: x ~ y forces f(x) ~ f(y), per relation
        for ids in rel_ids:
            ix, iv = ids[x], ids[v]
            for y, w in assign.items():
                if ids[y] == ix and ids[w] != iv:
                    return False
        return True

    def search(assign, domains) -> Optional[dict]:
        if len(assign) == n:
            return dict(assign) if _is_witness(carrier, assign) else None
        x = min((y for y in carrier if y not in assign),
                key=lambda y: len(domains[y]))
        for v in list(domains[x]):
            if not consistent(x, v, assign):
                continue
            assign[x] = v
            pruned = {}
            dead = False
            for y in carrier:
                if y in assign:
                    continue
                keep = {w for w in domains[y] if consistent(y, w, assign)}
                pruned[y] = domains[y]
                domains[y] = keep
                if not keep:
                    dead = True
                    break
            if not dead:
                found = search(assign, domains)
                if found:
                    return found
            domains.update(pruned)
            del assign[x]
        return None

    # seed with f(x0) != x0: every non-identity map moves some point, and
    # constants are filtered at the leaves
    for x0 in carrier:
        for v0 in carrier:
            if v0 == x0:
                continue
            assign = {x0: v0}
            domains = {y: set(carrier) for y in carrier if y != x0}
            witness = search(assign, domains)
            if witness:
                return False, witness
    return True, None


def assert_same_verdict(system):
    expected = reference_is_semirigid(system)
    got = is_semirigid(system)
    assert got == expected, (system, got, expected)
    if got[1] is not None:
        assert list(got[1].items()) == list(expected[1].items())
    return got[0]


def random_plane_set(rng, lo=3, hi=9):
    scale = rng.choice([1, 2, 3])
    shift = rng.choice([Fraction(0), Fraction(1, 2)])
    k = rng.randint(lo, hi)
    pts = set()
    while len(pts) < k:
        pts.add((Fraction(rng.randint(-3, 3), scale) + shift,
                 Fraction(rng.randint(-3, 3), scale) + shift))
    return tuple(sorted(pts))


def symmetric_plane_set(rng):
    half = random_plane_set(rng, 2, 5)
    cx, cy = Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 2)
    return tuple(sorted(set(half) | {(2 * cx - x, 2 * cy - y)
                                     for x, y in half}))


def random_partition(rng, carrier):
    groups: dict = {}
    for x in carrier:
        groups.setdefault(rng.randrange(len(carrier)), []).append(x)
    return Partition.from_blocks(carrier, groups.values())


def random_int_system(rng):
    carrier = tuple(range(rng.randint(2, 8)))
    return EquivSystem(carrier, tuple(random_partition(rng, carrier)
                                      for _ in range(rng.randint(1, 4))))


def test_search_matches_previous_search_on_random_systems():
    rng = random.Random(2024)
    semirigid_count = 0
    for k in range(1500):
        if k % 3 == 0:
            system = plane_system(random_plane_set(rng))
        elif k % 3 == 1:
            system = plane_system(symmetric_plane_set(rng))
        else:
            system = random_int_system(rng)
        semirigid_count += assert_same_verdict(system)
    assert semirigid_count > 0


def test_search_matches_previous_search_on_zadori_systems():
    for n in (3, 5, 6, 7, 8, 9, 10, 11, 12):
        assert assert_same_verdict(zadori_system(n)), n


def test_wrong_pruning_table_is_an_engine_bug(monkeypatch):
    # a table that allows every value makes the search return a map that
    # does not preserve the system; the final check must catch it
    real = semirigid.first_map

    def allow_everything(domains, allowed, **options):
        return real(domains, [[{} for _ in row] for row in allowed], **options)

    monkeypatch.setattr(semirigid, "first_map", allow_everything)
    with pytest.raises(AssertionError, match="engine bug"):
        is_semirigid(zadori_system(5))


def test_plane_theorem_beyond_the_default_guard():
    # monogenic without a centre of symmetry implies semirigid; these sets
    # have 12-23 points, and the last one 43, past the default guard of 12
    cases = [(t_n2_prime(n), 24) for n in (5, 6, 7, 8)]
    cases += [(band_truncation((-k, k)), 24) for k in (3, 4, 5)]
    cases += [(band_truncation((-10, 10)), 43)]
    with Budget("plane theorem at 12-43 points", 60):
        for pts, guard in cases:
            assert is_monogenic(pts)[0], pts
            assert not has_center_of_symmetry(pts)[0], pts
            ok, witness = is_semirigid(plane_system(pts), guard=guard)
            assert ok, (len(pts), witness)
