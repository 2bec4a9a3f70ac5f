"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion."""
import itertools
import random
from fractions import Fraction

from gmspace import automata, factorization, semirigid, zcong
from gmspace.partitions import (EquivSystem, Partition, crt_solve,
                                is_arithmetical, kaarli_extend,
                                preserves_partition, sublattice_closure,
                                ultrametric_from_system)
from gmspace.segments import FinalSegment, in_macneille
from gmspace.spaces import (FiniteGms, MonoidTable, SizeGuard,
                            canonical_distance_space)
from gmspace.words import PLUS_MINUS, Word, all_words, minimize_words
from gmspace.zigzag import (ReflexiveDigraph, distance_matrix,
                            oriented_embeddable, satisfies_graph_condition)

from conftest import Budget, fpp_check, w, naive_upset_members, \
    random_segment, upset_automaton
from word_oracle import is_antichain

A = PLUS_MINUS


def random_digraph(rng, max_n=4):
    n = rng.randint(1, max_n)
    vs = [f"v{i}" for i in range(n)]
    edges = [(a, b) for a in vs for b in vs if a != b and rng.random() < 0.4]
    return ReflexiveDigraph.of(vs, edges)


def test_criterion_1_zigzag_axioms():
    rng = random.Random(101)
    with Budget("criterion 1 (zigzag axioms + midpoint condition)", 30):
        for _ in range(200):
            m = distance_matrix(random_digraph(rng))
            assert m.check_axioms() == []
            ok, witness = satisfies_graph_condition(m)
            assert ok, witness


def test_criterion_2_minimal_antichain_oracle():
    rng = random.Random(102)
    pool = [v for v in all_words(A, 4) if len(v)]
    with Budget("criterion 2 (minimal antichain vs naive minimality)", 10):
        for _ in range(20):
            gens = [Word.from_code(A, c) for c in minimize_words(
                v.code for v in rng.sample(pool, rng.randint(1, 5)))]
            aut = upset_automaton(A, gens)
            members = set(naive_upset_members(gens, 6))
            naive_min = [v for v in sorted(members, key=Word.sort_key)
                         if not any(u <= v and u != v for u in members)]
            assert list(automata.minimal_antichain(aut)) == naive_min


def test_criterion_3_quantale_laws():
    from gmspace._orders import canonical_distance
    from gmspace.segments import SEGMENTS, residual

    def dist(p, q):
        return canonical_distance(SEGMENTS, p, q)

    rng = random.Random(103)
    shorts = [FinalSegment.of(A, [v]) for v in all_words(A, 2)]
    with Budget("criterion 3 (distributivity, adjunction, distance axioms)", 60):
        for _ in range(500):
            p, q, r = (random_segment(rng) for _ in range(3))
            assert p.meet(q).oplus(r) == p.oplus(r).meet(q.oplus(r))
            assert r.oplus(p.meet(q)) == r.oplus(p).meet(r.oplus(q))
            res = residual(p, q, "right")
            assert p.leq(res.oplus(q))
            for cand in shorts[:8]:
                if p.leq(cand.oplus(q)):
                    assert res.leq(cand)
            dpq, dqr, dpr = dist(p, q), dist(q, r), dist(p, r)
            assert dpr.leq(dpq.oplus(dqr))
            assert dist(q, p) == dpq.involute()
            assert dist(p, p).is_zero()


def test_criterion_4_macneille_and_embeddability():
    def brute(z, bound=4):
        plus, minus = w("+"), w("-")
        for u in all_words(A, bound):
            for v in all_words(A, bound):
                if z.contains(u + plus + v) and z.contains(u + minus + v) \
                        and not z.contains(u + v):
                    return False
        return True

    pool = [v.code for v in all_words(A, 2)]
    with Budget("criterion 4 (cancellation rule, oriented embeddability)", 30):
        for r in range(len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                if is_antichain(combo):
                    z = FinalSegment.of(A, combo)
                    assert in_macneille(z)[0] == brute(z), str(z)
        cycle = ReflexiveDigraph.of(
            "abc", [("a", "b"), ("b", "c"), ("c", "a")])
        ok, _ = oriented_embeddable(cycle)
        assert not ok
        rng = random.Random(104)
        for _ in range(10):
            n = rng.randint(1, 5)
            vs = [f"p{i}" for i in range(n)]
            edges = [(vs[i], vs[i + 1]) if rng.random() < 0.5
                     else (vs[i + 1], vs[i]) for i in range(n - 1)]
            ok, _ = oriented_embeddable(ReflexiveDigraph.of(vs, edges))
            assert ok


def _space_pool(rng):
    """At least 50 generated spaces on <= 6 points with valid axioms."""
    spaces = [canonical_distance_space(MonoidTable.divisor_lattice(12)),
              canonical_distance_space(MonoidTable.boolean("ab")),
              canonical_distance_space(MonoidTable.zigzag_truncation()),
              canonical_distance_space(MonoidTable.chain(3)),
              FiniteGms(["p"], MonoidTable.chain(1), {("p", "p"): 0})]
    # random ultrametric spaces from equivalence systems
    while len(spaces) < 30:
        n = rng.randint(2, 6)
        carrier = tuple(range(n))
        rels = []
        for _ in range(rng.randint(1, 3)):
            labels = [rng.randint(0, n - 1) for _ in carrier]
            groups = {}
            for x, l in zip(carrier, labels):
                groups.setdefault(l, []).append(x)
            rels.append(Partition.from_blocks(carrier, groups.values()))
        space, separated = ultrametric_from_system(EquivSystem(carrier, tuple(rels)))
        if separated and not space.check_axioms():
            spaces.append(space)
    # random spaces over the involutive truncation monoid
    mon = MonoidTable.zigzag_truncation()
    nonzero = [e for e in mon.elements if e != "0"]
    while len(spaces) < 55:
        n = rng.randint(2, 6)
        pts = [f"x{i}" for i in range(n)]
        dist = {(p, p): "0" for p in pts}
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice(nonzero)
                dist[(pts[i], pts[j])] = v
                dist[(pts[j], pts[i])] = mon.inv(v)
        sp = FiniteGms(pts, mon, dist)
        if not sp.check_axioms():
            spaces.append(sp)
    return spaces


def test_criterion_5_hyperconvex_bounded_fixed_points():
    rng = random.Random(105)
    with Budget("criterion 5 (hyperconvex + bounded => fixed points)", 60):
        spaces = _space_pool(rng)
        assert len(spaces) >= 50
        assert any(sp.monoid.elements == MonoidTable.divisor_lattice(12).elements
                   for sp in spaces)
        nonvacuous = 0
        for sp in spaces:
            if sp.is_hyperconvex() and sp.is_bounded():
                ok, witness = fpp_check(sp)
                assert ok, (sp.points, witness)
                nonvacuous += 1
        assert nonvacuous >= 1  # singletons qualify; the claim is exercised


def _random_partition(rng, carrier):
    labels = [rng.randint(0, len(carrier) - 1) for _ in carrier]
    groups = {}
    for x, l in zip(carrier, labels):
        groups.setdefault(l, []).append(x)
    return Partition.from_blocks(carrier, groups.values())


def test_criterion_6_arithmetical_crt():
    rng = random.Random(106)
    with Budget("criterion 6 (arithmetical lattices and Chinese remainder)", 60):
        arithmetical_seen = 0
        nonarithmetical_seen = 0
        trials = 0
        while (arithmetical_seen < 10 or nonarithmetical_seen < 3) \
                and trials < 400:
            trials += 1
            n = rng.randint(3, 6)
            carrier = tuple(range(n))
            gens = [_random_partition(rng, carrier)
                    for _ in range(rng.randint(2, 3))]
            try:
                lat = sorted(sublattice_closure(gens, guard=128),
                             key=lambda p: (len(p.blocks), p.blocks))
            except SizeGuard:
                continue
            if is_arithmetical(lat):
                arithmetical_seen += 1
                for _ in range(25):
                    constraints = [(rng.choice(carrier), rng.choice(lat))
                                   for _ in range(rng.randint(1, 3))]
                    res = crt_solve(lat, constraints)
                    pairwise = all(
                        ti.join(tj).same(ai, aj)
                        for (ai, ti), (aj, tj)
                        in itertools.combinations(constraints, 2))
                    assert bool(res) == pairwise
                    if res:
                        assert all(t.same(res.solution, a)
                                   for a, t in constraints)
                # kaarli re-verification on the same lattice
                for _ in range(5):
                    dom = rng.sample(carrier, min(n - 1, rng.randint(1, 3)))
                    f = {b: rng.choice(carrier) for b in dom}
                    if not all(preserves_partition(f, rho) for rho in lat):
                        continue
                    z = rng.choice([x for x in carrier if x not in f])
                    ext = kaarli_extend(lat, f, z)
                    assert all(preserves_partition(ext, rho) for rho in lat)
            else:
                nonarithmetical_seen += 1
                assert _has_pairwise_ok_unsolvable_system(lat, carrier)
        assert arithmetical_seen >= 10 and nonarithmetical_seen >= 3


def _has_pairwise_ok_unsolvable_system(lat, carrier):
    # non-commuting pair: a two-constraint witness exists by construction
    for rho in lat:
        for tau in lat:
            comp = rho.compose(tau)
            join = rho.join(tau)
            for (x, y) in join.pairs():
                if (x, y) not in comp:
                    res = crt_solve(lat, [(x, tau), (y, rho)])
                    assert res.status == "unsolvable"
                    return True
    # commuting but not distributive: search three-constraint systems
    for combo in itertools.combinations_with_replacement(lat, 3):
        for pts in itertools.product(carrier, repeat=3):
            res = crt_solve(lat, list(zip(pts, combo)))
            if res.status == "unsolvable":
                return True
    return False


def test_criterion_7_cgg_desk_scale():
    rng = random.Random(107)
    with Budget("criterion 7 (congruence-preserving polynomial calculus)", 30):
        for n in range(9):
            gen = zcong.cgg_generator(n)
            assert zcong.is_congruence_preserving(gen)[0]
            assert zcong.divisibility_scan(gen, 30, range(-30, 31))
        for _ in range(500):
            deg = rng.randint(0, 6)
            p = zcong.IntPoly.of([rng.randint(-12, 12) for _ in range(deg + 1)])
            ok, witness = zcong.is_congruence_preserving(p)
            assert ok == zcong.divisibility_scan(p, 6, range(0, 7))
            if not ok:
                x, k = witness
                assert (p(x + k) - p(x)) % k != 0
        accepted = zcong.IntPoly.from_standard(
            [0, 0, Fraction(1, 2), -1, Fraction(1, 2)])
        assert zcong.is_congruence_preserving(accepted) == (True, None)
        ok, witness = zcong.is_congruence_preserving(zcong.IntPoly.of([0, 0, 1]))
        assert not ok and witness == (0, 2)


def test_criterion_8_zn_affine():
    rng = random.Random(108)
    with Budget("criterion 8 (affine recovery over integer grids)", 30):
        cases = [((2, 3), 50), ((3, 2), 50)]
        for (dim, m), count in cases:
            window = [(-m, m)] * dim
            pts = list(itertools.product(range(-m, m + 1), repeat=dim))
            for _ in range(count):
                a = tuple(rng.randint(-9, 9) for _ in range(dim))
                mult = rng.randint(-5, 5)
                values = {p: tuple(a[i] + mult * p[i] for i in range(dim))
                          for p in pts}
                grid = zcong.GridMap.of(dim, window, values)
                assert zcong.zn_affine_check(grid) == zcong.Affine(a, mult)
                # perturb one point off every axis subgroup: rejected with a
                # congruence witness
                bad = dict(values)
                target = rng.choice(pts)
                bad[target] = tuple(c + 1 for c in bad[target])
                res = zcong.zn_affine_check(zcong.GridMap.of(dim, window, bad))
                assert isinstance(res, zcong.NotAffine)
                assert "congruence" in res.reason


def test_criterion_9_semirigidity():
    with Budget("criterion 9a (Zadori n=6 exhaustive)", 5):
        ok, _ = semirigid.is_semirigid_bruteforce(semirigid.zadori_system(6))
        assert ok
    with Budget("criterion 9 (Zadori family and plane sets)", 115):
        for n in (3, 5, 7):
            ok, _ = semirigid.is_semirigid(semirigid.zadori_system(n))
            assert ok, n
        plane_sets = [semirigid.t_n(1), semirigid.t_n(2), semirigid.t_n(3)]
        plane_sets += [semirigid.t_n2(n) for n in (1, 2, 3, 4)]
        plane_sets += [semirigid.t_n2_prime(n) for n in (1, 2, 3, 4)]
        plane_sets += [semirigid.band_truncation(r)
                       for r in ((0, 1), (-1, 1), (-1, 2), (-2, 1))]
        applicable = 0
        for pts in plane_sets:
            if len(pts) > 10:
                continue
            mono, _ = semirigid.is_monogenic(pts)
            sym, _ = semirigid.has_center_of_symmetry(pts)
            if mono and not sym:
                ok, witness = semirigid.is_semirigid(
                    semirigid.plane_system(pts))
                assert ok, (pts, witness)
                applicable += 1
        assert applicable >= 10


def test_criterion_10_free_factorization():
    pool = [v.code for v in all_words(A, 3)]
    with Budget("criterion 10 (unique factorization into irreducibles)", 60):
        count = 0
        for r in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, r):
                if not is_antichain(combo):
                    continue
                f = FinalSegment.of(A, combo)
                seqs = factorization.all_factor_sequences(f)
                assert len(seqs) == 1, str(f)
                (seq,) = seqs
                recomposed = FinalSegment.zero(A)
                for part in seq:
                    recomposed = recomposed.oplus(part)
                assert recomposed == f
                count += 1
        assert count == 355
