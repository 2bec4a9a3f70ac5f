import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from gmspace import partitions
from gmspace.cli import dispatch
from gmspace.partitions import (EquivSystem, NotResiduated,
                                Partition, PreservationViolated,
                                all_partitions, crt_solve, is_arithmetical,
                                is_distributive, is_sublattice, kaarli_extend,
                                orthogonal, orthogonal_family_search,
                                preserves_partition, residuated_distance,
                                sublattice_closure, ultrametric_from_system)
from gmspace._orders import least_of
from gmspace.spaces import MonoidTable, SizeGuard

from conftest import Budget

Z6 = tuple(range(6))
MOD2 = Partition.from_blocks(Z6, [[0, 2, 4], [1, 3, 5]])
MOD3 = Partition.from_blocks(Z6, [[0, 3], [1, 4], [2, 5]])

Z12 = tuple(range(12))


def modular(k):
    return Partition.from_blocks(Z12, [[x for x in Z12 if x % k == r]
                                       for r in range(k)])


L12 = sorted(sublattice_closure([modular(k) for k in (1, 2, 3, 4, 6, 12)]),
             key=lambda p: len(p.blocks))


def random_partition(rng, carrier):
    labels = [rng.randint(0, len(carrier) - 1) for _ in carrier]
    groups = {}
    for x, l in zip(carrier, labels):
        groups.setdefault(l, []).append(x)
    return Partition.from_blocks(carrier, groups.values())


def test_lattice_op_examples():
    assert MOD2.commutes(MOD3)
    assert MOD2.compose(MOD3) == Partition.full(Z6).pairs()
    assert MOD2.meet(MOD2) == MOD2
    C3 = (0, 1, 2)
    rho = Partition.from_blocks(C3, [[0, 1], [2]])
    tau = Partition.from_blocks(C3, [[0], [1, 2]])
    assert not rho.commutes(tau)
    assert (2, 1) in rho.compose(tau)
    assert (2, 0) in rho.compose(tau)
    assert (2, 0) not in tau.compose(rho)


def test_canonical_form_and_validation():
    p = Partition.from_blocks((0, 1, 2), [[2], [1, 0]])
    assert p.blocks == ((0, 1), (2,))
    with pytest.raises(ValueError):
        Partition((0, 1), ((0,),))
    with pytest.raises(ValueError):
        MOD2.meet(Partition.discrete((0, 1)))


def test_closure_examples():
    C3 = (0, 1, 2)
    pairs = [Partition.pair(C3, x, y) for x, y in
             itertools.combinations(C3, 2)]
    assert len(sublattice_closure(pairs)) == 5
    delta = Partition.discrete(C3)
    assert sublattice_closure([delta]) == frozenset({delta})
    assert len(sublattice_closure([MOD2, MOD3])) == 4
    with pytest.raises(SizeGuard):
        sublattice_closure(list(all_partitions(tuple(range(6)))), guard=10)


def test_closure_guard_fires_as_partitions_are_added(monkeypatch):
    # four random 4-block partitions of 9 points generate hundreds of
    # partitions; the guard must stop the closure within two partitions of
    # its limit, not after a whole round of meets and joins
    rng = random.Random(5)
    carrier = tuple(range(9))
    family = [Partition.from_blocks(carrier, [[x for x in carrier
                                               if label[x] == b]
                                              for b in range(4)])
              for label in ([rng.randrange(4) for _ in carrier]
                            for _ in range(4))]
    built = set(family)
    for op in ("meet", "join"):
        real = getattr(Partition, op)
        monkeypatch.setattr(Partition, op, lambda a, b, real=real:
                            built.add(real(a, b)) or real(a, b))
    with Budget("closure guard at 32 partitions", 2):
        with pytest.raises(SizeGuard):
            sublattice_closure(family, guard=32)
    assert len(built) <= 32 + 2


def reference_is_sublattice(parts) -> bool:
    """The closure test before the meet/join tables: every pair's meet and
    join, built as partitions, looked up in the family."""
    ps = set(parts)
    return all(a.meet(b) in ps and a.join(b) in ps for a in ps for b in ps)


def reference_is_distributive(parts) -> bool:
    """Distributivity before the meet/join tables: about 4k^3 partitions
    built for a family of k."""
    ps = list(parts)
    if not reference_is_sublattice(ps):
        raise ValueError("not a meet/join-closed set of partitions")
    return all(a.meet(b.join(c)) == a.meet(b).join(a.meet(c))
               for a in ps for b in ps for c in ps)


def test_lattice_tables_match_cubic_oracles():
    rng = random.Random(2204)
    verdicts = set()
    for k in range(300):
        carrier = tuple(range(rng.randint(1, 6)))
        gens = [random_partition(rng, carrier)
                for _ in range(rng.randint(1, 3))]
        try:
            family = list(sublattice_closure(gens, guard=40))
        except SizeGuard:
            continue
        rng.shuffle(family)
        if k % 2 and len(family) > 2:
            family.pop(rng.randrange(len(family)))
        closed = reference_is_sublattice(family)
        assert is_sublattice(family) == closed, family
        if closed:
            want = reference_is_distributive(family)
            assert is_distributive(family) == want, family
            assert is_distributive(family + family[:2]) == want
            verdicts.add(want)
        else:
            with pytest.raises(ValueError):
                is_distributive(family)
            verdicts.add(None)
    assert verdicts == {True, False, None}


def test_arithmetical_examples():
    assert is_arithmetical(sublattice_closure([MOD2, MOD3]))
    assert is_arithmetical(L12)
    C3 = (0, 1, 2)
    assert is_arithmetical([Partition.discrete(C3), Partition.full(C3)])
    eqv4 = sublattice_closure(all_partitions(tuple(range(4))))
    assert not is_distributive(eqv4)
    with pytest.raises(ValueError):
        is_distributive([MOD2, MOD3])  # meet and join are missing


def test_join_equals_iterated_composition():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 6)
        carrier = tuple(range(n))
        a, b = random_partition(rng, carrier), random_partition(rng, carrier)
        join = a.join(b)
        rel = a.pairs() | b.pairs()
        while True:
            bigger = {(x, z) for x, y in rel for y2, z in rel if y == y2}
            if bigger <= rel:
                break
            rel |= bigger
        assert join.pairs() == rel


def test_crt_examples():
    L6 = list(sublattice_closure([MOD2, MOD3]))
    res = crt_solve(L6, [(1, MOD2), (2, MOD3)])
    assert res.status == "ok" and res.solution == 5
    single = crt_solve(L6, [(4, MOD3)])
    assert single.status == "ok" and MOD3.same(single.solution, 4)
    clash = crt_solve(L6, [(0, MOD2), (1, MOD2)])
    assert clash.status == "incompatible" and clash.witness_pair == (0, 1)
    with pytest.raises(ValueError):
        crt_solve(L6, [(0, Partition.discrete((0, 1)))])


def test_crt_succeeds_iff_pairwise_on_arithmetical_lattices():
    rng = random.Random(32)
    lattices = 0
    while lattices < 12:
        n = rng.randint(3, 6)
        carrier = tuple(range(n))
        gens = [random_partition(rng, carrier) for _ in range(2)]
        try:
            lat = list(sublattice_closure(gens, guard=64))
        except SizeGuard:
            continue
        if not is_arithmetical(lat):
            continue
        lattices += 1
        for _ in range(20):
            k = rng.randint(1, 3)
            constraints = [(rng.choice(carrier), rng.choice(lat))
                           for _ in range(k)]
            res = crt_solve(lat, constraints)
            pairwise = all(
                ti.join(tj).same(ai, aj)
                for (ai, ti), (aj, tj) in itertools.combinations(constraints, 2))
            assert bool(res) == pairwise, (constraints, res)


def test_nonarithmetical_lattice_has_failing_solvable_looking_system():
    # the M3 of pairings on a 4-set commutes pairwise but is not distributive
    E4 = tuple(range(4))
    m1 = Partition.from_blocks(E4, [[0, 1], [2, 3]])
    m2 = Partition.from_blocks(E4, [[0, 2], [1, 3]])
    m3 = Partition.from_blocks(E4, [[0, 3], [1, 2]])
    lat = list(sublattice_closure([m1, m2, m3]))
    assert not is_arithmetical(lat)
    found = None
    for combo in itertools.product([m1, m2, m3], repeat=3):
        for pts in itertools.product(E4, repeat=3):
            constraints = list(zip(pts, combo))
            res = crt_solve(lat, constraints)
            if res.status == "unsolvable":
                found = constraints
                break
        if found:
            break
    assert found is not None


def test_kaarli_examples():
    # identity fragment: the value 5 itself is valid, and whatever the solver
    # picks must respect every relation linking 5 to the domain
    ext = kaarli_extend(L12, {0: 0, 1: 1}, 5)
    mod4 = modular(4)
    assert mod4.same(ext[5], 1)  # 5 = 1 mod 4 forces the class of the value
    for rho in L12:
        assert preserves_partition(ext, rho)
    const = kaarli_extend(L12, {0: 7, 1: 7}, 5)
    assert const[5] == 7  # constant fragments extend to the constant
    with pytest.raises(PreservationViolated):
        kaarli_extend(L12, {0: 0, 2: 1}, 5)  # breaks the mod-2 relation
    # the instance where grouping preimages under one relation would fail
    ext2 = kaarli_extend(L12, {1: 1, 2: 1}, 7)
    assert ext2[7] % 6 == 1
    for rho in L12:
        assert preserves_partition(ext2, rho)


def test_kaarli_random_extensions_reverify():
    rng = random.Random(33)
    done = 0
    while done < 25:
        size = rng.randint(2, 4)
        dom = rng.sample(Z12, size)
        f = {b: rng.choice(Z12) for b in dom}
        if not all(preserves_partition(f, rho) for rho in L12):
            continue
        z = rng.choice([x for x in Z12 if x not in f])
        ext = kaarli_extend(L12, f, z)
        assert set(ext) == set(dom) | {z}
        for rho in L12:
            assert preserves_partition(ext, rho)
        done += 1


def preserves_by_pairs(f, rho):
    """Oracle: related arguments in the domain, pair by pair, have related
    images."""
    dom = [x for x in rho.carrier if x in f]
    return all(rho.same(f[x], f[y]) for x in dom for y in dom if rho.same(x, y))


def test_preservation_matches_pair_scan_on_random_partial_maps():
    rng = random.Random(34)
    carrier = tuple(range(7))
    verdicts = set()
    for _ in range(2000):
        rho = random_partition(rng, carrier)
        dom = rng.sample(carrier, rng.randint(0, 7))
        # a point outside the carrier is ignored, whatever its image
        f = {x: rng.choice(carrier) for x in dom + [rng.choice(["u", 9])]}
        got = preserves_partition(f, rho)
        assert got == preserves_by_pairs(f, rho)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_ultrametric_examples():
    sys1 = EquivSystem.of((0, 1), [[[0], [1]]])
    space, sep = ultrametric_from_system(sys1)
    assert sep
    assert space.d(0, 1) == frozenset({0}) and space.d(0, 0) == frozenset()
    sys6 = EquivSystem.of(Z6, [MOD2.to_json(), MOD3.to_json()])
    space6, sep6 = ultrametric_from_system(sys6)
    assert sep6
    assert space6.d(0, 3) == frozenset({0})
    assert space6.check_axioms() == []
    # without separation
    sysf = EquivSystem.of((0, 1), [[[0, 1]]])
    _, sep_f = ultrametric_from_system(sysf)
    assert not sep_f


def test_system_hom_iff_nonexpansive():
    rng = random.Random(34)
    for _ in range(50):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        ca, cb = tuple(range(n)), tuple(range(m))
        ra = EquivSystem(ca, tuple(random_partition(rng, ca) for _ in range(2)))
        rb = EquivSystem(cb, tuple(random_partition(rng, cb) for _ in range(2)))
        f = {x: rng.choice(cb) for x in ca}
        hom = all(rb.relations[i].same(f[x], f[y])
                  for i in range(2) for x in ca for y in ca
                  if ra.relations[i].same(x, y))
        sa, _ = ultrametric_from_system(ra)
        sb, _ = ultrametric_from_system(rb)
        nonexp = all(sb.monoid.leq(sb.d(f[x], f[y]), sa.d(x, y))
                     for x in ca for y in ca)
        assert hom == nonexp


def test_residuated_distance_examples():
    sets = [frozenset(s) for r in range(3)
            for s in itertools.combinations("ab", r)]
    leq = [(a, b) for a in sets for b in sets if a < b]
    d = residuated_distance(sets, leq)
    assert d[(frozenset("a"), frozenset("b"))] == frozenset("ab")
    for x in sets:
        assert d[(frozenset(), x)] == x
        assert d[(x, x)] == frozenset()
    m3 = ["0", "a", "b", "c", "1"]
    bad = [("0", x) for x in m3 if x != "0"] + \
        [(x, "1") for x in m3 if x != "1"]
    with pytest.raises(NotResiduated) as err:
        residuated_distance(m3, bad)
    assert err.value.pair


def looped_residuated_distance(elements, leq_pairs):
    """Oracle: the per-pair residual loop over the join monoid."""
    monoid = MonoidTable.from_join_semilattice(elements, leq_pairs)

    def resid(x, y):
        cands = [z for z in monoid.elements if monoid.leq(x, monoid.oplus(y, z))]
        r = least_of(cands, monoid.leq)
        if r is None:
            raise NotResiduated(x, y)
        return r

    return {(x, y): monoid.join(resid(x, y), resid(y, x))
            for x in monoid.elements for y in monoid.elements}


def lattice(elements, below):
    return list(elements), [(a, b) for a in elements for b in elements
                            if a != b and below(a, b)]


def bounded(middle, below=()):
    """0 < middle < 1, with the extra strict pairs among the middle ones."""
    els = ["0", *middle, "1"]
    return els, [("0", x) for x in els[1:]] + \
        [(x, "1") for x in middle] + list(below)


def test_residuated_distance_matches_residual_loop():
    subsets = [frozenset(s) for r in range(4)
               for s in itertools.combinations(range(3), r)]
    distributive = [
        lattice(subsets, lambda a, b: a < b),
        lattice(range(5), lambda a, b: a < b),
        lattice([d for d in range(1, 13) if 12 % d == 0],
                lambda a, b: b % a == 0),
        lattice([d for d in range(1, 31) if 30 % d == 0],
                lambda a, b: b % a == 0),
    ]
    for elements, leq in distributive:
        got = residuated_distance(elements, leq)
        want = looped_residuated_distance(elements, leq)
        assert list(got.items()) == list(want.items())
    m3 = bounded(["a", "b", "c"])
    n5 = bounded(["a", "b", "c"], [("a", "b")])
    for elements, leq in (m3, n5):
        with pytest.raises(NotResiduated) as want:
            looped_residuated_distance(elements, leq)
        with pytest.raises(NotResiduated) as got:
            residuated_distance(elements, leq)
        assert got.value.pair == want.value.pair


def test_commuting_composition_identity_on_z12():
    # in the convex space built from a commuting lattice the composition of
    # two relations is the relation of the join
    for r in L12:
        for s in L12:
            assert r.compose(s) == s.compose(r) == r.join(s).pairs()


def test_orthogonality_examples():
    fam = orthogonal_family_search(3)
    assert len(fam) == 3
    assert len(orthogonal_family_search(4)) == 3
    assert len(orthogonal_family_search(2)) == 1
    assert len(orthogonal_family_search(4, block_size=2)) == 3
    with pytest.raises(SizeGuard):
        orthogonal_family_search(9)
    E4 = tuple(range(4))
    a = Partition.from_blocks(E4, [[0, 1], [2, 3]])
    b = Partition.from_blocks(E4, [[0, 2], [1, 3]])
    c = Partition.from_blocks(E4, [[0, 1], [2], [3]])
    assert orthogonal(a, b)
    assert not orthogonal(a, c)


def test_orthogonal_family_members_pairwise():
    for n in (3, 4, 5, 6):
        fam = orthogonal_family_search(n)
        for p, q in itertools.combinations(fam, 2):
            assert orthogonal(p, q)


def definitional_orthogonal(rho, tau):
    return rho.meet(tau) == Partition.discrete(rho.carrier) and \
        rho.join(tau) == Partition.full(rho.carrier)


def test_orthogonal_matches_meet_join_definition():
    # every ordered pair of partitions of a 6-set, through the kernel on the
    # search's encoding and through orthogonal()
    parts = list(all_partitions(range(6)))
    bits = [partitions._bits(vec) for vec in partitions._growth_strings(6)]
    assert len(parts) == len(bits) == 203
    orthogonal_pairs = 0
    for rho, rho_bits in zip(parts, bits):
        row = partitions._orthogonal_row(6, rho_bits, bits)
        for j, tau in enumerate(parts):
            got = bool(row >> j & 1)
            assert got == definitional_orthogonal(rho, tau), (rho, tau)
            assert orthogonal(rho, tau) == got
            orthogonal_pairs += got
    assert orthogonal_pairs == 2 * 3600 + 2  # with equality/full both ways
    rng = random.Random(29)
    hits = 0
    for k in range(400):
        carrier = tuple(range(7 + k % 2))
        rho = random_partition(rng, carrier)
        tau = random_partition(rng, carrier)
        expected = definitional_orthogonal(rho, tau)
        assert orthogonal(rho, tau) == expected, (rho, tau)
        hits += expected
    assert hits > 0
    with pytest.raises(ValueError):
        orthogonal(MOD2, Partition.discrete((0, 1)))
    assert orthogonal(Partition((), ()), Partition((), ()))


def test_partition_rejects_blocks_that_miss_the_carrier():
    C3 = (0, 1, 2)
    message = "blocks must partition the carrier exactly"
    with pytest.raises(ValueError, match=message):  # element not in carrier
        Partition(C3, ((0, 1), (2, 7)))
    with pytest.raises(ValueError, match=message):  # repeated element
        Partition(C3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match=message):  # repeated within a block
        Partition(C3, ((0, 0), (1, 2)))
    with pytest.raises(ValueError, match=message):  # missing element
        Partition(C3, ((0, 1),))
    with pytest.raises(ValueError, match=message):  # substituted element
        Partition(C3, ((0, 1), (5,)))
    with pytest.raises(ValueError, match=message):  # empty block
        Partition(C3, ((0, 1, 2), ()))
    with pytest.raises(ValueError, match="repeated"):
        EquivSystem((0, 0, 1), ())
    assert Partition(C3, ((0, 2), (1,))).same(0, 2)


def test_partition_json():
    assert MOD3.to_json() == [[0, 3], [1, 4], [2, 5]]
    sys6 = EquivSystem.of(Z6, [MOD2, MOD3])
    assert sys6.to_json()["relations"][0] == MOD2.to_json()


# --- the enumeration, orthogonality test and dict-adjacency search that the
# block-index kernel replaced, kept as its oracles ---

def union_find_orthogonal(rho: Partition, tau: Partition) -> bool:
    rho._check(tau)
    edges = {(rho._index[x], tau._index[x]) for x in rho.carrier}
    if len(edges) != len(rho.carrier):
        return False
    offset = len(rho.blocks)
    parent = list(range(offset + len(tau.blocks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = len(parent)
    for i, j in edges:
        a, b = find(i), find(offset + j)
        if a != b:
            parent[a] = b
            components -= 1
    return components <= 1


def recursive_partitions(carrier):
    carrier = tuple(carrier)
    if carrier:
        yield from _partitions_from(carrier, 0, [])


def _partitions_from(carrier: tuple, i: int, blocks: list):
    if i == len(carrier):
        yield Partition.from_blocks(carrier, [list(b) for b in blocks])
        return
    for b in blocks:
        b.append(carrier[i])
        yield from _partitions_from(carrier, i + 1, blocks)
        b.pop()
    blocks.append([carrier[i]])
    yield from _partitions_from(carrier, i + 1, blocks)
    blocks.pop()


def dict_orthogonal_family_search(n, block_size=None, guard=8):
    if n > guard:
        raise SizeGuard(f"{n} exceeds the search guard {guard}")
    carrier = tuple(range(n))
    cands = []
    for p in recursive_partitions(carrier):
        if len(p.blocks) == n:
            continue  # the equality partition
        if block_size is not None and any(len(b) != block_size for b in p.blocks):
            continue
        cands.append(p)
    adj = {(i, j): union_find_orthogonal(cands[i], cands[j])
           for i in range(len(cands)) for j in range(i + 1, len(cands))}
    best = []
    _dict_extend_clique(adj, [], list(range(len(cands))), best)
    return [cands[i] for i in best]


def _dict_extend_clique(adj, chosen, rest, best):
    if len(chosen) > len(best):
        best[:] = chosen
    for k, i in enumerate(rest):
        if len(chosen) + len(rest) - k <= len(best):
            break  # cannot beat the incumbent
        filtered = [j for j in rest[k + 1:] if adj[(i, j)]]
        _dict_extend_clique(adj, chosen + [i], filtered, best)


def test_all_partitions_keeps_the_recursive_order():
    for carrier in [range(n) for n in range(8)] + ["abc", (3, 1, 2, 0)]:
        assert list(all_partitions(carrier)) == \
            list(recursive_partitions(carrier))


def test_family_search_matches_dict_adjacency_search():
    for n in range(1, 7):
        for block_size in (None, 1, 2, 3):
            got = orthogonal_family_search(n, block_size)
            want = dict_orthogonal_family_search(n, block_size)
            assert json.dumps([p.to_json() for p in got]) == \
                json.dumps([p.to_json() for p in want]), (n, block_size)


def test_orthogonal_family_search_rejects_senseless_sizes(capsys):
    for argv in (["--", "-1"], ["0"], ["4", "--block-size", "0"],
                 ["4", "--block-size", "-2"]):
        assert dispatch(["--json", "eqv", "orthogonal", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err
    for n, block_size in ((0, None), (-1, None), (4, 0)):
        with pytest.raises(ValueError):
            orthogonal_family_search(n, block_size)


def partitions_of(carrier):
    return st.lists(st.integers(0, len(carrier) - 1), min_size=len(carrier),
                    max_size=len(carrier)).map(
        lambda labels: Partition.from_blocks(carrier, [
            [x for x, l in zip(carrier, labels) if l == b]
            for b in set(labels)]))


triples = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[partitions_of(tuple(range(n)))] * 3))


@given(triples)
def test_meet_and_join_form_a_lattice(abc):
    a, b, c = abc
    for op in (Partition.meet, Partition.join):
        assert op(a, b) == op(b, a)
        assert op(op(a, b), c) == op(a, op(b, c))
    assert a.meet(a.join(b)) == a == a.join(a.meet(b))
    assert a.meet(b).leq(a) and a.leq(a.join(b))


@given(triples)
def test_orthogonal_is_symmetric_and_definitional(abc):
    a, b, _ = abc
    assert orthogonal(a, b) == orthogonal(b, a) == definitional_orthogonal(a, b)
