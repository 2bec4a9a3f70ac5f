"""Partitions of finite sets: lattice operations, commutation, arithmetical
sublattices, Chinese-remainder solving, congruence-preserving map extension,
ultrametric translation, and orthogonal-family search."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ._orders import MissingJoin, NotResiduated, PreservationViolated, least_of
from .spaces import FiniteGms, MonoidTable, SizeGuard, canonical_distance_space


@dataclass(frozen=True)
class Partition:
    """Equivalence relation stored as blocks sorted by least element."""

    carrier: tuple
    blocks: tuple[tuple, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        index = {x: i for i, b in enumerate(self.blocks) for x in b}
        if not (len(index) == len(self.carrier) == sum(map(len, self.blocks))
                and index.keys() == set(self.carrier) and all(self.blocks)):
            raise ValueError("blocks must partition the carrier exactly")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_blocks(cls, carrier: Sequence, blocks: Iterable[Iterable]) -> Partition:
        carrier = tuple(carrier)
        pos = {x: i for i, x in enumerate(carrier)}
        covered = {x for b in blocks for x in b}
        norm = [tuple(sorted(set(b), key=pos.get)) for b in blocks if b]
        norm += [(x,) for x in carrier if x not in covered]
        norm.sort(key=lambda b: pos[b[0]])
        return cls(carrier, tuple(norm))

    @classmethod
    def from_pairs(cls, carrier: Sequence, pairs: Iterable[tuple]) -> Partition:
        parent = {x: x for x in carrier}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            parent[find(a)] = find(b)
        groups: dict = {}
        for x in carrier:
            groups.setdefault(find(x), []).append(x)
        return cls.from_blocks(carrier, groups.values())

    @classmethod
    def discrete(cls, carrier: Sequence) -> Partition:
        return cls.from_blocks(carrier, [[x] for x in carrier])

    @classmethod
    def full(cls, carrier: Sequence) -> Partition:
        return cls.from_blocks(carrier, [list(carrier)])

    @classmethod
    def pair(cls, carrier: Sequence, x, y) -> Partition:
        """The equivalence whose only non-singleton block is {x, y}."""
        return cls.from_blocks(carrier, [[x, y]])

    def same(self, x, y) -> bool:
        return self._index[x] == self._index[y]

    def block_id(self, x) -> int:
        return self._index[x]

    def block_of(self, x) -> tuple:
        return self.blocks[self._index[x]]

    def _block_vector(self) -> tuple:
        return tuple(map(self._index.__getitem__, self.carrier))

    def leq(self, other: Partition) -> bool:
        """Refinement order: every block of self sits inside a block of other."""
        self._check(other)
        return all(other.same(b[0], x) for b in self.blocks for x in b[1:])

    def meet(self, other: Partition) -> Partition:
        self._check(other)
        keyed: dict = {}
        for x in self.carrier:
            keyed.setdefault((self._index[x], other._index[x]), []).append(x)
        return Partition.from_blocks(self.carrier, keyed.values())

    def join(self, other: Partition) -> Partition:
        self._check(other)
        pairs = [(b[0], x) for p in (self, other) for b in p.blocks for x in b[1:]]
        return Partition.from_pairs(self.carrier, pairs)

    def compose(self, other: Partition) -> frozenset[tuple]:
        """Relational composition self o other: pairs (x, y) with
        (x, z) in other and (z, y) in self for some z."""
        self._check(other)
        out = set()
        for bo in other.blocks:
            linked = {y for z in bo for y in self.block_of(z)}
            out.update((x, y) for x in bo for y in linked)
        return frozenset(out)

    def commutes(self, other: Partition) -> bool:
        return self.compose(other) == other.compose(self)

    def pairs(self) -> frozenset[tuple]:
        return frozenset((x, y) for b in self.blocks for x in b for y in b)

    def _check(self, other: Partition):
        if self.carrier != other.carrier:
            raise ValueError("partitions over different carriers")

    def to_json(self) -> list[list]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return "|".join("".join(map(str, b)) for b in self.blocks)


@dataclass(frozen=True)
class EquivSystem:
    carrier: tuple
    relations: tuple[Partition, ...]

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier has repeated elements")
        for r in self.relations:
            if r.carrier != self.carrier:
                raise ValueError("system relations must share the carrier")

    @classmethod
    def of(cls, carrier: Sequence, relations: Iterable) -> EquivSystem:
        carrier = tuple(carrier)
        rels = [r if isinstance(r, Partition) else Partition.from_blocks(carrier, r)
                for r in relations]
        return cls(carrier, tuple(rels))

    def to_json(self) -> dict:
        return {"carrier": list(self.carrier),
                "relations": [r.to_json() for r in self.relations]}


def preserves_partition(f: Mapping, rho: Partition) -> bool:
    """A (possibly partial) map preserves rho when related arguments in its
    domain have related images: the block of x fixes the block of f(x).
    Domain points outside the carrier are ignored."""
    index, image = rho._index, {}
    return all(image.setdefault(index[x], index[y]) == index[y]
               for x, y in f.items() if x in index)


def sublattice_closure(parts: Iterable[Partition], guard: int = 512
                       ) -> frozenset[Partition]:
    """Least meet/join-closed superset of the given partitions; SizeGuard
    before the next meet and join once it holds more than `guard`."""
    closed = set(parts)
    frontier = set(closed)
    while frontier:
        new = set()
        for a in frontier:
            for b in closed:
                if len(closed) + len(new) > guard:
                    raise SizeGuard(f"closure exceeded {guard} partitions")
                new.update(c for c in (a.meet(b), a.join(b)) if c not in closed)
        closed |= new
        frontier = new
    return frozenset(closed)


def _lattice_tables(parts: Iterable[Partition]) -> Optional[tuple]:
    """Meet and join tables over the distinct partitions, by position in
    order of first appearance; None when a meet or join falls outside."""
    ps = list(dict.fromkeys(parts))
    pos = {p: i for i, p in enumerate(ps)}
    meet, join = ([[None] * len(ps) for _ in ps] for _ in range(2))
    for i, a in enumerate(ps):
        for j in range(i, len(ps)):
            meet[i][j] = meet[j][i] = pos.get(a.meet(ps[j]))
            join[i][j] = join[j][i] = pos.get(a.join(ps[j]))
            if meet[i][j] is None or join[i][j] is None:
                return None
    return meet, join


def is_sublattice(parts: Iterable[Partition]) -> bool:
    return _lattice_tables(parts) is not None


def is_distributive(parts: Iterable[Partition]) -> bool:
    """a ^ (b v c) = (a ^ b) v (a ^ c) for all members, by table lookups."""
    tables = _lattice_tables(parts)
    if tables is None:
        raise ValueError("not a meet/join-closed set of partitions")
    meet, join = tables
    k = range(len(meet))
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in k for b in k for c in k)


def is_arithmetical(parts: Iterable[Partition]) -> bool:
    """Distributive with pairwise commuting members."""
    ps = list(parts)
    return is_distributive(ps) and \
        all(ps[i].commutes(ps[j]) for i in range(len(ps))
            for j in range(i + 1, len(ps)))


@dataclass(frozen=True)
class CrtResult:
    status: str  # "ok" | "incompatible" | "unsolvable"
    solution: object = None
    witness_pair: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.status == "ok"


def crt_solve(lattice: Iterable[Partition],
              constraints: Sequence[tuple]) -> CrtResult:
    """Solve x = a_i (theta_i) by direct carrier search.

    Reports the first failing pairwise condition a_i = a_j (theta_i v theta_j)
    as ``incompatible``; ``unsolvable`` only happens over non-arithmetical
    lattices."""
    lattice = list(lattice)
    if not constraints:
        raise ValueError("need at least one constraint")
    for _, theta in constraints:
        if theta not in lattice:
            raise ValueError("constraint relation not in the lattice")
    carrier = constraints[0][1].carrier
    for i in range(len(constraints)):
        for j in range(i + 1, len(constraints)):
            ai, ti = constraints[i]
            aj, tj = constraints[j]
            if not ti.join(tj).same(ai, aj):
                return CrtResult("incompatible", witness_pair=(i, j))
    # scan the constraint values first: a system whose values coincide then
    # canonically solves to that value
    scan = list(dict.fromkeys([a for a, _ in constraints])) + list(carrier)
    for x in scan:
        if all(theta.same(x, a) for a, theta in constraints):
            return CrtResult("ok", solution=x)
    return CrtResult("unsolvable")


def kaarli_extend(lattice: Iterable[Partition], f: Mapping, z) -> dict:
    """Extend a lattice-preserving partial map to one more point.

    For each value b' the modulus is the meet, over the preimages b of b',
    of the least lattice member relating z to b; the system x = b'
    (theta_b') is then solved.  (Grouping the preimages under a single least
    relation linking z to all of them at once is too coarse: it can drop the
    binding constraint of a single preimage and break preservation.)
    Arithmeticity makes the system solvable and the result preserving.
    """
    lattice = list(lattice)
    if not lattice:
        raise ValueError("empty lattice")
    if z in f:
        raise ValueError("z must be outside the domain")
    if not all(preserves_partition(f, rho) for rho in lattice):
        raise PreservationViolated("partial map does not preserve the lattice")
    closed = set(lattice)
    if not all(a.meet(b) in closed for a in closed for b in closed):
        # the least-modulus step needs meet-closure
        closed = set(sublattice_closure(lattice))

    def least_linking(b):
        # a point no member relates to z imposes no constraint at all
        cands = [t for t in closed if t.same(b, z)]
        if not cands:
            return None
        theta = least_of(cands, Partition.leq)
        if theta is None:
            raise MissingJoin(f"no least relation linking {z!r} to {b!r}")
        return theta

    by_value: dict = {}
    for b, b2 in f.items():
        by_value.setdefault(b2, []).append(b)
    constraints = []
    for b2, preimages in by_value.items():
        thetas = [t for t in map(least_linking, preimages) if t is not None]
        if not thetas:
            continue
        theta = thetas[0]
        for t in thetas[1:]:
            theta = theta.meet(t)
        constraints.append((b2, theta))
    if constraints:
        res = crt_solve(list(closed), constraints)
        if not res:
            raise AssertionError(
                "extension system unsolvable: lattice not arithmetical?")
        value = res.solution
    else:
        value = lattice[0].carrier[0]
    g = dict(f)
    g[z] = value
    if not all(preserves_partition(g, rho) for rho in lattice):
        raise AssertionError("extension fails preservation: engine bug")
    return g


def ultrametric_from_system(system: EquivSystem) -> tuple[FiniteGms, bool]:
    """View a relation system as a space over the powerset of the index set:
    d(x, y) collects the indices of the relations separating x and y.

    Returns the space and whether the separation axiom holds (the relations
    intersect to equality)."""
    idx = tuple(range(len(system.relations)))
    monoid = MonoidTable.boolean(idx)
    dist = {}
    for x in system.carrier:
        for y in system.carrier:
            dist[(x, y)] = frozenset(i for i in idx
                                     if not system.relations[i].same(x, y))
    space = FiniteGms(system.carrier, monoid, dist)
    separated = all(dist[(x, y)] or x == y
                    for x in system.carrier for y in system.carrier)
    return space, separated


def residuated_distance(elements: Sequence, leq_pairs: Iterable[tuple]) -> dict:
    """Distance table d(x,y) = (x\\y) v (y\\x) on a finite lattice: the
    canonical distance of the lattice read as a monoid under join.

    Raises NotResiduated with the witness pair exactly when some residual is
    missing, which for a finite lattice means it is not distributive."""
    return canonical_distance_space(
        MonoidTable.from_join_semilattice(elements, leq_pairs)).dist


def orthogonal(rho: Partition, tau: Partition) -> bool:
    """Strong orthogonality: meet is equality and join is the full relation.

    Decided by ``_orthogonal_row`` on the block-index vectors, the same
    kernel the family search runs."""
    rho._check(tau)
    return _orthogonal_row(len(rho.carrier), _bits(rho._block_vector()),
                           [_bits(tau._block_vector())]) == 1


def _bits(vec: tuple) -> tuple[int, tuple]:
    """For a block-index vector over n points: the bitmask of the point pairs
    x < y that share a block (bit x*n + y), and each block's point bitmask."""
    n = len(vec)
    masks = [0] * (max(vec, default=-1) + 1)
    for x, i in enumerate(vec):
        masks[i] |= 1 << x
    pairs = 0
    for x, i in enumerate(vec):
        pairs |= masks[i] >> (x + 1) << (x * n + x + 1)
    return pairs, tuple(masks)


def _orthogonal_row(n: int, a: tuple, others: Sequence[tuple]) -> int:
    """Bitset of the positions in ``others`` holding partitions strongly
    orthogonal to ``a``, all partitions of n points given by ``_bits``.

    The meet is equality when no pair of points shares a block of both; the
    join is full when the graph linking each point's a-block to its b-block
    is connected, which on k + l vertices and n edges needs k + l <= n + 1,
    and is found by growing the points reachable from point 0."""
    pa, ma = a
    full = (1 << n) - 1
    row = 0
    for j, (pb, mb) in enumerate(others):
        if pa & pb or len(ma) + len(mb) > n + 1:
            continue
        reach, grown = 0, full & 1
        while grown != reach:
            reach = grown
            for m in mb + ma:
                if m & grown:
                    grown |= m
        if reach == full:
            row |= 1 << j
    return row


def all_partitions(carrier: Sequence):
    """Every partition of the carrier, in the lexicographic order of the
    block-index vectors (restricted-growth strings)."""
    carrier = tuple(carrier)
    if carrier:
        for vec in _growth_strings(len(carrier)):
            yield _from_masks(carrier, _bits(vec)[1])


def _growth_strings(n: int, prefix: tuple = (), top: int = -1):
    """Restricted-growth strings of length n extending the prefix (each
    entry at most one more than the largest before it), lexicographically."""
    if len(prefix) == n:
        yield prefix
        return
    for i in range(top + 2):
        yield from _growth_strings(n, prefix + (i,), max(top, i))


def orthogonal_family_search(n: int, block_size: Optional[int] = None,
                             guard: int = 8) -> list[Partition]:
    """Maximum family of pairwise strongly-orthogonal partitions of an n-set.

    Candidates exclude the equality partition (it is orthogonal only to the
    full relation); with ``block_size`` given, only partitions with uniform
    blocks of that size are considered.  Candidates run in ``all_partitions``
    order and the clique search keeps the first largest family it meets, so
    the reported family is the lexicographically least list of candidate
    positions among the largest ones."""
    if n < 1 or (block_size is not None and block_size < 1):
        raise ValueError("n and the block size must be positive")
    if n > guard:
        raise SizeGuard(f"{n} exceeds the search guard {guard}")
    cands = []
    for vec in _growth_strings(n):
        pairs, masks = _bits(vec)
        if len(masks) == n:
            continue  # the equality partition
        if block_size is not None and \
                any(m.bit_count() != block_size for m in masks):
            continue
        cands.append((pairs, masks))
    nbrs = [_orthogonal_row(n, a, cands[i + 1:]) << i + 1
            for i, a in enumerate(cands)]
    best: list[int] = []
    _extend_clique(nbrs, [], (1 << len(cands)) - 1, best)
    return [_from_masks(tuple(range(n)), cands[i][1]) for i in best]


def _from_masks(carrier: tuple, masks: tuple) -> Partition:
    return Partition(carrier, tuple(tuple(x for k, x in enumerate(carrier)
                                          if m >> k & 1) for m in masks))


def _extend_clique(nbrs: list[int], chosen: list[int], rest: int,
                   best: list[int]) -> None:
    """Branch and bound for a largest clique over neighbour bitsets, trying
    the candidates in ``rest`` in increasing index order; ``best`` is
    updated in place."""
    if len(chosen) > len(best):
        best[:] = chosen
    while rest:
        if len(chosen) + rest.bit_count() <= len(best):
            break  # cannot beat the incumbent
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        _extend_clique(nbrs, chosen + [i], rest & nbrs[i], best)
