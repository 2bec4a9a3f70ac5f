"""Reflexive digraphs as generalized metric spaces under the zigzag distance.

The distance from x to y is the upward-closed set of +/- words coding the
zigzags that map homomorphically into the graph from x to y; a + letter
follows an edge, a - letter follows one backwards.  A row d(x, .) is read
off reach sets, kept as vertex bitmasks: R(w) is the set of vertices that
w reaches from x, and U(w) the union of R over the one-letter deletions of
w.  Since R grows along the subword order, w is a minimal word of d(x, j)
exactly when j lies in R(w) but not in U(w).  ``_distances_from`` extends
both sets letter by letter, takes words by length and in lex order, and so
fills each row in canonical order, without a subword test or a sort.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional

from ._orders import axiom_violations
from .segments import SEGMENTS, FinalSegment, in_macneille
from .words import PLUS_MINUS, Word, covers


@dataclass(frozen=True)
class ReflexiveDigraph:
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    loops_added: bool = field(default=False, compare=False)

    @classmethod
    def of(cls, vertices, edges) -> ReflexiveDigraph:
        """Build a digraph, silently adding the loop at every vertex.

        ``loops_added`` records whether any loop was missing from the input.
        """
        vs = tuple(str(v) for v in vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices")
        es = {(str(a), str(b)) for a, b in edges}
        for a, b in es:
            if a not in vs or b not in vs:
                raise ValueError(f"edge {(a, b)} uses unknown vertex")
        loops = {(v, v) for v in vs}
        return cls(vs, frozenset(es | loops), not loops <= es)

    @classmethod
    def from_json(cls, payload: Mapping) -> ReflexiveDigraph:
        return cls.of(payload["vertices"], payload["edges"])

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": sorted([a, b] for a, b in self.edges if a != b)}

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges

    def _index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"unknown vertex {v!r}") from None


class _Step(dict):
    """S_c for one letter c: S_c(A) is the vertex set A, as a bitmask, plus
    every vertex one c-step from A (+ along an edge, - against one).  The
    masks of single vertices are ``near``.  S_c(A) is ``step[A]``, memoised
    per mask, so the rows of one graph share the work."""

    def __init__(self, code: str, near: list[int]):
        super().__init__({0: 0})
        self.code, self.near = code, near

    def __missing__(self, mask: int) -> int:
        out, rest, near = 0, mask, self.near
        while rest:
            low = rest & -rest
            out |= near[low.bit_length() - 1]
            rest ^= low
        self[mask] = out
        return out


def _steps(g: ReflexiveDigraph) -> tuple[_Step, _Step]:
    """The steps of the letters + and -, in this order (that of their codes;
    see ``_Step``): rows, fences and the poset test read edges only here."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    plus = [1 << i for i in range(len(pos))]
    minus = plus[:]
    for a, b in g.edges:  # a union of bits does not depend on the edge order
        plus[pos[a]] |= 1 << pos[b]
        minus[pos[b]] |= 1 << pos[a]
    return _Step(PLUS_MINUS.encode("+"), plus), _Step(PLUS_MINUS.encode("-"), minus)


def _distances_from(steps: tuple[_Step, _Step], ix: int) -> list[FinalSegment]:
    """The row d(x, .) for x at index ix (see ``_steps``).

    A word w is a pair of masks: R(w), the vertices that w reaches from x,
    and U(w), the union of R over the one-letter deletions of w, with
    R("") = {x} and U("") empty.  Appending a letter c gives
    R(wc) = S_c(R(w)) and U(wc) = R(w) | S_c(U(w)): deleting the c leaves w,
    deleting a letter of w leaves vc for a one-letter deletion v of w, and
    S_c distributes over unions.  A loop absorbs an inserted letter, so R
    grows along the subword order; hence a proper subword of w reaches j
    iff a one-letter deletion does, and w is a minimal word of d(x, j)
    exactly when j lies in N(w) = R(w) - U(w).

    Only words with N(w) non-empty are extended, and that loses nothing: if
    wc is minimal at j, then j is not in R(w), which lies in U(wc), so j is
    one c-step from some k in R(w); and k is not in U(w), since
    S_c(U(w)) lies in U(wc) too.  So k is in N(w), and by induction every
    prefix of a minimal word is extended.  Each extended word is minimal in
    some entry of the row, and the minimal antichains are finite (Higman),
    so the search ends.

    Words are taken by length, each layer in lex order with + before -, so
    every row is filled in length-then-lex order and is canonical as it
    stands: no subword test and no sort.
    """
    rows: list[list[str]] = [[] for _ in steps[0].near]
    rows[ix].append("")
    layer = [("", 1 << ix, 0)]
    while layer:
        longer = []
        for w, reach, under in layer:
            for step in steps:
                r, u = step[reach], reach | step[under]
                fresh = r & ~u
                if fresh:
                    v = w + step.code
                    longer.append((v, r, u))
                    while fresh:
                        low = fresh & -fresh
                        rows[low.bit_length() - 1].append(v)
                        fresh ^= low
        layer = longer
    return [FinalSegment._canonical(PLUS_MINUS, tuple(row)) for row in rows]


def zigzag_distance(g: ReflexiveDigraph, x: str, y: str) -> FinalSegment:
    row = _distances_from(_steps(g), g._index(x))
    return row[g._index(y)]


@dataclass(frozen=True)
class DistanceMatrix:
    vertices: tuple[str, ...]
    entries: tuple[tuple[FinalSegment, ...], ...]

    def entry(self, x: str, y: str) -> FinalSegment:
        return self.entries[self.vertices.index(x)][self.vertices.index(y)]

    def check_axioms(self) -> list[tuple]:
        """Violations of separation, the triangle inequality and involution
        symmetry, each with a witness tuple (see ``axiom_violations``)."""
        return axiom_violations(self.vertices, self.entries, SEGMENTS,
                                FinalSegment.zero(PLUS_MINUS))

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "matrix": [[e.to_json() for e in row] for row in self.entries]}


def distance_matrix(g: ReflexiveDigraph) -> DistanceMatrix:
    """All zigzag distances, one row per vertex from shared step maps."""
    steps = _steps(g)
    rows = tuple(tuple(_distances_from(steps, ix))
                 for ix in range(len(g.vertices)))
    # involution symmetry is checked on the computed entries, as sets of codes
    inv = PLUS_MINUS.involute
    if any(set(map(inv, rows[j][i].generators)) != set(rows[i][j].generators)
           for i, j in combinations(range(len(rows)), 2)):
        raise AssertionError("asymmetric distance entries: engine bug")
    return DistanceMatrix(g.vertices, rows)


def is_graph_hom(g: ReflexiveDigraph, h: ReflexiveDigraph,
                 f: Mapping[str, str]) -> bool:
    if set(f) != set(g.vertices):
        raise ValueError("map must be total on the source vertices")
    return all(h.has_edge(f[a], f[b]) for a, b in g.edges)


def is_nonexpansive(dm_g: DistanceMatrix, dm_h: DistanceMatrix,
                    f: Mapping[str, str]) -> bool:
    return all(dm_h.entry(f[x], f[y]).leq(dm_g.entry(x, y))
               for x in dm_g.vertices for y in dm_g.vertices)


def satisfies_graph_condition(m: DistanceMatrix) -> tuple[bool, Optional[tuple]]:
    """Check the midpoint condition characterizing zigzag distances of graphs:
    every 2-split u.v of a word of d(x,y) admits z with u in d(x,z) and
    v in d(z,y).

    Splits of minimal words suffice: if w' = u'v' lies in d(x,y), pick a
    minimal w <= w' and cut w at the embedding's image of the split point;
    this yields u <= u', v <= v' with uv = w, and any midpoint for (u,v)
    works for (u',v') because the entries are upward-closed.
    """
    bad = m.check_axioms()
    if bad:
        raise ValueError(f"distance matrix violates the axioms: {bad[0]}")
    vs = m.vertices
    gens = [[e.generators for e in row] for row in m.entries]
    for i, x in enumerate(vs):
        for j, y in enumerate(vs):
            for word in gens[i][j]:
                for cut in range(len(word) + 1):
                    u, v = word[:cut], word[cut:]
                    if not any(covers(gens[i][k], u) and covers(gens[k][j], v)
                               for k in range(len(vs))):
                        return False, (x, y, Word.from_code(PLUS_MINUS, u),
                                       Word.from_code(PLUS_MINUS, v))
    return True, None


def graph_from_matrix(m: DistanceMatrix) -> ReflexiveDigraph:
    """Recover the graph of a matrix satisfying the midpoint condition:
    x -> y is an edge iff the one-letter + word lies in d(x,y)."""
    plus = Word.parse("+", PLUS_MINUS)
    edges = {(x, y) for i, x in enumerate(m.vertices)
             for j, y in enumerate(m.vertices) if m.entries[i][j].contains(plus)}
    return ReflexiveDigraph.of(m.vertices, edges)


def _is_poset(plus: _Step, minus: _Step) -> bool:
    """Antisymmetric: i is the only vertex both above and below i.
    Transitive: one more + step from the up-set of i stays inside it."""
    return all(up & down == 1 << i and plus[up] == up
               for i, (up, down) in enumerate(zip(plus.near, minus.near)))


def fence_distance(g: ReflexiveDigraph, x: str, y: str
                   ) -> tuple[Optional[int], Optional[int]]:
    """Shortest alternating zigzag lengths between two poset elements.

    Returns (n, m): n is the length of the shortest word shaped +-+-... in
    d(x,y) and m the shortest shaped -+-+...; None encodes that no such word
    exists.  Lengths count letters (steps), so the 2-chain gives (1, 2).

    The reach mask of an alternating word applies the two step maps in turn
    to {x}.  Loops make it grow, so once two letters in a row add no vertex
    it is fixed, and a y outside it is never reached.
    """
    plus, minus = _steps(g)
    if not _is_poset(plus, minus):
        raise ValueError("fence distance needs a reflexive poset digraph")
    ix, iy = g._index(x), g._index(y)
    if ix == iy:
        return 0, 0

    def shortest(step: _Step, other: _Step) -> Optional[int]:
        reach, length, idle = 1 << ix, 0, 0
        while idle < 2:
            grown = step[reach]
            length += 1
            if grown >> iy & 1:
                return length
            idle = idle + 1 if grown == reach else 0
            reach, step, other = grown, other, step
        return None

    return shortest(plus, minus), shortest(minus, plus)


def oriented_embeddable(g: ReflexiveDigraph) -> tuple[bool, Optional[tuple]]:
    """True iff every zigzag distance value lies in the MacNeille completion,
    i.e. the graph embeds isometrically into a product of oriented zigzags.

    Only the entries above the diagonal are checked: d(y, x) is the
    involute of d(x, y), and membership is invariant under the involution
    (see ``in_macneille``), so a failing pair below the diagonal has a
    failing mirror earlier in row order, and the first failing pair and its
    witness are the same as over all pairs.
    """
    m = distance_matrix(g)
    for i, x in enumerate(g.vertices):
        for j in range(i + 1, len(g.vertices)):
            ok, witness = in_macneille(m.entries[i][j])
            if not ok:
                return False, (x, g.vertices[j], witness)
    return True, None
