"""Reflexive digraphs as generalized metric spaces under the zigzag distance.

The distance from x to y is the upward-closed set of +/- words coding the
zigzags that map homomorphically into the graph from x to y.  The row d(x, .)
is the least solution of the triangle inequality over the one-step
distances, computed by relaxation in the quantale of final segments; a
single pair and the full matrix both read off such rows.  A row is relaxed
on tuples of generator codes (see ``words``): a step is ``oplus`` by {+} or
{-}, which appends one letter to every generator and keeps the antichain
sorted and incomparable, so only the meet compares words.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ._orders import axiom_violations
from .segments import FinalSegment, in_macneille, meet_antichains
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
        added = not loops <= es
        return cls(vs, frozenset(es | loops), added)

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


def _distances_from(g: ReflexiveDigraph, x: str) -> list[FinalSegment]:
    """The row d(x, .): start from r(x) = 0 and the empty set elsewhere, and
    relax r(j) <- r(j) meet (r(k) (+) step(k, j)) over the non-loop edges,
    where a forward edge steps by {+} and a backward edge by {-}, until no
    entry changes.

    Entries only grow as word sets, and ascending chains of upsets are
    finite (Higman), so the relaxation stops; its fixed point does not depend
    on the order of the updates, and antichains are canonical.
    """
    ix = g._index(x)
    pos = {v: i for i, v in enumerate(g.vertices)}
    forward: list[list[int]] = [[] for _ in g.vertices]
    backward: list[list[int]] = [[] for _ in g.vertices]
    for a, b in sorted(g.edges):  # a fixed order: the same work on every run
        if a != b:
            forward[pos[a]].append(pos[b])
            backward[pos[b]].append(pos[a])
    plus, minus = PLUS_MINUS.encode("+"), PLUS_MINUS.encode("-")
    r: list[tuple[str, ...]] = [()] * len(g.vertices)
    r[ix] = ("",)
    queue = deque([ix])
    queued = {ix}
    while queue:
        k = queue.popleft()
        queued.discard(k)
        for step, targets in ((plus, forward[k]), (minus, backward[k])):
            if not targets:
                continue
            reach = tuple([w + step for w in r[k]])
            for j in targets:
                new = meet_antichains(r[j], reach)
                if new is r[j]:
                    continue
                r[j] = new
                if j not in queued:
                    queued.add(j)
                    queue.append(j)
    return [FinalSegment._canonical(PLUS_MINUS, row) for row in r]


def zigzag_distance(g: ReflexiveDigraph, x: str, y: str) -> FinalSegment:
    row = _distances_from(g, x)
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
        zero = FinalSegment.zero(PLUS_MINUS)
        return axiom_violations(self.vertices, self.entries, zero,
                                FinalSegment.involute, FinalSegment.leq,
                                FinalSegment.oplus)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "matrix": [[e.to_json() for e in row] for row in self.entries]}


def distance_matrix(g: ReflexiveDigraph) -> DistanceMatrix:
    """All zigzag distances, one relaxed row per vertex."""
    rows = tuple(tuple(_distances_from(g, x)) for x in g.vertices)
    # involution symmetry is checked on the computed entries, not derived
    n = len(g.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[j][i].involute() != rows[i][j]:
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


def _is_poset(g: ReflexiveDigraph) -> bool:
    e = g.edges
    for a, b in e:
        if a != b and (b, a) in e:
            return False
    return all((a, d) in e for a, b in e for c, d in e if b == c)


def fence_distance(g: ReflexiveDigraph, x: str, y: str
                   ) -> tuple[Optional[int], Optional[int]]:
    """Shortest alternating zigzag lengths between two poset elements.

    Returns (n, m): n is the length of the shortest word shaped +-+-... in
    d(x,y) and m the shortest shaped -+-+...; None encodes that no such word
    exists.  Lengths count letters (steps), so the 2-chain gives (1, 2).
    """
    if not _is_poset(g):
        raise ValueError("fence distance needs a reflexive poset digraph")
    g._index(x)
    g._index(y)
    if x == y:
        return 0, 0
    step: dict[str, dict[str, list[str]]] = {
        a: {v: [] for v in g.vertices} for a in "+-"}
    for a, b in g.edges:
        step["+"][a].append(b)
        step["-"][b].append(a)
    flip = {"+": "-", "-": "+"}

    def shortest(first: str) -> Optional[int]:
        # BFS over (vertex, next letter): the word read so far alternates
        seen = {(x, first)}
        frontier = [(x, first)]
        length = 0
        while frontier:
            length += 1
            nxt = []
            for v, letter in frontier:
                for w in step[letter][v]:
                    if w == y:
                        return length
                    state = (w, flip[letter])
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
            frontier = nxt
        return None

    return shortest("+"), shortest("-")


def oriented_embeddable(g: ReflexiveDigraph) -> tuple[bool, Optional[tuple]]:
    """True iff every zigzag distance value lies in the MacNeille completion,
    i.e. the graph embeds isometrically into a product of oriented zigzags."""
    m = distance_matrix(g)
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            if i == j:
                continue
            ok, witness = in_macneille(m.entries[i][j])
            if not ok:
                return False, (x, y, witness)
    return True, None
