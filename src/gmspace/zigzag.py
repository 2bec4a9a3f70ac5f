"""Reflexive digraphs as generalized metric spaces under the zigzag distance.

The distance from x to y is the upward-closed set of +/- words coding the
zigzags that map homomorphically into the graph from x to y.  The row d(x, .)
is the least solution of the triangle inequality over the one-step
distances, computed by relaxation in the quantale of final segments; a
single pair and the full matrix both read off such rows.  A row is relaxed
on generator codes (see ``words``) in order of word length: each layer
extends by one letter only the words the previous layer added, and a word
once inserted is never removed, because a minimal word of d(x, j) minus its
last letter is minimal at the predecessor it came through.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ._orders import axiom_violations
from .segments import FinalSegment, in_macneille
from .words import PLUS_MINUS, Word, covers, sort_codes


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


def _steps(g: ReflexiveDigraph) -> list[list[tuple[str, int]]]:
    """Per vertex index, the (letter code, index) of each non-loop edge at
    it: + to the head of an edge out of it, - to the tail of one into it."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    steps: list[list[tuple[str, int]]] = [[] for _ in g.vertices]
    plus, minus = PLUS_MINUS.encode("+"), PLUS_MINUS.encode("-")
    for a, b in sorted(g.edges):  # a fixed order: the same work on every run
        if a != b:
            steps[pos[a]].append((plus, pos[b]))
            steps[pos[b]].append((minus, pos[a]))
    return steps


def _distances_from(steps: list[list[tuple[str, int]]], ix: int
                    ) -> list[FinalSegment]:
    """The row d(x, .) for x at index ix: the smallest upsets with the empty
    word in r(x) and r(k) (+) {c} inside r(j) for every step (c, j) at k
    (see ``_steps``).

    The minimal words are found in order of length.  Layer 0 is the empty
    word at x; layer n extends each word that layer n - 1 added at k by the
    letter of every edge at k, and appends the candidate to r(j) unless
    r(j) already covers it.  Every appended word is final: if w is minimal
    in d(x, j) and its last letter steps from k, then w minus that letter is
    minimal in d(x, k) (a smaller word there would give a smaller one at j),
    so it was added in the previous layer; and when the candidate is not
    minimal, a shorter generator, inserted in an earlier layer, covers it,
    while words of the same length embed only when equal.  A layer that adds
    nothing ends the relaxation; the antichains are finite (Higman), so one
    does.  Each row is sorted once at the end.
    """
    r: list[list[str]] = [[] for _ in steps]
    r[ix].append("")
    layer = {ix: [""]}
    while layer:
        added: dict[int, list[str]] = {}
        for k, words in layer.items():
            for step, j in steps[k]:
                row = r[j]
                for u in words:
                    w = u + step
                    if not covers(row, w):  # row is sorted by length
                        row.append(w)
                        added.setdefault(j, []).append(w)
        layer = added
    return [FinalSegment._canonical(PLUS_MINUS, tuple(sort_codes(row)))
            for row in r]


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
        zero = FinalSegment.zero(PLUS_MINUS)
        return axiom_violations(self.vertices, self.entries, zero,
                                FinalSegment.involute, FinalSegment.leq,
                                FinalSegment.oplus)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "matrix": [[e.to_json() for e in row] for row in self.entries]}


def distance_matrix(g: ReflexiveDigraph) -> DistanceMatrix:
    """All zigzag distances, one relaxed row per vertex."""
    steps = _steps(g)
    rows = tuple(tuple(_distances_from(steps, ix))
                 for ix in range(len(g.vertices)))
    # involution symmetry is checked on the computed entries, not derived
    n, inv = len(g.vertices), PLUS_MINUS.involute
    for i in range(n):
        for j in range(i + 1, n):
            if sort_codes(map(inv, rows[j][i].generators)) != list(rows[i][j].generators):
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
