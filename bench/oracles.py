"""Answers the benchmark knows without asking gmspace.

Words are plain strings over "+" and "-"; "+" sorts before "-", so Python's
string order is the library's length-then-lex order.  Everything here is a
small direct computation (a subset simulation, a BFS, modular arithmetic),
written independently of the code under test.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


# --- words and final segments -----------------------------------------------


def subword(u: str, v: str) -> bool:
    it = iter(v)
    return all(c in it for c in u)


def minimize(words) -> list[str]:
    """Minimal words of a set, sorted length-then-lex (canonical form)."""
    kept: list[str] = []
    for w in sorted(set(words), key=lambda s: (len(s), s)):
        if not any(subword(m, w) for m in kept):
            kept.append(w)
    return kept


def oplus(a: list[str], b: list[str]) -> list[str]:
    return minimize(g + h for g in a for h in b)


def involute(w: str) -> str:
    return "".join("+" if c == "-" else "-" for c in reversed(w))


# --- reflexive digraphs -----------------------------------------------------


class Graph:
    """Reflexive digraph for membership tests: a word is in d(x, y) iff the
    zigzag it codes maps into the graph from x to y."""

    def __init__(self, vertices, edges):
        self.edges = {tuple(e) for e in edges} | {(v, v) for v in vertices}
        self.succ = {v: {b for a, b in self.edges if a == v} for v in vertices}
        self.pred = {v: {a for a, b in self.edges if b == v} for v in vertices}

    def component(self, x: str) -> set[str]:
        seen, todo = {x}, [x]
        while todo:
            v = todo.pop()
            for u in self.succ[v] | self.pred[v]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return seen

    def accepts(self, w: str, x: str, y: str) -> bool:
        states = {x}
        for c in w:
            step = self.succ if c == "+" else self.pred
            states = set().union(*(step[s] for s in states))
        return y in states

    def fence(self, x: str, y: str, first: str):
        """Shortest alternating word starting with `first` in d(x, y), by a
        BFS over (vertex, next letter); None when no such word exists."""
        if x == y:
            return 0
        other = {"+": "-", "-": "+"}
        seen = {(x, first)}
        frontier = [(x, first)]
        steps = 0
        while frontier:
            steps += 1
            nxt = []
            for v, c in frontier:
                for u in (self.succ if c == "+" else self.pred)[v]:
                    if u == y:
                        return steps
                    if (u, other[c]) not in seen:
                        seen.add((u, other[c]))
                        nxt.append((u, other[c]))
            frontier = nxt
        return None


def check_entry(g: Graph, x: str, y: str, gens: list[str]):
    """Soundness and minimality of one distance entry: every generator codes
    a zigzag from x to y, no one-letter deletion of it does, and the
    generators form a sorted antichain."""
    if gens != minimize(gens):
        return f"d({x},{y}) = {gens} is not a sorted antichain"
    if (x == y) != (gens == [""]):
        return f"d({x},{y}) = {gens} breaks separation"
    if (not gens) != (y not in g.component(x)):
        return f"d({x},{y}) = {gens} disagrees with connectivity"
    for w in gens:
        if not g.accepts(w, x, y):
            return f"{w!r} in d({x},{y}) codes no zigzag"
        for k in range(len(w)):
            if g.accepts(w[:k] + w[k + 1:], x, y):
                return f"{w!r} in d({x},{y}) is not minimal"
    return None


def path_word(word: str, i: int, j: int) -> str:
    """Orientation word of an oriented path read from vertex i to vertex j."""
    if i <= j:
        return word[i:j]
    return involute(word[j:i])


# --- plane point sets ---------------------------------------------------------


def centroid_center(points):
    """The only possible centre of symmetry of a finite set is its centroid."""
    pts = {(Fraction(x), Fraction(y)) for x, y in points}
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    if all((2 * cx - x, 2 * cy - y) in pts for x, y in pts):
        return cx, cy
    return None


KERNELS = (lambda p: p[0], lambda p: p[1], lambda p: p[0] + p[1])


def preserves_kernels(f: dict) -> bool:
    """f maps points to points; equal x, equal y and equal x + y must be
    preserved."""
    items = list(f.items())
    for proj in KERNELS:
        for p, fp in items:
            for q, fq in items:
                if proj(p) == proj(q) and proj(fp) != proj(fq):
                    return False
    return True


def is_witness(f: dict) -> bool:
    return any(k != v for k, v in f.items()) and len(set(f.values())) > 1


def parse_point(text: str):
    x, y = text.split("|")
    return Fraction(x), Fraction(y)


# --- congruences of Z_N -------------------------------------------------------


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def divisor_closure(divisors) -> set[int]:
    """Moduli of the sublattice generated by the congruences mod d of Z_N:
    meet is mod lcm, join is mod gcd."""
    closed = set(divisors)
    while True:
        new = {op(a, b) for a in closed for b in closed for op in (gcd, lcm)}
        if new <= closed:
            return closed
        closed |= new


def preserves_mod(f: dict, d: int) -> bool:
    keys = list(f)
    return all((f[a] - f[b]) % d == 0 for a in keys for b in keys
               if (a - b) % d == 0)


def partition_meet_join(p, q, carrier):
    """Meet and join of two partitions given as lists of blocks."""
    bp = {x: i for i, b in enumerate(p) for x in b}
    bq = {x: i for i, b in enumerate(q) for x in b}
    meet = {}
    for x in carrier:
        meet.setdefault((bp[x], bq[x]), set()).add(x)
    parent = {x: x for x in carrier}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for blocks in (p, q):
        for b in blocks:
            for x in b[1:]:
                parent[find(x)] = find(b[0])
    join = {}
    for x in carrier:
        join.setdefault(find(x), set()).add(x)
    return list(meet.values()), list(join.values())


# --- finite ordered monoids ---------------------------------------------------


def least(cands, leq):
    for c in cands:
        if all(leq(c, d) for d in cands):
            return c
    return None


def canonical_distance(elements, leq, oplus_, inv):
    """d(p, q) = join of the least r with inv(p) <= r + inv(q) and the least
    r with q <= p + r, by direct search over the finite table."""
    def join(a, b):
        return least([u for u in elements if leq(a, u) and leq(b, u)], leq)

    dist = {}
    for p in elements:
        for q in elements:
            first = least([r for r in elements
                           if leq(inv(p), oplus_(r, inv(q)))], leq)
            second = least([r for r in elements if leq(q, oplus_(p, r))], leq)
            dist[(p, q)] = join(first, second)
    return dist
