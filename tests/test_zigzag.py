import json
import random
from collections import deque
from itertools import combinations, product

import pytest

import gmspace
from gmspace import automata
from gmspace.segments import FinalSegment, in_macneille
from gmspace.words import PLUS_MINUS, Word, all_words
from gmspace.zigzag import (DistanceMatrix, ReflexiveDigraph, _steps,
                            distance_matrix, fence_distance, graph_from_matrix,
                            is_graph_hom, is_nonexpansive, oriented_embeddable,
                            satisfies_graph_condition, zigzag_distance)

from conftest import accepts, random_segment, seg

A = PLUS_MINUS


def chain2():
    return ReflexiveDigraph.of(["a", "b"], [("a", "b")])


def cycle3():
    return ReflexiveDigraph.of(["a", "b", "c"],
                               [("a", "b"), ("b", "c"), ("c", "a")])


def random_digraph(rng, max_n=4):
    n = rng.randint(1, max_n)
    vs = [f"v{i}" for i in range(n)]
    edges = [(a, b) for a in vs for b in vs if a != b and rng.random() < 0.4]
    return ReflexiveDigraph.of(vs, edges)


def zigzag_automaton(g, x, y):
    """Oracle: acceptor of the zigzag words from x to y.  A + step follows an
    edge forward, a - step follows one backward; loops absorb insertions."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    trans = set()
    for a, b in g.edges:
        trans.add((pos[a], "+", pos[b]))
        trans.add((pos[b], "-", pos[a]))
    return automata.Automaton(A, len(g.vertices), frozenset(trans),
                              frozenset({g._index(x)}), frozenset({g._index(y)}))


def acceptor_distance(g, x, y):
    """Oracle: the minimal antichain of the zigzag acceptor's language."""
    return FinalSegment(A, tuple(v.code for v in automata.minimal_antichain(
        zigzag_automaton(g, x, y))))


def brute_zigzag_words(g, x, y, max_len):
    """Oracle: direct search for vertex sequences realizing each word."""
    out = []
    for word in all_words(A, max_len):
        n = len(word)
        for seqtail in product(g.vertices, repeat=n):
            chain = (x,) + seqtail
            if chain[-1] != y:
                continue
            ok = True
            for i, letter in enumerate(word.letters):
                a, b = chain[i], chain[i + 1]
                if letter == "+" and not g.has_edge(a, b):
                    ok = False
                    break
                if letter == "-" and not g.has_edge(b, a):
                    ok = False
                    break
            if ok:
                out.append(word)
                break
    return out


def test_zigzag_examples():
    g = chain2()
    assert zigzag_distance(g, "a", "b") == seg("+")
    assert zigzag_distance(g, "b", "a") == seg("-")
    assert zigzag_distance(g, "a", "a") == FinalSegment.zero(A)
    assert zigzag_distance(cycle3(), "a", "b") == seg("+", "--")
    with pytest.raises(ValueError):
        zigzag_distance(g, "a", "zz")
    with pytest.raises(ValueError):
        zigzag_distance(g, "zz", "a")


def test_loops_added_flag():
    g = ReflexiveDigraph.of(["a"], [])
    assert g.loops_added
    h = ReflexiveDigraph.of(["a"], [("a", "a")])
    assert not h.loops_added


def test_distance_matrix_examples():
    one = distance_matrix(ReflexiveDigraph.of(["v"], []))
    assert one.entries[0][0] == FinalSegment.zero(A)
    m = distance_matrix(chain2())
    assert m.entry("a", "b") == seg("+") and m.entry("b", "a") == seg("-")
    disc = distance_matrix(ReflexiveDigraph.of(["a", "b"], []))
    assert disc.entry("a", "b") == FinalSegment.empty(A)
    assert m.check_axioms() == []


def pairwise_matrix(g):
    """Oracle: one acceptor pipeline per pair of vertices."""
    return DistanceMatrix(g.vertices, tuple(
        tuple(acceptor_distance(g, x, y) for y in g.vertices)
        for x in g.vertices))


def assert_matches_pairwise(g):
    """The matrix and every single-pair distance against the acceptors."""
    got, want = distance_matrix(g), pairwise_matrix(g)
    assert got.entries == want.entries
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            assert zigzag_distance(g, x, y) == want.entries[i][j]


def test_distance_matrix_matches_pairwise_on_all_small_digraphs():
    for n in (1, 2, 3):
        vs = [f"v{i}" for i in range(n)]
        arcs = [(a, b) for a in vs for b in vs if a != b]
        for mask in range(2 ** len(arcs)):
            edges = [e for bit, e in enumerate(arcs) if mask >> bit & 1]
            assert_matches_pairwise(ReflexiveDigraph.of(vs, edges))


def test_distance_matrix_matches_pairwise_on_random_digraphs():
    rng = random.Random(21)
    for density in (0.1, 0.3, 0.5, 0.8):
        for _ in range(75):
            n = rng.randint(1, 7)
            vs = [f"v{i}" for i in range(n)]
            edges = [(a, b) for a in vs for b in vs
                     if a != b and rng.random() < density]
            assert_matches_pairwise(ReflexiveDigraph.of(vs, edges))


def test_distance_matrix_on_oriented_paths_is_principal():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(2, 7)
        vs = [f"p{i}" for i in range(n)]
        forward = [rng.random() < 0.5 for _ in range(n - 1)]
        edges = [(vs[i], vs[i + 1]) if f else (vs[i + 1], vs[i])
                 for i, f in enumerate(forward)]
        g = ReflexiveDigraph.of(vs, edges)
        m = distance_matrix(g)
        for i, j in product(range(n), repeat=2):
            if i <= j:
                letters = ["+" if f else "-" for f in forward[i:j]]
            else:
                letters = ["-" if f else "+" for f in forward[j:i]][::-1]
            assert m.entries[i][j] == FinalSegment(A, (Word(A, tuple(letters)).code,))
        assert_matches_pairwise(g)


def test_distance_matrix_asymmetry_is_an_engine_bug(monkeypatch):
    # the check involutes codes: reversing without swapping the letters
    # makes d(b, a) = {-} disagree with d(a, b) = {+}
    monkeypatch.setattr(type(A), "involute", lambda self, code: code[::-1])
    with pytest.raises(AssertionError, match="engine bug"):
        distance_matrix(chain2())


def test_zigzag_agrees_with_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(12):
        g = random_digraph(rng)
        x = rng.choice(g.vertices)
        y = rng.choice(g.vertices)
        d = zigzag_distance(g, x, y)
        members = brute_zigzag_words(g, x, y, 5)
        naive_min = [v for v in members
                     if not any(u <= v and u != v for u in members)]
        got_short = [Word.from_code(A, v) for v in d.generators if len(v) <= 5]
        assert got_short == naive_min
        # oracle membership must match segment membership up to the bound
        for v in all_words(A, 5):
            assert d.contains(v) == (v in members) or len(v) > 5


def test_hom_examples():
    g = chain2()
    mg = distance_matrix(g)
    ident = {"a": "a", "b": "b"}
    const = {"a": "a", "b": "a"}
    swap = {"a": "b", "b": "a"}
    assert is_graph_hom(g, g, ident) and is_nonexpansive(mg, mg, ident)
    assert is_graph_hom(g, g, const) and is_nonexpansive(mg, mg, const)
    assert not is_graph_hom(g, g, swap) and not is_nonexpansive(mg, mg, swap)
    with pytest.raises(ValueError):
        is_graph_hom(g, g, {"a": "a"})


def test_hom_iff_nonexpansive_random():
    rng = random.Random(12)
    for _ in range(100):
        g = random_digraph(rng)
        h = random_digraph(rng)
        f = {v: rng.choice(h.vertices) for v in g.vertices}
        assert is_graph_hom(g, h, f) == \
            is_nonexpansive(distance_matrix(g), distance_matrix(h), f)


def test_graph_condition_examples():
    ok, _ = satisfies_graph_condition(distance_matrix(chain2()))
    assert ok
    one = distance_matrix(ReflexiveDigraph.of(["v"], []))
    assert satisfies_graph_condition(one)[0]
    # a 2-point space whose distance needs a midpoint that is not there
    bad = DistanceMatrix(("x", "y"), (
        (FinalSegment.zero(A), seg("+-")),
        (seg("+-"), FinalSegment.zero(A))))
    assert bad.check_axioms() == []
    ok, witness = satisfies_graph_condition(bad)
    assert not ok
    x, y, u, v = witness
    assert (str(u), str(v)) == ("+", "-")


def test_graph_condition_holds_for_graph_matrices_and_recovers_graph():
    rng = random.Random(13)
    for _ in range(40):
        g = random_digraph(rng)
        m = distance_matrix(g)
        assert m.check_axioms() == []
        ok, _ = satisfies_graph_condition(m)
        assert ok
        assert graph_from_matrix(m).edges == g.edges


def matrix_axioms_by_scan(m):
    """Oracle: a direct scan of the entries; it reports triangles over
    (x, y, z) with z innermost, so compare its violations as a multiset."""
    bad = []
    vs, e = m.vertices, m.entries
    zero = FinalSegment.zero(A)
    for i, x in enumerate(vs):
        for j, y in enumerate(vs):
            if (e[i][j] == zero) != (i == j):
                bad.append(("separation", x, y))
            if e[j][i].involute() != e[i][j]:
                bad.append(("involution", x, y))
    for i, x in enumerate(vs):
        for j, y in enumerate(vs):
            for k, z in enumerate(vs):
                if not e[i][j].leq(e[i][k].oplus(e[k][j])):
                    bad.append(("triangle", x, z, y))
    return bad


def test_check_axioms_matches_scan_on_corrupted_matrices():
    rng = random.Random(17)
    kinds = set()
    for _ in range(150):
        m = distance_matrix(random_digraph(rng, max_n=5))
        n = len(m.vertices)
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in m.entries]
        rows[i][j] = rng.choice([FinalSegment.zero(A), FinalSegment.empty(A),
                                 random_segment(rng)])
        bad = DistanceMatrix(m.vertices, tuple(map(tuple, rows)))
        got, expect = bad.check_axioms(), matrix_axioms_by_scan(bad)
        assert sorted(got) == sorted(expect)
        assert [v for v in got if v[0] != "triangle"] == \
            [v for v in expect if v[0] != "triangle"]
        kinds.update(v[0] for v in got)
    assert kinds == {"separation", "involution", "triangle"}


def test_fence_examples():
    g = chain2()
    assert fence_distance(g, "a", "b") == (1, 2)
    assert fence_distance(g, "b", "a") == (2, 1)
    assert fence_distance(g, "a", "a") == (0, 0)
    anti = ReflexiveDigraph.of(["a", "b"], [])
    assert fence_distance(anti, "a", "b") == (None, None)
    with pytest.raises(ValueError):
        fence_distance(cycle3(), "a", "b")  # not a poset
    with pytest.raises(ValueError):
        fence_distance(g, "a", "zz")


def test_fence_on_longer_poset():
    # fence x0 < x1 > x2: from x0 to x2 the up-fence has length 2
    g = ReflexiveDigraph.of(["x0", "x1", "x2"], [("x0", "x1"), ("x2", "x1")])
    assert fence_distance(g, "x0", "x2") == (2, 3)


def fence_by_acceptor(g, x, y):
    """Oracle: membership of alternating words, up to the pumping bound of
    the graph times the two-state alternation automaton."""
    if x == y:
        return 0, 0
    aut = zigzag_automaton(g, x, y)
    out = []
    for first, second in ("+-", "-+"):
        lengths = range(1, 2 * len(g.vertices) + 3)
        out.append(next((n for n in lengths if accepts(
            aut, Word(A, tuple(second if i % 2 else first for i in range(n))))),
            None))
    return tuple(out)


def random_poset(rng, n):
    vs = [f"x{i}" for i in range(n)]
    rng.shuffle(vs)
    below = {(a, b) for a, b in combinations(vs, 2) if rng.random() < 0.3}
    for k in vs:  # Warshall's transitive closure
        below |= {(a, b) for a in vs for b in vs
                  if (a, k) in below and (k, b) in below}
    return ReflexiveDigraph.of(vs, below)


def random_fence(rng, n):
    vs = [f"f{i}" for i in range(n)]
    up = rng.random() < 0.5
    edges = [(vs[i], vs[i + 1]) if (i % 2 == 0) == up else (vs[i + 1], vs[i])
             for i in range(n - 1)]
    return ReflexiveDigraph.of(vs, edges)


def is_poset_by_pairs(g):
    """Oracle: antisymmetry and transitivity scanned over pairs of edges."""
    e = g.edges
    if any(a != b and (b, a) in e for a, b in e):
        return False
    return all((a, d) in e for a, b in e for c, d in e if b == c)


def test_fence_bfs_matches_acceptor():
    # random posets and fences, each also with one edge doubled back (never
    # antisymmetric), and random digraphs (mostly not transitive): the poset
    # test agrees with the pair scan, and on posets every fence distance
    # agrees with the acceptor
    rng = random.Random(23)
    kinds = set()
    for trial in range(120):
        n = rng.randint(1, 7)
        g = random_poset(rng, n) if trial % 2 else random_fence(rng, n)
        variants = [g, random_digraph(rng, max_n=5)]
        proper = sorted(e for e in g.edges if e[0] != e[1])
        if proper:
            a, b = rng.choice(proper)
            variants.append(ReflexiveDigraph.of(g.vertices, g.edges | {(b, a)}))
        for h in variants:
            poset = is_poset_by_pairs(h)
            kinds.add(poset)
            for x, y in product(h.vertices, repeat=2):
                if poset:
                    assert fence_distance(h, x, y) == fence_by_acceptor(h, x, y)
                else:
                    with pytest.raises(ValueError, match="poset"):
                        fence_distance(h, x, y)
        with pytest.raises(ValueError, match="unknown vertex"):
            fence_distance(g, g.vertices[0], "zz")
    assert kinds == {True, False}


def test_embeddable_examples():
    ok, _ = oriented_embeddable(chain2())
    assert ok
    ok, witness = oriented_embeddable(cycle3())
    assert not ok
    x, y, (u, v) = witness
    assert str(u) == "" and str(v) == "-"
    assert oriented_embeddable(ReflexiveDigraph.of(["v"], []))[0]


def test_embeddable_zigzag_any_orientation():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(2, 5)
        vs = [f"p{i}" for i in range(n)]
        edges = []
        for i in range(n - 1):
            if rng.random() < 0.5:
                edges.append((vs[i], vs[i + 1]))
            else:
                edges.append((vs[i + 1], vs[i]))
        ok, _ = oriented_embeddable(ReflexiveDigraph.of(vs, edges))
        assert ok


def matrix_by_worklist(g):
    """Oracle: the rows relaxed by a FIFO worklist of changed entries,
    r(j) <- r(j) meet (r(k) (+) step), until no entry changes."""
    n = len(g.vertices)
    step = {"+": seg("+"), "-": seg("-")}
    moves = [[] for _ in range(n)]
    for a, b in g.edges:
        if a != b:
            moves[g._index(a)].append(("+", g._index(b)))
            moves[g._index(b)].append(("-", g._index(a)))
    rows = []
    for x in range(n):
        r = [FinalSegment.empty(A)] * n
        r[x] = FinalSegment.zero(A)
        queue = deque([x])
        while queue:
            k = queue.popleft()
            for letter, j in moves[k]:
                new = r[j].meet(r[k].oplus(step[letter]))
                if new != r[j]:
                    r[j] = new
                    queue.append(j)
        rows.append(tuple(r))
    return tuple(rows)


def embeddable_over_all_pairs(g, entries):
    """Oracle: MacNeille membership of every off-diagonal entry, in row
    order."""
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            if i != j:
                ok, witness = in_macneille(entries[i][j])
                if not ok:
                    return False, (x, y, witness)
    return True, None


def test_rows_and_embeddability_match_all_pair_oracles():
    rng = random.Random(31)
    verdicts = set()
    for trial in range(2000):
        density = (0.1, 0.2, 0.3, 0.5, 0.8)[trial % 5]
        n = rng.randint(1, 9)
        vs = [f"v{i}" for i in range(n)]
        g = ReflexiveDigraph.of(vs, [(a, b) for a in vs for b in vs
                                     if a != b and rng.random() < density])
        want = matrix_by_worklist(g)
        assert distance_matrix(g).entries == want
        got = oriented_embeddable(g)
        assert got == embeddable_over_all_pairs(g, want)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def reach_by_walks(g, x, code):
    """Oracle: the vertices that the word code reaches from x, one letter
    at a time over the edge set (loops included)."""
    here = {x}
    for letter in A.decode(code):
        here = ({b for a, b in g.edges if a in here} if letter == "+"
                else {a for a, b in g.edges if b in here})
    return here


def mask_of(g, vertices):
    return sum(1 << g._index(v) for v in vertices)


def test_reach_set_recurrence_matches_deletions():
    # R(wc) = S_c(R(w)) and U(wc) = R(w) | S_c(U(w)), against R and the
    # union of R over the one-letter deletions, walked directly
    rng = random.Random(41)
    for _ in range(300):
        g = random_digraph(rng, max_n=7)
        steps = {step.code: step for step in _steps(g)}
        x = rng.choice(g.vertices)
        code = "".join(rng.choice("+-") for _ in range(rng.randint(0, 8)))
        reach, under = 1 << g._index(x), 0
        for c in code:
            step = steps[c]
            reach, under = step[reach], reach | step[under]
        deletions = set().union(*[reach_by_walks(g, x, code[:i] + code[i + 1:])
                                  for i in range(len(code))])
        assert reach == mask_of(g, reach_by_walks(g, x, code))
        assert under == mask_of(g, deletions), (g, x, code)


def test_rows_are_canonical_and_minimal_up_to_16_vertices():
    # every entry survives the validating constructor, and every generator
    # reaches its vertex while none of its one-letter deletions does
    rng = random.Random(42)
    for trial in range(60):
        n = rng.randint(10, 16)
        vs = [f"v{i}" for i in range(n)]
        p = (0.15, 0.2, 0.3)[trial % 3]
        g = ReflexiveDigraph.of(vs, [(a, b) for a in vs for b in vs
                                     if a != b and rng.random() < p])
        m = distance_matrix(g)
        for x, row in zip(vs, m.entries):
            for y, entry in zip(vs, row):
                assert FinalSegment(A, entry.generators) == entry
                for w in entry.generators:
                    assert y in reach_by_walks(g, x, w)
                    assert all(y not in reach_by_walks(g, x, w[:i] + w[i + 1:])
                               for i in range(len(w)))


def test_distance_matrix_runs_no_subword_test(monkeypatch):
    calls = []
    for module in (gmspace.words, gmspace.segments, gmspace.zigzag):
        def counted(gens, w, _covers=module.covers):
            calls.append(w)
            return _covers(gens, w)
        monkeypatch.setattr(module, "covers", counted)
    rng = random.Random(43)
    for _ in range(30):
        g = random_digraph(rng, max_n=9)
        distance_matrix(g)
        zigzag_distance(g, g.vertices[0], g.vertices[-1])
    assert calls == []
    distance_matrix(cycle3()).entry("a", "b").contains(Word.parse("+"))
    assert calls == ["+"]  # the counter itself is live


def test_graph_json_round_trip():
    g = cycle3()
    assert ReflexiveDigraph.from_json(g.to_json()) == g
