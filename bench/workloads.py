"""Seeded operation pools for the three workloads.

Each workload is a pattern of operation kinds, repeated.  A kind is a
generator that draws one CLI operation from the workload's random stream:
its argv (with `@name` standing for an input file), its input files, and a
check that compares the `--json` report and exit code with an answer known
without running the operation.  Sizes rotate through fixed lists by `nth`,
the count of earlier operations of the same kind, so every run sees the same
mix of sizes and the seed draws only the structure.  Every generator enforces the size caps that
keep the library's guards out of reach (semirigidity 12 points, fpp 8
points, orthogonal n <= 6, factorization at most 3 generators of length
<= 6), so no operation exits 2 by design.

Slot counts are chosen so that about 5% of the operations are slower than
every other kind and the p90 latency falls inside one homogeneous kind
(`mid` in `zigzag`, `zadori12` in `search`, `factor-random` in `algebra`);
in `search` the median falls among the cheap plane checks.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import oracles as orc

DEFAULT_SEED = 1


@dataclass
class Op:
    argv: tuple[str, ...]
    files: dict
    check: Callable = field(repr=False)
    kind: str = ""
    key: str = ""

    def __post_init__(self):
        blob = json.dumps([self.argv, self.files], sort_keys=True)
        self.key = hashlib.sha256(blob.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class Workload:
    name: str
    counts: dict            # kind -> slots in one pattern
    kinds: dict             # kind -> generator(rng, tiny, nth) -> Op
    pool: int               # operations generated per run
    trace_ops: int          # operations replayed by the traced run

    def pattern(self) -> list[str]:
        """Kinds spread evenly over the slots, so every stretch of the pool
        has about the same mix."""
        slots = sorted(((j + 0.5) / c, kind) for kind, c in self.counts.items()
                       for j in range(c))
        return [kind for _, kind in slots]

    def generate(self, seed: int, tiny: bool = False) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        pattern = self.pattern()
        if self.pool % len(pattern):
            raise ValueError(f"{self.name}: pool is not whole patterns")
        size = len(pattern) if tiny else self.pool
        ops = []
        seen: dict[str, int] = {}
        for i in range(size):
            kind = pattern[i % len(pattern)]
            nth = seen[kind] = seen.get(kind, -1) + 1
            op = self.kinds[kind](rng, tiny, nth)
            op.kind = kind
            ops.append(op)
        return ops


def _rotate(nth: int, *choices):
    """The nth combination of the choices, cycling."""
    combos = list(itertools.product(*choices))
    return combos[nth % len(combos)]


def _fail(cond: bool, message: str) -> Optional[str]:
    return None if cond else message


def _expect_code(code: int, want: int) -> Optional[str]:
    return _fail(code == want, f"exit code {code}, expected {want}")


# --- zigzag: distance matrices -------------------------------------------------


def _random_graph(rng, n: int, p: float) -> dict:
    vs = [f"v{i}" for i in range(n)]
    edges = [[a, b] for a in vs for b in vs if a != b and rng.random() < p]
    return {"vertices": vs, "edges": edges}


def _oriented_path(rng, n: int) -> tuple[dict, str]:
    word = "".join(rng.choice("+-") for _ in range(n - 1))
    return _path_graph(word), word


def _path_graph(word: str) -> dict:
    vs = [f"v{i}" for i in range(len(word) + 1)]
    edges = [[vs[i], vs[i + 1]] if c == "+" else [vs[i + 1], vs[i]]
             for i, c in enumerate(word)]
    return {"vertices": vs, "edges": edges}


def _check_matrix(graph: dict, word: Optional[str], result, code, gm):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    m = result["matrix"]
    vs = graph["vertices"]
    if m["vertices"] != vs:
        return "matrix vertices differ from the input"
    g = orc.Graph(vs, graph["edges"])
    for i, x in enumerate(vs):
        for j, y in enumerate(vs):
            gens = m["matrix"][i][j]
            if word is not None:
                if gens != [orc.path_word(word, i, j)]:
                    return f"path entry d({x},{y}) = {gens}"
                continue
            bad = orc.check_entry(g, x, y, gens)
            if bad:
                return bad
            if sorted(orc.involute(w) for w in m["matrix"][j][i]) != \
                    sorted(gens):
                return f"d({y},{x}) is not the involute of d({x},{y})"
    seg = gm.segments.FinalSegment
    rows = tuple(tuple(seg.from_json(e) for e in row) for row in m["matrix"])
    back = gm.zigzag.graph_from_matrix(gm.zigzag.DistanceMatrix(tuple(vs), rows))
    want = gm.zigzag.ReflexiveDigraph.of(vs, graph["edges"])
    return _fail(back == want, "graph_from_matrix does not recover the input")


def _check_embeddable(graph: dict, is_path: bool, result, code, gm):
    if is_path:
        # oriented paths embed isometrically into a product of zigzags
        return _fail(code == 0 and result["embeddable"] is True,
                     f"path reported not embeddable (exit {code})")
    if code == 0:
        return _fail(result["embeddable"] is True, "exit 0 without embeddable")
    if code != 1 or result["embeddable"] is not False:
        return f"exit code {code} with embeddable={result['embeddable']}"
    # the witness must break the cancellation rule: u+v, u-v in d(x,y), uv not
    wit = result["witness"]
    x, y = wit["pair"]
    u, v = wit["u"], wit["v"]
    g = orc.Graph(graph["vertices"], graph["edges"])
    ok = g.accepts(u + "+" + v, x, y) and g.accepts(u + "-" + v, x, y) \
        and not g.accepts(u + v, x, y)
    return _fail(ok, f"witness {wit} does not break the cancellation rule")


def _graph_op(cmd: str, graph: dict, word: Optional[str]) -> Op:
    if cmd == "dist":
        check = lambda r, c, gm: _check_matrix(graph, word, r, c, gm)
    else:
        check = lambda r, c, gm: _check_embeddable(graph, word is not None,
                                                   r, c, gm)
    return Op(("zigzag", cmd, "@graph"), {"graph": graph}, check)


GRAPH_CMDS = ("dist", "embeddable")
DENSITIES = (0.2, 0.25, 0.3)


def _zz_random(sizes):
    def gen(rng, tiny, nth):
        cmd, n, p = _rotate(nth, GRAPH_CMDS, sizes if not tiny else (4, 5),
                            DENSITIES)
        return _graph_op(cmd, _random_graph(rng, n, p), None)
    return gen


def _zz_path(sizes):
    def gen(rng, tiny, nth):
        cmd, n = _rotate(nth, GRAPH_CMDS, sizes if not tiny else (5, 6))
        graph, word = _oriented_path(rng, n)
        return _graph_op(cmd, graph, word)
    return gen


def _zz_heavy(rng, tiny, nth):
    if nth % 2 == 0:
        return _zz_path((15, 16))(rng, tiny, nth // 2)
    return _zz_random((14,))(rng, tiny, nth // 2)


ZIGZAG = Workload(
    "zigzag",
    counts={"random-small": 16, "path-small": 16, "mid": 6, "heavy": 2},
    kinds={"random-small": _zz_random(range(6, 11)),
           "path-small": _zz_path(range(8, 12)),
           "mid": _zz_random((12,)), "heavy": _zz_heavy},
    pool=200, trace_ops=40)


# --- algebra: factorization, single pairs, fences ---------------------------------

# Each of these has a one-letter generator, so it is irreducible: a product of
# two segments other than the full word set has only generators of length >= 2.
IRREDUCIBLE = [["+"], ["-"], ["+", "-"], ["+", "--"], ["-", "++"],
               ["+", "---"], ["-", "+++"]]
MAX_GENS, MAX_LEN = 3, 6
# Generator lengths of the random antichains.  The factorization search is
# exponential in the number of proper prefixes, so the lengths fix most of
# an antichain's cost: these shapes take 5-15 ms, above the other algebra
# ops, and leave out shapes with runaway members such as (4, 4, 5).
SHAPES = [(3, 3, 4), (3, 4, 4), (4, 5), (3, 4, 5), (4, 4, 4), (5, 6)]


def _product(rng, k: int) -> tuple[list[str], list[list[str]]]:
    while True:
        factors = [rng.choice(IRREDUCIBLE[:2]) if rng.random() < 0.6
                   else rng.choice(IRREDUCIBLE[2:]) for _ in range(k)]
        seg = [""]
        for f in factors:
            seg = orc.oplus(seg, f)
        if len(seg) <= MAX_GENS and max(map(len, seg)) <= MAX_LEN:
            return seg, factors


def _random_antichain(rng, shape) -> list[str]:
    """An antichain with one random generator of each length in `shape`."""
    if len(shape) > MAX_GENS or max(shape) > MAX_LEN:
        raise ValueError(f"antichain shape {shape} exceeds the caps")
    while True:
        gens = orc.minimize("".join(rng.choice("+-") for _ in range(n))
                            for n in shape)
        if len(gens) == len(shape):
            return gens


def _factor_oracle(gens, gm) -> list[list[list[str]]]:
    """Every factor sequence from the library's exhaustive decomposition-tree
    oracle (exponential; fine at these sizes)."""
    fac = gm.factorization
    fac.decompose_once.cache_clear()
    fac.is_irreducible.cache_clear()
    seqs = fac.all_factor_sequences(gm.segments.FinalSegment.from_json(gens))
    return sorted([f.to_json() for f in seq] for seq in seqs)


def _check_factor(gens, factors, result, code, gm):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    if result["segment"] != gens:
        return f"segment {result['segment']} != {gens}"
    got = result["factors"]
    recomposed = [""]
    for f in got:
        recomposed = orc.oplus(recomposed, f)
    if recomposed != gens:
        return f"factors {got} do not recompose to {gens}"
    if factors is not None:
        return _fail(got == factors, f"factors {got}, expected {factors}")
    seqs = _factor_oracle(gens, gm)
    return _fail(seqs == [got], f"factors {got}, oracle {seqs}")


def _check_irreducible(gens, irreducible, result, code, gm):
    if irreducible is None:
        irreducible = all(len(s) == 1 for s in _factor_oracle(gens, gm))
    if code != (0 if irreducible else 1):
        return f"exit code {code}, expected irreducible={irreducible}"
    return _fail(result["irreducible"] is irreducible,
                 f"irreducible={result['irreducible']}, expected {irreducible}")


def _freemon_op(cmd, gens, expect) -> Op:
    if cmd == "factor":
        check = lambda r, c, gm: _check_factor(gens, expect, r, c, gm)
    else:
        check = lambda r, c, gm: _check_irreducible(gens, expect, r, c, gm)
    return Op(("freemon", cmd, "@antichain"), {"antichain": gens}, check)


def _factor_product(rng, tiny, nth):
    (k,) = _rotate(nth, (2, 3, 4))
    seg, factors = _product(rng, k)
    return _freemon_op("factor", seg, factors)


def _irreducible_product(rng, tiny, nth):
    (k,) = _rotate(nth, (1, 2, 3, 4))
    if k == 1:
        return _freemon_op("irreducible", rng.choice(IRREDUCIBLE), True)
    seg, _ = _product(rng, k)
    return _freemon_op("irreducible", seg, False)


def _factor_random(rng, tiny, nth):
    cmd, shape = _rotate(nth, ("factor", "irreducible"), SHAPES)
    return _freemon_op(cmd, _random_antichain(rng, shape), None)


def _check_pair(graph, word, x, y, result, code, gm):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    gens = result["distance"]
    if word is not None:
        i, j = int(x[1:]), int(y[1:])
        return _fail(gens == [orc.path_word(word, i, j)],
                     f"path distance {gens}")
    return orc.check_entry(orc.Graph(graph["vertices"], graph["edges"]),
                           x, y, gens)


def _pair_dist(rng, tiny, nth):
    shape, n = _rotate(nth, ("path", "random"), (6, 7, 8))
    if shape == "path":
        graph, word = _oriented_path(rng, n + 2)
    else:
        graph, word = _random_graph(rng, n, 0.25), None
    x, y = rng.sample(graph["vertices"], 2)
    check = lambda r, c, gm: _check_pair(graph, word, x, y, r, c, gm)
    return Op(("zigzag", "dist", "@graph", "--from", x, "--to", y),
              {"graph": graph}, check)


def _random_poset(rng, n: int) -> dict:
    """Transitive closure of a random DAG on a shuffled vertex order."""
    vs = [f"v{i}" for i in range(n)]
    order = rng.sample(vs, n)
    less = {(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.3}
    while True:
        more = {(a, d) for a, b in less for c, d in less if b == c} - less
        if not more:
            break
        less |= more
    return {"vertices": vs, "edges": sorted(map(list, less))}


def _check_fence(graph, x, y, result, code, gm):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    g = orc.Graph(graph["vertices"], graph["edges"])
    want = [g.fence(x, y, first) for first in "+-"]
    want = [w if w is not None else "infinite" for w in want]
    got = [result["up_fence"], result["down_fence"]]
    return _fail(got == want, f"fence {got}, expected {want}")


def _fence(rng, tiny, nth):
    shape, n = _rotate(nth, ("fence", "poset"), (5, 6, 7, 8))
    if shape == "fence":
        first = rng.choice("+-")
        word = "".join(first if i % 2 == 0 else ("-" if first == "+" else "+")
                       for i in range(n))
        graph = _path_graph(word)
    else:
        graph = _random_poset(rng, n)
    x, y = rng.sample(graph["vertices"], 2)
    check = lambda r, c, gm: _check_fence(graph, x, y, r, c, gm)
    return Op(("zigzag", "fence", "@graph", "--from", x, "--to", y),
              {"graph": graph}, check)


ALGEBRA = Workload(
    "algebra",
    counts={"factor-product": 10, "irreducible-product": 8, "pair-dist": 8,
            "fence": 6, "factor-random": 8},
    kinds={"factor-product": _factor_product,
           "irreducible-product": _irreducible_product,
           "pair-dist": _pair_dist, "fence": _fence,
           "factor-random": _factor_random},
    pool=320, trace_ops=80)


# --- search: semirigidity, affine maps, equivalence lattices, spaces -------------

SEMIRIGID_GUARD, FPP_GUARD, ORTHOGONAL_MAX = 12, 8, 6


def _frac(v) -> str:
    return str(Fraction(v))


def _kernel_preserving_image(rng, pts):
    """Image of a point set under a random affine map that permutes the
    three kernel directions (x, y, x + y): it keeps triangles, centres of
    symmetry and semirigidity."""
    swap = rng.random() < 0.5
    shear = rng.random() < 0.5
    scale = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    shift = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2))
    out = []
    for x, y in pts:
        if swap:
            x, y = y, x
        if shear:
            x, y = x + y, -y
        out.append((scale * x + shift[0], scale * y + shift[1]))
    return out


def _check_plane(pts, expect: dict, result, code, gm):
    """`expect` may fix monogenic, centre and semirigid; the witness and the
    centre are always checked directly."""
    pts = [(Fraction(x), Fraction(y)) for x, y in pts]
    semirigid = expect.get("semirigid")
    if semirigid is None:
        system = gm.semirigid.plane_system(pts)
        semirigid = gm.semirigid.is_semirigid_bruteforce(system)[0]
    if code != (0 if semirigid else 1) or result["semirigid"] is not semirigid:
        return f"exit {code}, semirigid={result['semirigid']}, expected {semirigid}"
    center = orc.centroid_center(pts)
    if result["has_center_of_symmetry"] is not (center is not None):
        return f"has_center_of_symmetry={result['has_center_of_symmetry']}"
    if center is not None and result["center"] != [_frac(c) for c in center]:
        return f"center {result['center']}, expected {center}"
    if "monogenic" in expect and result["monogenic"] is not expect["monogenic"]:
        return f"monogenic={result['monogenic']}"
    if result["monogenic"] and center is None and not semirigid:
        return "monogenic without centre of symmetry but not semirigid"
    if not semirigid:
        f = {orc.parse_point(k): orc.parse_point(v)
             for k, v in result["witness"].items()}
        if set(f) != set(pts) or not set(f.values()) <= set(pts):
            return "witness is not a self map of the point set"
        if not (orc.preserves_kernels(f) and orc.is_witness(f)):
            return "witness is not a preserving non-trivial map"
    return None


def _plane_op(pts, expect) -> Op:
    if len(pts) > SEMIRIGID_GUARD:
        raise ValueError(f"{len(pts)} points exceed the semirigidity guard")
    payload = [[_frac(x), _frac(y)] for x, y in pts]
    check = lambda r, c, gm: _check_plane(payload, expect, r, c, gm)
    argv = ("semirigid", "plane", "@points", "--monogenic", "--symmetry",
            "--check")
    return Op(argv, {"points": payload}, check)


def _stock(name: str, *args):
    """Stock monogenic sets without a centre of symmetry, built here rather
    than by the library so the inputs do not depend on the code under test."""
    if name == "t_n":
        (n,) = args
        return [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
    if name == "t_n2_prime":
        (n,) = args
        return [(i, j) for i in range(n + 1) for j in range(n + 1 - i)
                if i + j in (n - 1, n)] + [(0, 0)]
    lo, hi = args  # band truncation
    return sorted({(0, 0)} | {(x, 1 - x) for x in range(lo, hi + 1)}
                  | {(x, 2 - x) for x in range(lo, hi + 1)})


# Monogenic sets without a centre of symmetry: the plane theorem makes each
# semirigid.  Sizes 6-7 are cheap; 8-11 are the exhaustive proofs.
STOCK_SMALL = [("t_n", 2), ("t_n2_prime", 2), ("band", -1, 1)]
STOCK_BIG = [("t_n2_prime", 3), ("band", -1, 2), ("t_n", 3),
             ("t_n2_prime", 4), ("band", -2, 2)]


def _plane_stock(choices):
    def gen(rng, tiny, nth):
        name, *args = choices[nth % len(choices)] if not tiny else STOCK_SMALL[0]
        pts = _kernel_preserving_image(rng, _stock(name, *args))
        return _plane_op(pts, {"semirigid": True, "monogenic": True})
    return gen


def _plane_random(rng, tiny, nth):
    grid = [(x, y) for x in range(4) for y in range(4)]
    (k,) = _rotate(nth, (5, 6, 7))
    pts = rng.sample(grid, k)
    return _plane_op(pts, {})


def _plane_symmetric(rng, tiny, nth):
    """A random half plus its reflection through a random centre: the point
    reflection preserves all three kernels, so the set is not semirigid."""
    c = (Fraction(rng.randint(0, 3), 2), Fraction(rng.randint(0, 3), 2))
    while True:
        half = {(Fraction(rng.randint(-2, 3)), Fraction(rng.randint(-2, 3)))
                for _ in range(rng.randint(2, 4))}
        pts = sorted(half | {(2 * c[0] - x, 2 * c[1] - y) for x, y in half})
        if 3 <= len(pts) <= 8:
            return _plane_op(pts, {"semirigid": False})


def _check_zadori(n, result, code, gm):
    # Zadori's systems are semirigid for n = 3 and n >= 5
    if code != 0 or result["semirigid"] is not True:
        return f"zadori {n}: exit {code}, semirigid={result['semirigid']}"
    if n <= 7:
        system = gm.semirigid.zadori_system(n)
        if not gm.semirigid.is_semirigid_bruteforce(system)[0]:
            return f"zadori {n}: brute-force oracle finds a witness"
    return None


def _zadori(sizes):
    def gen(rng, tiny, nth):
        n = sizes[nth % len(sizes)] if not tiny else 6
        if n > SEMIRIGID_GUARD:
            raise ValueError("zadori system exceeds the semirigidity guard")
        check = lambda r, c, gm: _check_zadori(n, r, c, gm)
        return Op(("semirigid", "zadori", str(n), "--check"), {}, check)
    return gen


def _check_affine(offset, mult, perturbed, result, code, gm):
    if perturbed:
        ok = code == 1 and result["affine"] is False \
            and "congruence" in result["reason"]
        return _fail(ok, f"perturbed grid: exit {code}, {result}")
    ok = code == 0 and result["affine"] is True \
        and result["offset"] == list(offset) and result["multiplier"] == mult
    return _fail(ok, f"affine grid: exit {code}, {result}")


def _affine(rng, tiny, nth):
    shapes = [(2, m) for m in range(1, 7)] + [(3, 1), (3, 2)]
    (dim, m), perturbed = _rotate(nth, shapes if not tiny else [(2, 1)],
                                  (False, True))
    offset = tuple(rng.randint(-5, 5) for _ in range(dim))
    mult = rng.randint(-3, 3)
    window = [[-m, m]] * dim
    pts = list(itertools.product(range(-m, m + 1), repeat=dim))
    values = {p: [offset[i] + mult * p[i] for i in range(dim)] for p in pts}
    if perturbed:
        # moving one value off its axis breaks the congruence of another axis
        p = rng.choice(pts)
        values[p][rng.randrange(dim)] += rng.choice([-2, -1, 1, 2])
    payload = {"dimension": dim, "window": window,
               "values": [[list(p), v] for p, v in values.items()]}
    check = lambda r, c, gm: _check_affine(offset, mult, perturbed, r, c, gm)
    return Op(("zcong", "affine", "@grid"), {"grid": payload}, check)


# Largest strongly orthogonal families, keyed by (n, block size).  The
# family itself is checked directly; the sizes are those the exhaustive
# search established and the pinned report hashes guard.
ORTHOGONAL_SIZES = {(3, None): 3, (4, None): 3, (4, 2): 3, (5, None): 5,
                    (6, None): 5, (6, 2): 5, (6, 3): 1}


def _check_orthogonal(n, bs, result, code, gm):
    bad = _expect_code(code, 0)
    if bad:
        return bad
    fam = result["family"]
    carrier = list(range(n))
    if result["size"] != len(fam) or len(fam) != ORTHOGONAL_SIZES[(n, bs)]:
        return f"family size {result['size']}, expected {ORTHOGONAL_SIZES[(n, bs)]}"
    for p in fam:
        if sorted(x for b in p for x in b) != carrier or len(p) == n:
            return f"{p} is not a non-discrete partition of {n}"
        if bs is not None and any(len(b) != bs for b in p):
            return f"{p} does not have blocks of size {bs}"
    for p, q in itertools.combinations(fam, 2):
        meet, join = orc.partition_meet_join(p, q, carrier)
        if len(meet) != n or len(join) != 1:
            return f"{p} and {q} are not strongly orthogonal"
    return None


def _orthogonal_op(n, bs) -> Op:
    if n > ORTHOGONAL_MAX:
        raise ValueError("orthogonal search beyond the benchmark's cap")
    argv = ("eqv", "orthogonal", str(n)) + \
        (("--block-size", str(bs)) if bs is not None else ())
    check = lambda r, c, gm: _check_orthogonal(n, bs, r, c, gm)
    return Op(argv, {}, check)


def _orthogonal_small(rng, tiny, nth):
    small = [k for k in ORTHOGONAL_SIZES if k != (6, None)]
    return _orthogonal_op(*(small[nth % len(small)] if not tiny else (4, None)))


def _orthogonal_six(rng, tiny, nth):
    return _orthogonal_op(6, None) if not tiny else _orthogonal_op(4, 2)


def _mod_blocks(n: int, d: int) -> list[list[int]]:
    return [list(range(r, n, d)) for r in range(d)]


def _zn_system(rng, nth):
    (n,) = _rotate(nth, (6, 8, 9, 10, 12))
    divs = [d for d in range(2, n) if n % d == 0]
    ds = rng.sample(divs, min(len(divs), rng.randint(2, 3)))
    return n, ds, {"carrier": list(range(n)),
                   "relations": [_mod_blocks(n, d) for d in ds]}


def _check_arith(size, arithmetical, result, code, gm):
    ok = code == (0 if arithmetical else 1) \
        and result["arithmetical"] is arithmetical \
        and result["closure_size"] == size
    return _fail(ok, f"exit {code}, {result}, expected size {size} "
                     f"arithmetical={arithmetical}")


def _eqv_arith(rng, tiny, nth):
    if nth % 2 == 0:
        # congruences of Z_n: a distributive lattice of commuting relations
        n, ds, payload = _zn_system(rng, nth // 2)
        size, arithmetical = len(orc.divisor_closure(ds)), True
    else:
        # coset partitions of k lines through 0 in F_p^2: pairwise meets are
        # equality and joins are full, so k >= 3 lines give M_k
        p = (2, 3)[nth // 2 % 2]
        k = rng.randint(2, p + 1)
        plane = list(itertools.product(range(p), repeat=2))
        label = dict(zip(plane, rng.sample(range(p * p), p * p)))
        lines = [(1, s) for s in range(p)] + [(0, 1)]
        rels = []
        for a, b in rng.sample(lines, k):
            cosets = {}
            for x, y in plane:
                cosets.setdefault((b * x - a * y) % p, []).append(label[(x, y)])
            rels.append(sorted(sorted(c) for c in cosets.values()))
        payload = {"carrier": list(range(p * p)), "relations": rels}
        size, arithmetical = k + 2, k == 2
    check = lambda r, c, gm: _check_arith(size, arithmetical, r, c, gm)
    return Op(("eqv", "arithmetical", "@input"), {"input": payload}, check)


def _check_crt(ds, cons, result, code, gm):
    bad_pairs = [(i, j) for i, j in itertools.combinations(range(len(cons)), 2)
                 if (cons[i][0] - cons[j][0]) % orc.gcd(ds[cons[i][1]],
                                                        ds[cons[j][1]])]
    if bad_pairs:
        ok = code == 1 and result["status"] == "incompatible" \
            and tuple(result["witness_pair"]) == bad_pairs[0]
        return _fail(ok, f"exit {code}, {result}, expected incompatible "
                         f"{bad_pairs[0]}")
    if code != 0 or result["status"] != "ok":
        return f"exit {code}, {result}, expected a solution"
    x = result["solution"]
    return _fail(all((x - a) % ds[i] == 0 for a, i in cons),
                 f"{x} does not solve {cons}")


def _eqv_crt(rng, tiny, nth):
    n, ds, payload = _zn_system(rng, nth)
    x0 = rng.randrange(n)
    cons = []
    for i, d in enumerate(ds):
        a = (x0 + d * rng.randrange(n)) % n
        if rng.random() < 0.25:
            a = rng.randrange(n)
        cons.append([a, i])
    payload = dict(payload, constraints=cons)
    check = lambda r, c, gm: _check_crt(ds, cons, r, c, gm)
    return Op(("eqv", "crt", "@input"), {"input": payload}, check)


def _check_extend(ds, f, z, violated, result, code, gm):
    if violated:
        return _fail(code == 1 and result["status"] == "preservation_violated",
                     f"exit {code}, {result}, expected preservation_violated")
    if code != 0 or result["status"] != "ok":
        return f"exit {code}, {result}, expected an extension"
    g = {k: v for k, v in result["extension"]}
    if set(g) != set(f) | {z} or any(g[k] != v for k, v in f.items()):
        return f"extension {g} does not extend {f} to {z}"
    return _fail(all(orc.preserves_mod(g, d) for d in orc.divisor_closure(ds)),
                 f"extension {g} breaks a congruence")


def _eqv_extend(rng, tiny, nth):
    n, ds, payload = _zn_system(rng, nth)
    alpha, beta = rng.randrange(n), rng.randrange(n)
    dom = rng.sample(range(n), rng.randint(2, 5))
    z = rng.choice([x for x in range(n) if x not in dom])
    # affine maps mod n preserve every congruence mod a divisor of n
    f = {x: (alpha + beta * x) % n for x in dom}
    closure = orc.divisor_closure(ds)
    violated = False
    if rng.random() < 0.3:
        for _ in range(20):
            g = dict(f)
            g[rng.choice(dom)] = rng.randrange(n)
            if not all(orc.preserves_mod(g, d) for d in closure):
                f, violated = g, True
                break
    payload = dict(payload, map=[[k, v] for k, v in f.items()], z=z)
    check = lambda r, c, gm: _check_extend(ds, f, z, violated, r, c, gm)
    return Op(("eqv", "extend", "@input"), {"input": payload}, check)


def _stock_monoid(rng, tiny, kind):
    """(elements, leq, oplus, inv, zero) of a stock finite Heyting
    algebra: chains, Boolean lattices and divisor lattices under join with
    the identity involution, and the five-element zigzag truncation."""
    if tiny:
        kind = "chain"
    if kind == "chain":
        n = rng.randint(1, FPP_GUARD - 1) if not tiny else 2
        els = list(range(n + 1))
        return els, (lambda a, b: a <= b), max, (lambda a: a), 0
    if kind == "boolean":
        k = rng.randint(1, 3)
        els = [tuple(c) for r in range(k + 1)
               for c in itertools.combinations("abc"[:k], r)]
        return (els, (lambda a, b: set(a) <= set(b)),
                (lambda a, b: tuple(sorted(set(a) | set(b)))), (lambda a: a), ())
    if kind == "divisor":
        n = rng.choice([6, 8, 12, 18, 20, 28, 30])
        els = [d for d in range(1, n + 1) if n % d == 0]
        return els, (lambda a, b: b % a == 0), orc.lcm, (lambda a: a), 1
    below = {"0": "", "n": "0", "p": "0n", "m": "0n", "t": "0npm"}
    inv = {"0": "0", "n": "n", "p": "m", "m": "p", "t": "t"}
    # every product of two nonzero elements saturates to the top
    op = lambda a, b: b if a == "0" else a if b == "0" else "t"
    return (list(below), (lambda a, b: a == b or a in below[b]), op,
            inv.__getitem__, "0")


def _space(rng, tiny, kind):
    els, leq, op, inv, zero = _stock_monoid(rng, tiny, kind)
    if len(els) > FPP_GUARD:
        raise ValueError("space exceeds the fpp guard")
    dist = orc.canonical_distance(els, leq, op, inv)
    names = [f"p{i}" for i in range(len(els))]
    rng.shuffle(names)
    point = dict(zip(els, names))
    order = sorted(els, key=point.get)
    js = lambda e: list(e) if isinstance(e, tuple) else e
    payload = {
        "points": [point[e] for e in order],
        "monoid": {"elements": [js(e) for e in els],
                   "leq": [[js(a), js(b)] for a in els for b in els
                           if a != b and leq(a, b)],
                   "oplus": [[js(a), js(b), js(op(a, b))] for a in els for b in els],
                   "involution": [[js(a), js(inv(a))] for a in els],
                   "zero": js(zero)},
        "dist": [[js(dist[(a, b)]) for b in order] for a in order]}
    table = (order, point, dist, leq)
    return payload, table


def _check_gms(cmd, payload, table, result, code, gm):
    if cmd == "check":
        # the canonical distance of a Heyting table satisfies the axioms
        return _fail(code == 0 and result["axioms_hold"] is True,
                     f"exit {code}, {result}")
    if cmd == "hyperconvex":
        ok = code == 0 and result["hyperconvex"] is True \
            and result["convex"] is True and result["two_helly"] is True
        return _fail(ok, f"exit {code}, {result}")
    order, point, dist, leq = table
    elem = {v: k for k, v in point.items()}
    if code == 0:
        if result["fixed_point_property"] is not True:
            return f"exit 0 with {result}"
        space = gm.spaces.space_from_json(payload)
        free = [f for f in space.nonexpansive_selfmaps()
                if all(f[x] != x for x in space.points)]
        return _fail(not free, "oracle finds a fixed-point-free map")
    if code != 1 or result["fixed_point_property"] is not False:
        return f"exit {code}, {result}"
    f = {elem[k]: elem[v] for k, v in result["witness"].items()}
    ok = set(f) == set(order) and all(f[x] != x for x in order) and \
        all(leq(dist[(f[x], f[y])], dist[(x, y)]) for x in order for y in order)
    return _fail(ok, f"witness {result['witness']} is not a fixed-point-free "
                     "non-expansive map")


def _gms(rng, tiny, nth):
    cmd, kind = _rotate(nth, ("check", "hyperconvex", "fpp"),
                        ("chain", "boolean", "divisor", "truncation"))
    payload, table = _space(rng, tiny, kind)
    check = lambda r, c, gm: _check_gms(cmd, payload, table, r, c, gm)
    return Op(("gms", cmd, "@space"), {"space": payload}, check)


SEARCH = Workload(
    "search",
    counts={"gms": 5, "eqv-crt": 2, "eqv-extend": 2, "plane-random": 8,
            "plane-symmetric": 3, "eqv-arith": 2, "zadori-small": 2,
            "affine": 4, "orthogonal-small": 2, "plane-stock-small": 2,
            "zadori12": 6, "orthogonal6": 1, "plane-stock-big": 1},
    kinds={"plane-random": _plane_random,
           "plane-stock-small": _plane_stock(STOCK_SMALL),
           "plane-symmetric": _plane_symmetric,
           "zadori-small": _zadori([3, 5, 6, 7, 8, 9, 10]),
           "affine": _affine, "orthogonal-small": _orthogonal_small,
           "eqv-arith": _eqv_arith, "eqv-crt": _eqv_crt,
           "eqv-extend": _eqv_extend, "gms": _gms,
           "zadori12": _zadori([12]), "orthogonal6": _orthogonal_six,
           "plane-stock-big": _plane_stock(STOCK_BIG)},
    pool=240, trace_ops=40)

WORKLOADS = {w.name: w for w in (ZIGZAG, ALGEBRA, SEARCH)}
