"""The bitmask search kernel `_orders.first_map` against the tuple-domain
search it replaced (`reference_first_map`): the same map, with its keys in
the same order, on random tables with every combination of options."""
import itertools
import random
from typing import Callable, Optional, Sequence

from gmspace._orders import first_map, members


def reference_first_map(domains: Sequence[tuple],
                        allowed: Sequence[Sequence[dict]], *,
                        fewest_first: bool = False,
                        reorder: Optional[Callable] = None,
                        seed: Optional[tuple] = None,
                        forbidden: Optional[Sequence] = None,
                        leaf: Optional[Callable] = None) -> Optional[dict]:
    """The kernel on tuples of values and sets: domains are tuples in the
    order they are tried, allowed entries and forbidden values are sets, and
    `reorder` reorders each tuple of kept values."""
    forbidden = forbidden or [frozenset()] * len(domains)
    assign, pending = {}, {}
    if seed:
        x0, v0 = seed
        assign, pending = {x0: v0}, allowed[x0][v0]
    return _reference_extend(allowed, forbidden, reorder, leaf, fewest_first,
                             assign, dict(enumerate(domains)), pending)


def _reference_extend(allowed, forbidden, reorder, leaf, fewest_first, assign,
                      domains, pending) -> Optional[dict]:
    n = len(domains)
    if len(assign) == n:
        return dict(assign) if leaf is None or leaf(assign) else None
    x = min((len(domains[y]) if fewest_first else 0, y)
            for y in range(n) if y not in assign)[1]
    only = pending.get(x)
    for v in domains[x]:
        if v in forbidden[x] or (only is not None and v not in only):
            continue
        assign[x] = v
        limits = allowed[x][v]
        saved = {}
        for y in range(n):
            if y in assign:
                continue
            ok = limits.get(y)
            if y in pending:
                ok = pending[y] if ok is None else ok & pending[y]
            saved[y] = old = domains[y]
            keep = old if ok is None else tuple(w for w in old if w in ok)
            domains[y] = keep = keep if reorder is None else reorder(keep)
            if forbidden[y].issuperset(keep):
                break
        else:
            found = _reference_extend(allowed, forbidden, reorder, leaf,
                                      fewest_first, assign, domains, {})
            if found:
                return found
        domains.update(saved)
        del assign[x]
    return None


def random_mask(rng, m, density):
    return sum(1 << w for w in range(m) if rng.random() < density)


def random_problem(rng):
    """Variables, values, domains and an allowed table as bitmasks; some
    entries are missing (no limit)."""
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    density = rng.choice([0.4, 0.6, 0.8])
    domains = [random_mask(rng, m, 0.8) for _ in range(n)]
    allowed = [[{y: random_mask(rng, m, density) for y in range(n)
                 if y != x and rng.random() < 0.8} for _ in range(m)]
               for x in range(n)]
    return n, m, domains, allowed


def rotate(values: tuple) -> tuple:
    # depends on the order it is given, as an order of set iteration does
    return values[len(values) // 2:] + values[:len(values) // 2]


def as_sets(allowed):
    return [[{y: set(members(mask)) for y, mask in row.items()}
             for row in table] for table in allowed]


def test_bitmask_kernel_matches_tuple_kernel():
    rng = random.Random(2203)
    found = 0
    for k in range(3000):
        n, m, domains, allowed = random_problem(rng)
        options, reference = {}, {}
        if k % 2:
            options["fewest_first"] = reference["fewest_first"] = True
        if k // 2 % 2:
            options["reorder"] = reference["reorder"] = rotate
        if k // 4 % 2:
            x0 = rng.randrange(n)
            options["seed"] = reference["seed"] = (x0, rng.randrange(m))
        if k // 8 % 2:
            forbidden = [random_mask(rng, m, 0.3) for _ in range(n)]
            options["forbidden"] = forbidden
            reference["forbidden"] = [set(members(f)) for f in forbidden]
        if k // 16 % 2:
            wanted = rng.randrange(m)
            options["leaf"] = reference["leaf"] = \
                lambda f, wanted=wanted: wanted in f.values()
        order = rotate if "reorder" in options else tuple
        got = first_map(domains, allowed, **options)
        want = reference_first_map([order(members(d)) for d in domains],
                                   as_sets(allowed), **reference)
        assert got == want, (k, domains, allowed, options, got, want)
        assert list((got or {}).items()) == list((want or {}).items())
        found += got is not None
    assert 300 < found < 2700


def test_exhaustive_small_tables():
    # every table on two variables with two values: the limits each
    # assignment puts on the other variable, missing or any mask
    entries = [None, 0, 1, 2, 3]
    for table in itertools.product(entries, repeat=4):
        allowed = [[{} if e is None else {1 - x: e}
                    for e in table[2 * x:2 * x + 2]] for x in range(2)]
        for fewest_first in (False, True):
            got = first_map([3, 3], allowed, fewest_first=fewest_first)
            want = reference_first_map([(0, 1), (0, 1)], as_sets(allowed),
                                       fewest_first=fewest_first)
            assert got == want and list((got or {}).items()) == \
                list((want or {}).items()), (table, got, want)
