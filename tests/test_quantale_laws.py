"""The quantale laws, one body for every carrier: the stock tables checked
exhaustively, a non-commutative table of cut final segments, and the
final-segment quantale on random triples, all read only through the
operations of the `_orders` protocol."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gmspace._orders import NotResiduated, canonical_distance, least_of
from gmspace.segments import SEGMENTS, FinalSegment
from gmspace.spaces import MonoidTable
from gmspace.words import PLUS_MINUS, all_words

TABLES = {
    "chain3": MonoidTable.chain(3),
    "boolean_ab": MonoidTable.boolean("ab"),
    "divisors12": MonoidTable.divisor_lattice(12),
    "involutive_four": MonoidTable.involutive_four(),
    "zigzag_truncation": MonoidTable.zigzag_truncation(),
}

segments = st.lists(st.text(alphabet="+-", max_size=3), max_size=3).map(
    lambda ws: FinalSegment.of(PLUS_MINUS, ws))


def least_or_none(fn, *args):
    """fn(*args), or None where it raises NotResiduated."""
    try:
        return fn(*args)
    except NotResiduated:
        return None


def check_laws(q, zero, heyting, a, b, c):
    """Every law on the triple (a, b, c); c also stands for the r that the
    residuals and the canonical distance of (a, b) must lie below."""
    leq, oplus, inv, meet = q.leq, q.oplus, q.inv, q.meet
    low, high = meet(a, b), q.join(a, b)
    assert leq(low, a) and leq(low, b) and leq(a, high) and leq(b, high)
    if leq(c, a) and leq(c, b):
        assert leq(c, low)
    if leq(a, c) and leq(b, c):
        assert leq(high, c)
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
    assert oplus(a, zero) == a == oplus(zero, a)
    assert inv(inv(a)) == a
    assert inv(oplus(a, b)) == oplus(inv(b), inv(a))
    if leq(a, b):
        assert leq(inv(a), inv(b))
    if heyting:
        assert oplus(a, meet(b, c)) == meet(oplus(a, b), oplus(a, c))
        assert oplus(meet(b, c), a) == meet(oplus(b, a), oplus(c, a))
    # a residual, where one exists, is adjoint to oplus by monotonicity;
    # over a Heyting carrier one always exists
    right = least_or_none(q.residual, a, b, "right")
    left = least_or_none(q.residual, a, b, "left")
    for res, above in ((right, oplus(c, b)), (left, oplus(b, c))):
        assert res is not None or not heyting
        if res is not None:
            assert leq(a, above) == leq(res, c)
    d = least_or_none(canonical_distance, q, a, b)
    assert d is not None or not heyting
    if d is not None:
        assert leq(a, oplus(b, inv(d))) and leq(b, oplus(a, d))
        if leq(a, oplus(b, inv(c))) and leq(b, oplus(a, c)):
            assert leq(d, c)


@pytest.mark.parametrize("name", TABLES)
def test_table_laws_exhaustively(name):
    q = TABLES[name]
    heyting = q.is_heyting()
    assert heyting == (name != "involutive_four")
    for a, b, c in itertools.product(q.elements, repeat=3):
        check_laws(q, q.zero, heyting, a, b, c)


def truncated_segments(k):
    """T_k: the final segments of +- words cut to the words of length <= k,
    in reverse inclusion.  Cutting keeps the generators of length <= k, and
    it commutes with unions, with the involution and with the upward
    closure of a concatenation, so the cut of oplus is the operation."""
    words = list(all_words(PLUS_MINUS, k))
    elements = list(dict.fromkeys(
        FinalSegment.of(PLUS_MINUS, ws) for r in range(len(words) + 1)
        for ws in itertools.combinations(words, r)))

    def cut(s):
        return FinalSegment(PLUS_MINUS, tuple(g for g in s.generators
                                              if len(g) <= k))

    return MonoidTable(
        elements, [(a, b) for a in elements for b in elements if a.leq(b)],
        {(a, b): cut(a.oplus(b)) for a in elements for b in elements},
        {a: a.involute() for a in elements}, FinalSegment.zero(PLUS_MINUS))


def test_cut_segment_table_separates_left_and_right_residuals():
    # every stock table is commutative; on T_2 a residual taken on the wrong
    # side breaks the adjunction law for some c
    q = truncated_segments(2)
    assert len(q.elements) == 22 and q.is_heyting()
    pairs = list(itertools.product(q.elements, repeat=2))
    assert sum(q.residual(a, b, "right") != q.residual(a, b, "left")
               for a, b in pairs) == 38
    for (a, b), c in itertools.product(pairs, q.elements[::5]):
        check_laws(q, q.zero, True, a, b, c)


@settings(max_examples=1000, deadline=None)
@given(segments, segments, segments)
def test_segment_laws(a, b, c):
    check_laws(SEGMENTS, FinalSegment.zero(PLUS_MINUS), True, a, b, c)


def test_involutive_four_raises_exactly_where_no_least_residual_exists():
    q = TABLES["involutive_four"]
    missing = []
    for v, b in itertools.product(q.elements, repeat=2):
        for side in ("right", "left"):
            above = [r for r in q.elements if q.leq(
                v, q.oplus(r, b) if side == "right" else q.oplus(b, r))]
            least = least_of(above, q.leq)
            if least is None:
                missing.append((v, b, side))
                with pytest.raises(NotResiduated) as err:
                    q.residual(v, b, side)
                assert err.value.pair == (v, b)
            else:
                assert q.residual(v, b, side) == least
    assert ("p", "m", "right") in missing and ("p", "m", "left") in missing
