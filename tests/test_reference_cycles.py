"""The recursive searches leave no reference cycles behind, so a call's
tables are freed by reference counting when it returns, not at the next
full collection."""
import gc

import pytest

from gmspace import automata, partitions, semirigid, spaces
from gmspace.words import PLUS_MINUS, Word

from conftest import upset_automaton


def finite_acceptor():
    aut = upset_automaton(PLUS_MINUS, [Word.parse("+-")])
    bigger = automata.determinize(automata.insert_one_letter(aut))
    return automata.intersect(automata.determinize(aut), automata.complement(bigger))


ENTRY_POINTS = {
    "is_semirigid": lambda: semirigid.is_semirigid(semirigid.zadori_system(6)),
    "system_isomorphism": lambda: semirigid.system_isomorphism(
        semirigid.zadori_system(5), semirigid.zadori_system(5)),
    "orthogonal_family_search": lambda: partitions.orthogonal_family_search(4),
    "all_partitions": lambda: list(partitions.all_partitions(range(4))),
    "fpp_check": lambda: spaces.canonical_distance_space(
        spaces.MonoidTable.chain(3)).fpp_check(),
    "is_2helly": lambda: spaces.canonical_distance_space(
        spaces.MonoidTable.boolean("ab")).is_2helly(),
    "enumerate_finite": lambda: automata.enumerate_finite(finite_acceptor()),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_leaves_no_garbage_cycles(name):
    call = ENTRY_POINTS[name]
    call()  # warm up any lazily built module state
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
