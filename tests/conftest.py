import random
import time

import pytest

from gmspace.segments import FinalSegment
from gmspace.words import PLUS_MINUS, Word, all_words


@pytest.fixture
def pm():
    return PLUS_MINUS


def w(text: str) -> Word:
    return Word.parse(text, PLUS_MINUS)


def seg(*gens: str) -> FinalSegment:
    return FinalSegment.of(PLUS_MINUS, list(gens))


def random_segment(rng: random.Random, max_len: int = 3,
                   max_gens: int = 3) -> FinalSegment:
    pool = [x for x in all_words(PLUS_MINUS, max_len)]
    k = rng.randint(1, max_gens)
    return FinalSegment.of(PLUS_MINUS, rng.sample(pool, k))


def naive_upset_members(gens, max_len: int):
    """Oracle: membership by direct subword scan over all words."""
    return [v for v in all_words(PLUS_MINUS, max_len)
            if any(g <= v for g in gens)]


class Budget:
    """Times a block, prints a PASS/FAIL line and fails past the budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {verdict} in {elapsed:.1f}s "
              f"(budget {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded its budget"
