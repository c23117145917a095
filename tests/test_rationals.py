import random
from fractions import Fraction

import pytest

from paramregions.rationals import Rational, simplest_between

from oracles import reference_simplest


def ends(lo, hi):
    return [None if x is None else (x.numerator, x.denominator) for x in (lo, hi)]


class TestSimplestBetween:
    @pytest.mark.parametrize(
        "lo, hi, want",
        [
            (None, None, 0),
            (Fraction(-1, 3), Fraction(1, 7), 0),
            (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)),
            (Fraction(-1, 2), Fraction(-1, 3), Fraction(-2, 5)),
            (Fraction(3), Fraction(4), Fraction(7, 2)),  # the ends themselves are not inside
            (Fraction(5, 2), None, 3),
            (None, Fraction(-5, 2), -3),
            (None, Fraction(0), -1),
            (Fraction(0), Fraction(1, 1000), Fraction(1, 1001)),
            (Fraction(355, 113), Fraction(22, 7), Fraction(377, 120)),
        ],
    )
    def test_hand_made_intervals(self, lo, hi, want):
        got = simplest_between(*ends(lo, hi))
        assert isinstance(got, Rational)
        assert got == want == reference_simplest(lo, hi)

    def test_matches_search_by_denominator(self):
        rng = random.Random(41)
        for trial in range(3000):
            a, b = (Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(2))
            if a == b:
                continue
            lo, hi = min(a, b), max(a, b)
            roll = trial % 5
            if roll == 0:
                lo = None
            elif roll == 1:
                hi = None
            elif roll == 2:  # an interval holding an integer
                hi = lo + rng.randint(1, 3)
            assert simplest_between(*ends(lo, hi)) == reference_simplest(lo, hi), (lo, hi)
