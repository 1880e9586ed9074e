"""One closed form for every finite distributive lattice.

A distributive lattice is the lattice of order ideals of its poset J of
join-irreducibles; with N = |J| points, m of them maximal, its series is
``families._distributive_series(N, m)``.  The Boolean, chain and divisor
closed forms are three calls to it, checked here against the formulas
they replaced, and the formula is checked against the engine on every
small poset's ideal lattice and on every distributive census class.
"""

from fractions import Fraction

import pytest

from latzeta.families import (
    _distributive_series,
    boolean_zeta_closed,
    chain_zeta_closed,
    divisibility_zeta_closed,
)
from latzeta.lattice import Lattice
from latzeta.search import enumerate_lattices
from latzeta.zeta import zeta_series

from builders import (
    boolean_series_by_rank,
    chain_series_by_case,
    divisor_series_by_omega,
    is_distributive,
    maximal_irreducible_count,
    naturally_labeled_posets,
    order_ideals,
)


@pytest.mark.parametrize("closed, oracle, args", [
    (boolean_zeta_closed, boolean_series_by_rank, range(1, 201)),
    (chain_zeta_closed, chain_series_by_case, range(2, 2001)),
    (divisibility_zeta_closed, divisor_series_by_omega, range(2, 10**4 + 1)),
], ids=["boolean", "chain", "divisor"])
def test_closed_forms_match_the_formulas_they_replaced(closed, oracle, args):
    for a in args:
        assert closed(a).terms() == oracle(a).terms(), a


def test_formula_small_cases():
    assert _distributive_series(1, 1).term_map() == {1: 1}  # the 2-chain
    assert _distributive_series(2, 1).term_map() == {1: 1, 2: -1}  # the 3-chain
    assert _distributive_series(2, 2).term_map() == {1: 1, 2: -2}  # B_2
    # the ideals of a point below two: the base 3/2 carries -m = -2
    assert _distributive_series(3, 2).term_map() == {1: 1, Fraction(3, 2): -2, 3: 1}


def _check_poset_ideals(n):
    for up in naturally_labeled_posets(n):
        down = [sum(1 << x for x in range(n) if (up[x] >> y) & 1) for y in range(n)]
        lattice = Lattice.from_sets(order_ideals(down))
        assert len(lattice.join_irreducibles()) == n
        maximal = sum(u == 1 << i for i, u in enumerate(up))
        series = zeta_series(lattice).series
        assert series == _distributive_series(n, maximal), up
        assert series.is_ordinary() == (n <= 2), up


@pytest.mark.parametrize("n", range(1, 6))
def test_formula_matches_the_engine_on_poset_ideals(n):
    _check_poset_ideals(n)


@pytest.mark.long
def test_formula_matches_the_engine_on_six_point_poset_ideals():
    _check_poset_ideals(6)


# distributive classes on n = 2..10 elements (OEIS A006982)
DISTRIBUTIVE_CLASSES = [1, 1, 2, 3, 5, 8, 15, 26, 47]


def test_census_distributive_classes_follow_the_formula():
    counts, ordinary = [], []
    for n in range(2, 11):
        found = [lattice for lattice in enumerate_lattices(n) if is_distributive(lattice)]
        counts.append(len(found))
        for lattice in found:
            j = len(lattice.join_irreducibles())
            series = zeta_series(lattice).series
            assert series == _distributive_series(j, maximal_irreducible_count(lattice))
            if series.is_ordinary():
                ordinary.append((n, j))
    assert counts == DISTRIBUTIVE_CLASSES
    assert sum(counts) == 108
    # the 2-chain, the 3-chain and B_2
    assert ordinary == [(2, 1), (3, 2), (4, 2)]
