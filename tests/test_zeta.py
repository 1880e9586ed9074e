"""Series engine: exact values on known lattices, report structure, and
agreement with the two brute-force oracles."""

import functools
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latzeta.cosetlike import load_fixture
from latzeta.dirichlet import DirichletSeries
from latzeta.errors import (
    BottomTarget,
    BudgetExceeded,
    DegenerateGeneration,
    MismatchDetected,
)
from latzeta.families import (
    boolean_lattice,
    chain,
    d_divisible_partition_lattice,
    divisibility_lattice,
    partition_lattice,
    subspace_lattice,
)
from latzeta.lattice import Lattice
from latzeta.search import enumerate_lattices
from latzeta.zeta import (
    ORACLE_MAX_S,
    brute_force_probability,
    verify_series_against_oracle,
    zeta_series,
    zeta_series_atom_based,
)


def test_boolean_two():
    report = zeta_series(boolean_lattice(2))
    # top contributes at base 1; both atoms at base 2
    assert report.series.term_map() == {Fraction(1): 1, Fraction(2): -2}
    assert report.j_count == 2
    assert report.ordinary
    assert report.strongly_coset_like


def test_boolean_three_not_ordinary():
    report = zeta_series(boolean_lattice(3))
    assert report.series.term_map() == {
        Fraction(1): 1,
        Fraction(3, 2): -3,
        Fraction(3): 3,
    }
    assert not report.ordinary
    assert not report.strongly_coset_like


def test_chain_series():
    # a k-chain has k-1 irreducibles; only the top and coatom contribute
    for k in range(3, 7):
        report = zeta_series(chain(k))
        assert report.series.term_map() == {
            Fraction(1): 1,
            Fraction(k - 1, k - 2): -1,
        }
    assert zeta_series(chain(2)).series.term_map() == {Fraction(1): 1}


def test_divisor_lattice_six():
    # squarefree with two prime factors: the lattice is B_2
    assert zeta_series(divisibility_lattice(6)).series.term_map() == {
        Fraction(1): 1,
        Fraction(2): -2,
    }


def test_report_fields():
    lat = boolean_lattice(3)
    report = zeta_series(lat)
    assert report.lattice is lat
    assert report.j_below[lat.bottom] == 0
    assert report.j_below[lat.top] == report.j_count
    assert report.mobius_top == lat.mobius_to_top()
    # local sums keep vanishing bases; the series drops them
    assert sum(report.local_sums.values()) == -lat.mobius(lat.bottom, lat.top)
    doc = report.to_doc()
    assert doc["n"] == 8 and doc["j_count"] == 3
    assert len(doc["local_sums"]) == len(report.local_sums)


def test_value_at_zero_is_minus_mobius(lattices_by_size):
    for n, lats in lattices_by_size.items():
        for lat in lats:
            got = zeta_series(lat).series.evaluate_exact(0)
            assert got == -lat.mobius(lat.bottom, lat.top)


def test_atom_based_agrees_on_atomistic(lattices_by_size):
    for lat in lattices_by_size[7]:
        if lat.is_atomistic():
            assert zeta_series_atom_based(lat) == zeta_series(lat).series


def reference_pass(lattice):
    """The engine as a plain per-element loop: one ``Fraction`` base and
    one ``count_below_irreducibles`` call per element, summed by base."""
    j_count = len(lattice.join_irreducibles())
    mu = lattice.mobius_to_top()
    sums = {}
    j_below = [0] * lattice.n
    strongly = True
    for x in range(lattice.n):
        if x == lattice.bottom:
            continue
        j_below[x] = lattice.count_below_irreducibles(x)
        q = Fraction(j_count, j_below[x])
        strongly = strongly and q.denominator == 1
        sums[q] = sums.get(q, 0) + mu[x]
    return sums, tuple(j_below), strongly


def test_engine_pass_matches_per_element_reference(lattices_by_size):
    lats = [lat for lats in lattices_by_size.values() for lat in lats]
    lats += [
        partition_lattice(6),
        d_divisible_partition_lattice(2, 3),
        subspace_lattice(2, 3),
        boolean_lattice(5),
        load_fixture("ten_point"),
        load_fixture("eleven_point"),
    ]
    for lat in lats:
        report = zeta_series(lat)
        sums, j_below, strongly = reference_pass(lat)
        assert list(report.local_sums.items()) == list(sums.items())
        assert report.j_below == j_below
        assert report.strongly_coset_like == strongly
        assert report.series == DirichletSeries(sums)


def test_atom_based_counts_atom_tuples(lattices_by_size):
    """Brown's series at s is the share of the s-tuples of atoms whose
    join is the top, also on lattices whose atoms are not all of J."""
    checked = non_atomistic = 0
    for lats in lattices_by_size.values():
        for lat in lats:
            atoms = lat.atoms()
            if lat.join_set(atoms) != lat.top:
                continue
            series = zeta_series_atom_based(lat)
            for s in range(1, 5):
                hits = sum(
                    lat.join_set(t) == lat.top
                    for t in itertools.product(atoms, repeat=s)
                )
                assert series.evaluate_exact(s) == Fraction(hits, len(atoms) ** s)
            checked += 1
            non_atomistic += not lat.is_atomistic()
    assert checked > 0 and non_atomistic > 0


def test_atom_based_rejects_degenerate():
    # in a chain the single atom joins to itself, not to the top
    with pytest.raises(DegenerateGeneration):
        zeta_series_atom_based(chain(4))


# ----------------------------------------------------------------------
# oracles


def test_brute_force_known_value():
    # both atoms of B_2 must appear among the s draws: 1 - 2/2^s
    lat = boolean_lattice(2)
    assert brute_force_probability(lat, lat.top, 2, method="direct") == Fraction(1, 2)
    assert brute_force_probability(lat, lat.top, 1, method="direct") == 0
    # an atom's own irreducible set is the singleton {atom}
    atom = lat.atoms()[0]
    assert brute_force_probability(lat, atom, 3, method="direct") == 1


def test_brute_force_methods_agree(lattices_by_size):
    rng = random.Random(3001)
    for lat in rng.sample(lattices_by_size[6], 8):
        for x in range(lat.n):
            if x == lat.bottom:
                continue
            for s in (1, 2, 3):
                direct = brute_force_probability(lat, x, s, method="direct")
                mobius = brute_force_probability(lat, x, s, method="mobius")
                assert direct == mobius


def test_brute_force_edge_cases():
    lat = boolean_lattice(2)
    assert brute_force_probability(lat, lat.top, 0, method="direct") == 0
    with pytest.raises(BottomTarget):
        brute_force_probability(lat, lat.bottom, 2, method="direct")
    with pytest.raises(ValueError):
        brute_force_probability(lat, lat.top, -1, method="direct")
    with pytest.raises(ValueError):
        brute_force_probability(lat, lat.top, 2, method="nonsense")
    with pytest.raises(TypeError):  # no default method
        brute_force_probability(lat, lat.top, 2)


def enumerated_probability(lattice, x, s):
    """The direct oracle by literal enumeration: fold ``join`` over each
    of the |J_x|**s tuples and count those that reach x."""
    jx = lattice.below_irreducibles(x)
    hits = 0
    for tup in itertools.product(jx, repeat=s):
        acc = lattice.bottom
        for e in tup:
            acc = lattice.join(acc, e)
        if acc == x:
            hits += 1
    return Fraction(hits, len(jx) ** s)


def test_direct_count_equals_enumeration_on_census(lattices_by_size):
    for lat in (lat for n in range(2, 7) for lat in lattices_by_size[n]):
        for x in range(lat.n):
            if x == lat.bottom:
                continue
            for s in range(5):
                got = brute_force_probability(lat, x, s, method="direct")
                assert got == enumerated_probability(lat, x, s), (lat.covers, x, s)


@pytest.mark.parametrize("build", [
    lambda: boolean_lattice(4),
    lambda: partition_lattice(5),
    lambda: subspace_lattice(2, 3),
    lambda: divisibility_lattice(360),
], ids=["boolean:4", "partition:5", "subspace:2,3", "divisor:360"])
def test_direct_count_equals_enumeration_at_top(build):
    lat = build()
    for s in range(6):
        got = brute_force_probability(lat, lat.top, s, method="direct")
        assert got == enumerated_probability(lat, lat.top, s), s


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_direct_count_equals_enumeration_relabelled(lattices_by_size, data):
    # a relabelled copy moves the bottom and the top off their census slots
    census = [lat for lats in lattices_by_size.values() for lat in lats]
    lat = data.draw(st.sampled_from(census))
    perm = data.draw(st.permutations(range(lat.n)))
    lat = Lattice.from_covers(lat.n, [(perm[a], perm[b]) for a, b in lat.covers])
    x = data.draw(st.sampled_from([y for y in range(lat.n) if y != lat.bottom]))
    s = data.draw(st.integers(0, 5))
    got = brute_force_probability(lat, x, s, method="direct")
    assert got == enumerated_probability(lat, x, s)


def test_direct_count_join_calls_are_bounded(monkeypatch):
    # Pi_6: 203 elements, 15 irreducibles; enumerating the 15**5 tuples
    # would take about 3.0M joins, the prefix-join count at most s*n*|J|
    lat = partition_lattice(6)
    calls = 0
    real = Lattice.join

    def counting_join(self, a, b):
        nonlocal calls
        calls += 1
        return real(self, a, b)

    monkeypatch.setattr(Lattice, "join", counting_join)
    got = brute_force_probability(lat, lat.top, 5, method="direct")
    assert 0 < calls <= 5 * 203 * 15
    monkeypatch.undo()
    assert got == brute_force_probability(lat, lat.top, 5, method="mobius")


def test_verify_series_against_oracle():
    lat = boolean_lattice(3)
    check = verify_series_against_oracle(lat, 3)
    series = zeta_series(lat).series
    assert all(check.s_values[s] == series.evaluate_exact(s) for s in (1, 2, 3))
    assert check.methods == ("direct", "mobius")
    assert set(check.s_values) == {1, 2, 3}
    # two draws from the three atoms of B_3 never join to the top,
    # three draws do so iff all distinct
    assert check.s_values[2] == 0
    assert check.s_values[3] == Fraction(2, 9)


@functools.cache
def _census(n):
    return tuple(enumerate_lattices(n))


# the example is the 7-element chain at s = 9: 6**9 tuples, which the
# prefix-join count handles like any other exponent
@settings(max_examples=200, deadline=None)
@given(lat=st.integers(2, 7).flatmap(lambda n: st.sampled_from(_census(n))),
       s=st.integers(1, 12))
@example(lat=chain(7), s=9)
def test_oracles_match_the_series_at_every_exponent(lat, s):
    direct = brute_force_probability(lat, lat.top, s, method="direct")
    mobius = brute_force_probability(lat, lat.top, s, method="mobius")
    assert direct == mobius == zeta_series(lat).series.evaluate_exact(s)


@pytest.mark.parametrize("s_max", [0, -1])
def test_verify_rejects_an_empty_range(monkeypatch, s_max):
    # an empty range would report both oracles as run; refused before any work
    import latzeta.zeta as zeta_mod

    monkeypatch.setattr(zeta_mod, "zeta_series", None)
    with pytest.raises(ValueError):
        verify_series_against_oracle(boolean_lattice(2), s_max)


def test_verify_refuses_exponents_past_the_cap(monkeypatch):
    # refused before the series is built; the cap itself is accepted
    import latzeta.zeta as zeta_mod

    assert max(verify_series_against_oracle(chain(2), ORACLE_MAX_S).s_values) == ORACLE_MAX_S
    monkeypatch.setattr(zeta_mod, "zeta_series", None)
    with pytest.raises(BudgetExceeded):
        verify_series_against_oracle(boolean_lattice(2), ORACLE_MAX_S + 1)


def test_verify_detects_planted_mismatch(monkeypatch):
    # corrupt the series evaluation and make sure the cross-check trips
    lat = boolean_lattice(2)
    import latzeta.zeta as zeta_mod

    real = zeta_mod.zeta_series

    def corrupted(lattice):
        # the check reads only the report's series, which the report
        # derives from its count table; stand in a report with a bad one
        bad = real(lattice).series + DirichletSeries({Fraction(5): 1})
        return SimpleNamespace(series=bad)

    monkeypatch.setattr(zeta_mod, "zeta_series", corrupted)
    with pytest.raises(MismatchDetected) as info:
        verify_series_against_oracle(lat, 2)
    assert "oracle" in info.value.context


def test_series_of_unlabelled_input_is_isomorphism_invariant(lattices_by_size):
    rng = random.Random(3002)
    for lat in rng.sample(lattices_by_size[7], 10):
        perm = list(range(lat.n))
        rng.shuffle(perm)
        other = Lattice.from_covers(
            lat.n, [(perm[a], perm[b]) for a, b in lat.covers]
        )
        assert zeta_series(other).series == zeta_series(lat).series
