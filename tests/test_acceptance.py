"""End-to-end acceptance gate.

Thirteen numbered criteria covering the series engine, the classical
families and their closed forms, the group-theoretic identities, the
number-theoretic divisibility sweeps, the exhaustive search, and the
good-sublattice machinery.  Every check is exact except criterion 6,
which is a numeric limit with tolerance 1e-3.  Each test prints one
``ACCEPTANCE <k> PASS`` line on success (visible with ``pytest -s``;
the same verdict is echoed in the terminal summary either way).
"""

import math
from fractions import Fraction

from latzeta.cosetlike import (
    central_binomial_check,
    classify,
    ddiv_strong_check,
    load_fixture,
    mainthm_threshold,
    mainthm_witness,
    nagura_scan,
    odd_case_check,
    p0prime_divisibility,
    partition_strong_check,
)
from latzeta.dirichlet import DirichletSeries
from latzeta.families import (
    boolean_lattice,
    boolean_zeta_closed,
    chain,
    divisibility_lattice,
    divisibility_zeta_closed,
    divisors,
    partition_lattice,
    partition_zeta_closed,
    q_to_one_limit_check,
    set_partitions,
    stirling2,
    subspace_lattice,
    subspace_zeta_closed,
)
from latzeta.groups import (
    coset_lattice,
    cyclic,
    dihedral,
    direct_product,
    good_sublattice_scan,
    is_good_sublattice,
    sublattice_generated,
    symmetric,
    verify_brown_identity,
    verify_coprime_product,
)
from latzeta.lattice import lower_reduced_product
from latzeta.search import find_weak_not_strong, lattice_count
from latzeta.zeta import verify_series_against_oracle, zeta_series

from builders import brute_force_lattice_count, heights, number_mobius


def test_criterion_01_partition5_series():
    series = zeta_series(partition_lattice(5)).series
    assert series.term_map() == {
        Fraction(1): 1,
        Fraction(5, 3): -5,
        Fraction(5, 2): -10,
        Fraction(10, 3): 20,
        Fraction(5): 30,
        Fraction(10): -60,
    }
    print("ACCEPTANCE 1 PASS")


def test_criterion_02_fixture_series():
    expected = {
        "ten_point": {Fraction(1): 1, Fraction(2): -1, Fraction(4): -2},
        "eleven_point": {Fraction(1): 1, Fraction(2): -3, Fraction(4): 2},
    }
    for name, terms in expected.items():
        lat = load_fixture(name)
        assert zeta_series(lat).series.term_map() == terms
        verdict = classify(lat)
        assert verdict.weak and not verdict.strong
        ratios = {
            Fraction(8, lat.count_below_irreducibles(x))
            for x in range(lat.n)
            if x != lat.bottom
        }
        assert Fraction(8, 3) in ratios
    print("ACCEPTANCE 2 PASS")


def test_criterion_03_oracle_equivalence(lattices_by_size):
    for n in range(2, 8):
        for lat in lattices_by_size[n]:
            check = verify_series_against_oracle(lat, 3)
            assert check.methods == ("direct", "mobius")
            series = zeta_series(lat).series
            assert sorted(check.s_values) == [1, 2, 3]
            assert all(
                check.s_values[s] == series.evaluate_exact(s) for s in (1, 2, 3)
            )
    print("ACCEPTANCE 3 PASS")


def test_criterion_04_stirling_corollary():
    for r in range(1, 6):
        series = zeta_series(boolean_lattice(r)).series
        for s in range(1, 10):
            assert r**s * series.evaluate_exact(s) == math.factorial(
                r
            ) * stirling2(s, r)
    print("ACCEPTANCE 4 PASS")


def test_criterion_05_closed_forms_and_mobius_formulas():
    # divisor lattices: series + mu(x, top) = number-theoretic mu(n/x)
    for n in (4, 8, 12, 30, 360):
        lat = divisibility_lattice(n)
        report = zeta_series(lat)
        assert report.series == divisibility_zeta_closed(n)
        divs = divisors(n)
        for i, d in enumerate(divs):
            assert report.mobius_top[i] == number_mobius(n // d)

    # subspace lattices: series + mu(x, top) = (-1)^k q^C(k,2), with k
    # the codimension of x
    for q, n in ((2, 2), (2, 3), (3, 2), (4, 2)):
        lat = subspace_lattice(q, n)
        report = zeta_series(lat)
        assert report.series == subspace_zeta_closed(q, n)
        height = heights(lat)
        for x in range(lat.n):
            k = n - height[x]
            assert report.mobius_top[x] == (-1) ** k * q ** math.comb(k, 2)

    # partition lattices: series + mu(x, top) = (-1)^(b-1) (b-1)!, with
    # b the number of blocks of x
    for n in (3, 4, 5, 6):
        lat = partition_lattice(n)
        report = zeta_series(lat)
        assert report.series == partition_zeta_closed(n)
        parts = set_partitions(n)
        for i, p in enumerate(parts):
            b = len(p)
            assert report.mobius_top[i] == (-1) ** (b - 1) * math.factorial(b - 1)
    print("ACCEPTANCE 5 PASS")


def test_criterion_06_q_to_one_limit():
    h = Fraction(1, 10**6)
    for n in (2, 3):
        for s in range(1, 5):
            assert q_to_one_limit_check(n, s, h).difference < 1e-3
    print("ACCEPTANCE 6 PASS")


def test_criterion_07_brown_identity():
    roster = [
        cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(8), cyclic(12),
        symmetric(3), dihedral(4),
    ]
    for group in roster:
        check = verify_brown_identity(group, s_max=5)
        assert check.shifted == check.group_series
    assert coset_lattice(cyclic(6)).lattice.n == 13
    assert coset_lattice(symmetric(3)).lattice.n == 19
    print("ACCEPTANCE 7 PASS")


def test_criterion_08_product_laws():
    left = [
        boolean_lattice(2),
        boolean_lattice(3),
        partition_lattice(4),
        coset_lattice(cyclic(2)).lattice,
    ]
    right = [chain(3), boolean_lattice(2), load_fixture("ten_point")]
    for L in left:
        assert zeta_series(L).lattice.is_atomistic()
        for K in right:
            product = lower_reduced_product(L, K)
            assert (
                zeta_series(product).series
                == zeta_series(L).series * zeta_series(K).series
            )
    for a, b in ((cyclic(2), cyclic(3)), (cyclic(4), cyclic(3))):
        check = verify_coprime_product(a, b)
        assert check.lattices_isomorphic
    print("ACCEPTANCE 8 PASS")


def test_criterion_09_partition_classification(big_partition_lattices):
    # shape-level strong check through n = 30
    for n in range(2, 31):
        assert partition_strong_check(n).strong == (n <= 4), n
    # full-lattice classification through n = 8
    for n in range(2, 9):
        lat = big_partition_lattices.get(n) or partition_lattice(n)
        verdict = classify(lat)
        assert verdict.strong == (n <= 4), n
        assert verdict.weak == (n <= 4), n
    print("ACCEPTANCE 9 PASS")


def test_criterion_10_two_divisible_and_prime_sweeps():
    for n in range(2, 31):
        assert ddiv_strong_check(2, n).strong == (n in (2, 3, 5)), n
    assert all(central_binomial_check(m) for m in range(2, 10**4 + 1))
    assert all(odd_case_check(m) for m in range(3, 10**4 + 1))
    assert nagura_scan(25, 10**6) == []
    assert all(
        p0prime_divisibility(d, n)
        for d in range(2, 13)
        for n in range(2, 201)
    )
    print("ACCEPTANCE 10 PASS")


def test_criterion_11_witness_primes():
    for d in (3, 4, 5):
        m0 = mainthm_threshold(d)
        assert m0 is not None and m0 <= 50, (d, m0)
        for m in range(m0, 501):
            witness = mainthm_witness(d, m)
            assert witness.confirmed, (d, m)
            assert witness.square_ok and witness.multiplicity_ok
    print("ACCEPTANCE 11 PASS")


def test_criterion_12_search_reproduction():
    for n in range(2, 7):
        assert lattice_count(n) == brute_force_lattice_count(n), n
    found = find_weak_not_strong(10)
    for n in range(2, 10):
        assert found[n] == [], n
    ten_key = load_fixture("ten_point").canonical_form()
    assert len(found[10]) == 29
    assert ten_key in {e.key for e in found[10]}
    assert all(not e.atomistic for entries in found.values() for e in entries)
    assert all(
        v == [] for v in find_weak_not_strong(8, atomistic_only=True).values()
    )
    print("ACCEPTANCE 12 PASS")


def test_criterion_13_good_sublattices():
    # counterexample 1: the C(Z/6) sublattice generated by {0}, {3},
    # {1,4} is not weakly coset-like
    cl6 = coset_lattice(cyclic(6))
    sub6 = sublattice_generated(
        cl6.lattice,
        [cl6.singleton_id[0], cl6.singleton_id[3], cl6.find({1, 4})],
    )
    assert not zeta_series(sub6.lattice).ordinary

    # counterexample 2: the C(Z/8) sublattice with irreducibles
    # {0},{1},{2},{4},{5},{6} is not strongly coset-like and its
    # irreducibles fill three cosets of H = {0,4} (clause (iii) fails)
    cl8 = coset_lattice(cyclic(8))
    sub8 = sublattice_generated(
        cl8.lattice, [cl8.singleton_id[x] for x in (0, 1, 2, 4, 5, 6)]
    )
    assert not zeta_series(sub8.lattice).strongly_coset_like
    check8 = is_good_sublattice(cl8, sub8, frozenset({0, 4}))
    assert check8.h_is_normal and check8.action_preserves
    assert check8.singleton_irreducibles
    assert not check8.at_most_two_cosets

    # every good sublattice over the constructible groups of order <= 16
    # is strongly coset-like
    groups = [cyclic(n) for n in range(2, 17)]
    groups += [dihedral(n) for n in range(2, 9)]
    groups.append(symmetric(3))
    for spec in ((2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 8), (4, 4),
                 (2, 2, 4), (2, 2, 2, 2)):
        g = cyclic(spec[0])
        for k in spec[1:]:
            g = direct_product(g, cyclic(k))
        groups.append(g)
    groups.append(direct_product(cyclic(2), dihedral(4)))

    scanned_good = 0
    for group in groups:
        assert group.n <= 16
        for seed, h, check, sub in good_sublattice_scan(group):
            assert check.good
            assert zeta_series(sub.lattice).strongly_coset_like, (
                group.name,
                seed,
            )
            scanned_good += 1
    assert scanned_good > 0
    print("ACCEPTANCE 13 PASS")
