"""Strong/weak classification, divisibility criteria for partition-type
lattices, witness primes, and the bundled fixture lattices."""

import math
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta import cosetlike, zeta
from latzeta.cosetlike import (
    FIXTURE_NAMES,
    WitnessPrime,
    central_binomial_check,
    classify,
    coatom_criterion,
    ddiv_strong_check,
    load_fixture,
    mainthm_threshold,
    mainthm_witness,
    nagura_prime,
    nagura_scan,
    odd_case_check,
    p0prime_divisibility,
    partition_strong_check,
)
from latzeta.cosetlike import (
    PRIME_BOUND_MAX,
    _binom_multiplicity,
    _excess_prime,
    _primes_in,
    _primes_through,
    _witness_candidates,
)
from latzeta.errors import BudgetExceeded, MismatchDetected, UnknownFixture
from latzeta.families import (
    boolean_lattice,
    chain,
    d_divisible_j_count,
    d_divisible_partition_lattice,
    divisibility_lattice,
    partition_lattice,
    subspace_lattice,
)
from latzeta.groups import coset_lattice, cyclic, symmetric
from latzeta.lattice import Lattice
from latzeta.search import catalog_entry, enumerate_lattices
from latzeta.zeta import zeta_series

from builders import classify_from_series


# ----------------------------------------------------------------------
# classification


def test_classify_strong():
    verdict = classify(boolean_lattice(2))
    assert verdict.strong and verdict.weak
    assert verdict.strong_failures == ()
    assert verdict.non_integer_bases == ()


def test_classify_chain_is_neither():
    verdict = classify(chain(4))
    assert not verdict.strong and not verdict.weak
    assert Fraction(3, 2) in verdict.non_integer_bases


def test_classify_boolean3():
    # |J| = 3 but each coatom has two irreducibles below it
    verdict = classify(boolean_lattice(3))
    assert not verdict.strong
    assert not verdict.weak
    assert all(jx == 2 and j == 3 for _, jx, j in verdict.strong_failures)
    assert len(verdict.strong_failures) == 3


def test_classify_weak_not_strong():
    verdict = classify(load_fixture("ten_point"))
    assert verdict.weak and not verdict.strong
    assert any(jx == 3 for _, jx, _ in verdict.strong_failures)
    assert verdict.non_integer_bases == ()


def test_classify_strong_failures_match_element_counts(lattices_by_size):
    lattices = lattices_by_size[7] + [boolean_lattice(3), load_fixture("ten_point")]
    for lat in lattices:
        j = len(lat.join_irreducibles())
        want = []
        for x in range(lat.n):
            if x != lat.bottom and j % lat.count_below_irreducibles(x):
                want.append((x, lat.count_below_irreducibles(x), j))
        assert classify(lat).strong_failures == tuple(want)


def test_classify_matches_the_series_derivation(lattices_by_size):
    # every lattice with n <= 8, samples of each family, both fixtures
    # and two coset lattices
    lats = [lat for lats in lattices_by_size.values() for lat in lats]
    lats += list(enumerate_lattices(8))
    lats += [boolean_lattice(r) for r in range(1, 6)]
    lats += [chain(k) for k in range(2, 7)]
    lats += [divisibility_lattice(n) for n in (12, 30, 360)]
    lats += [subspace_lattice(n, q) for n, q in ((2, 2), (2, 3), (3, 2))]
    lats += [partition_lattice(n) for n in range(3, 7)]
    lats += [d_divisible_partition_lattice(d, n)
             for d, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))]
    lats += [load_fixture(name) for name in FIXTURE_NAMES]
    lats += [coset_lattice(symmetric(3)).lattice, coset_lattice(cyclic(6)).lattice]
    weak_not_strong = 0
    for lat in lats:
        verdict = classify(lat)
        assert verdict == classify_from_series(lat)
        weak_not_strong += verdict.weak and not verdict.strong
    assert len(lats) > 300 and weak_not_strong >= 2


def test_verdicts_build_no_series(monkeypatch):
    # classify and the census read the count table only
    def refuse(*args, **kwargs):
        raise AssertionError("a series was built")

    lats = [load_fixture("ten_point"), chain(4), partition_lattice(4)]
    monkeypatch.setattr(zeta, "DirichletSeries", refuse)
    monkeypatch.setattr(cosetlike, "zeta_series", refuse)
    assert [classify(lat).weak for lat in lats] == [True, False, True]
    assert [catalog_entry(lat).flags for lat in lats] == ["--w", "---", "asw"]


def test_classify_doc():
    doc = classify(boolean_lattice(3)).to_doc()
    assert doc["strong"] is False and doc["weak"] is False
    assert doc["non_integer_bases"] == ["3/2"]
    assert doc["strong_failures"][0] == {"element": 3, "j_below": 2, "j_total": 3}


def test_strong_implies_weak(lattices_by_size):
    for lats in lattices_by_size.values():
        for lat in lats:
            verdict = classify(lat)
            if verdict.strong:
                assert verdict.weak
            # classification agrees with the series report flags
            report = zeta_series(lat)
            assert verdict.strong == report.strongly_coset_like
            assert verdict.weak == report.ordinary


def test_coatom_criterion():
    # a witness exists whenever the maximal |J_x| fails to divide |J|:
    # in B_r the coatoms carry r-1 of the r atoms, so r >= 3 trips it
    assert coatom_criterion(boolean_lattice(3)) is not None
    assert coatom_criterion(boolean_lattice(4)) is not None
    assert coatom_criterion(boolean_lattice(2)) is None
    # one-sided: ten_point passes the coatom test (max |J_x| = 4 divides
    # 8) yet fails strongness at an inner element with |J_x| = 3
    assert coatom_criterion(load_fixture("ten_point")) is None
    assert not classify(load_fixture("ten_point")).strong


def test_coatom_criterion_is_sound(lattices_by_size):
    # a witness at the maximal |J_x| certifies "not weakly coset-like":
    # every element attaining the maximum is a coatom, so mu = -1 there and
    # the non-integer base |J|/|J_x| keeps a strictly negative coefficient
    for lats in lattices_by_size.values():
        for lat in lats:
            witness = coatom_criterion(lat)
            if witness is not None:
                verdict = classify(lat)
                assert not verdict.weak
                assert not verdict.strong


# ----------------------------------------------------------------------
# shape-level partition checks


def test_partition_strong_small():
    for n in (2, 3, 4):
        summary = partition_strong_check(n)
        assert summary.strong and summary.failures == ()
    assert partition_strong_check(4).j_total == 6


def test_partition_strong_five_fails():
    summary = partition_strong_check(5)
    assert not summary.strong
    assert summary.j_total == 10
    assert ((4, 1), 6) in summary.failures
    assert ((3, 2), 4) in summary.failures


def test_partition_strong_matches_full_lattice():
    # the shape-level verdict agrees with classifying the real lattice
    for n in range(2, 7):
        assert partition_strong_check(n).strong == classify(partition_lattice(n)).strong


def test_ddiv_strong_check():
    for n in (2, 3, 5):
        summary = ddiv_strong_check(2, n)
        assert summary.strong, n
    for n in (4, 6, 7):
        assert not ddiv_strong_check(2, n).strong
    summary = ddiv_strong_check(2, 4)
    assert summary.j_total == d_divisible_j_count(2, (8,)) == 105
    assert ((4, 4), 9) in summary.failures


def test_ddiv_doc():
    doc = ddiv_strong_check(2, 4).to_doc()
    assert doc["strong"] is False
    assert {"shape": [4, 4], "j_below": 9} in doc["failures"]


# ----------------------------------------------------------------------
# primes and binomial multiplicities


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin: the oracle the prime table is checked
    against, sharing no code with its sieve."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


ORACLE_LIMIT = 50_000
ORACLE_PRIMES = [n for n in range(ORACLE_LIMIT) if _is_prime(n)]


@pytest.fixture
def fresh_table(monkeypatch):
    # an empty shared table for this test alone, as at import
    monkeypatch.setattr(cosetlike, "_prime_table", (1, array("I")))


def _assert_table_exact(hi):
    # every prime <= hi, in order, and nothing else up to hi
    primes = _primes_through(hi)
    below = [p for p in primes if p <= hi]
    assert below == [p for p in ORACLE_PRIMES if p <= hi], hi
    assert list(primes) == sorted(set(primes))
    assert len(below) == len(primes) or primes[len(below)] > hi


def test_prime_table_against_miller_rabin(fresh_table):
    _assert_table_exact(ORACLE_LIMIT - 1)
    assert cosetlike._prime_table[0] == ORACLE_LIMIT - 1


def test_prime_table_grows_small_large_small(fresh_table):
    for hi in (10, 30_000, 7, 30_001, 2, 49_999):
        _assert_table_exact(hi)
    # each growth at least doubles the bound, capped by the request
    assert cosetlike._prime_table[0] == 60_000


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, ORACLE_LIMIT - 1), min_size=1, max_size=6))
def test_prime_table_any_growth_order(bounds):
    saved = cosetlike._prime_table
    cosetlike._prime_table = (1, array("I"))
    try:
        for hi in bounds:
            before = cosetlike._prime_table[0]
            _assert_table_exact(hi)
            after = cosetlike._prime_table[0]
            assert after == before if hi <= before else after >= max(hi, 2 * before)
    finally:
        cosetlike._prime_table = saved


def test_primes_in_excludes_prime_endpoints():
    for lo, hi in ((2, 3), (3, 13), (7, 7), (13, 11), (97, 101), (1, 2)):
        expected = [p for p in ORACLE_PRIMES if lo < p < hi]
        assert list(_primes_in(lo, hi)) == expected, (lo, hi)
        assert list(_primes_in(Fraction(lo), Fraction(hi))) == expected
        assert list(_primes_in(Fraction(2 * lo - 1, 2), Fraction(2 * hi + 1, 2))) == [
            p for p in ORACLE_PRIMES if lo <= p <= hi
        ]
    assert list(_primes_in(Fraction(13), 17)) == []
    assert list(_primes_in(11, Fraction(13))) == []


@settings(max_examples=200, deadline=None)
@given(st.fractions(0, 500, max_denominator=7), st.fractions(0, 500, max_denominator=7))
def test_primes_in_matches_oracle(lo, hi):
    expected = [p for p in ORACLE_PRIMES[:100] if lo < p < hi]  # primes < 542
    assert list(_primes_in(lo, hi)) == expected


@pytest.mark.parametrize("call", [
    lambda: _primes_through(PRIME_BOUND_MAX + 1),
    lambda: central_binomial_check(PRIME_BOUND_MAX // 2 + 1),
    lambda: odd_case_check(PRIME_BOUND_MAX // 2),
    lambda: nagura_prime(PRIME_BOUND_MAX),
    lambda: nagura_scan(1, PRIME_BOUND_MAX),
    lambda: mainthm_witness(4, PRIME_BOUND_MAX // 2 + 1),
    lambda: mainthm_witness(3, PRIME_BOUND_MAX),
], ids=["table", "central", "odd", "nagura_prime", "nagura_scan",
        "witness_even", "witness_odd"])
def test_bound_above_cap_raises_and_keeps_table(call):
    _primes_through(100)
    before = cosetlike._prime_table
    with pytest.raises(BudgetExceeded):
        call()
    assert cosetlike._prime_table is before


def test_table_growth_stops_at_cap(fresh_table, monkeypatch):
    monkeypatch.setattr(cosetlike, "PRIME_BOUND_MAX", 1_000)
    _assert_table_exact(600)
    _assert_table_exact(601)  # doubling would pass the cap
    assert cosetlike._prime_table[0] == 1_000
    _assert_table_exact(1_000)
    with pytest.raises(BudgetExceeded):
        _primes_through(1_001)
    assert cosetlike._prime_table[0] == 1_000


def _mult(n, p):
    # multiplicity of p in the positive integer n, by repeated division
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def test_central_binomial_direct_statement():
    # the multiplicity scan agrees with dividing the binomials outright
    for m in range(2, 600):
        expected = math.comb(4 * m, 2 * m) % math.comb(2 * m, m) != 0
        assert central_binomial_check(m) == expected, m
        assert expected  # C(4m, 2m) is never a multiple of C(2m, m) here


def test_odd_case_check():
    for m in range(3, 600):
        left = (2 * m + 1) * math.comb(2 * m, m)
        right = (4 * m + 1) * math.comb(4 * m, 2 * m)
        assert odd_case_check(m) == (right % left != 0), m
        assert odd_case_check(m)


@pytest.mark.parametrize("check, lowest, divisor, dividend", [
    (central_binomial_check, 2,
     lambda m: math.comb(2 * m, m),
     lambda m: math.comb(4 * m, 2 * m)),
    (odd_case_check, 3,
     lambda m: (2 * m + 1) * math.comb(2 * m, m),
     lambda m: (4 * m + 1) * math.comb(4 * m, 2 * m)),
], ids=["central", "odd"])
def test_check_multiplicities_match_comb(monkeypatch, check, lowest,
                                         divisor, dividend):
    # every multiplicity a check hands to the kernel equals the one read
    # off the integers themselves, and its witness really is one
    calls = []

    def recording(hi, v_left, v_right):
        p = _excess_prime(hi, v_left, v_right)
        calls.append((hi, v_left, v_right, p))
        return p

    monkeypatch.setattr(cosetlike, "_excess_prime", recording)
    primes = [p for p in ORACLE_PRIMES if p <= 2 * 300 + 1]
    for m in range(lowest, 300):
        assert check(m)
        hi, v_left, v_right, p = calls.pop()
        left, right = divisor(m), dividend(m)
        for q in primes:
            if q > hi:
                assert _mult(left, q) == 0  # every prime factor is <= hi
                continue
            assert v_left(q) == _mult(left, q), (m, q)
            assert v_right(q) == _mult(right, q), (m, q)
        assert p in primes and _mult(left, p) > _mult(right, p)


@st.composite
def binomial_pairs(draw):
    """(a, b, c, d) with b <= a and d <= c, drawn so that C(a, b) often
    divides C(c, d): b in {0, a}, (c, d) = (a, b) or (a, a - b), and
    d in {0, c} all come up often."""

    def pick(special, hi):
        if draw(st.integers(0, 3)):
            return draw(st.integers(0, hi))
        return draw(st.sampled_from(sorted(special)))

    a = draw(st.integers(0, 60))
    b = pick({0, a}, a)
    c = a if draw(st.booleans()) else draw(st.integers(0, 120))
    d = pick({0, c} | ({b, a - b} if c == a else set()), c)
    return a, b, c, d


def _binomial_excess(a, b, c, d):
    return _excess_prime(
        a,
        lambda p: _binom_multiplicity(a, b, p),
        lambda p: _binom_multiplicity(c, d, p),
    )


@settings(max_examples=400, deadline=None)
@given(binomial_pairs())
def test_excess_prime_decides_binomial_divisibility(case):
    a, b, c, d = case
    divides = math.comb(c, d) % math.comb(a, b) == 0
    assert (_binomial_excess(a, b, c, d) is None) == divides


@settings(max_examples=400, deadline=None)
@given(binomial_pairs())
def test_excess_prime_witness_is_real(case):
    a, b, c, d = case
    p = _binomial_excess(a, b, c, d)
    if p is None:
        return
    primes = {q for q in ORACLE_PRIMES if q <= a}
    assert p in primes
    left, right = math.comb(a, b), math.comb(c, d)
    assert _mult(left, p) > _mult(right, p)
    # and it is the largest such prime: the scan runs downwards
    assert all(_mult(left, q) <= _mult(right, q) for q in primes if q > p)


def _nagura_fails(n):
    # one n at a time: no prime p with n < p < 6n/5
    return not any(_is_prime(p) for p in range(n + 1, n + n // 5 + 2) if 5 * p < 6 * n)


def test_nagura_prime():
    assert nagura_prime(25) == 29
    assert nagura_prime(100) == 101
    for n in range(1, 5_000):
        p = nagura_prime(n)
        expected = next(
            (q for q in range(n + 1, n + n // 5 + 2) if 5 * q < 6 * n and _is_prime(q)),
            None,
        )
        assert p == expected, n
    rng = random.Random(6003)
    for _ in range(60):
        n = rng.randrange(25, 10**5)
        p = nagura_prime(n)
        assert p is not None and _is_prime(p)
        assert n < p and 5 * p < 6 * n


def test_nagura_scan():
    assert nagura_scan(25, 20_000) == []


def test_nagura_scan_against_one_n_at_a_time():
    brute = [n for n in range(1, 2_001) if _nagura_fails(n)]
    assert {13, 23, 24} <= set(brute)
    assert nagura_scan(1, 2_000) == brute
    for lo, hi in ((1, 1), (2, 2), (13, 13), (13, 24), (14, 22), (24, 30), (23, 23)):
        assert nagura_scan(lo, hi) == [n for n in brute if lo <= n <= hi], (lo, hi)


# ----------------------------------------------------------------------
# witness primes for the binomial non-divisibility family


def test_witness_example():
    w = mainthm_witness(4, 10)
    assert isinstance(w, WitnessPrime)
    assert w.prime == 19
    assert w.in_interval  # lies in the narrow window, not just the wide one
    assert w.confirmed and w.square_ok and w.multiplicity_ok
    doc = w.to_doc()
    assert doc["prime"] == 19 and doc["confirmed"] is True


def test_witness_multiplicities_are_real():
    # independently recompute: p divides C(2m,m) exactly once and does
    # not divide C(2dm, dm)
    rng = random.Random(6004)
    for _ in range(25):
        d = rng.choice((3, 4, 5))
        m = rng.randrange(30, 300)
        w = mainthm_witness(d, m)
        if not w.confirmed:
            continue
        p = w.prime
        n = d * m

        def mult(top, half):
            count = 0
            pk = p
            while pk <= top:
                count += top // pk - 2 * (half // pk)
                pk *= p
            return count

        assert mult(2 * n, n) == 0
        assert mult(2 * m, m) >= 1


def test_witness_thresholds():
    assert mainthm_threshold(3) == 12
    assert mainthm_threshold(4) == 6
    assert mainthm_threshold(5) == 23


def _window_scan_witness(d, m):
    # the witness search as it stood before the shared prime table: each
    # integer of both windows through Miller-Rabin, the narrow window's
    # primes first, then the extended window's other primes
    delta = d // 2 if d % 2 == 0 else (d + 1) // 2
    dm = d * m
    narrow = (Fraction(4 * dm, 4 * delta + 1), Fraction(dm, delta))
    extended = (Fraction(2 * dm, 2 * delta + 1), Fraction(dm, delta))

    def primes_in(lo, hi):
        return [p for p in range(math.floor(lo) + 1, math.ceil(hi)) if lo < p < hi
                and _is_prime(p)]

    def build(p):
        if p is None:
            return WitnessPrime(d, m, delta, narrow, extended, None, False, False,
                                False, False)
        return WitnessPrime(
            d, m, delta, narrow, extended, p, narrow[0] < p < narrow[1],
            p * p > 2 * dm,
            _binom_multiplicity(2 * m, m, p) > _binom_multiplicity(2 * dm, dm, p),
            all((2 * dm + s) % p for s in range(1, d)),
        )

    narrow_primes = primes_in(*narrow)
    candidates = narrow_primes + [
        p for p in primes_in(*extended) if p not in narrow_primes
    ]
    fallback = best_partial = None
    for p in candidates:
        cand = build(p)
        if fallback is None:
            fallback = cand
        if cand.confirmed:
            if cand.odd_product_ok:
                return cand, candidates
            if best_partial is None:
                best_partial = cand
    result = best_partial or fallback or build(None)
    return result, candidates


def test_witness_matches_window_scan():
    for d in range(3, 9):
        for m in range(1, 501):
            w = mainthm_witness(d, m)
            expected, candidates = _window_scan_witness(d, m)
            assert w.to_doc() == expected.to_doc(), (d, m)
            assert list(_witness_candidates(w.interval, w.extended_interval)) == \
                candidates, (d, m)


def test_witness_preconditions():
    with pytest.raises(ValueError):
        mainthm_witness(2, 5)
    with pytest.raises(ValueError):
        mainthm_witness(3, 0)


def test_p0prime_divisibility():
    rng = random.Random(6005)
    for _ in range(200):
        d = rng.randrange(2, 13)
        n = rng.randrange(2, 201)
        assert p0prime_divisibility(d, n)
    with pytest.raises(ValueError):
        p0prime_divisibility(1, 5)


# ----------------------------------------------------------------------
# fixtures


def test_fixture_names():
    assert FIXTURE_NAMES == ("eleven_point", "ten_point")


def test_fixture_unknown():
    with pytest.raises(UnknownFixture):
        load_fixture("twelve_point")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_properties(name):
    lat = load_fixture(name)
    report = zeta_series(lat)
    assert report.j_count == 8
    assert report.ordinary
    assert not report.strongly_coset_like
    ratios = {
        Fraction(8, lat.count_below_irreducibles(x))
        for x in range(lat.n)
        if x != lat.bottom
    }
    assert Fraction(8, 3) in ratios


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_with_a_wrong_series_is_refused(name, monkeypatch):
    n, covers, terms = cosetlike._FIXTURES[name]
    wrong = dict(terms)
    wrong[Fraction(4)] += 1
    monkeypatch.setitem(cosetlike._FIXTURES, name, (n, covers, wrong))
    with pytest.raises(MismatchDetected) as info:
        load_fixture(name)
    assert info.value.context["series"] == zeta_series(
        Lattice.from_covers(n, covers)
    ).series.to_doc()


def test_adjoined_atom_families():
    # adjoining k atoms to ten_point rescales the surviving local sums
    # to bases (8+k)/4, (8+k)/2 and adds the new atoms' own term at
    # base 8+k, so ordinariness needs 4 | 8+k, i.e. k = 0 (mod 4);
    # strongness additionally needs 3 | 8+k (the |J_x| = 3 element)
    from builders import adjoin_atoms

    base = load_fixture("ten_point")
    for k in range(1, 14):
        verdict = classify(adjoin_atoms(base, k))
        assert verdict.weak == (k % 4 == 0), k
        assert verdict.strong == (k % 12 == 4), k


def test_fixture_series():
    assert zeta_series(load_fixture("ten_point")).series.term_map() == {
        Fraction(1): 1,
        Fraction(2): -1,
        Fraction(4): -2,
    }
    assert zeta_series(load_fixture("eleven_point")).series.term_map() == {
        Fraction(1): 1,
        Fraction(2): -3,
        Fraction(4): 2,
    }
