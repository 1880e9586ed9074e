"""Coset-likeness classification and the divisibility arithmetic behind it.

A lattice is *strongly coset-like* when |J_x| divides |J| for every
element x above the bottom, and *weakly coset-like* when its zeta
series is ordinary (every base with a nonzero coefficient is an
integer).  Strong implies weak: integer divisor ratios give integer
bases.

Beyond the per-lattice classifiers this module carries the shape-level
fast checks for the partition and d-divisible partition lattices, the
prime-witness machinery that decides the large-parameter divisibility
questions those checks reduce to, and the two small fixture lattices
whose series are weakly but not strongly coset-like.
"""

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, MismatchDetected, UnknownFixture
from .families import d_divisible_j_count, ddiv_shapes, partition_shapes
from .lattice import Lattice
from .zeta import engine_pass, zeta_series

__all__ = [
    "Classification",
    "ShapeStrongSummary",
    "WitnessPrime",
    "classify",
    "coatom_criterion",
    "partition_strong_check",
    "ddiv_strong_check",
    "central_binomial_check",
    "odd_case_check",
    "nagura_prime",
    "nagura_scan",
    "mainthm_witness",
    "mainthm_threshold",
    "p0prime_divisibility",
    "load_fixture",
    "FIXTURE_NAMES",
]


# ----------------------------------------------------------------------
# per-lattice classification


@dataclass(frozen=True)
class Classification:
    """Strong/weak verdict with the witnesses that decided it."""

    strong: bool
    weak: bool
    strong_failures: tuple  # (element, |J_x|, |J|) with |J_x| not dividing |J|
    non_integer_bases: tuple  # non-integer bases carrying a nonzero coefficient

    def to_doc(self):
        return {
            "strong": self.strong,
            "weak": self.weak,
            "strong_failures": [
                {"element": x, "j_below": jx, "j_total": j}
                for x, jx, j in self.strong_failures
            ],
            "non_integer_bases": [
                f"{q.numerator}/{q.denominator}" for q in self.non_integer_bases
            ],
        }


def classify(lattice):
    """Classify a lattice as strongly/weakly coset-like.

    Both verdicts and their witnesses come from one engine pass over the
    join-irreducibles, without building the series: the elements whose
    |J_x| does not divide |J|, and the non-integer bases |J|/c of the
    counts c whose Moebius sum is nonzero, ascending as in the series.
    """
    report = engine_pass(lattice, lattice.join_irreducibles())
    j = report.j_count
    return Classification(
        strong=report.strongly_coset_like,
        weak=report.ordinary,
        strong_failures=tuple(
            (x, c, j)
            for x, c in enumerate(report.j_below)
            if x != lattice.bottom and j % c
        ),
        non_integer_bases=tuple(
            sorted(Fraction(j, c) for c, s in report.sums.items() if s and j % c)
        ),
    )


def coatom_criterion(lattice):
    """Witness element for the maximal-|J_x| divisibility test.

    Returns an element x maximizing |J_x| over the proper elements
    (neither bottom nor top) such that |J_x| does not divide |J|, or
    None when the maximal count divides |J| (or there are no proper
    elements).  When a witness exists the lattice cannot be weakly
    coset-like, so this is a cheap certificate that avoids the Moebius
    pass entirely.
    """
    j_total = len(lattice.join_irreducibles())
    best = None
    best_count = -1
    for x in range(lattice.n):
        if x == lattice.bottom or x == lattice.top:
            continue
        count = lattice.count_below_irreducibles(x)
        if count > best_count:
            best, best_count = x, count
    if best is None or j_total % best_count == 0:
        return None
    return best


# ----------------------------------------------------------------------
# shape-level strong checks


@dataclass(frozen=True)
class ShapeStrongSummary:
    """Result of a strong check carried out on block-size shapes."""

    strong: bool
    j_total: int
    failures: tuple  # (shape, |J_P|) with |J_P| not dividing j_total

    def to_doc(self):
        return {
            "strong": self.strong,
            "j_total": self.j_total,
            "failures": [
                {"shape": list(shape), "j_below": jp} for shape, jp in self.failures
            ],
        }


def _strong_summary(rows, j_total):
    """The strong verdict over the (blocks, |J_P|) rows of one lattice."""
    failures = tuple((blocks, jp) for blocks, jp in rows if j_total % jp)
    return ShapeStrongSummary(strong=not failures, j_total=j_total, failures=failures)


def partition_strong_check(n):
    """Shape-level strong test for the set-partition lattice on n points:
    |J_P| depends only on the block sizes, so one divisibility test per
    integer partition of n decides it without building any partition."""
    return _strong_summary(partition_shapes(n), math.comb(n, 2))


def ddiv_strong_check(d, n):
    """Shape-level strong test for the d-divisible partition lattice on
    d*n points, one divisibility test per block shape as above."""
    return _strong_summary(ddiv_shapes(d, n), d_divisible_j_count(d, (d * n,)))


# ----------------------------------------------------------------------
# the shared prime table and prime multiplicities

PRIME_BOUND_MAX = 1 << 24
"""Largest bound the shared prime table grows to.

The full table holds the 1,077,871 primes up to 2**24 as 4-byte items,
about 4.3 MB, and building it takes a 16 MB byte sieve for a moment.
A search that needs primes above this bound raises ``BudgetExceeded``
before anything is allocated.
"""

# (bound, ascending array of every prime <= bound); replaced whole when
# it grows, so a reader never sees a half-built table
_prime_table = (1, array("I"))


def _primes_through(hi):
    """The shared ascending prime table, grown to hold every prime <= hi.

    A growing table at least doubles its bound, so a run of rising
    requests sieves O(final bound) integers in total.
    """
    global _prime_table
    bound, primes = _prime_table
    if hi <= bound:
        return primes
    if hi > PRIME_BOUND_MAX:
        raise BudgetExceeded(
            f"primes up to {hi} exceed the prime table cap of {PRIME_BOUND_MAX}"
        )
    bound = min(max(hi, 2 * bound), PRIME_BOUND_MAX)
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    primes = array("I", itertools.compress(range(bound + 1), sieve))
    _prime_table = (bound, primes)
    return primes


def _legendre(n, p):
    """Multiplicity of the prime p in n!."""
    total = 0
    while n:
        n //= p
        total += n
    return total


def _binom_multiplicity(n, k, p):
    """Multiplicity of the prime p in C(n, k)."""
    return _legendre(n, p) - _legendre(k, p) - _legendre(n - k, p)


def _primes_in(lo, hi):
    """Primes p with lo < p < hi (exclusive rational bounds), ascending."""
    first, last = math.floor(lo) + 1, math.ceil(hi) - 1
    if last < first:
        return array("I")
    primes = _primes_through(last)
    return primes[bisect_left(primes, first) : bisect_right(primes, last)]


# ----------------------------------------------------------------------
# central-binomial divisibility


def _excess_prime(hi, v_left, v_right):
    """Largest prime p <= hi with v_left(p) > v_right(p), or None.

    ``v_left(p)`` and ``v_right(p)`` give the multiplicity of p in a
    divisor and a dividend.  When every prime factor of the divisor is
    at most ``hi``, the divisor divides the dividend exactly when this
    returns None, so the answer is exact.  The scan runs downwards
    because the large primes are the usual witnesses.
    """
    primes = _primes_through(hi)
    for i in range(bisect_right(primes, hi) - 1, -1, -1):
        p = primes[i]
        if v_left(p) > v_right(p):
            return p
    return None


def central_binomial_check(m):
    """True when C(2m, m) does not divide C(4m, 2m).

    Every prime factor of C(2m, m) is at most 2m, so comparing the
    Legendre multiplicities of each prime p <= 2m in the two binomials
    decides the question exactly.  A prime p in (4m/3, 2m] with
    p^2 > 4m divides C(2m, m) once and C(4m, 2m) not at all, so the
    downward scan usually stops at the largest prime below 2m; the
    multiplicities are still compared, not assumed.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    return _excess_prime(
        2 * m,
        lambda p: _binom_multiplicity(2 * m, m, p),
        lambda p: _binom_multiplicity(4 * m, 2 * m, p),
    ) is not None


def odd_case_check(m):
    """True when (2m+1) C(2m, m) does not divide (4m+1) C(4m, 2m).

    The divisor's prime factors are at most 2m+1, and each side's
    multiplicity of p is that of the odd factor plus that of the
    binomial.  The witnesses of the even case carry over, except two
    primes that divide both sides once: p = 2m+1, and p = (4m+1)/3,
    which divides C(2m, m) and 4m+1.  The comparison passes over both.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    return _excess_prime(
        2 * m + 1,
        lambda p: _mult_in(2 * m + 1, p) + _binom_multiplicity(2 * m, m, p),
        lambda p: _mult_in(4 * m + 1, p) + _binom_multiplicity(4 * m, 2 * m, p),
    ) is not None


def _mult_in(n, p):
    """Multiplicity of the prime p in the positive integer n."""
    total = 0
    while n % p == 0:
        n //= p
        total += 1
    return total


# ----------------------------------------------------------------------
# primes in (n, 6n/5)


def nagura_prime(n):
    """Smallest prime p with n < p < 6n/5, or None when there is none.

    The interval is guaranteed non-empty for n >= 25; below that the
    caller gets None for the handful of n (such as 24) whose interval
    contains no prime.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    primes = _primes_through((6 * n - 1) // 5)  # the largest p with 5p < 6n
    i = bisect_right(primes, n)
    return primes[i] if i < len(primes) and 5 * primes[i] < 6 * n else None


def nagura_scan(lo, hi):
    """All n in [lo, hi] whose interval (n, 6n/5) contains no prime.

    Every n in [p, q) between consecutive primes p < q has q as its next
    prime, so it fails exactly when 6n <= 5q; the scan steps over the
    shared prime table rather than over every n.  The expected result
    for lo >= 25 is an empty list.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    # a next prime above 6hi/5 makes every n <= hi fail, so the table
    # need not reach it
    primes = _primes_through(6 * hi // 5)
    failures = []
    start = lo
    for i in range(bisect_right(primes, lo), len(primes)):
        if start > hi:
            return failures
        q = primes[i]
        # 5q // 6 is the largest n with 6n <= 5q
        failures.extend(range(start, min(q - 1, hi, 5 * q // 6) + 1))
        start = q
    failures.extend(range(start, hi + 1))
    return failures


# ----------------------------------------------------------------------
# witness primes for the d-divisible divisibility question


@dataclass(frozen=True)
class WitnessPrime:
    """A prime certifying C(2m, m) does not divide C(2dm, dm).

    ``interval`` is the half-margin window (2dm/(2delta+1/2), dm/delta)
    from the analytic argument; ``extended_interval`` widens it to the
    exact floor condition (2dm/(2delta+1), dm/delta).  Any prime in the
    extended window with p^2 > 2dm certifies the non-divisibility; the
    multiplicities are still compared explicitly rather than trusted.
    """

    d: int
    m: int
    delta: int
    interval: tuple  # (Fraction, Fraction), open
    extended_interval: tuple  # (Fraction, Fraction), open
    prime: int | None
    in_interval: bool  # prime lies in the half-margin window
    square_ok: bool  # p^2 > 2dm
    multiplicity_ok: bool  # mult_p C(2m,m) > mult_p C(2dm,dm)
    odd_product_ok: bool  # p divides none of 2dm+1 .. 2dm+d-1

    @property
    def confirmed(self):
        return self.prime is not None and self.square_ok and self.multiplicity_ok

    def to_doc(self):
        lo, hi = self.interval
        elo, ehi = self.extended_interval
        return {
            "d": self.d,
            "m": self.m,
            "delta": self.delta,
            "interval": [str(lo), str(hi)],
            "extended_interval": [str(elo), str(ehi)],
            "prime": self.prime,
            "in_interval": self.in_interval,
            "square_ok": self.square_ok,
            "multiplicity_ok": self.multiplicity_ok,
            "odd_product_ok": self.odd_product_ok,
            "confirmed": self.confirmed,
        }


def _delta(d):
    return d // 2 if d % 2 == 0 else (d + 1) // 2


def _witness_candidates(narrow, extended):
    """The primes of the extended window, those of the narrow window first.

    The narrow window lies inside the extended one and shares its upper
    end, so the extended window's primes split at the narrow lower end:
    the narrow window's primes, then those in (extended lo, narrow lo].
    """
    primes = _primes_in(*extended)
    split = bisect_right(primes, narrow[0])
    return primes[split:] + primes[:split]


def mainthm_witness(d, m):
    """Search for a witness prime certifying C(2m,m) does not divide C(2dm,dm).

    With delta = d/2 (d even) or (d+1)/2 (d odd), any prime in the open
    window (2dm/(2delta+1), dm/delta) has multiplicity delta in (dm)!
    and 2*delta in (2dm)!, hence multiplicity zero in C(2dm, dm) once
    p^2 > 2dm, while it divides C(2m, m) exactly once.  Primes in the
    narrower half-margin window are preferred for reporting; the
    extended window is searched because the narrow one is empty for
    some (d, m) even when perfectly good witnesses exist.  The odd
    companion condition (p divides none of 2dm+1 .. 2dm+d-1) is
    evaluated and recorded but does not gate confirmation.
    """
    if d < 3 or m < 1:
        raise ValueError("need d >= 3 and m >= 1")
    delta = _delta(d)
    dm = d * m
    narrow = (Fraction(4 * dm, 4 * delta + 1), Fraction(dm, delta))
    extended = (Fraction(2 * dm, 2 * delta + 1), Fraction(dm, delta))

    def build(p):
        if p is None:
            return WitnessPrime(
                d, m, delta, narrow, extended, None, False, False, False, False
            )
        square_ok = p * p > 2 * dm
        mult_ok = _binom_multiplicity(2 * m, m, p) > _binom_multiplicity(
            2 * dm, dm, p
        )
        odd_ok = all((2 * dm + s) % p for s in range(1, d))
        return WitnessPrime(
            d, m, delta, narrow, extended, p,
            narrow[0] < p < narrow[1], square_ok, mult_ok, odd_ok,
        )

    fallback = None
    best_partial = None
    for p in _witness_candidates(narrow, extended):
        cand = build(p)
        if fallback is None:
            fallback = cand
        if cand.confirmed:
            if cand.odd_product_ok:
                return cand
            if best_partial is None:
                best_partial = cand
    if best_partial is not None:
        return best_partial
    return fallback if fallback is not None else build(None)


MAINTHM_M_MAX = 500


def mainthm_threshold(d):
    """Least m0 such that mainthm_witness(d, m) confirms for every m in
    [m0, MAINTHM_M_MAX], or None when MAINTHM_M_MAX is unconfirmed."""
    m0 = None
    for m in range(MAINTHM_M_MAX, 0, -1):
        if mainthm_witness(d, m).confirmed:
            m0 = m
        else:
            break
    return m0


def p0prime_divisibility(d, n):
    """Whether (d-1)! divides (dn-1)(dn-2)...(dn-d+1).

    The right side is a product of d-1 consecutive integers, so this
    holds for every d >= 2, n >= 2; the function computes it anyway so
    the claim can be property-tested rather than trusted.
    """
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    product = 1
    for s in range(1, d):
        product *= d * n - s
    return product % math.factorial(d - 1) == 0


# ----------------------------------------------------------------------
# fixture lattices

# Minimal weakly-but-not-strongly coset-like examples.  Element 0 is
# the bottom and the highest id is the top; the interesting feature of
# both is a join-irreducible chain of length 3 under an element x with
# |J_x| = 3, producing the non-integer ratio 8/3.
_FIXTURES = {
    "ten_point": (
        10,
        [
            (0, 1), (0, 2), (0, 3),
            (2, 4), (4, 5), (5, 6),
            (3, 7), (3, 8),
            (1, 9), (6, 9), (7, 9), (8, 9),
        ],
        {Fraction(1): 1, Fraction(2): -1, Fraction(4): -2},
    ),
    "eleven_point": (
        11,
        [
            (0, 1), (0, 2),
            (1, 3), (3, 4), (3, 5), (3, 6), (2, 6),
            (6, 7), (6, 8), (6, 9),
            (4, 10), (5, 10), (7, 10), (8, 10), (9, 10),
        ],
        {Fraction(1): 1, Fraction(2): -3, Fraction(4): 2},
    ),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def load_fixture(name):
    """Build a named fixture lattice, validating its signature on load.

    Both fixtures are checked against their expected series, |J| = 8,
    and the presence of an element with |J_x| = 3 (the source of the
    ratio 8/3); a failure here would mean the cover data was corrupted.
    The series is compared as the engine pass's nonzero local sums, so
    it is built only when the check fails.
    """
    if name not in _FIXTURES:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    n, covers, expected_terms = _FIXTURES[name]
    lattice = Lattice.from_covers(n, covers)
    report = zeta_series(lattice)
    if (
        {q: c for q, c in report.local_sums.items() if c} != expected_terms
        or report.j_count != 8
        or 3 not in report.j_below
    ):
        raise MismatchDetected(
            f"fixture {name} failed its load-time signature check",
            context={"series": report.series.to_doc(), "j_count": report.j_count},
        )
    return lattice
