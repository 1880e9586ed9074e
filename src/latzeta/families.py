"""Named lattice families and their closed-form series.

Everything here is exact: closed forms are emitted as term maps over
rational bases and are meant to be compared term-by-term against the
generic engine output on materialised lattices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dirichlet import DirichletSeries
from .errors import (
    NotAPrimePower,
    PartNotDivisible,
    SingularInput,
    SizeLimitExceeded,
)
from .lattice import Lattice

# ----------------------------------------------------------------------
# combinatorial helpers

_factorial = lru_cache(maxsize=None)(math.factorial)


@lru_cache(maxsize=None)
def stirling2(n, k):
    """Stirling number of the second kind S(n, k)."""
    if n == k:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def integer_partitions(n):
    """All partitions of n as non-increasing tuples in reverse lexicographic
    order, by ZS1 (Zoghbi and Stojmenovic, Int. J. Comput. Math. 1998):
    ``x[:m]`` is the current partition and ``x[h]`` its last part above 1."""
    if n < 0:
        return
    x = [n] + [1] * (n - 1)
    m, h = min(n, 1), 0  # n = 0 has one partition, the empty one
    yield tuple(x[:m])
    while x[0] > 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            # x[h] - 1 and the ones after it refill parts r, then t < r
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield tuple(x[:m])


def shape_count(shape):
    """Number of set partitions of sum(shape) points with block sizes
    given by ``shape``: n! over each part's factorial and over m! for a
    size repeated m times, the j-th part of a size dividing by j."""
    denom, seen = 1, {}
    for part in shape:
        seen[part] = seen.get(part, 0) + 1
        denom *= _factorial(part) * seen[part]
    return _factorial(sum(shape)) // denom


def set_partitions(n):
    """All set partitions of {0..n-1} in restricted-growth order.

    Each partition is a tuple of blocks; blocks are tuples of ascending
    ids, listed by their smallest member.
    """
    out = []

    def rec(i, blocks):
        if i == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def factorize(n):
    """Sorted list of (prime, multiplicity) pairs."""
    if n < 1:
        raise ValueError("factorization needs a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n):
    fact = factorize(n)
    out = [1]
    for p, e in fact:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


# ----------------------------------------------------------------------
# small finite fields


_IRREDUCIBLE = {
    # q: (p, coefficients of a monic irreducible poly, low degree first,
    # constant .. x^(k-1); x^k is implied)
    4: (2, (1, 1)),
    8: (2, (1, 1, 0)),
    9: (3, (1, 0)),
}


def _prime_power(q):
    """(p, e) with q = p**e; NotAPrimePower for any other q.  A q past
    ``DIVISOR_MAX_N`` is refused before it is factored."""
    _check_budget("q", q, DIVISOR_MAX_N)
    fact = factorize(q) if q > 1 else []
    if len(fact) != 1:
        raise NotAPrimePower(f"{q} is not a prime power")
    return fact[0]


def _check_field(q):
    """NotAPrimePower or SizeLimitExceeded unless GF(q) has a table (q
    prime or in ``_IRREDUCIBLE``); builds no table."""
    _, e = _prime_power(q)
    if e > 1 and q not in _IRREDUCIBLE:
        raise SizeLimitExceeded(f"no field table available for GF({q})")


class FieldTable:
    """Addition/multiplication tables for GF(q), q prime or in {4, 8, 9}."""

    def __init__(self, q):
        _check_field(q)
        self.q = q
        if q not in _IRREDUCIBLE:
            self.add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
            self.mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
            return
        p, poly = _IRREDUCIBLE[q]
        k = len(poly)

        def digits(a):
            out = []
            for _ in range(k):
                out.append(a % p)
                a //= p
            return out

        def undigits(ds):
            a = 0
            for d in reversed(ds):
                a = a * p + d
            return a

        def poly_mul(a, b):
            da, db = digits(a), digits(b)
            prod = [0] * (2 * k - 1)
            for i, ai in enumerate(da):
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
            # reduce x^k -> -poly
            for i in range(2 * k - 2, k - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j, pj in enumerate(poly):
                        prod[i - k + j] = (prod[i - k + j] - c * pj) % p
            return undigits(prod[:k])

        self.add = tuple(
            tuple(
                undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                for b in range(q)
            )
            for a in range(q)
        )
        self.mul = tuple(tuple(poly_mul(a, b) for b in range(q)) for a in range(q))


@lru_cache(maxsize=None)
def field(q):
    return FieldTable(q)


# ----------------------------------------------------------------------
# lattice constructions

# Each family's parameter check, shared by its constructor and its closed
# form so that both reject a degenerate parameter with the same error.


def _check_chain_length(k):
    if k < 2:
        raise ValueError("a chain needs at least 2 elements")


def _check_rank(r):
    if r < 1:
        raise ValueError("rank must be at least 1")


def _check_divisor_n(n):
    if n < 2:
        raise ValueError("need n >= 2 for a non-degenerate divisor lattice")
    _check_budget("n", n, DIVISOR_MAX_N)


def _check_dimension(n):
    if n < 1:
        raise ValueError("dimension must be at least 1")


def _check_partition_n(n):
    if n < 2:
        raise ValueError("need n >= 2 for a non-degenerate partition lattice")


def _check_ddiv(d, n):
    if d < 2:
        raise ValueError("need d >= 2")
    if n < 1:
        raise ValueError("need n >= 1")


# Each ``*_size`` function runs its constructor's parameter and budget
# checks and returns the element count the constructor would build, so a
# caller can refuse an oversized lattice before any of it is built.

BOOLEAN_MAX_RANK = 15
# Chains share the divisor budget: a k-chain is the divisor lattice of
# p^(k-1), and its up-sets make it the densest family per element.
DIVISOR_MAX_ELEMENTS = 2000
# Checked before n is factored: trial division then takes <= 5 * 10**5 steps.
DIVISOR_MAX_N = 10**12
SUBSPACE_MAX_VECTORS = 512
# Admits GF(2)^7 (29,212 subspaces) and refuses GF(2)^8 (417,199).
SUBSPACE_MAX_ELEMENTS = 30_000
PARTITION_MAX_N = 8
DDIV_MAX_GROUND = 12
DDIV_MAX_ELEMENTS = 20_000

# Closed-form budgets, checked before any work.  Shape sums walk the p(n)
# integer partitions of n, and d * n bounds each shape's factorials.
SHAPE_MAX_N = 40
SHAPE_MAX_GROUND = 200
BOOLEAN_CLOSED_MAX_RANK = 2000
# The largest subspace coefficient, at k = 1, has about C(n, 2) log2(q)
# bits; this keeps it under Python's 4,300-digit int -> str limit.
SUBSPACE_CLOSED_MAX_BITS = 13_000


def _check_budget(name, value, budget):
    if value > budget:
        raise SizeLimitExceeded(f"{name} = {value} exceeds the budget of {budget}")


def _check_elements(count, budget):
    if count > budget:
        raise SizeLimitExceeded(f"{count} elements exceed the budget {budget}")
    return count


def boolean_size(r):
    _check_rank(r)
    if r > BOOLEAN_MAX_RANK:
        raise SizeLimitExceeded(f"rank {r} exceeds the budget of {BOOLEAN_MAX_RANK}")
    return 1 << r


def chain_size(k):
    _check_chain_length(k)
    return _check_elements(k, DIVISOR_MAX_ELEMENTS)


def divisibility_size(n):
    _check_divisor_n(n)
    count = math.prod(e + 1 for _, e in factorize(n))
    return _check_elements(count, DIVISOR_MAX_ELEMENTS)


def subspace_size(q, n):
    _check_dimension(n)
    # q**b > budget for every q >= 2 at b = budget.bit_length(), so n is
    # capped at b and a huge n never computes q**n
    if q ** min(n, SUBSPACE_MAX_VECTORS.bit_length()) > SUBSPACE_MAX_VECTORS:
        raise SizeLimitExceeded(f"GF({q})^{n} has over {SUBSPACE_MAX_VECTORS} vectors")
    _check_field(q)
    count = sum(gaussian_binomial(n, k, q) for k in range(n + 1))
    return _check_elements(count, SUBSPACE_MAX_ELEMENTS)


def partition_size(n):
    _check_partition_n(n)
    if n > PARTITION_MAX_N:
        raise SizeLimitExceeded(f"partition lattice budget is n <= {PARTITION_MAX_N}")
    return sum(stirling2(n, k) for k in range(n + 1))


def d_divisible_size(d, n):
    _check_ddiv(d, n)
    if d * n > DDIV_MAX_GROUND:
        raise SizeLimitExceeded(
            f"ground set of {d * n} exceeds budget {DDIV_MAX_GROUND}"
        )
    return _check_elements(d_divisible_count(d, n) + 1, DDIV_MAX_ELEMENTS)


def boolean_lattice(r):
    """Subset lattice of an r-set; element i is the subset with mask i."""
    boolean_size(r)
    return Lattice.from_sets(range(1 << r))


def chain(k):
    """Total order on k >= 2 elements."""
    chain_size(k)
    return Lattice.from_sets((1 << i) - 1 for i in range(k))


def divisibility_lattice(n):
    """Divisors of n ordered by divisibility; element i is divisors(n)[i],
    as the set of prime powers q | n dividing it."""
    divisibility_size(n)
    powers = [p**i for p, e in factorize(n) for i in range(1, e + 1)]
    return Lattice.from_sets(
        sum(1 << b for b, q in enumerate(powers) if d % q == 0)
        for d in divisors(n)
    )


def subspace_lattice(q, n):
    """Lattice of subspaces of GF(q)^n ordered by inclusion.

    Each subspace is spanned once from its reduced row-echelon basis: for
    k pivot columns, every choice of field elements for the free entries
    (right of a row's pivot, outside the pivot columns) gives one basis.
    Vector ids follow ``itertools.product(range(q), repeat=n)``; element
    ids sort the subspaces by size, then by their sorted vector ids.
    """
    subspace_size(q, n)
    gf = field(q)
    vec_id = {v: i for i, v in enumerate(itertools.product(range(q), repeat=n))}
    subs = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(r, c) for r, p in enumerate(pivots)
                    for c in range(p + 1, n) if c not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                entry = dict(zip(free, values))
                span = [(0,) * n]
                for r, p in enumerate(pivots):
                    row = [int(c == p) or entry.get((r, c), 0) for c in range(n)]
                    span = [tuple(gf.add[x][gf.mul[a][y]] for x, y in zip(w, row))
                            for w in span for a in range(q)]
                subs.append(sorted(vec_id[v] for v in span))
    subs.sort(key=lambda ids: (len(ids), ids))
    return Lattice.from_sets(sum(1 << i for i in ids) for ids in subs)


def _pair_mask(partition, ground):
    """A partition of {0..ground-1} as an equivalence relation: one bit
    per pair a < b inside a block, so refinement is inclusion."""
    pairs = (pair for block in partition for pair in itertools.combinations(block, 2))
    return sum(1 << (a * ground + b) for a, b in pairs)


def partition_lattice(n):
    """Set partitions of an n-set ordered by refinement.

    Element i is ``set_partitions(n)[i]``; finer partitions sit lower.
    """
    partition_size(n)
    return Lattice.from_sets(_pair_mask(p, n) for p in set_partitions(n))


def d_divisible_partitions(d, n):
    """Set partitions of {0..dn-1} with every block size divisible by d,
    in first-element recursive order."""
    ground = list(range(d * n))
    out = []

    def rec(remaining, blocks):
        if not remaining:
            out.append(tuple(tuple(b) for b in blocks))
            return
        first = remaining[0]
        rest = remaining[1:]
        for size in range(d, len(remaining) + 1, d):
            for extra in itertools.combinations(rest, size - 1):
                block = (first,) + extra
                left = [x for x in rest if x not in extra]
                blocks.append(block)
                rec(left, blocks)
                blocks.pop()

    rec(ground, [])
    return out


def d_divisible_count(d, n):
    """Number of d-divisible partitions of a dn-set, by shape counting."""
    return sum(shape_count(blocks) for blocks, _ in ddiv_shapes(d, n))


def d_divisible_partition_lattice(d, n):
    """d-divisible partitions of a dn-set under refinement, plus an
    artificial bottom, element 0, below the all-blocks-of-size-d
    partitions; element i + 1 is ``d_divisible_partitions(d, n)[i]``."""
    d_divisible_size(d, n)
    parts = d_divisible_partitions(d, n)
    return Lattice.from_sets([0] + [_pair_mask(p, d * n) for p in parts])


@lru_cache(maxsize=None)
def _d_block_count(d, part):
    """Number of d-divisible partitions of a (d*part)-set into size-d
    blocks ... i.e. |J| of one merged block of size d*part."""
    m = d * part
    return math.factorial(m) // (math.factorial(d) ** part * math.factorial(part))


def d_divisible_j_count(d, shape):
    """|J_P| for a d-divisible partition with block sizes ``shape``.

    Each block of size d*p contributes (dp)!/((d!)^p p!) atom partitions
    below it; blocks are independent, so the counts multiply.
    """
    total = 1
    for size in shape:
        if size % d:
            raise PartNotDivisible(f"block size {size} is not divisible by {d}")
        total *= _d_block_count(d, size // d)
    return total


# ----------------------------------------------------------------------
# block shapes: the rows that the shape-level series and strong checks
# of Pi_n and Pi^d_n read


def partition_shapes(n):
    """(blocks, |J_P|) for each block shape of a partition P of an n-set
    above the all-singletons bottom, in ``integer_partitions`` order;
    |J_P| counts the pairs inside blocks.  Checked on the call."""
    _check_partition_n(n)
    _check_budget("n", n, SHAPE_MAX_N)
    pairs = [math.comb(p, 2) for p in range(n + 1)]
    return ((shape, sum(map(pairs.__getitem__, shape)))
            for shape in integer_partitions(n) if shape[0] > 1)


def ddiv_shapes(d, n):
    """(blocks, |J_P|) for each block shape d*p_1, ..., d*p_k of a
    d-divisible partition P of a dn-set, (p_i) running over
    ``integer_partitions(n)``.  Checked on the call."""
    _check_ddiv(d, n)
    _check_budget("n", n, SHAPE_MAX_N)
    _check_budget("d * n", d * n, SHAPE_MAX_GROUND)
    below = [_d_block_count(d, p) for p in range(n + 1)]
    return ((tuple([d * p for p in shape]), math.prod(map(below.__getitem__, shape)))
            for shape in integer_partitions(n))


# ----------------------------------------------------------------------
# closed-form series


def _distributive_series(N, m):
    """P(L, s) for L the order ideals of a poset with N points, m of them
    maximal: |J| = N, J_I = I, and mu(I, top) = (-1)^k if I misses just k
    maximal points, else 0, so the bottom aside
    P(L, s) = sum_{k=0..min(m, N-1)} (-1)^k C(m, k) / (N/(N-k))^s.
    The base N/(N-1) carries -m, so among distributive lattices only the
    2-chain, the 3-chain and B_2 (N <= 2) have an ordinary series.
    The coefficients follow the row recurrence C(m, k + 1) = C(m, k)
    (m - k) / (k + 1), one exact division each."""
    terms = []
    coefficient = 1
    for k in range(min(m, N - 1) + 1):
        terms.append((Fraction(N, N - k), coefficient))
        coefficient = -coefficient * (m - k) // (k + 1)
    return DirichletSeries(terms)


def boolean_zeta_closed(r):
    """P(B_r, s), B_r the ideals of an r-antichain (N = m = r):
    ((-1)^r / r^s) * sum_{k=1..r} (-1)^k C(r,k) k^s."""
    _check_rank(r)
    _check_budget("r", r, BOOLEAN_CLOSED_MAX_RANK)
    return _distributive_series(r, r)


def chain_zeta_closed(k):
    """P of the k-chain, the ideals of a (k-1)-chain (N = k - 1, m = 1):
    1 - 1/((k-1)/(k-2))^s, and the constant 1 for the 2-chain."""
    _check_chain_length(k)
    return _distributive_series(k - 1, 1)


def divisibility_zeta_closed(n):
    """P of the divisor lattice of n, the ideals of one chain of e points
    per prime power p^e exactly dividing n (N = Omega(n), m = omega(n))."""
    _check_divisor_n(n)
    fact = factorize(n)
    return _distributive_series(sum(e for _, e in fact), len(fact))


def gaussian_binomial(n, k, q):
    """[n choose k]_q = prod_{i<k} (q^(n-i) - 1)/(q^(i+1) - 1) at an
    integer or rational q, and C(n, k) at q = 1; at q = -1 only k <= 1."""
    if not 0 <= k <= n:
        return 0
    if q == 1:
        return math.comb(n, k)
    if q == -1 and k > 1:
        raise SingularInput("the product divides by q^2 - 1 = 0 at q = -1")
    q = Fraction(q)
    value = math.prod((q ** (n - i) - 1) / (q ** (i + 1) - 1) for i in range(k))
    return int(value) if value.denominator == 1 else value


def _subspace_terms(q, n):
    """(base, coefficient) of P(S(GF(q)^n), s) at any q != 1: bases
    (q^n - 1)/(q^k - 1) and coefficients (-1)^(n-k) [n choose k]_q
    q^C(n-k, 2), for k = 1..n."""
    return ((Fraction(q**n - 1) / (q**k - 1),
             (-1) ** (n - k) * gaussian_binomial(n, k, q) * q ** math.comb(n - k, 2))
            for k in range(1, n + 1))


def subspace_zeta_closed(q, n):
    """P(S(GF(q)^n), s); see ``_subspace_terms``."""
    _check_dimension(n)
    bits = math.comb(n, 2) * (q - 1).bit_length()
    _check_budget("coefficient bits", bits, SUBSPACE_CLOSED_MAX_BITS)
    _prime_power(q)
    return DirichletSeries(_subspace_terms(q, n))


def _shape_series(rows, j_total):
    """The series summed over block shapes: a partition with k blocks has
    mu(P, top) = (-1)^(k-1) (k-1)!, as the interval above it is Pi_k, and
    each shape has ``shape_count(blocks)`` members at base j_total / |J_P|.
    Distinct |J_P| give distinct bases: coefficients sum per |J_P|."""
    coeffs = {}
    for b, jp in rows:
        mu = (-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
        coeffs[jp] = coeffs.get(jp, 0) + mu * shape_count(b)
    return DirichletSeries(
        (Fraction(j_total, jp), coeffs[jp]) for jp in sorted(coeffs, reverse=True))


def partition_zeta_closed(n):
    """P(Pi_n, s) summed over block shapes, with |J| = C(n, 2)."""
    return _shape_series(partition_shapes(n), math.comb(n, 2))


def ddiv_zeta_closed(d, n):
    """P(Pi^d_n, s) summed over block shapes, with |J| the number of
    partitions of a dn-set into blocks of size d."""
    return _shape_series(ddiv_shapes(d, n), _d_block_count(d, n))


def stirling_boolean_value(r, s):
    """r! S(s, r) / r^s, the closed evaluation of P(B_r, s)."""
    return Fraction(math.factorial(r) * stirling2(s, r), r**s)


@dataclass(frozen=True)
class LimitCheck:
    """Numeric comparison of the subspace series near q = 1 with the
    Boolean series value."""

    n: int
    s: int
    h: Fraction
    subspace_value: Fraction
    boolean_value: Fraction

    @property
    def difference(self):
        return float(abs(self.subspace_value - self.boolean_value))


def q_to_one_limit_check(n, s, h):
    """Evaluate the subspace closed form at q = 1 + h (exact rational
    arithmetic) and compare with P(B_n, s).  h = 0 is singular."""
    h = Fraction(h)
    if h == 0:
        raise SingularInput("the closed form divides by q - 1 at q = 1")
    value = sum(coeff * base ** -s for base, coeff in _subspace_terms(1 + h, n))
    boolean = boolean_zeta_closed(n).evaluate_exact(s)
    return LimitCheck(n=n, s=s, h=h, subspace_value=value, boolean_value=boolean)
