"""Combinatorial helpers, classical lattice families, and their
closed-form series."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta.cosetlike import ddiv_strong_check, partition_strong_check
from latzeta.errors import (
    NotAPrimePower,
    PartNotDivisible,
    SingularInput,
    SizeLimitExceeded,
)
from latzeta import families, groups
from latzeta.families import (
    boolean_size,
    boolean_lattice,
    boolean_zeta_closed,
    chain,
    chain_size,
    chain_zeta_closed,
    d_divisible_count,
    d_divisible_j_count,
    d_divisible_partition_lattice,
    d_divisible_partitions,
    ddiv_shapes,
    ddiv_zeta_closed,
    divisibility_lattice,
    divisibility_size,
    divisibility_zeta_closed,
    divisors,
    factorize,
    field,
    gaussian_binomial,
    integer_partitions,
    partition_lattice,
    partition_size,
    partition_shapes,
    partition_zeta_closed,
    q_to_one_limit_check,
    set_partitions,
    shape_count,
    stirling2,
    stirling_boolean_value,
    subspace_lattice,
    subspace_size,
    subspace_zeta_closed,
)
from latzeta.lattice import DEFAULT_MAX_ELEMENTS, Lattice
from latzeta.zeta import zeta_series

from builders import (
    heights,
    integer_partitions_recursive,
    number_mobius,
    shape_series_per_shape,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
# OEIS A000041, p(0) .. p(40)
PARTITION_COUNTS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
    385, 490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604,
    6842, 8349, 10143, 12310, 14883, 17977, 21637, 26015, 31185, 37338,
]


# ----------------------------------------------------------------------
# counting helpers


def test_stirling2_values():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(2, 3) == 0


def test_stirling2_recurrence():
    rng = random.Random(4001)
    for _ in range(50):
        n = rng.randrange(1, 12)
        k = rng.randrange(1, n + 1)
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_stirling2_row_sums_are_bell():
    for n in range(len(BELL)):
        assert sum(stirling2(n, k) for k in range(n + 1)) == BELL[n]


def test_integer_partitions():
    for n in range(1, len(PARTITION_COUNTS)):
        parts = list(integer_partitions(n))
        assert len(parts) == PARTITION_COUNTS[n]
        for shape in parts:
            assert sum(shape) == n
            assert list(shape) == sorted(shape, reverse=True)
        assert len(set(parts)) == len(parts)


def test_integer_partitions_of_zero_and_negatives():
    assert list(integer_partitions(0)) == [()]
    for n in (-1, -2, -40):
        assert list(integer_partitions(n)) == []


def test_integer_partitions_match_the_recursion():
    for n in range(31):
        assert list(integer_partitions(n)) == list(integer_partitions_recursive(n))


def test_shape_count():
    assert shape_count((2, 1)) == 3
    assert shape_count((2, 2)) == 3
    assert shape_count((3, 1, 1)) == 10
    for n in range(1, 9):
        assert (
            sum(shape_count(s) for s in integer_partitions(n)) == BELL[n]
        )


def test_set_partitions():
    for n in range(2, 8):
        parts = set_partitions(n)
        assert len(parts) == BELL[n]
        assert len(set(parts)) == len(parts)
        for p in parts:
            seen = sorted(x for block in p for x in block)
            assert seen == list(range(n))


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(2) == [(2, 1)]
    rng = random.Random(4002)
    for _ in range(40):
        n = rng.randrange(2, 10**6)
        fact = factorize(n)
        assert math.prod(p**e for p, e in fact) == n
        assert all(factorize(p) == [(p, 1)] for p, _ in fact)


def test_number_mobius():
    assert [number_mobius(k) for k in range(1, 11)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1,
    ]
    # sum over divisors vanishes for n > 1
    rng = random.Random(4003)
    for _ in range(30):
        n = rng.randrange(2, 5000)
        assert sum(number_mobius(d) for d in divisors(n)) == 0


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    rng = random.Random(4004)
    for _ in range(30):
        n = rng.randrange(1, 20000)
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == math.prod(e + 1 for _, e in factorize(n)) if n > 1 else 1


# ----------------------------------------------------------------------
# finite fields


def test_prime_field():
    gf = field(5)
    assert gf.add[3][4] == 2 and gf.mul[3][4] == 2


@pytest.mark.parametrize("q", [4, 8, 9])
def test_extension_field_axioms(q):
    gf = field(q)
    elements = range(q)
    for a in elements:
        assert gf.add[a][0] == a and gf.mul[a][1] == a and gf.mul[a][0] == 0
        # every nonzero element is invertible
        if a:
            assert 1 in {gf.mul[a][b] for b in elements}
    rng = random.Random(4005)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert gf.add[a][b] == gf.add[b][a]
        assert gf.mul[a][b] == gf.mul[b][a]
        assert gf.mul[a][gf.mul[b][c]] == gf.mul[gf.mul[a][b]][c]
        assert gf.mul[a][gf.add[b][c]] == gf.add[gf.mul[a][b]][gf.mul[a][c]]


def test_field_errors():
    with pytest.raises(NotAPrimePower):
        field(6)
    with pytest.raises(NotAPrimePower):
        field(1)
    with pytest.raises(SizeLimitExceeded):
        field(16)  # prime power, but no table shipped


# ----------------------------------------------------------------------
# lattice families


def test_boolean_lattice_structure():
    lat = boolean_lattice(4)
    assert lat.n == 16
    assert len(lat.atoms()) == 4
    # element ids are subset masks and the order is containment
    rng = random.Random(4006)
    for _ in range(50):
        a, b = rng.randrange(16), rng.randrange(16)
        assert lat.leq(a, b) == (a & b == a)
        assert lat.join(a, b) == a | b
        assert lat.meet(a, b) == a & b
    with pytest.raises(ValueError):
        boolean_lattice(0)
    with pytest.raises(SizeLimitExceeded):
        boolean_lattice(17)


def test_chain_bounds():
    assert chain(2).n == 2
    with pytest.raises(ValueError):
        chain(1)


def test_divisibility_lattice_structure():
    lat = divisibility_lattice(12)
    divs = divisors(12)
    assert lat.n == 6
    for i, a in enumerate(divs):
        for j, b in enumerate(divs):
            assert lat.leq(i, j) == (b % a == 0)
            assert divs[lat.join(i, j)] == math.lcm(a, b)
            assert divs[lat.meet(i, j)] == math.gcd(a, b)
    with pytest.raises(ValueError):
        divisibility_lattice(1)


def test_subspace_lattice_counts():
    # Galois numbers: total subspace count of GF(q)^n
    assert subspace_lattice(2, 2).n == 5
    assert subspace_lattice(3, 2).n == 6
    assert subspace_lattice(4, 2).n == 7
    assert subspace_lattice(2, 3).n == 16
    with pytest.raises(SizeLimitExceeded):
        subspace_lattice(2, 10)


def test_subspace_budget_bounds_elements():
    assert subspace_size(2, 7) == 29212
    for q, n in ((2, 8), (2, 9), (2, 10**9)):
        with pytest.raises(SizeLimitExceeded):
            subspace_size(q, n)


def test_subspace_size_builds_no_field_table(monkeypatch):
    def refuse(q):
        raise AssertionError("a field table was built")

    monkeypatch.setattr(families, "FieldTable", refuse)
    with pytest.raises(SizeLimitExceeded):
        subspace_size(2003, 1)  # 2003 vectors, and 2003 is prime
    with pytest.raises(SizeLimitExceeded):
        subspace_size(16, 1)  # no table shipped
    for q in (1, 6):
        with pytest.raises(NotAPrimePower):
            subspace_size(q, 2)


def test_chain_and_divisor_budgets_checked_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was built")

    budget = families.DIVISOR_MAX_ELEMENTS
    # 5 * 5 * 5 * 2 * 2 * 2 * 2 = 2000 divisors, and n is under DIVISOR_MAX_N
    n = 2**4 * 3**4 * 5**4 * 7 * 11 * 13 * 17
    assert chain_size(budget) == divisibility_size(n) == budget
    monkeypatch.setattr(Lattice, "_from_up", refuse)
    for build in (lambda: chain(budget + 1),
                  lambda: divisibility_lattice(2 * n)):
        with pytest.raises(SizeLimitExceeded):
            build()


def test_every_budget_fits_under_the_element_cap(monkeypatch):
    # A size a family's budget admits is one its constructor can build, so
    # an over-cap spec fails on the budget before anything is listed.
    assert boolean_size(families.BOOLEAN_MAX_RANK) <= DEFAULT_MAX_ELEMENTS
    assert partition_size(families.PARTITION_MAX_N) <= DEFAULT_MAX_ELEMENTS
    for budget in (families.DIVISOR_MAX_ELEMENTS, families.SUBSPACE_MAX_ELEMENTS,
                   families.DDIV_MAX_ELEMENTS, groups.COSET_MAX_ELEMENTS):
        assert budget <= DEFAULT_MAX_ELEMENTS
    monkeypatch.setattr(Lattice, "from_sets", None)
    with pytest.raises(SizeLimitExceeded, match="^rank 16 exceeds the budget of 15$"):
        boolean_lattice(16)


def test_divisor_n_capped_before_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError("n was factored")

    monkeypatch.setattr(families, "factorize", refuse)
    for check in (divisibility_size, divisibility_zeta_closed):
        with pytest.raises(SizeLimitExceeded):
            check(10**18 + 3)


def test_subspace_lattice_is_graded_by_dimension():
    lat = subspace_lattice(3, 2)
    assert sorted(heights(lat)) == [0, 1, 1, 1, 1, 2]
    assert lat.is_atomistic()


def test_partition_lattice_structure():
    lat = partition_lattice(4)
    assert lat.n == BELL[4]
    parts = set_partitions(4)
    assert heights(lat)[lat.top] == 3
    # refinement: finer below coarser
    i_fine = parts.index(tuple((x,) for x in range(4)))
    assert i_fine == lat.bottom
    with pytest.raises(ValueError):
        partition_lattice(1)
    with pytest.raises(SizeLimitExceeded):
        partition_lattice(9)


def test_d_divisible_partitions():
    assert d_divisible_count(2, 2) == 4
    assert d_divisible_count(2, 3) == 31
    assert len(d_divisible_partitions(2, 3)) == 31
    for p in d_divisible_partitions(2, 3):
        assert all(len(b) % 2 == 0 for b in p)


def test_d_divisible_lattice_structure():
    lat = d_divisible_partition_lattice(2, 2)
    # bottom + three perfect matchings + the single block of 4
    assert lat.n == 5
    assert len(lat.atoms()) == 3
    with pytest.raises(SizeLimitExceeded):
        d_divisible_partition_lattice(2, 7)
    with pytest.raises(ValueError):
        d_divisible_partition_lattice(1, 3)


def test_d_divisible_j_count():
    assert d_divisible_j_count(2, (6,)) == 15
    assert d_divisible_j_count(2, (4, 2)) == 3
    assert d_divisible_j_count(2, (2, 2)) == 1
    assert d_divisible_j_count(3, (6, 3)) == 10
    with pytest.raises(PartNotDivisible):
        d_divisible_j_count(2, (3,))


def test_d_divisible_j_count_matches_lattice():
    # |J| of the whole lattice is the atom count of the one-block shape
    for d, n in ((2, 2), (2, 3), (3, 2)):
        lat = d_divisible_partition_lattice(d, n)
        assert len(lat.join_irreducibles()) == d_divisible_j_count(d, (d * n,))
        assert lat.is_atomistic()


# ----------------------------------------------------------------------
# the families' former builders, kept as test-only oracles: each
# set-family constructor must give the same lattice element by element


def _merge_covers(parts, index):
    """(i, j) for each partition at ``index[p]`` and each coarser one got
    by merging two of its blocks."""
    pairs = []
    for p in parts:
        blocks = [list(b) for b in p]
        for a, b in itertools.combinations(range(len(blocks)), 2):
            merged = sorted(
                [blocks[x] for x in range(len(blocks)) if x not in (a, b)]
                + [sorted(blocks[a] + blocks[b])]
            )
            pairs.append((index[p], index[tuple(tuple(x) for x in merged)]))
    return pairs


def partition_oracle(n):
    parts = set_partitions(n)
    index = {p: i for i, p in enumerate(parts)}
    return Lattice.from_covers(len(parts), _merge_covers(parts, index))


def d_divisible_oracle(d, n):
    parts = d_divisible_partitions(d, n)
    index = {p: i + 1 for i, p in enumerate(parts)}  # 0 is the bottom
    atoms = [(0, index[p]) for p in parts if len(p) == n]
    return Lattice.from_covers(len(parts) + 1, atoms + _merge_covers(parts, index))


def boolean_oracle(r):
    pairs = [(mask, mask | 1 << i) for mask in range(1 << r) for i in range(r)
             if not (mask >> i) & 1]
    return Lattice.from_covers(1 << r, pairs)


def chain_oracle(k):
    return Lattice.from_covers(k, [(i, i + 1) for i in range(k - 1)])


def divisibility_oracle(n):
    divs = divisors(n)
    index = {d: i for i, d in enumerate(divs)}
    primes = [p for p, _ in factorize(n)]
    covers = [(i, index[d * p]) for i, d in enumerate(divs) for p in primes
              if d * p in index]
    return Lattice.from_covers(len(divs), covers)


def subspace_oracle(q, n):
    """Subspaces of GF(q)^n as the closure of the atoms under span."""
    gf = field(q)
    vectors = list(itertools.product(range(q), repeat=n))
    vec_id = {v: i for i, v in enumerate(vectors)}

    def vadd(u, v):
        return tuple(gf.add[a][b] for a, b in zip(u, v))

    def vscale(c, v):
        return tuple(gf.mul[c][a] for a in v)

    zero = vectors[0]

    def span(gens):
        out = {zero}
        for g in gens:
            if g in out:
                continue
            out = {vadd(w, vscale(c, g)) for w in out for c in range(q)}
        return frozenset(out)

    zero_space = frozenset({zero})
    atoms = {span([v]) for v in vectors[1:]}
    known = {zero_space} | atoms
    frontier = list(atoms)
    while frontier:
        new = []
        for sub in frontier:
            for a in atoms:
                if a <= sub:
                    continue
                joined = span(sub | a)
                if joined not in known:
                    known.add(joined)
                    new.append(joined)
        frontier = new

    def sort_key(sub):
        return (len(sub), tuple(sorted(vec_id[v] for v in sub)))

    subs = sorted(known, key=sort_key)
    return Lattice.from_sets(sum(1 << vec_id[v] for v in sub) for sub in subs)


def assert_same_lattice(got, want):
    assert got.n == want.n
    assert got.up == want.up
    assert got.covers == want.covers
    assert (got.bottom, got.top) == (want.bottom, want.top)
    assert got.join_irreducibles() == want.join_irreducibles()


@pytest.mark.parametrize("n", range(2, 8))
def test_partition_lattice_matches_cover_oracle(n):
    assert_same_lattice(partition_lattice(n), partition_oracle(n))


@pytest.mark.parametrize("d, n", [
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2),
])
def test_d_divisible_lattice_matches_cover_oracle(d, n):
    assert_same_lattice(d_divisible_partition_lattice(d, n), d_divisible_oracle(d, n))


@pytest.mark.long
def test_large_partition_lattices_match_cover_oracles():
    assert_same_lattice(partition_lattice(8), partition_oracle(8))
    assert_same_lattice(d_divisible_partition_lattice(2, 5), d_divisible_oracle(2, 5))


@pytest.mark.parametrize("q, n", [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (3, 4),
    (4, 2), (4, 3), (5, 2), (5, 3), (7, 2), (8, 2), (9, 2),
])
def test_subspace_lattice_matches_span_oracle(q, n):
    assert_same_lattice(subspace_lattice(q, n), subspace_oracle(q, n))


def test_boolean_chain_divisor_lattices_match_cover_oracles():
    for r in range(1, 9):
        assert_same_lattice(boolean_lattice(r), boolean_oracle(r))
    for k in range(2, 9):
        assert_same_lattice(chain(k), chain_oracle(k))
    for n in [*range(2, 501), 720720]:
        assert_same_lattice(divisibility_lattice(n), divisibility_oracle(n))


# ----------------------------------------------------------------------
# Gaussian binomials


def gaussian_binomial_oracle(n, k):
    """Ascending coefficients of [n choose k]_q as a polynomial in q, by
    the q-Pascal recurrence [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return [0]
    if k == 0 or k == n:
        return [1]
    left = gaussian_binomial_oracle(n - 1, k - 1)
    right = gaussian_binomial_oracle(n - 1, k)
    out = [0] * max(len(left), len(right) + k)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return out


def test_gaussian_binomial_poly():
    assert gaussian_binomial_oracle(4, 2) == [1, 1, 2, 1, 1]
    assert gaussian_binomial_oracle(3, 1) == [1, 1, 1]
    assert gaussian_binomial_oracle(3, 5) == [0]
    # symmetry and the q = 1 specialisation
    rng = random.Random(4007)
    for _ in range(40):
        n = rng.randrange(0, 10)
        k = rng.randrange(0, n + 1)
        assert gaussian_binomial_oracle(n, k) == gaussian_binomial_oracle(n, n - k)
        assert gaussian_binomial(n, k, 1) == math.comb(n, k)
        assert gaussian_binomial(n, k, 2) == sum(
            c * 2**i for i, c in enumerate(gaussian_binomial_oracle(n, k))
        )


def test_gaussian_binomial_matches_q_pascal_oracle():
    qs = [1, *range(2, 10), Fraction(3, 2), 1 + Fraction(1, 10**6)]
    for n in range(9):
        for k in range(-1, n + 2):
            poly = gaussian_binomial_oracle(n, k)
            for q in qs:
                want = sum(c * Fraction(q) ** i for i, c in enumerate(poly))
                got = gaussian_binomial(n, k, q)
                assert got == want, (n, k, q)
                # an integral value comes back as an int
                assert isinstance(got, int) == (want.denominator == 1), (n, k, q)
    # the product divides by zero at q = -1 once k >= 2
    assert gaussian_binomial(5, 1, -1) == 1
    with pytest.raises(SingularInput):
        gaussian_binomial(4, 2, -1)


def test_gaussian_binomial_counts_subspaces():
    # number of lines (1-dim subspaces) of GF(q)^2 is q + 1
    for q in (2, 3, 4):
        assert gaussian_binomial(2, 1, q) == q + 1
        lat = subspace_lattice(q, 2)
        assert len(lat.atoms()) == q + 1


# ----------------------------------------------------------------------
# closed forms


def test_chain_zeta_closed():
    for k in range(2, 7):
        assert chain_zeta_closed(k) == zeta_series(chain(k)).series
    with pytest.raises(ValueError):
        chain_zeta_closed(1)


@pytest.mark.parametrize("closed, build, args", [
    (chain_zeta_closed, chain, (1,)),
    (boolean_zeta_closed, boolean_lattice, (0,)),
    (divisibility_zeta_closed, divisibility_lattice, (1,)),
    (subspace_zeta_closed, subspace_lattice, (2, 0)),
    (partition_zeta_closed, partition_lattice, (1,)),
    (ddiv_zeta_closed, d_divisible_partition_lattice, (1, 3)),
    (ddiv_zeta_closed, d_divisible_partition_lattice, (2, 0)),
], ids=["chain", "boolean", "divisor", "subspace", "partition", "ddiv-d", "ddiv-n"])
def test_closed_form_rejects_what_the_constructor_rejects(closed, build, args):
    with pytest.raises(ValueError) as from_closed:
        closed(*args)
    with pytest.raises(ValueError) as from_build:
        build(*args)
    assert str(from_closed.value) == str(from_build.value)


def test_subspace_closed_form_needs_a_prime_power():
    for q in (0, 1, 6):
        with pytest.raises(NotAPrimePower):
            subspace_zeta_closed(q, 2)


def test_boolean_zeta_closed_small():
    for r in range(1, 5):
        assert boolean_zeta_closed(r) == zeta_series(boolean_lattice(r)).series


def test_divisibility_zeta_closed_small():
    for n in (4, 6, 12, 30, 720720):
        assert (
            divisibility_zeta_closed(n)
            == zeta_series(divisibility_lattice(n)).series
        )


def test_subspace_zeta_closed_small():
    for q, n in ((2, 2), (3, 2), (2, 3), (2, 5), (3, 3), (4, 3), (5, 2)):
        assert (
            subspace_zeta_closed(q, n) == zeta_series(subspace_lattice(q, n)).series
        )


def test_partition_zeta_closed_small():
    for n in (3, 4):
        assert partition_zeta_closed(n) == zeta_series(partition_lattice(n)).series


def test_stirling_boolean_value():
    for r in range(1, 5):
        series = boolean_zeta_closed(r)
        for s in range(1, 9):
            assert series.evaluate_exact(s) == stirling_boolean_value(r, s)
    # spot value: surjections from a 4-set onto a 2-set
    assert stirling_boolean_value(2, 4) == Fraction(14, 16)


def test_q_to_one_limit():
    h = Fraction(1, 10**6)
    check = q_to_one_limit_check(2, 2, h)
    assert check.subspace_value != check.boolean_value
    assert check.difference < 1e-3
    with pytest.raises(SingularInput):
        q_to_one_limit_check(2, 2, 0)


# ----------------------------------------------------------------------
# block shapes and the shape-level series of Pi^d_n

# the n <= 40 with an ordinary series P(Pi^d_n, s), for d = 2..5
ORDINARY_DDIV = {
    2: [2, 3, 5],
    3: [2, 3, 4, 7],
    4: [2, 3, 4, 5, 7, 9],
    5: [2, 3, 5, 6, 7],
}


def _ordinary_ddiv(d, n_max):
    return [n for n in range(2, n_max + 1) if ddiv_zeta_closed(d, n).is_ordinary()]


@pytest.mark.parametrize("d, n", [
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2),
])
def test_ddiv_zeta_closed_matches_engine(d, n):
    lattice = d_divisible_partition_lattice(d, n)
    assert ddiv_zeta_closed(d, n) == zeta_series(lattice).series


@pytest.mark.long
@pytest.mark.parametrize("d, n", [(2, 5), (4, 3)])
def test_large_ddiv_zeta_closed_matches_engine(d, n):
    lattice = d_divisible_partition_lattice(d, n)
    assert ddiv_zeta_closed(d, n) == zeta_series(lattice).series


@pytest.mark.parametrize("d", sorted(ORDINARY_DDIV))
def test_ddiv_ordinary_cases_through_20(d):
    want = [n for n in ORDINARY_DDIV[d] if n <= 20]
    assert _ordinary_ddiv(d, 20) == want
    # strong implies weak
    for n in range(2, 21):
        if ddiv_strong_check(d, n).strong:
            assert n in want, (d, n)


# Through the shape budget the ordinary n are exactly the strongly
# coset-like n: no non-integer base ever cancels.
@pytest.mark.long
@pytest.mark.parametrize("d", sorted(ORDINARY_DDIV))
def test_ddiv_ordinary_cases_through_40(d):
    n_max = families.SHAPE_MAX_N
    assert _ordinary_ddiv(d, n_max) == ORDINARY_DDIV[d]
    strong = [n for n in range(2, n_max + 1) if ddiv_strong_check(d, n).strong]
    assert strong == ORDINARY_DDIV[d]


@pytest.mark.long
def test_partition_ordinary_only_through_4():
    n_range = range(2, families.SHAPE_MAX_N + 1)
    ordinary = [n for n in n_range if partition_zeta_closed(n).is_ordinary()]
    assert ordinary == [2, 3, 4]
    assert [n for n in n_range if partition_strong_check(n).strong] == ordinary


def test_partition_shapes_skip_the_bottom():
    rows = list(partition_shapes(4))
    assert rows == [((4,), 6), ((3, 1), 3), ((2, 2), 2), ((2, 1, 1), 1)]
    assert sum(shape_count(blocks) for blocks, _ in rows) == BELL[4] - 1


def _per_shape_rows(d, n):
    """The rows of ``partition_shapes(n)`` (d None) or ``ddiv_shapes(d, n)``
    from the recursive partitions, with |J_P| worked out for each shape."""
    shapes = integer_partitions_recursive(n)
    if d is None:
        return [(s, sum(math.comb(p, 2) for p in s)) for s in shapes if s[0] > 1]
    blocks = (tuple(d * p for p in s) for s in shapes)
    return [(b, d_divisible_j_count(d, b)) for b in blocks]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 25).flatmap(lambda n: st.tuples(
    st.integers(2, families.SHAPE_MAX_GROUND // n), st.just(n))))
def test_shape_rows_match_per_shape_counts(dn):
    d, n = dn
    assert list(ddiv_shapes(d, n)) == _per_shape_rows(d, n)
    if n >= 2:
        assert list(partition_shapes(n)) == _per_shape_rows(None, n)


@pytest.mark.parametrize("d", [None, 2, 3, 4, 5])
def test_closed_forms_match_the_per_shape_sum(d):
    for n in range(2, 26):
        if d is None:
            closed, j_total = partition_zeta_closed(n), math.comb(n, 2)
        else:
            closed, j_total = ddiv_zeta_closed(d, n), d_divisible_j_count(d, (d * n,))
        want = shape_series_per_shape(_per_shape_rows(d, n), j_total)
        assert closed.terms() == want.terms(), (d, n)


@functools.lru_cache(maxsize=None)
def _ddiv_by_shape(d, n):
    """The d-divisible partitions of a dn-set grouped by block shape."""
    groups = {}
    for p in d_divisible_partitions(d, n):
        groups.setdefault(tuple(sorted(map(len, p), reverse=True)), []).append(p)
    return groups


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(d, n) for d in range(2, 11) for n in range(1, 6)
                        if d * n <= 10]),
       st.data())
def test_ddiv_shapes_match_the_partitions(dn, data):
    d, n = dn
    groups = _ddiv_by_shape(d, n)
    atoms = groups[(d,) * n]
    rows = list(ddiv_shapes(d, n))
    assert sorted(blocks for blocks, _ in rows) == sorted(groups)
    for blocks, jp in rows:
        members = groups[blocks]
        assert len(members) == shape_count(blocks)
        part = data.draw(st.sampled_from(members))
        block_of = {x: i for i, block in enumerate(part) for x in block}
        # an atom refines the partition when each of its blocks lies
        # inside one block of it
        below = sum(all(len({block_of[x] for x in block}) == 1 for block in atom)
                    for atom in atoms)
        assert jp == below
    assert d_divisible_count(d, n) == sum(map(len, groups.values()))


# ----------------------------------------------------------------------
# closed-form budgets, each checked before any work


def _refuse(*args, **kwargs):
    raise AssertionError("work was done past a budget")


def test_shape_budgets_checked_before_any_shape(monkeypatch):
    n = families.SHAPE_MAX_N
    d = families.SHAPE_MAX_GROUND // n
    monkeypatch.setattr(families, "integer_partitions", lambda n: iter(()))
    # the budgets themselves are admitted
    assert not partition_zeta_closed(n)
    assert not ddiv_zeta_closed(d, n)
    assert ddiv_strong_check(d, n).strong
    monkeypatch.setattr(families, "integer_partitions", _refuse)
    for check in (
        lambda: partition_zeta_closed(n + 1),
        lambda: partition_strong_check(n + 1),
        lambda: ddiv_zeta_closed(2, n + 1),
        lambda: ddiv_strong_check(2, n + 1),
        lambda: ddiv_zeta_closed(d + 1, n),  # over the ground budget only
        lambda: ddiv_strong_check(d + 1, n),
    ):
        with pytest.raises(SizeLimitExceeded):
            check()


def test_subspace_closed_form_budgets_checked_first(monkeypatch):
    # at the bit budget every coefficient still prints
    assert subspace_zeta_closed(2, 161).to_doc()
    assert subspace_zeta_closed(3, 114).to_doc()
    monkeypatch.setattr(families, "factorize", _refuse)
    monkeypatch.setattr(families, "_subspace_terms", _refuse)
    # C(162, 2) = 13,041 bits at q = 2; a q past DIVISOR_MAX_N is not
    # trial-divided
    for q, n in ((2, 162), (2, 500), (3, 115), (10**18 + 3, 2)):
        with pytest.raises(SizeLimitExceeded):
            subspace_zeta_closed(q, n)


def test_boolean_closed_form_rank_budget(monkeypatch):
    r = families.BOOLEAN_CLOSED_MAX_RANK
    assert len(boolean_zeta_closed(r).to_doc()["terms"]) == r
    monkeypatch.setattr(math, "comb", _refuse)
    with pytest.raises(SizeLimitExceeded):
        boolean_zeta_closed(r + 1)
