"""Probabilistic zeta function of a finite lattice.

For a lattice L with join-irreducible set J and J_x = {j in J : j <= x},
the series is

    P(L, s) = sum over x > bottom of  mu(x, top) / [J : J_x]^s,

with the exact rational index [J : J_x] = |J| / |J_x|.  At a positive
integer s this equals the probability that s elements drawn uniformly
and independently from J have join equal to the top.

One engine pass (``engine_pass``) counts |G_x| for a generating set G
and sums mu(x, top) per count: G = J gives ``zeta_series`` and the atoms
give Brown's ``zeta_series_atom_based``.  The same table decides both
verdicts, so ``cosetlike.classify`` and ``search.catalog_entry`` read
them without building the series.

``brute_force_probability`` is the executable form of the probability
above and never reads the Moebius function: its ``direct`` path counts
the s-tuples of J_x joining to x by folding ``Lattice.join`` over the
distribution of prefix joins, one round per draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dirichlet import DirichletSeries
from .errors import (
    BottomTarget,
    BudgetExceeded,
    DegenerateGeneration,
    MismatchDetected,
)
from .lattice import Lattice


@dataclass(frozen=True)
class ZetaReport:
    """One engine pass for a generating set G (J in ``zeta_series``).

    The base of the count c = |G_x| is |G| / c, so distinct counts give
    distinct bases and a base is a term iff its sum is nonzero: the
    series is ordinary iff every count with a nonzero sum divides |G|,
    and strongly coset-like iff every count does.  Neither verdict needs
    the series, which is built on first read.
    """

    lattice: Lattice
    j_count: int            # |G|
    j_below: tuple          # |G_x| per element (0 at the bottom slot)
    mobius_top: tuple       # mu(x, top) per element
    sums: dict              # count -> sum of mu over its elements, in first-seen order
    ordinary: bool
    strongly_coset_like: bool

    @cached_property
    def local_sums(self):
        """Base -> sum of mu over the elements at that base."""
        return {Fraction(self.j_count, c): total for c, total in self.sums.items()}

    @cached_property
    def series(self):
        return DirichletSeries(self.local_sums)

    def to_doc(self):
        return {
            "n": self.lattice.n,
            "j_count": self.j_count,
            "j_below": list(self.j_below),
            "mobius_top": [str(v) for v in self.mobius_top],
            "local_sums": [
                {"q": f"{q.numerator}/{q.denominator}", "s": str(c)}
                for q, c in sorted(self.local_sums.items())
            ],
            "series": self.series.to_doc(),
            "ordinary": self.ordinary,
            "strongly_coset_like": self.strongly_coset_like,
        }


def engine_pass(lattice, generators):
    """The report of ``lattice`` for the generating set ``generators``
    (element ids): one pass over the elements above the bottom."""
    size = len(generators)
    gen_mask = sum(1 << g for g in generators)
    mu = lattice.mobius_to_top()
    down = lattice.down
    bottom = lattice.bottom
    counts = [0] * lattice.n
    sums = {}
    for x in range(lattice.n):
        if x == bottom:
            continue
        c = (down[x] & gen_mask).bit_count()
        counts[x] = c
        sums[c] = sums.get(c, 0) + mu[x]
    return ZetaReport(
        lattice=lattice,
        j_count=size,
        j_below=tuple(counts),
        mobius_top=mu,
        sums=sums,
        ordinary=all(size % c == 0 for c, total in sums.items() if total),
        strongly_coset_like=all(size % c == 0 for c in sums),
    )


def zeta_series(lattice):
    """The engine pass over the join-irreducibles."""
    return engine_pass(lattice, lattice.join_irreducibles())


def zeta_series_atom_based(lattice):
    """Brown's series: the same engine pass over the atoms instead of the
    join-irreducibles.

    Raises ``DegenerateGeneration`` when the atoms do not join to the
    top, in which case no tuple of atoms generates the lattice.
    """
    atoms = lattice.atoms()
    if lattice.join_set(atoms) != lattice.top:
        raise DegenerateGeneration("the join of all atoms is not the top")
    return engine_pass(lattice, atoms).series


# ----------------------------------------------------------------------
# brute-force oracles

#: Largest exponent the oracle checks accept, here and in
#: ``groups.verify_brown_identity``; each exact value grows with s, and
#: ``verify --suite oracle --smax 100`` already takes seconds.
ORACLE_MAX_S = 64


def brute_force_probability(lattice, x, s, *, method):
    """Probability that s uniform draws from J_x join to exactly x.

    ``method`` names one of two independent paths.  ``direct`` counts the
    |J_x|**s tuples by the distribution of their prefix joins: starting
    from {bottom: 1}, each of s rounds sends count[y] to join(y, j) for
    every j in J_x, and the answer is the count that lands on x.  That is
    the left fold of ``join`` over every tuple, grouped by the running
    join, so the count is the integer that enumerating the tuples would
    give; it costs at most s * |[bottom, x]| * |J_x| joins, where
    enumeration costs (s - 1) * |J_x|**s, so no exponent is refused.
    ``mobius`` counts through inclusion-exclusion over the interval
    (bottom, x].

    At s = 0 the single empty tuple joins to the bottom, so the
    probability is 0 for every x above it.
    """
    if x == lattice.bottom:
        raise BottomTarget("generation probability is defined for x above bottom")
    if s < 0:
        raise ValueError("tuple length must be non-negative")
    if s == 0:
        return Fraction(0)
    jx = lattice.below_irreducibles(x)
    size = len(jx) ** s
    if method == "direct":
        join = lattice.join
        # count[y]: how many prefixes drawn so far have running join y
        count = {lattice.bottom: 1}
        for _ in range(s):
            nxt = {}
            for y, c in count.items():
                for j in jx:
                    z = join(y, j)
                    nxt[z] = nxt.get(z, 0) + c
            count = nxt
        return Fraction(count.get(x, 0), size)
    if method == "mobius":
        mu = lattice.mobius_vector(x)
        members = lattice.down[x]
        count = 0
        for y in range(lattice.n):
            if y == lattice.bottom or not (members >> y) & 1:
                continue
            count += mu[y] * lattice.count_below_irreducibles(y) ** s
        return Fraction(count, size)
    raise ValueError(f"unknown method {method!r}")


def _check_exponent_cap(s_max):
    if s_max > ORACLE_MAX_S:
        raise BudgetExceeded(
            f"oracle checks capped at s = {ORACLE_MAX_S} (asked for {s_max})"
        )


@dataclass(frozen=True)
class OracleCheck:
    """Per-exponent agreement between the series and the oracles."""

    s_values: dict  # s -> exact series value (verified)
    methods: tuple  # oracle paths checked at every s: always both


def verify_series_against_oracle(lattice, s_max):
    """Check evaluate_exact(P(L, .), s) against both oracles for every
    1 <= s <= s_max; raises ``MismatchDetected`` with both values, and
    before any work ``ValueError`` when s_max < 1 and ``BudgetExceeded``
    when s_max > ``ORACLE_MAX_S``."""
    if s_max < 1:
        raise ValueError(f"s_max must be at least 1, got {s_max}")
    _check_exponent_cap(s_max)
    series = zeta_series(lattice).series
    top = lattice.top
    checked = {}
    for s in range(1, s_max + 1):
        want = series.evaluate_exact(s)
        for method in ("direct", "mobius"):
            got = brute_force_probability(lattice, top, s, method=method)
            if want != got:
                raise MismatchDetected(
                    f"series value {want} != {method} oracle value {got} at s={s}",
                    context={
                        "s": s,
                        "series": str(want),
                        "oracle": str(got),
                        "method": method,
                    },
                )
        checked[s] = want
    return OracleCheck(s_values=checked, methods=("direct", "mobius"))
