"""Finite groups as Cayley tables, their subgroup and coset lattices.

Groups are kept deliberately small (order <= 64): elements are ids
0..n-1, the identity is id 0, and every structural law (closure,
identity, inverses, associativity) is checked exhaustively at
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .dirichlet import DirichletSeries
from .errors import (
    MismatchDetected,
    NotCoprimeOrders,
    OrderLimitExceeded,
    SizeLimitExceeded,
)
from .lattice import Lattice, is_isomorphic, lower_reduced_product
from .zeta import _check_exponent_cap, zeta_series

MAX_GROUP_ORDER = 64


def _check_order(name, factors):
    """Raise ``OrderLimitExceeded`` if the group ``name``, of order the
    product of ``factors``, is past ``MAX_GROUP_ORDER``; the product stops
    at the bound, so S_n never computes n!."""
    order = 1
    for f in factors:
        order *= f
        if order > MAX_GROUP_ORDER:
            raise OrderLimitExceeded(
                f"{name} has order above the bound {MAX_GROUP_ORDER}"
            )


class FiniteGroup:
    """A group given by its full multiplication table."""

    __slots__ = (
        "name", "n", "table", "inverse", "_subgroups", "_subgroup_lattice", "_normal"
    )

    def __init__(self, table, name="G"):
        n = len(table)
        if n < 1:
            raise ValueError("a group needs at least one element")
        _check_order(name, [n])
        table = tuple(tuple(row) for row in table)
        for row in table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ValueError("multiplication table rows must be permutations")
        for j in range(n):
            if table[0][j] != j or table[j][0] != j:
                raise ValueError("element 0 must be the identity")
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inverse[a] = b
        if any(v is None for v in inverse):
            raise ValueError("some element has no inverse")
        for a in range(n):
            ta = table[a]
            for b in range(n):
                tab = table[ta[b]]
                tb = table[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise ValueError(
                            f"multiplication is not associative at ({a},{b},{c})"
                        )
        self.name = name
        self.n = n
        self.table = table
        self.inverse = tuple(inverse)
        self._subgroups = None
        self._subgroup_lattice = None
        self._normal = {}

    # ------------------------------------------------------------------

    def mul(self, a, b):
        return self.table[a][b]

    def conjugate(self, g, a):
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inverse[g]]

    def generated_subgroup(self, gens):
        """Closure of a set of elements (always contains the identity).

        In a finite group the set of words in the generators is already
        a subgroup, so a right-multiplication reachability sweep closes.
        """
        out = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in out:
                        out.add(y)
                        new.append(y)
            frontier = new
        return frozenset(out)

    def subgroups(self):
        """All subgroups, sorted by (order, element tuple)."""
        if self._subgroups is None:
            trivial = frozenset({0})
            known = {trivial}
            frontier = [trivial]
            while frontier:
                new = []
                for h in frontier:
                    for g in range(1, self.n):
                        if g in h:
                            continue
                        k = self.generated_subgroup(h | {g})
                        if k not in known:
                            known.add(k)
                            new.append(k)
                frontier = new
            self._subgroups = tuple(
                sorted(known, key=lambda h: (len(h), tuple(sorted(h))))
            )
        return self._subgroups

    def is_normal(self, subgroup):
        """Whether ``subgroup`` is closed under conjugation; memoised per
        subgroup (as a frozenset)."""
        subgroup = frozenset(subgroup)
        normal = self._normal.get(subgroup)
        if normal is None:
            normal = all(
                self.conjugate(g, a) in subgroup
                for g in range(self.n)
                for a in subgroup
            )
            self._normal[subgroup] = normal
        return normal

    def normal_subgroups(self):
        return tuple(h for h in self.subgroups() if self.is_normal(h))

    def left_coset(self, x, subgroup):
        return frozenset(self.table[x][h] for h in subgroup)

    def __repr__(self):
        return f"<FiniteGroup {self.name} order={self.n}>"


# ----------------------------------------------------------------------
# constructors


def cyclic(n):
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    _check_order(f"C{n}", [n])
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, f"C{n}")


def symmetric(n):
    """Symmetric group on n letters, n <= 4 (order bound)."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_order(f"S{n}", range(2, n + 1))
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # identity is the sorted first permutation
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, f"S{n}")


def dihedral(n):
    """Dihedral group of order 2n (symmetries of an n-gon), n >= 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    _check_order(f"D{n}", [2, n])
    # element 2k is rotation r^k, element 2k+1 is reflection s r^k;
    # relabelled so that 0 is the identity.
    def mul(a, b):
        ra, fa = a >> 1, a & 1
        rb, fb = b >> 1, b & 1
        if fa:
            r = (ra - rb) % n
        else:
            r = (ra + rb) % n
        return (r << 1) | (fa ^ fb)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(table, f"D{n}")


def direct_product(a, b):
    name = f"{a.name}x{b.name}"
    _check_order(name, [a.n, b.n])

    def eid(x, y):
        return x * b.n + y

    table = [
        [
            eid(a.table[x1][x2], b.table[y1][y2])
            for x2 in range(a.n)
            for y2 in range(b.n)
        ]
        for x1 in range(a.n)
        for y1 in range(b.n)
    ]
    return FiniteGroup(table, name)


# ----------------------------------------------------------------------
# subgroup lattice and the group zeta function


def _mask(elements):
    """Bitmask with bit ``x`` set for each element id ``x``."""
    return sum(1 << x for x in elements)


def subgroup_lattice(group):
    """Lattice of subgroups under inclusion; element i corresponds to
    ``group.subgroups()[i]``."""
    if group._subgroup_lattice is None:
        group._subgroup_lattice = Lattice.from_sets(map(_mask, group.subgroups()))
    return group._subgroup_lattice


def group_zeta(group):
    """P(G, s) = sum over subgroups H of mu(H, G) / [G : H]^s."""
    # the trivial group's subgroup lattice is the one-point order, which
    # ``Lattice`` refuses; its one subgroup has mu(G, G) = 1
    mu = subgroup_lattice(group).mobius_to_top() if group.n > 1 else (1,)
    return DirichletSeries(
        (Fraction(group.n, len(h)), mu[i]) for i, h in enumerate(group.subgroups())
    )


# ----------------------------------------------------------------------
# coset lattices


@dataclass(frozen=True)
class CosetLattice:
    """The lattice of all cosets of all subgroups of G, plus an empty
    bottom, ordered by inclusion.

    ``members[i]`` is the underlying set of element ids (empty for the
    bottom).  ``_translations`` memoises ``translate`` and takes no part
    in equality.
    """

    group: FiniteGroup
    lattice: Lattice
    members: tuple
    singleton_id: dict
    member_index: dict
    _translations: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def find(self, members):
        """Element id of a given coset (as a set of group elements)."""
        target = frozenset(members)
        try:
            return self.member_index[target]
        except KeyError:
            raise KeyError(
                f"{sorted(target)} is not a coset of {self.group.name}"
            ) from None

    def translate(self, g):
        """The permutation of element ids induced by left translation by
        ``g``; computed once per ``g``, then served from the memo."""
        perm = self._translations.get(g)
        if perm is None:
            row = self.group.table[g]
            perm = tuple(
                self.find(frozenset(row[x] for x in m)) for m in self.members
            )
            self._translations[g] = perm
        return perm


#: Element budget of ``coset_lattice``, checked by ``coset_count``.
COSET_MAX_ELEMENTS = 2000


def coset_count(group):
    """Element count of the coset lattice: one coset per subgroup H and
    left-coset representative (a coset xH determines H), plus the empty
    bottom.  SizeLimitExceeded above ``COSET_MAX_ELEMENTS``."""
    count = 1 + sum(group.n // len(h) for h in group.subgroups())
    if count > COSET_MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"{count} elements exceed the budget {COSET_MAX_ELEMENTS}"
        )
    return count


def coset_lattice(group):
    """Build the coset lattice of a finite group."""
    coset_count(group)
    cosets = {group.left_coset(x, h) for h in group.subgroups() for x in range(group.n)}
    ordered = sorted(cosets, key=lambda c: (len(c), tuple(sorted(c))))
    members = (frozenset(),) + tuple(ordered)
    return CosetLattice(
        group=group,
        lattice=Lattice.from_sets(map(_mask, members)),
        members=members,
        singleton_id={min(m): i for i, m in enumerate(members) if len(m) == 1},
        member_index={m: i for i, m in enumerate(members)},
    )


# ----------------------------------------------------------------------
# identities


@dataclass(frozen=True)
class BrownCheck:
    shifted: DirichletSeries
    group_series: DirichletSeries
    s_max: int


def verify_brown_identity(group, s_max=5):
    """P(C(G), s+1) = P(G, s): checked as a term-map identity after an
    exponent shift and pointwise at integers 0..s_max; before any work,
    ``ValueError`` when s_max < 0 and ``BudgetExceeded`` when s_max >
    ``zeta.ORACLE_MAX_S``."""
    if s_max < 0:
        raise ValueError(f"s_max must be at least 0, got {s_max}")
    _check_exponent_cap(s_max)
    cl = coset_lattice(group)
    coset_series = zeta_series(cl.lattice).series
    try:
        shifted = coset_series.shift_exponent(1)
    except ValueError as exc:
        raise MismatchDetected(
            f"coset series of {group.name} does not shift integrally: {exc}",
            context={"group": group.name},
        ) from exc
    gz = group_zeta(group)
    if shifted != gz:
        raise MismatchDetected(
            f"shifted coset series != subgroup series for {group.name}",
            context={
                "group": group.name,
                "shifted": shifted.to_json(),
                "group_series": gz.to_json(),
            },
        )
    for s in range(0, s_max + 1):
        left = coset_series.evaluate_exact(s + 1)
        right = gz.evaluate_exact(s)
        if left != right:
            raise MismatchDetected(
                f"P(C(G), {s + 1}) = {left} != {right} = P(G, {s})",
                context={"group": group.name, "s": s},
            )
    return BrownCheck(shifted=shifted, group_series=gz, s_max=s_max)


@dataclass(frozen=True)
class CoprimeCheck:
    lattices_isomorphic: bool


def verify_coprime_product(a, b):
    """For gcd(|A|, |B|) = 1, check that P(A x B, s) = P(A, s) P(B, s)
    and that C(A x B) is the lower reduced product of C(A) and C(B); both
    checks always run, and a failure raises ``MismatchDetected``."""
    if math.gcd(a.n, b.n) != 1:
        raise NotCoprimeOrders(f"|{a.name}| = {a.n} and |{b.name}| = {b.n}")
    prod = direct_product(a, b)
    left = group_zeta(prod)
    right = group_zeta(a) * group_zeta(b)
    if left != right:
        raise MismatchDetected(
            f"P({prod.name}) != P({a.name}) P({b.name})",
            context={"left": left.to_json(), "right": right.to_json()},
        )
    cl = coset_lattice(prod).lattice
    reduced = lower_reduced_product(
        coset_lattice(a).lattice, coset_lattice(b).lattice
    )
    if not is_isomorphic(cl, reduced):
        raise MismatchDetected(
            f"C({prod.name}) is not the lower reduced product of "
            f"C({a.name}) and C({b.name})",
            context={"group": prod.name},
        )
    return CoprimeCheck(lattices_isomorphic=True)


# ----------------------------------------------------------------------
# sublattices and the good-sublattice test


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of an ambient lattice, as a standalone lattice plus
    the map from its ids back to ambient ids."""

    lattice: Lattice
    ambient_ids: tuple


def sublattice_generated(ambient, generators):
    """Close generators (ambient ids) under join and meet, together with
    the ambient bottom and top, and return the induced sublattice."""
    closed = {ambient.bottom, ambient.top} | set(generators)
    fresh = closed
    while fresh:
        # pairs of older elements were closed in an earlier round, so
        # each round tests only the pairs that involve a fresh element
        pairs = itertools.chain(
            itertools.product(fresh, closed - fresh),
            itertools.combinations(fresh, 2),
        )
        found = set()
        for x, y in pairs:
            for z in (ambient.join(x, y), ambient.meet(x, y)):
                if z not in closed:
                    found.add(z)
        closed = closed | found
        fresh = found
    ids = tuple(sorted(closed))
    # the order on the closed set is inclusion of its principal ideals
    # cut down to the closed set
    keep = _mask(ids)
    lattice = Lattice.from_sets(ambient.down[x] & keep for x in ids)
    return Sublattice(lattice=lattice, ambient_ids=ids)


@dataclass(frozen=True)
class GoodSublatticeCheck:
    """Clause-by-clause result of the good-sublattice test for (L, H)."""

    subgroup: frozenset
    h_is_normal: bool
    action_preserves: bool
    singleton_irreducibles: bool
    at_most_two_cosets: bool

    @property
    def good(self):
        return (
            self.h_is_normal
            and self.action_preserves
            and self.singleton_irreducibles
            and self.at_most_two_cosets
        )


def is_good_sublattice(coset_lat, sub, subgroup):
    """Test the three clauses: (i) H is normal and left translation by
    H maps the sublattice to itself, (ii) every join-irreducible of the
    sublattice is a singleton coset, (iii) the singleton irreducibles
    lie in at most two cosets of H."""
    g = coset_lat.group
    h_is_normal = g.is_normal(subgroup)
    ambient = set(sub.ambient_ids)
    action_ok = True
    for h in sorted(subgroup):
        perm = coset_lat.translate(h)
        if any(perm[i] not in ambient for i in sub.ambient_ids):
            action_ok = False
            break
    irred = sub.lattice.join_irreducibles()
    single = True
    irr_elements = []
    for i in irred:
        m = coset_lat.members[sub.ambient_ids[i]]
        if len(m) == 1:
            irr_elements.append(next(iter(m)))
        else:
            single = False
    h_cosets = {frozenset(g.table[x][h] for h in subgroup) for x in irr_elements}
    return GoodSublatticeCheck(
        subgroup=subgroup,
        h_is_normal=h_is_normal,
        action_preserves=action_ok,
        singleton_irreducibles=single,
        at_most_two_cosets=len(h_cosets) <= 2,
    )


def good_sublattice_scan(group):
    """Desk-scale scan for good sublattices of C(G).

    Seeds are sets of group elements taken as singleton cosets: for
    every normal subgroup H, every one- and two-coset union of H-cosets
    is tried.  Returns a list of (seed, subgroup, check, sublattice)
    records for the good hits.
    """
    cl = coset_lattice(group)
    normals = group.normal_subgroups()
    seeds = []
    for h in normals:
        h_cosets = sorted(
            {frozenset(group.table[x][a] for a in h) for x in range(group.n)},
            key=lambda c: tuple(sorted(c)),
        )
        for c in h_cosets:
            seeds.append(tuple(sorted(c)))
        for c1, c2 in itertools.combinations(h_cosets, 2):
            seeds.append(tuple(sorted(c1 | c2)))
    out = []
    for seed in dict.fromkeys(seeds):  # first occurrences, in order
        sub = sublattice_generated(cl.lattice, [cl.singleton_id[x] for x in seed])
        for h in normals:
            check = is_good_sublattice(cl, sub, h)
            if check.good:
                out.append((seed, h, check, sub))
    return out
