"""Finite groups via Cayley tables: subgroup/coset lattices, the group
series, the coset-lattice shift identity, coprime products, and good
sublattices."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta import groups
from latzeta.dirichlet import DirichletSeries
from latzeta.errors import (
    BudgetExceeded,
    DegenerateLattice,
    NotCoprimeOrders,
    OrderLimitExceeded,
)
from latzeta.groups import (
    FiniteGroup,
    coset_lattice,
    cyclic,
    dihedral,
    direct_product,
    good_sublattice_scan,
    group_zeta,
    is_good_sublattice,
    subgroup_lattice,
    sublattice_generated,
    symmetric,
    verify_brown_identity,
    verify_coprime_product,
)
from latzeta.lattice import Lattice, is_isomorphic
from latzeta.zeta import ORACLE_MAX_S, zeta_series


# ----------------------------------------------------------------------
# group construction


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # second row not a permutation
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 is not the identity
    # Z/4 presented with a non-associative tweak is impossible through a
    # permutation table with identity; use a quasigroup instead
    with pytest.raises(ValueError):
        FiniteGroup([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])


def test_constructors():
    assert cyclic(6).n == 6
    assert symmetric(3).n == 6
    assert dihedral(4).n == 8
    assert direct_product(cyclic(2), cyclic(3)).n == 6
    with pytest.raises(ValueError):
        cyclic(0)
    with pytest.raises(ValueError):
        dihedral(1)
    with pytest.raises(OrderLimitExceeded):
        symmetric(6)


def refuse_tables(table, name="G"):
    raise AssertionError(f"built a table for {name}")


def test_order_bound_checked_before_building(monkeypatch):
    factors = cyclic(8), cyclic(9)
    monkeypatch.setattr(groups, "FiniteGroup", refuse_tables)
    with pytest.raises(OrderLimitExceeded):
        cyclic(65)
    with pytest.raises(OrderLimitExceeded):
        dihedral(33)
    with pytest.raises(OrderLimitExceeded):
        direct_product(*factors)


def test_symmetric_order_bound_without_factorial():
    # 200000! has more digits than an int may print; the message names
    # the group, not its order
    with pytest.raises(OrderLimitExceeded, match="S200000"):
        symmetric(200000)


def test_group_axioms_random():
    rng = random.Random(5001)
    for group in (cyclic(12), symmetric(4), dihedral(6),
                  direct_product(cyclic(2), dihedral(4))):
        n = group.n
        for _ in range(60):
            a, b = rng.randrange(n), rng.randrange(n)
            inv = group.inverse
            assert group.mul(a, inv[a]) == 0
            assert group.mul(0, a) == a
            assert inv[group.mul(a, b)] == group.mul(inv[b], inv[a])


def test_generated_subgroup():
    g = cyclic(12)
    assert g.generated_subgroup([4]) == frozenset({0, 4, 8})
    assert g.generated_subgroup([]) == frozenset({0})
    assert g.generated_subgroup([1]) == frozenset(range(12))


def test_subgroup_counts():
    # cyclic groups have one subgroup per divisor of the order
    assert len(cyclic(12).subgroups()) == 6
    assert len(cyclic(8).subgroups()) == 4
    assert len(symmetric(3).subgroups()) == 6
    assert len(dihedral(4).subgroups()) == 10


def test_normal_subgroups():
    s3 = symmetric(3)
    normals = s3.normal_subgroups()
    assert sorted(len(h) for h in normals) == [1, 3, 6]
    # abelian: everything normal
    z8 = cyclic(8)
    assert len(z8.normal_subgroups()) == len(z8.subgroups())


def test_subgroup_lattice_shape():
    lat = subgroup_lattice(symmetric(3))
    assert lat.n == 6
    assert len(lat.atoms()) == 4  # three C2's and one C3


# ----------------------------------------------------------------------
# group series


def test_group_zeta_cyclic():
    assert group_zeta(cyclic(6)).term_map() == {
        Fraction(1): 1,
        Fraction(2): -1,
        Fraction(3): -1,
        Fraction(6): 1,
    }
    # prime power: only the Frattini step survives
    assert group_zeta(cyclic(8)).term_map() == {Fraction(1): 1, Fraction(2): -1}


def test_group_zeta_symmetric3():
    assert group_zeta(symmetric(3)).term_map() == {
        Fraction(1): 1,
        Fraction(2): -1,
        Fraction(3): -3,
        Fraction(6): 3,
    }


def test_group_zeta_trivial_group():
    # the one-point subgroup lattice is refused, yet the series is 1
    for group in (cyclic(1), symmetric(1)):
        with pytest.raises(DegenerateLattice):
            subgroup_lattice(group)
        assert group_zeta(group) == DirichletSeries({1: 1})
        assert verify_brown_identity(group).group_series == DirichletSeries({1: 1})
        assert verify_coprime_product(group, cyclic(3)).lattices_isomorphic


def test_group_zeta_is_ordinary():
    for group in (cyclic(10), symmetric(4), dihedral(5)):
        assert group_zeta(group).is_ordinary()


def tuple_generation_probability(group, s):
    """Probability that s uniform elements generate the whole group, by
    counting the generating s-tuples."""
    full = frozenset(range(group.n))
    hits = sum(
        group.generated_subgroup(tup) == full
        for tup in itertools.product(range(group.n), repeat=s)
    )
    return Fraction(hits, group.n**s)


def test_tuple_probability_matches_series():
    for group in (cyclic(4), cyclic(6), symmetric(3), dihedral(4), cyclic(12)):
        series = group_zeta(group)
        for s in range(0, 4):
            assert tuple_generation_probability(group, s) == series.evaluate_exact(s)


# ----------------------------------------------------------------------
# coset lattices and the shift identity


def test_coset_lattice_sizes():
    assert coset_lattice(cyclic(6)).lattice.n == 13
    assert coset_lattice(symmetric(3)).lattice.n == 19
    # Z/2: bottom, two singletons, and the group itself
    assert coset_lattice(cyclic(2)).lattice.n == 4


def test_coset_lattice_structure():
    cl = coset_lattice(cyclic(6))
    lat = cl.lattice
    # atoms are exactly the singleton cosets
    assert sorted(cl.singleton_id.values()) == sorted(lat.atoms())
    assert lat.is_atomistic()
    with pytest.raises(KeyError):
        cl.find({0, 1})  # not a coset of any subgroup


def coset_join(cl, i, j):
    """Join of coset ids ``i`` and ``j`` of the coset lattice ``cl`` by the
    formula x1<x1^-1 x2, H1, H2>, not through the order; the subgroup of
    a coset C is x^-1 C with x = min(C)."""
    g = cl.group
    if not cl.members[i]:
        return j
    if not cl.members[j]:
        return i
    x1 = min(cl.members[i])
    x2 = min(cl.members[j])
    h1 = {g.table[g.inverse[x1]][c] for c in cl.members[i]}
    h2 = {g.table[g.inverse[x2]][c] for c in cl.members[j]}
    gens = h1 | h2 | {g.table[g.inverse[x1]][x2]}
    sub = g.generated_subgroup(gens)
    return cl.find(frozenset(g.table[x1][h] for h in sub))


def test_coset_join_formula_matches_order_join():
    rng = random.Random(5002)
    for group in (cyclic(6), symmetric(3), dihedral(4)):
        cl = coset_lattice(group)
        n = cl.lattice.n
        for _ in range(80):
            i, j = rng.randrange(n), rng.randrange(n)
            assert coset_join(cl, i, j) == cl.lattice.join(i, j)


def test_translation_is_automorphism():
    rng = random.Random(5003)
    cl = coset_lattice(symmetric(3))
    lat = cl.lattice
    for g in range(cl.group.n):
        perm = cl.translate(g)
        assert sorted(perm) == list(range(lat.n))
        for _ in range(40):
            x, y = rng.randrange(lat.n), rng.randrange(lat.n)
            assert lat.leq(x, y) == lat.leq(perm[x], perm[y])


def test_brown_identity():
    for group in (cyclic(2), cyclic(6), symmetric(3), dihedral(4)):
        check = verify_brown_identity(group, s_max=4)
        assert check.s_max == 4
        # the shifted coset series IS the group series
        assert check.shifted == check.group_series


def test_brown_identity_rejects_negative_smax(monkeypatch):
    # refused before the coset lattice is built; s_max = 0 still checks s = 0
    assert verify_brown_identity(cyclic(2), s_max=0).s_max == 0
    monkeypatch.setattr(groups, "coset_lattice", None)
    with pytest.raises(ValueError, match="s_max must be at least 0, got -1"):
        verify_brown_identity(cyclic(2), s_max=-1)


def test_brown_identity_refuses_exponents_past_the_cap(monkeypatch):
    # refused before the coset lattice is built; the cap itself is accepted
    assert verify_brown_identity(cyclic(2), s_max=ORACLE_MAX_S).s_max == ORACLE_MAX_S
    monkeypatch.setattr(groups, "coset_lattice", None)
    with pytest.raises(BudgetExceeded):
        verify_brown_identity(cyclic(2), s_max=ORACLE_MAX_S + 1)


def test_brown_identity_z2_series():
    # C(Z/2) is the diamond: P = 1 - 2/2^s, so shifting gives 1 - 1/2^s
    cl = coset_lattice(cyclic(2))
    series = zeta_series(cl.lattice).series
    assert series.term_map() == {Fraction(1): 1, Fraction(2): -2}
    assert series.shift_exponent(1) == group_zeta(cyclic(2))


# ----------------------------------------------------------------------
# products


def test_coprime_product():
    check = verify_coprime_product(cyclic(2), cyclic(3))
    assert check.lattices_isomorphic
    product = group_zeta(cyclic(2)) * group_zeta(cyclic(3))
    assert group_zeta(direct_product(cyclic(2), cyclic(3))) == product


def test_coprime_product_rejects_common_factor():
    with pytest.raises(NotCoprimeOrders):
        verify_coprime_product(cyclic(2), cyclic(2))
    with pytest.raises(NotCoprimeOrders):
        verify_coprime_product(symmetric(3), cyclic(2))


def test_coset_lattice_of_coprime_product_is_star_product():
    from latzeta.lattice import lower_reduced_product

    a = coset_lattice(cyclic(2)).lattice
    b = coset_lattice(cyclic(3)).lattice
    c = coset_lattice(direct_product(cyclic(2), cyclic(3))).lattice
    assert is_isomorphic(c, lower_reduced_product(a, b))


# ----------------------------------------------------------------------
# sublattices of coset lattices


def test_sublattice_full_closure_is_ambient():
    cl = coset_lattice(cyclic(6))
    sub = sublattice_generated(cl.lattice, range(cl.lattice.n))
    assert sub.lattice.n == cl.lattice.n
    assert sub.ambient_ids == tuple(range(cl.lattice.n))


def test_z6_sublattice_counterexample():
    # generated by the cosets {0}, {3}, {1,4}: a six-element lattice
    # whose series has the non-integer base 3/2
    cl = coset_lattice(cyclic(6))
    gens = [cl.singleton_id[0], cl.singleton_id[3], cl.find({1, 4})]
    sub = sublattice_generated(cl.lattice, gens)
    assert sub.lattice.n == 6
    report = zeta_series(sub.lattice)
    assert not report.ordinary
    assert report.series.term_map() == {
        Fraction(1): 1,
        Fraction(3, 2): -1,
        Fraction(3): -1,
    }
    check = is_good_sublattice(cl, sub, frozenset({0, 3}))
    assert check.h_is_normal and check.action_preserves
    assert not check.singleton_irreducibles  # {1,4} is irreducible here
    assert not check.good


def test_z8_sublattice_counterexample():
    # singleton cosets {0},{1},{2},{4},{5},{6}: strongly fails, and with
    # H = {0,4} the irreducibles fill three distinct H-cosets
    cl = coset_lattice(cyclic(8))
    sub = sublattice_generated(
        cl.lattice, [cl.singleton_id[x] for x in (0, 1, 2, 4, 5, 6)]
    )
    irr = sorted(
        sorted(cl.members[sub.ambient_ids[i]])
        for i in sub.lattice.join_irreducibles()
    )
    assert irr == [[0], [1], [2], [4], [5], [6]]
    assert not zeta_series(sub.lattice).strongly_coset_like
    check = is_good_sublattice(cl, sub, frozenset({0, 4}))
    assert check.h_is_normal and check.action_preserves
    assert check.singleton_irreducibles
    assert not check.at_most_two_cosets
    assert not check.good


def test_whole_coset_lattice_is_good():
    cl = coset_lattice(cyclic(6))
    sub = sublattice_generated(cl.lattice, range(cl.lattice.n))
    assert is_good_sublattice(cl, sub, frozenset(range(6))).good


def test_good_sublattices_are_strongly_coset_like_small():
    for group in (cyclic(4), cyclic(6), symmetric(3)):
        for seed, h, check, sub in good_sublattice_scan(group):
            assert check.good
            assert zeta_series(sub.lattice).strongly_coset_like


def test_partition4_is_not_a_coset_lattice():
    # Pi_4 has six join-irreducibles, so the only candidate coset
    # lattices are the two order-6 groups; neither matches
    from latzeta.families import partition_lattice

    pi4 = partition_lattice(4)
    assert not is_isomorphic(pi4, coset_lattice(cyclic(6)).lattice)
    assert not is_isomorphic(pi4, coset_lattice(symmetric(3)).lattice)


def test_is_normal_memo_matches_conjugation():
    for g in (symmetric(3), symmetric(4), dihedral(4)):
        for h in g.subgroups():
            direct = all(g.conjugate(x, a) in h for x in range(g.n) for a in h)
            assert g.is_normal(h) == direct
            assert g.is_normal(set(h)) == direct  # the memo is keyed by value


def _naive_closure(ambient, generators):
    # every pair of the closed set, every round, until nothing new appears
    closed = {ambient.bottom, ambient.top} | set(generators)
    while True:
        fresh = set()
        for x in closed:
            for y in closed:
                fresh |= {ambient.join(x, y), ambient.meet(x, y)} - closed
        if not fresh:
            return tuple(sorted(closed))
        closed |= fresh


@pytest.mark.parametrize("group", [cyclic(12), dihedral(4), symmetric(4)],
                         ids=["C12", "D4", "S4"])
def test_sublattice_closure_matches_naive(monkeypatch, group):
    # the closure tests only pairs with a new element; on every seed the
    # good-sublattice scan closes it agrees with closing all pairs
    from latzeta import groups as groups_module

    calls = []

    def recording(ambient, generators):
        generators = list(generators)
        sub = sublattice_generated(ambient, generators)
        calls.append((ambient, generators, sub))
        return sub

    monkeypatch.setattr(groups_module, "sublattice_generated", recording)
    good_sublattice_scan(group)
    assert calls
    for ambient, generators, sub in calls:
        assert sub.ambient_ids == _naive_closure(ambient, generators)
        assert sub.lattice.n == len(sub.ambient_ids)


def _pairwise_sublattice(ambient, ids):
    """The order induced on ``ids`` by calling ``leq`` on every pair, as
    ``sublattice_generated`` built it before it read principal ideals."""
    pos = {x: i for i, x in enumerate(ids)}
    pairs = [(pos[x], pos[y]) for x in ids for y in ids
             if x != y and ambient.leq(x, y)]
    return Lattice.from_covers(len(ids), pairs)


@pytest.mark.parametrize("group", [symmetric(3), dihedral(4), symmetric(4)],
                         ids=["S3", "D4", "S4"])
def test_sublattice_order_matches_pairwise_leq(monkeypatch, group):
    from latzeta import groups as groups_module

    subs = []

    def recording(ambient, generators):
        sub = sublattice_generated(ambient, generators)
        subs.append((ambient, sub))
        return sub

    monkeypatch.setattr(groups_module, "sublattice_generated", recording)
    good_sublattice_scan(group)
    ambient = coset_lattice(group).lattice
    for k in range(ambient.n):
        subs.append((ambient, sublattice_generated(ambient, [k, ambient.n - 1 - k])))
    assert subs
    for ambient, sub in subs:
        lattice = sub.lattice
        oracle = _pairwise_sublattice(ambient, sub.ambient_ids)
        assert lattice.up == oracle.up and lattice.covers == oracle.covers
        assert (lattice.bottom, lattice.top) == (oracle.bottom, oracle.top)
        assert lattice.join_irreducibles() == oracle.join_irreducibles()


_CLOSURE_AMBIENTS = {}


def _closure_ambient(name):
    if name not in _CLOSURE_AMBIENTS:
        from latzeta.families import partition_lattice

        _CLOSURE_AMBIENTS[name] = (
            partition_lattice(5) if name == "partition:5"
            else coset_lattice(symmetric(4)).lattice
        )
    return _CLOSURE_AMBIENTS[name]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["partition:5", "coset:S4"]), st.data())
def test_sublattice_closure_random_generators(name, data):
    # random generators often reach rounds where an old and a new
    # element give a further one; the scan's coset seeds never do
    ambient = _closure_ambient(name)
    generators = data.draw(st.lists(st.integers(0, ambient.n - 1), max_size=5))
    sub = sublattice_generated(ambient, generators)
    assert sub.ambient_ids == _naive_closure(ambient, generators)
