"""Core lattice representation: validation, order operations, Möbius
numbers, canonical forms, the lower reduced product, and the .lat text
format."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta.errors import (
    BottomHasNoIrreducibles,
    CyclicCovers,
    DegenerateLattice,
    NoBoundedStructure,
    NotALattice,
    NotComparable,
    SizeLimitExceeded,
)
from latzeta import lattice as lattice_mod
from latzeta.families import (
    boolean_lattice,
    chain,
    divisibility_lattice,
    partition_lattice,
    subspace_lattice,
)
from latzeta.groups import coset_lattice, cyclic, symmetric
from latzeta.lattice import (
    Lattice,
    _transpose_masks,
    canonical_key_from_up,
    is_isomorphic,
    lower_reduced_product,
    parse_lat,
)

from builders import adjoin_atoms, bottomless, decode_canonical_key, heights, level_classes

DIAMOND = (4, [(0, 1), (0, 2), (1, 3), (2, 3)])
PENTAGON = (5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])


def relabelled(lattice, perm):
    """The same lattice with element x renamed perm[x]."""
    return Lattice.from_covers(
        lattice.n, [(perm[a], perm[b]) for a, b in lattice.covers]
    )


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ----------------------------------------------------------------------
# construction and validation


def test_from_covers_diamond():
    lat = Lattice.from_covers(*DIAMOND)
    assert lat.bottom == 0 and lat.top == 3
    assert lat.join(1, 2) == 3 and lat.meet(1, 2) == 0
    assert lat.leq(0, 3) and not lat.leq(1, 2)
    assert sorted(lat.atoms()) == [1, 2]
    assert lat.covers == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_from_covers_accepts_unreduced_input():
    lat = Lattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
    assert lat.covers == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_from_covers_accepts_arbitrary_labelling():
    # bottom does not have to be element 0
    lat = Lattice.from_covers(4, [(3, 1), (3, 2), (1, 0), (2, 0)])
    assert lat.bottom == 3 and lat.top == 0


def test_one_element_is_degenerate():
    with pytest.raises(DegenerateLattice):
        Lattice.from_covers(1, [])


def test_cycle_detected():
    with pytest.raises(CyclicCovers):
        Lattice.from_covers(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CyclicCovers):
        Lattice.from_covers(2, [(0, 0)])


def test_unbounded_detected():
    # two incomparable elements: no common bound at all
    with pytest.raises(NoBoundedStructure):
        Lattice.from_covers(2, [])
    # V shape: least element but two maximal ones
    with pytest.raises(NoBoundedStructure):
        Lattice.from_covers(3, [(0, 1), (0, 2)])


def test_non_lattice_detected():
    # bounded, but atoms {1, 2} have two minimal upper bounds {3, 4}
    with pytest.raises(NotALattice):
        Lattice.from_covers(
            6,
            [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
        )


# every two join-irreducibles have a join, but 5 and 6 have none; the
# tier-1 CI job feeds the same covers to ``latzeta zeta file:bad.lat``
BAD_LAT = (
    "n 10\nc 1 0\nc 2 0\nc 3 1\nc 4 1\nc 5 1\nc 3 2\nc 4 2\nc 5 2\n"
    "c 6 3\nc 6 4\nc 7 3\nc 7 5\nc 8 4\nc 8 5\nc 9 6\nc 9 7\nc 9 8\n"
)


def test_failed_join_names_the_first_failing_pair():
    with pytest.raises(NotALattice) as info:
        Lattice.from_covers(*parse_lat(BAD_LAT))
    assert str(info.value) == "elements 5 and 6 have no least upper bound"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_join_failure_is_the_first_failing_element(data):
    width = data.draw(st.integers(1, 12))
    masks = st.integers(0, (1 << width) - 1)
    up = data.draw(st.lists(masks, max_size=12))
    mask = data.draw(masks)
    # filters that hold some of the meets looked up, and random others
    held = data.draw(st.lists(st.booleans(), min_size=len(up), max_size=len(up)))
    filters = set(data.draw(st.lists(masks, max_size=8)))
    filters |= {ux & mask for ux, keep in zip(up, held) if keep}
    first = next((x for x, ux in enumerate(up) if ux & mask not in filters), None)
    assert lattice_mod._join_failure(up, filters, mask) == first


def test_out_of_range_cover_rejected():
    with pytest.raises(ValueError):
        Lattice.from_covers(3, [(0, 3)])


def test_element_cap_checked_before_work(monkeypatch):
    monkeypatch.setattr(lattice_mod, "DEFAULT_MAX_ELEMENTS", 10)

    def unread():
        raise AssertionError("the covers were read")
        yield

    with pytest.raises(SizeLimitExceeded):
        Lattice.from_covers(11, unread())
    with pytest.raises(SizeLimitExceeded):
        Lattice.from_sets((1 << i) - 1 for i in range(11))
    # a chain at the cap still builds
    assert Lattice.from_covers(10, [(i, i + 1) for i in range(9)]).n == 10
    assert Lattice.from_sets((1 << i) - 1 for i in range(10)).n == 10


# ----------------------------------------------------------------------
# order operations


def test_join_meet_against_definition(lattices_by_size):
    rng = random.Random(1001)
    for n, lats in lattices_by_size.items():
        for lat in rng.sample(lats, min(5, len(lats))):
            for _ in range(20):
                x = rng.randrange(n)
                y = rng.randrange(n)
                j = lat.join(x, y)
                assert lat.leq(x, j) and lat.leq(y, j)
                # least among upper bounds
                for z in range(n):
                    if lat.leq(x, z) and lat.leq(y, z):
                        assert lat.leq(j, z)
                m = lat.meet(x, y)
                assert lat.leq(m, x) and lat.leq(m, y)
                for z in range(n):
                    if lat.leq(z, x) and lat.leq(z, y):
                        assert lat.leq(z, m)


def test_join_meet_set_fold(lattices_by_size):
    rng = random.Random(1002)
    for lat in lattices_by_size[6]:
        xs = [rng.randrange(lat.n) for _ in range(4)]
        j = xs[0]
        m = xs[0]
        for x in xs[1:]:
            j = lat.join(j, x)
            m = lat.meet(m, x)
        assert lat.join_set(xs) == j
        ideal = lat.down[xs[0]]
        for x in xs[1:]:
            ideal &= lat.down[x]
        assert lat.down[m] == ideal
    assert lattices_by_size[6][0].join_set([]) == lattices_by_size[6][0].bottom


def test_heights():
    lat = Lattice.from_covers(*PENTAGON)
    height = heights(lat)
    assert height[lat.bottom] == 0
    assert height[lat.top] == 3  # longest chain 0 < 2 < 3 < 4


def test_covers_relation():
    lat = boolean_lattice(3)
    assert len(lat.covers) == 12  # three directions at each of 8 corners, halved
    for x, y in lat.covers:
        assert lat.leq(x, y) and x != y
        # nothing strictly between
        assert not any(
            lat.leq(x, z) and lat.leq(z, y) and z not in (x, y)
            for z in range(lat.n)
        )


def test_covers_are_the_reduction_of_the_up_masks(lattices_by_size):
    for lats in lattices_by_size.values():
        for lat in lats:
            up = lat.up
            reduction = tuple(
                (a, b)
                for a in range(lat.n)
                for b in range(lat.n)
                if a != b and (up[a] >> b) & 1
                and not any(
                    c not in (a, b) and (up[a] >> c) & 1 and (up[c] >> b) & 1
                    for c in range(lat.n)
                )
            )
            assert lat.covers == reduction


# ----------------------------------------------------------------------
# join-irreducibles


def test_join_irreducibles_boolean():
    lat = boolean_lattice(3)
    assert sorted(lat.join_irreducibles()) == sorted(lat.atoms())
    assert lat.is_atomistic()


def test_join_irreducibles_chain():
    lat = chain(5)
    assert len(lat.join_irreducibles()) == 4  # every non-bottom element
    assert not lat.is_atomistic()


def test_join_irreducible_definition(lattices_by_size):
    # join-irreducible: exactly one lower cover; the bottom has none
    for lats in lattices_by_size.values():
        for lat in lats:
            below = [0] * lat.n
            for _, b in lat.covers:
                below[b] += 1
            assert lat.join_irreducibles() == tuple(
                x for x in range(lat.n) if below[x] == 1
            )


def test_below_irreducibles_counts(lattices_by_size):
    for lat in lattices_by_size[6]:
        irr = set(lat.join_irreducibles())
        for x in range(lat.n):
            if x == lat.bottom:
                continue
            expected = {j for j in irr if lat.leq(j, x)}
            assert set(lat.below_irreducibles(x)) == expected
            assert lat.count_below_irreducibles(x) == len(expected)


def test_below_irreducibles_rejects_bottom():
    lat = boolean_lattice(2)
    with pytest.raises(BottomHasNoIrreducibles):
        lat.below_irreducibles(lat.bottom)
    with pytest.raises(BottomHasNoIrreducibles):
        lat.count_below_irreducibles(lat.bottom)


def test_every_element_is_join_of_irreducibles_below(lattices_by_size):
    for n, lats in lattices_by_size.items():
        for lat in lats:
            for x in range(lat.n):
                if x == lat.bottom:
                    continue
                assert lat.join_set(lat.below_irreducibles(x)) == x


# ----------------------------------------------------------------------
# Möbius numbers


def test_mobius_chain():
    lat = chain(6)
    mu = lat.mobius_to_top()
    assert mu[lat.top] == 1
    assert mu[4] == -1  # the coatom
    assert all(mu[x] == 0 for x in range(4))


def test_mobius_boolean():
    r = 4
    lat = boolean_lattice(r)
    mu = lat.mobius_to_top()
    height = heights(lat)
    for x in range(lat.n):
        k = r - height[x]  # corank
        assert mu[x] == (-1) ** k


def test_mobius_defining_recursion(lattices_by_size):
    # sum over the interval [x, top] is zero unless the interval is trivial
    for lat in lattices_by_size[7]:
        mu = lat.mobius_to_top()
        for x in range(lat.n):
            total = sum(mu[y] for y in range(lat.n) if lat.leq(x, y))
            assert total == (1 if x == lat.top else 0)


def test_mobius_pairwise_matches_vector(lattices_by_size):
    rng = random.Random(1003)
    for lat in rng.sample(lattices_by_size[7], 10):
        mu = lat.mobius_to_top()
        for x in range(lat.n):
            assert lat.mobius(x, lat.top) == mu[x]
        assert lat.mobius(lat.bottom, lat.bottom) == 1
    lat = boolean_lattice(2)
    with pytest.raises(NotComparable):
        lat.mobius(1, 2)  # incomparable atoms


# ----------------------------------------------------------------------
# canonical form and isomorphism


def test_canonical_key_invariant_under_relabelling(lattices_by_size):
    rng = random.Random(1004)
    for n, lats in lattices_by_size.items():
        for lat in rng.sample(lats, min(8, len(lats))):
            key = lat.canonical_form()
            for _ in range(5):
                other = relabelled(lat, random_perm(rng, n))
                assert other.canonical_form() == key
                assert is_isomorphic(lat, other)


def test_canonical_key_separates_classes(lattices_by_size):
    for n, lats in lattices_by_size.items():
        keys = {lat.canonical_form() for lat in lats}
        assert len(keys) == len(lats)


def test_canonical_key_decode_roundtrip(lattices_by_size):
    for lat in lattices_by_size[6]:
        key = lat.canonical_form()
        rebuilt = decode_canonical_key(key, lat.n)
        assert rebuilt.canonical_form() == key
        assert is_isomorphic(rebuilt, lat)


def test_is_isomorphic_rejects_different_sizes():
    assert not is_isomorphic(chain(3), chain(4))
    assert not is_isomorphic(Lattice.from_covers(*DIAMOND), chain(4))


def test_canonical_key_on_many_automorphisms():
    # 11 interchangeable atoms; must finish fast despite 11! relabelings
    lat = adjoin_atoms(chain(2), 11)
    rng = random.Random(1005)
    key = lat.canonical_form()
    for _ in range(3):
        assert relabelled(lat, random_perm(rng, lat.n)).canonical_form() == key


# Keys recorded before automorphism pruning was added to the canonical
# search.  Catalogs on disk hold these keys, so they must never change.
PINNED_KEYS = json.loads(
    (Path(__file__).parent / "data" / "canonical_keys.json").read_text()
)

PINNED_LATTICES = {
    "boolean:6": lambda: boolean_lattice(6),
    "subspace:2,3": lambda: subspace_lattice(2, 3),
    "partition:6": lambda: partition_lattice(6),
    "group:cyclic:12": lambda: coset_lattice(cyclic(12)).lattice,
    "group:cyclic:30": lambda: coset_lattice(cyclic(30)).lattice,
    "group:sym:4": lambda: coset_lattice(symmetric(4)).lattice,
}


def _digest(keys):
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


def test_census_keys_are_pinned():
    # The enumeration is the one criterion 12 builds.  Each lattice's key
    # is the enumerator's own; each semilattice key is searched on the
    # same lattice with its bottom, element 0, removed.
    for n in range(2, 11):
        level = level_classes(n)
        lattices = [key for key, _, _ in level]
        semi = []
        for _, ups, _ in level:
            up = bottomless(ups)
            semi.append(canonical_key_from_up(n - 1, up, _transpose_masks(n - 1, up)))
        assert _digest(semi) == PINNED_KEYS["semilattice_levels"][str(n)], n
        assert _digest(lattices) == PINNED_KEYS["lattice_levels"][str(n)], n


@pytest.mark.parametrize("name", sorted(PINNED_LATTICES))
def test_large_keys_are_pinned(name):
    lat = PINNED_LATTICES[name]()
    pinned = PINNED_KEYS["lattices"][name]
    assert lat.n == pinned["n"]
    assert lat.canonical_form() == pinned["key"]
    perm = random_perm(random.Random(1006), lat.n)
    assert relabelled(lat, perm).canonical_form() == pinned["key"]


# ----------------------------------------------------------------------
# the lower reduced product and atom adjoining


def test_lower_reduced_product_shape():
    a, b = boolean_lattice(2), chain(3)
    star = lower_reduced_product(a, b)
    assert star.n == (a.n - 1) * (b.n - 1) + 1
    # bottomless chain x bottomless chain + new bottom == grid + bottom
    assert is_isomorphic(
        lower_reduced_product(chain(2), chain(2)), chain(2)
    )


def lower_reduced_oracle(a, b):
    """The former pair loop of ``lower_reduced_product``."""
    xs = [x for x in range(a.n) if x != a.bottom]
    ys = [y for y in range(b.n) if y != b.bottom]
    index = {(x, y): 1 + i * len(ys) + j
             for i, x in enumerate(xs) for j, y in enumerate(ys)}
    pairs = [(index[x, y], index[xx, y])
             for x, xx in a.covers if x != a.bottom for y in ys]
    pairs += [(index[x, y], index[x, yy])
              for y, yy in b.covers if y != b.bottom for x in xs]
    pairs += [(0, index[x, y]) for x in a.atoms() for y in b.atoms()]
    return Lattice.from_covers(len(xs) * len(ys) + 1, pairs)


def assert_same_lattice(got, want):
    assert got.n == want.n
    assert got.up == want.up
    assert got.covers == want.covers
    assert (got.bottom, got.top) == (want.bottom, want.top)
    assert got.join_irreducibles() == want.join_irreducibles()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_match_cover_oracles(lattices_by_size, data):
    census = [lat for n in range(2, 7) for lat in lattices_by_size[n]]
    a = data.draw(st.sampled_from(census))
    b = data.draw(st.sampled_from(census))
    assert_same_lattice(lower_reduced_product(a, b), lower_reduced_oracle(a, b))


def test_product_size_caps(monkeypatch):
    # the lower reduced product of B_8 with itself has 65,026 elements,
    # over DEFAULT_MAX_ELEMENTS; the cap refuses it before building
    a = boolean_lattice(8)

    def refuse(*args, **kwargs):
        raise AssertionError("a product was built")

    monkeypatch.setattr(Lattice, "from_sets", refuse)
    with pytest.raises(SizeLimitExceeded):
        lower_reduced_product(a, a)


def test_adjoin_atoms():
    base = chain(2)
    lat = adjoin_atoms(base, 3)
    assert lat.n == 5
    # 0 < {2,3,4} < 1: the direct bottom-top cover is no longer a cover
    assert len(lat.atoms()) == 3
    assert lat.is_atomistic()


# ----------------------------------------------------------------------
# .lat format


def test_lat_roundtrip(lattices_by_size):
    for lat in lattices_by_size[6]:
        text = lat.to_lat(comment="test")
        n, covers = parse_lat(text)
        assert n == lat.n and tuple(covers) == lat.covers
        again = Lattice.from_covers(*parse_lat(text))
        assert again.covers == lat.covers


def test_lat_parse_errors():
    with pytest.raises(ValueError):
        parse_lat("c 0 1\n")  # cover before count
    with pytest.raises(ValueError):
        parse_lat("n 4\nn 4\n")  # duplicate count
    with pytest.raises(ValueError):
        parse_lat("q 1\n")  # unknown directive
    with pytest.raises(ValueError):
        parse_lat("# only a comment\n")  # no count at all


def test_lat_comments_and_blank_lines():
    n, covers = parse_lat("# hi\n\nn 2 # trailing\nc 0 1\n")
    assert n == 2 and covers == [(0, 1)]


def test_divisibility_lattice_order():
    lat = divisibility_lattice(12)
    assert lat.n == 6
