"""Lattice validation against join-irreducibles, checked differentially.

``Lattice.from_covers`` only looks up the join of every element with
every join-irreducible.  These tests hold it to the deliberately naive
pairwise test ``builders.is_lattice_masks``, exhaustively on small posets
and on random cover sets, and check ``join``/``meet`` against a direct
least-upper-bound / greatest-lower-bound search.  On the random lattices,
the covers, join-irreducibles and atoms read off the indexes are held to
the transitive reduction, and every Moebius vector to its defining sum.
``Lattice.from_sets`` is held to ``from_covers`` on the pairwise
inclusions of random set families, and its ``join``/``meet`` to union
and intersection on random intersection-closed families.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latzeta.errors import LatZetaError, NoBoundedStructure, NotALattice
from latzeta.lattice import Lattice

from builders import is_lattice_masks, naturally_labeled_posets


def _strict_pairs(up):
    return [(a, b) for a, mask in enumerate(up) for b in range(len(up))
            if a != b and (mask >> b) & 1]


def _closure(n, pairs):
    """Up-masks of the order generated by ``pairs``, by fixpoint."""
    up = [1 << x for x in range(n)]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            if up[b] & ~up[a]:
                up[a] |= up[b]
                changed = True
    return up


def _agrees_with_naive(n, pairs):
    """from_covers accepts exactly the lattices, rejecting the rest with
    a typed error; returns whether ``pairs`` generate a lattice."""
    up = _closure(n, pairs)
    if is_lattice_masks(n, up):
        assert list(Lattice.from_covers(n, pairs).up) == up
        return True
    with pytest.raises((NotALattice, NoBoundedStructure)):
        Lattice.from_covers(n, pairs)
    return False


def _naive_join(lattice, x, y):
    common = [z for z in range(lattice.n)
              if lattice.leq(x, z) and lattice.leq(y, z)]
    least = [z for z in common if all(lattice.leq(z, w) for w in common)]
    assert len(least) == 1
    return least[0]


def _naive_meet(lattice, x, y):
    common = [z for z in range(lattice.n)
              if lattice.leq(z, x) and lattice.leq(z, y)]
    greatest = [z for z in common if all(lattice.leq(w, z) for w in common)]
    assert len(greatest) == 1
    return greatest[0]


def _assert_operations(n, pairs):
    """join/meet agree with the naive search on every pair."""
    lattice = Lattice.from_covers(n, pairs)
    for x in range(n):
        for y in range(n):
            assert lattice.join(x, y) == _naive_join(lattice, x, y)
            assert lattice.meet(x, y) == _naive_meet(lattice, x, y)


@pytest.mark.parametrize("n", range(2, 7))
def test_exhaustive_agreement_with_pairwise_test(n):
    # Each poset once in a natural labelling and once reversed, so the
    # labels are a linear extension in one case and its opposite in the
    # other.
    lattices = 0
    for up in naturally_labeled_posets(n):
        pairs = _strict_pairs(up)
        reverse = [(n - 1 - a, n - 1 - b) for a, b in pairs]
        verdicts = {_agrees_with_naive(n, p) for p in (pairs, reverse)}
        assert len(verdicts) == 1
        if verdicts == {True}:
            lattices += 1
            _assert_operations(n, pairs)
            _assert_operations(n, reverse)
    assert lattices > 0


@st.composite
def cover_sets(draw):
    """Random relations ``(i, j)``, ``i < j``, on up to 12 points.

    Points get sorted levels and pairs are drawn only across levels, so
    incomparable pairs, and with them non-lattices, stay common; half of
    the cases also get a bottom and a top.  The points are then relabelled
    at random, so the labels need not follow the order."""
    n = draw(st.integers(min_value=2, max_value=12))
    inner = draw(st.lists(st.integers(1, 3), min_size=n - 2, max_size=n - 2))
    level = [0, *sorted(inner), 4]
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if level[i] < level[j]]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates),
                         max_size=len(candidates)))
    pairs = [p for p, k in zip(candidates, keep) if k]
    if draw(st.booleans()):
        pairs += [(0, x) for x in range(1, n)]
        pairs += [(x, n - 1) for x in range(n - 1)]
    perm = draw(st.permutations(range(n)))
    return n, [(perm[a], perm[b]) for a, b in pairs]


@settings(max_examples=300, deadline=None)
@given(cover_sets())
def test_random_covers_agree_with_pairwise_test(case):
    n, pairs = case
    if _agrees_with_naive(n, pairs):
        _assert_operations(n, pairs)


@settings(max_examples=300, deadline=None)
@given(cover_sets())
def test_order_facts_match_naive_reduction(case):
    # Covers, join-irreducibles and atoms against the transitive reduction
    # of the closure, and every Moebius vector against its defining sum,
    # with labels in random order.
    n, pairs = case
    try:
        lattice = Lattice.from_covers(n, pairs)
    except (NotALattice, NoBoundedStructure):
        return
    up = _closure(n, pairs)

    def below(a, b):
        return a != b and (up[a] >> b) & 1

    covers = [(a, b) for a in range(n) for b in range(n)
              if below(a, b) and not any(below(a, c) and below(c, b) for c in range(n))]
    lower = [[a for a, b in covers if b == x] for x in range(n)]
    bottom = up.index((1 << n) - 1)
    assert lattice.covers == tuple(covers)
    assert lattice.join_irreducibles() == tuple(
        x for x in range(n) if len(lower[x]) == 1
    )
    assert lattice.atoms() == tuple(x for x in range(n) if lower[x] == [bottom])
    for t in range(n):
        mu = lattice.mobius_vector(t)
        for x in range(n):
            if x == t or below(x, t):
                total = sum(mu[y] for y in range(n)
                            if (x == y or below(x, y)) and (y == t or below(y, t)))
                assert total == (1 if x == t else 0)
            else:
                assert mu[x] is None


@st.composite
def set_families(draw):
    """Distinct subsets of a ground set of up to 6 points, in random
    order.  A third of the families are left as drawn, mostly without a
    bottom or a top; a third get the empty and the whole set, so that
    the meet check decides; a third are also closed under intersection,
    which makes them lattices."""
    ground = draw(st.integers(1, 6))
    full = (1 << ground) - 1
    sets = draw(st.lists(st.integers(0, full), max_size=14))
    mode = draw(st.sampled_from(["raw", "bounded", "closed"]))
    if mode != "raw":
        sets += [0, full]
    if mode == "closed":  # round r adds the intersections of 2**r drawn sets
        for _ in range(4):
            sets = list(dict.fromkeys(sets + [a & b for a in sets for b in sets]))
    sets = list(dict.fromkeys(sets))
    return draw(st.permutations(sets))


@settings(max_examples=300, deadline=None)
@given(set_families())
# bounded, but {0, 1, 2} and {0, 1, 3, 4} have two maximal common
# lower bounds, {0} and {1}
@example([0b00000, 0b00001, 0b00010, 0b00111, 0b11011, 0b11111])
def test_from_sets_agrees_with_from_covers(sets):
    n = len(sets)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and sets[i] & sets[j] == sets[i]]
    try:
        expected = Lattice.from_covers(n, pairs)
    except (ValueError, LatZetaError) as exc:
        with pytest.raises(type(exc)) as info:
            Lattice.from_sets(sets)
        assert type(info.value) is type(exc)
        return
    lattice = Lattice.from_sets(sets)
    assert lattice.up == expected.up
    assert lattice.covers == expected.covers
    assert (lattice.bottom, lattice.top) == (expected.bottom, expected.top)


@st.composite
def closed_families(draw):
    """Intersection-closed families holding the empty and the full set,
    on a ground set of up to 8 points, with up to about 40 members, in
    random order."""
    ground = draw(st.integers(1, 8))
    full = (1 << ground) - 1
    sets = {0, full}
    for s in draw(st.lists(st.integers(0, full), max_size=12)):
        grown = sets | {s & t for t in sets}
        if len(grown) > 40:
            break
        sets = grown
    return draw(st.permutations(sorted(sets)))


@settings(max_examples=200, deadline=None)
@given(closed_families())
def test_from_sets_operations_are_intersection_and_closed_union(sets):
    # In an intersection-closed family the meet is the intersection and
    # the join is the least member containing the union.
    lattice = Lattice.from_sets(sets)
    index = {s: i for i, s in enumerate(sets)}
    for x, sx in enumerate(sets):
        for y, sy in enumerate(sets):
            assert lattice.meet(x, y) == index[sx & sy]
            above = [s for s in sets if s & (sx | sy) == sx | sy]
            [least] = [s for s in above if all(s & t == s for t in above)]
            assert lattice.join(x, y) == index[least]


def test_from_sets_rejects_repeated_and_negative_sets():
    with pytest.raises(ValueError):
        Lattice.from_sets([0, 1, 1, 3])
    with pytest.raises(ValueError):
        Lattice.from_sets([-1, 0])


def test_from_sets_reads_any_iterable():
    lattice = Lattice.from_sets(iter([0b11, 0b01, 0, 0b10]))
    assert (lattice.bottom, lattice.top) == (2, 0)
    assert lattice.atoms() == (1, 3)


def _three_meet_irreducibles():
    """Covers of a bounded non-lattice on 10 points whose meet-irreducibles
    m1, m2, m3 pairwise have meets."""
    bottom, p, q, w, u, v, m1, m2, m3, top = range(10)
    covers = [(bottom, p), (bottom, q)]
    covers += [(a, b) for a in (p, q) for b in (w, u, v)]
    covers += [(w, m1), (u, m1), (w, m2), (v, m2), (u, m3), (v, m3)]
    return covers + [(m, top) for m in (m1, m2, m3)]


def test_meet_irreducible_pairs_alone_do_not_suffice():
    # Atoms p, q lie under each of w, u, v; the meet-irreducibles m1, m2,
    # m3 cover {w, u}, {w, v} and {u, v}.  Every two meet-irreducibles
    # have a meet (w, u or v), yet meet(w, m3) and join(p, q) do not
    # exist: the check must pair each meet-irreducible with every
    # element, in either labelling direction.
    covers = _three_meet_irreducibles()
    for pairs in (covers, [(9 - a, 9 - b) for a, b in covers]):
        assert not is_lattice_masks(10, _closure(10, pairs))
        with pytest.raises(NotALattice):
            Lattice.from_covers(10, pairs)


def test_join_irreducible_pairs_alone_do_not_suffice():
    # The order dual of the case above, every cover reversed: m1, m2, m3
    # become atoms and the only join-irreducibles.  Every two of them
    # have a join (w, u or v), yet join(w, m3) and meet(p, q) do not
    # exist: the check must pair each join-irreducible with every
    # element, in either labelling direction.
    covers = [(b, a) for a, b in _three_meet_irreducibles()]
    for pairs in (covers, [(9 - a, 9 - b) for a, b in covers]):
        assert not is_lattice_masks(10, _closure(10, pairs))
        with pytest.raises(NotALattice):
            Lattice.from_covers(10, pairs)
