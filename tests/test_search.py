"""Exhaustive small-lattice search: enumeration counts, the independent
brute-force oracle, catalog persistence, and the weak-not-strong sweep.

The canonical augmentation in ``search._extend_parents`` is checked
against the generate-then-deduplicate enumerator it replaced, kept here
as an oracle.  The covers and heights it derives for each child from its
parent's are checked against ``_order_structure`` of the child, and the
packed level entries against the masks they stand for.  Every level's
keys, masks and generators are pinned by digest, and its records by
their size.
"""

import functools
import hashlib
import os
import random
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta import cosetlike, search, zeta
from latzeta.cosetlike import classify
from latzeta.errors import BudgetExceeded, CatalogCorrupt
from latzeta.lattice import (
    Lattice,
    _canonical_labelling,
    _order_structure,
    _transpose_masks,
    canonical_key_from_up,
    is_isomorphic,
)
from latzeta.search import (
    DEFAULT_MAX_N,
    CatalogStore,
    catalog_entry,
    classify_catalog,
    enumerate_lattices,
    find_weak_not_strong,
    lattice_count,
    level_entries,
)
from latzeta.zeta import zeta_series

from builders import brute_force_lattice_count, catalog_entry_of

# isomorphism classes of lattices on n elements, n = 2..10
KNOWN_COUNTS = [1, 1, 2, 5, 15, 53, 222, 1078, 5994]


def test_lattice_counts():
    for i, n in enumerate(range(2, 9)):
        assert lattice_count(n) == KNOWN_COUNTS[i], n


def test_counts_match_independent_oracle():
    for n in range(2, 7):
        assert brute_force_lattice_count(n) == lattice_count(n)


def test_oracle_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_lattices(DEFAULT_MAX_N + 1))
    with pytest.raises(ValueError):
        list(enumerate_lattices(1))


def test_enumeration_yields_canonical_distinct(lattices_by_size):
    for n, lats in lattices_by_size.items():
        keys = [lat.canonical_form() for lat in lats]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumeration_is_exhaustive_at_six(lattices_by_size):
    # every valid 6-element lattice built by hand must appear
    rng = random.Random(7001)
    keys = {lat.canonical_form() for lat in lattices_by_size[6]}
    built = 0
    while built < 10:
        # random order extension over 6 elements; keep the lattices
        n = 6
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        try:
            lat = Lattice.from_covers(n, pairs)
        except Exception:
            continue
        built += 1
        assert lat.canonical_form() in keys


def test_jobs_parallel_matches_serial():
    serial = [lat.canonical_form() for lat in enumerate_lattices(7, jobs=1)]
    parallel = [lat.canonical_form() for lat in enumerate_lattices(7, jobs=2)]
    assert serial == parallel


def test_library_jobs_clamped_to_cpu_count(monkeypatch):
    # A stand-in for multiprocessing.Pool that records the worker count and
    # maps in this process, on a fresh level cache so that the levels are
    # really rebuilt; no worker process is started.
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

    serial = search._level(7)
    first = search._LEVELS[2]
    monkeypatch.setattr(search, "Pool", RecordingPool)
    for cpus, asked, expected in ((2, 10**6, [2]), (3, 2, [2]), (None, 8, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(search, "_LEVELS", {2: first})
        sizes.clear()
        assert search._level(7, jobs=asked).records == serial.records
        assert sizes == expected, (cpus, asked)


@pytest.mark.parametrize("jobs", [0, -1])
def test_library_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError):
        lattice_count(3, jobs=jobs)
    with pytest.raises(ValueError):
        list(enumerate_lattices(3, jobs=jobs))
    with pytest.raises(ValueError):
        level_entries(3, jobs=jobs)
    with pytest.raises(ValueError):
        classify_catalog(3, jobs=jobs)
    with pytest.raises(ValueError):
        find_weak_not_strong(3, jobs=jobs)


@pytest.mark.parametrize("max_n", [1, 0, -3])
def test_find_weak_not_strong_rejects_below_two(monkeypatch, max_n):
    monkeypatch.setattr(search, "level_entries", None)
    with pytest.raises(ValueError):
        find_weak_not_strong(max_n)


def test_catalog_entry_fields():
    from latzeta.families import boolean_lattice

    entry = catalog_entry_of(boolean_lattice(2))
    assert entry.n == 4
    assert entry.atomistic and entry.strong and entry.weak
    assert entry.flags == "asw"
    assert catalog_entry(entry.key, 4, "asw") == entry
    # strong implies weak, so these are every flag text there is
    for flags in ("asw", "a-w", "a--", "-sw", "--w", "---"):
        assert catalog_entry(entry.key, 4, flags).flags == flags


def test_catalog_flags_match_classify(lattices_by_size):
    # the enumerator derives the flags from each parent's mu and covers;
    # classify decides them from the divisor ratios and the series terms
    # of the built lattice
    for n, lattices in lattices_by_size.items():
        for entry, lattice in zip(level_entries(n), lattices, strict=True):
            verdict = classify(lattice)
            assert entry.key == lattice.canonical_form()
            assert (entry.strong, entry.weak) == (verdict.strong, verdict.weak)


@pytest.mark.long
@pytest.mark.parametrize("n", [11, 12])
def test_record_flags_match_the_built_lattices_long(n):
    # the flags each record carries are those of the lattice built from
    # its masks, with its own mu, join-irreducibles and atoms; n <= 10
    # is checked in test_flags_from_counts_match_the_series
    for entry, lattice in zip(level_entries(n), enumerate_lattices(n), strict=True):
        assert entry == catalog_entry_of(lattice), entry.key


def test_flags_from_counts_match_the_series():
    # The record flags and zeta_series decide both flags from the
    # integer counts and sums; the series and the counts are the
    # oracles.  On 10 elements the 29 weak-not-strong classes are
    # ordinary only because a non-dividing count has a zero sum.
    zero_sum_decided = 0
    for n in range(2, 11):
        for entry, lattice in zip(level_entries(n), enumerate_lattices(n), strict=True):
            assert entry == catalog_entry_of(lattice), entry.key
            report = zeta_series(lattice)
            ordinary = report.series.is_ordinary()
            counts = [c for x, c in enumerate(report.j_below) if x != lattice.bottom]
            strong = all(report.j_count % c == 0 for c in counts)
            assert entry.weak == report.ordinary == ordinary, entry.key
            assert entry.strong == report.strongly_coset_like == strong, entry.key
            zero_sum_decided += ordinary and not strong
    assert zero_sum_decided == 29


@pytest.mark.parametrize(
    "n,total,strong,weak,atomistic,weak_not_strong",
    [
        (6, 15, 5, 5, 2, 0),
        (7, 53, 6, 6, 4, 0),
        (8, 222, 33, 33, 9, 0),
        (9, 1078, 135, 135, 22, 0),
        (10, 5994, 380, 409, 59, 29),
    ],
)
def test_catalog_summaries_are_pinned(n, total, strong, weak, atomistic, weak_not_strong):
    assert classify_catalog(n) == {
        "n": n,
        "total": total,
        "strong": strong,
        "weak": weak,
        "atomistic": atomistic,
        "weak_not_strong": weak_not_strong,
    }


def test_level_entries_and_summary():
    entries = list(level_entries(5))
    assert len(entries) == 5
    summary = classify_catalog(5)
    assert summary == {
        "n": 5,
        "total": 5,
        "strong": 1,
        "weak": 1,
        "atomistic": 1,
        "weak_not_strong": 0,
    }


def test_catalog_levels_share_their_flag_strings(tmp_path):
    # one string object per flag value, however many entries carry it
    path = tmp_path / "catalog.txt"
    store = CatalogStore(path)
    for n in range(2, 10):
        level_entries(n, store=store)
    for levels in (store._levels, CatalogStore(path)._levels):
        flags = [f for level in levels.values() for f in level.values()]
        assert len(flags) == sum(KNOWN_COUNTS[:8])
        assert len({id(f) for f in flags}) == len(set(flags)) <= 8


def test_catalog_store_roundtrip(tmp_path):
    path = tmp_path / "catalog.txt"
    store = CatalogStore(path)
    assert not store.is_complete(4)
    computed = list(level_entries(4, store=store))
    assert store.is_complete(4)

    fresh = CatalogStore(path)
    assert fresh.is_complete(4)
    loaded = fresh.entries(4)
    assert [e.key for e in loaded] == [e.key for e in computed]
    assert [e.flags for e in loaded] == [e.flags for e in computed]


def test_catalog_store_discards_incomplete_level(tmp_path):
    path = tmp_path / "catalog.txt"
    store = CatalogStore(path)
    level_entries(4, store=store)
    level_entries(5, store=store)
    full = path.read_text()

    # chop the level-5 completion marker: that level must recompute
    truncated = full[: full.index("# complete 5")]
    path.write_text(truncated)
    resumed = CatalogStore(path)
    assert resumed.is_complete(4)
    assert not resumed.is_complete(5)
    assert resumed.complete_levels() == [4]

    # regeneration is byte-identical to the uninterrupted file
    level_entries(5, store=resumed)
    assert path.read_text() == full


@pytest.mark.parametrize(
    "bad", ["badline", "abcd 3", "# complete x", "80 2 as-", "80 2 -s-"]
)
def test_catalog_store_rejects_malformed_line(tmp_path, bad):
    path = tmp_path / "catalog.txt"
    level_entries(3, store=CatalogStore(path))
    good = path.read_text()
    path.write_text(good + bad + "\n")
    line = good.count("\n") + 1
    with pytest.raises(CatalogCorrupt) as info:
        CatalogStore(path)
    assert str(info.value) == (
        f"{path}, line {line}: malformed catalog line {bad!r}"
    )


def test_catalog_store_ignores_comments(tmp_path):
    path = tmp_path / "catalog.txt"
    level_entries(3, store=CatalogStore(path))
    good = path.read_text()
    path.write_text("# a note\n#complete 9\n\n" + good)
    assert CatalogStore(path).complete_levels() == [3]


def test_catalog_write_leaves_other_files_alone(tmp_path):
    path = tmp_path / "c.txt"
    neighbour = tmp_path / "c.txt.tmp"
    neighbour.write_bytes(b"user data\n")
    probe = tmp_path / "probe"
    probe.write_text("")
    level_entries(4, store=CatalogStore(path))
    assert neighbour.read_bytes() == b"user data\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.txt", "c.txt.tmp", "probe"
    ]
    # the catalog gets the permissions a plain open() gives a new file
    assert path.stat().st_mode == probe.stat().st_mode


def test_catalog_write_failure_removes_its_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "c.txt"
    store = CatalogStore(path)
    level_entries(3, store=store)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(search.os, "replace", fail)
    with pytest.raises(OSError):
        level_entries(4, store=store)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]


def test_catalog_path_builds_no_lattice(monkeypatch):
    # the flags come from the records: no lattice is built and no engine
    # pass is run, on levels that are really rebuilt
    def refuse(*args, **kwargs):
        raise AssertionError("the catalog path built a lattice or ran an engine pass")

    monkeypatch.setattr(Lattice, "_from_up", classmethod(refuse))
    monkeypatch.setattr(Lattice, "mobius_vector", refuse)
    monkeypatch.setattr(zeta, "engine_pass", refuse)
    monkeypatch.setattr(cosetlike, "engine_pass", refuse)
    monkeypatch.setattr(search, "_LEVELS", {2: search._LEVELS[2]})
    assert classify_catalog(8) == {
        "n": 8, "total": 222, "strong": 33, "weak": 33, "atomistic": 9, "weak_not_strong": 0
    }
    assert find_weak_not_strong(8) == {n: [] for n in range(2, 9)}


def test_weak_not_strong_empty_through_eight():
    found = find_weak_not_strong(8)
    assert set(found) == set(range(2, 9))
    assert all(v == [] for v in found.values())


def test_weak_not_strong_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a level was enumerated")

    monkeypatch.setattr(search, "_level", refuse)
    with pytest.raises(BudgetExceeded):
        find_weak_not_strong(DEFAULT_MAX_N + 1)


def test_catalog_budget(monkeypatch, tmp_path):
    # a level past the cap is refused before any level is built, unless
    # a complete store level serves it
    def refuse(*args, **kwargs):
        raise AssertionError("a level was enumerated")

    monkeypatch.setattr(search, "_LEVELS", dict(search._LEVELS))
    monkeypatch.setattr(search, "_extend_parents", refuse)
    for read in (classify_catalog, level_entries):
        with pytest.raises(BudgetExceeded):
            read(DEFAULT_MAX_N + 1)
        with pytest.raises(ValueError):
            read(1)
    store = CatalogStore(tmp_path / "catalog.txt")
    store.write_level(DEFAULT_MAX_N + 1, [("ab", "---")])
    assert classify_catalog(DEFAULT_MAX_N + 1, store=store)["total"] == 1


@pytest.mark.long
def test_eleven_element_count():
    assert lattice_count(11, jobs=4) == 37622
    assert classify_catalog(11)["weak_not_strong"] == 451
    assert level_digest(11) == LEVEL_11_DIGEST


@pytest.mark.long
def test_twelve_element_census():
    summary = classify_catalog(12)
    assert summary["total"] == 262776  # OEIS A006966
    assert summary["weak_not_strong"] == 3496
    assert summary["atomistic"] == 614
    found = find_weak_not_strong(12, atomistic_only=True)
    assert [e.key for e in found[12]] == [ATOMISTIC_WEAK_NOT_STRONG_12]
    assert all(found[n] == [] for n in range(2, 12))
    lattice = next(
        lat for lat in enumerate_lattices(12)
        if lat.canonical_form() == ATOMISTIC_WEAK_NOT_STRONG_12
    )
    # 1 - 1/2^s - 4/8^s
    assert zeta_series(lattice).series.term_map() == {1: 1, 2: -1, 8: -4}


def has_joins(k, ups, filt):
    """Whether every old element ``a`` above the bottom (element 0) has a
    join with a new atom whose strict up-set is ``filt``: ``a`` itself
    when it lies in ``filt``, else the least element of ``filt & ups[a]``,
    found by a scan of its members; the enumerator looks joins up in the
    filter set instead.  The bottom's join with the atom is the atom."""

    def has_least(common):
        rest = common
        while rest:
            low = rest & -rest
            if ups[low.bit_length() - 1] & common == common:
                return True
            rest ^= low
        return False

    return all((filt >> a) & 1 or has_least(filt & ups[a]) for a in range(1, k))


def oracle_children(n, parents):
    """Every one-new-atom extension of the given lattices on n - 1
    elements, each with its bottom as element 0, labelled and
    deduplicated by canonical key: the enumerator before canonical
    augmentation.  Returns {key: up_masks}."""
    out = {}
    k = n - 1
    for ups in parents:
        down = _transpose_masks(k, ups)
        comp = [ups[i] | down[i] for i in range(k)]
        for amask in search._antichain_masks(k, comp):
            filt = 0
            for a in range(k):
                if (amask >> a) & 1:
                    filt |= ups[a]
            if not has_joins(k, ups, filt):
                continue
            child = ((1 << n) - 1,) + ups[1:] + (filt | 1 << k,)
            out.setdefault(canonical_key_from_up(n, child, _transpose_masks(n, child)), child)
    return out


@functools.cache
def oracle_level(n):
    """{key: up_masks} of the lattices on n elements, built level by
    level from the 2-chain by the oracle alone."""
    if n == 2:
        return {canonical_key_from_up(2, (3, 2), (1, 3)): (3, 2)}
    return oracle_children(n, oracle_level(n - 1).values())


def test_augmentation_matches_deduplication_oracle():
    for n in range(2, 10):
        keys = [key for key, _, _ in search._level(n)]
        assert keys == sorted(oracle_level(n)), n


def relabel_masks(ups, perm):
    """Up-masks with element x renamed perm[x]."""
    out = [0] * len(ups)
    for x, mask in enumerate(ups):
        for y in range(len(ups)):
            if (mask >> y) & 1:
                out[perm[x]] |= 1 << perm[y]
    return tuple(out)


def children(k, key, masks, generators):
    """What ``_extend_parents`` makes of one parent on k elements, read
    as ``(key, masks, generators)`` triples; the parent's flags are not
    read."""
    parent = search._record(key, "---", masks, generators)
    return search._Level(k + 1, search._extend_parents(k + 1, [parent]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kept_children_do_not_depend_on_the_parent_labelling(data):
    # The classes kept from a parent are those whose canonical parent is
    # the parent's class, a property of the class alone.  The relabelling
    # keeps the bottom at element 0, where the enumerator expects it.
    k = data.draw(st.integers(2, 8))
    parent_key, masks, generators = data.draw(st.sampled_from(search._level(k)))
    ups = search._unpack_masks(masks)[0]
    perm = [0] + data.draw(st.permutations(range(1, k)))
    moved = relabel_masks(ups, perm)
    moved_down = _transpose_masks(k, moved)
    _, _, moved_generators = _canonical_labelling(k, moved, moved_down)
    kept = {key for key, _, _ in children(k, parent_key, masks, generators)}
    moved_masks = search._pack_masks(moved, moved_down)
    again = children(k, parent_key, moved_masks, moved_generators)
    assert {key for key, _, _ in again} == kept
    assert len(again) == len(kept)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kept_children_flags_match_the_built_lattice(data):
    # Each kept child's mu(x, top) is derived from its parent's, and its
    # flags from that mu and the child's derived covers; both must be
    # what the child, built and validated as a Lattice, gives.  The
    # relabelling keeps the bottom at element 0.
    k = data.draw(st.integers(2, 8))
    parent_key, masks, _ = data.draw(st.sampled_from(search._level(k)))
    perm = [0] + data.draw(st.permutations(range(1, k)))
    moved = relabel_masks(search._unpack_masks(masks)[0], perm)
    moved_down = _transpose_masks(k, moved)
    generators = _canonical_labelling(k, moved, moved_down)[2]
    calls = []
    real = search._class_flags

    def recording(mu, down, structure):
        flags = real(mu, down, structure)
        calls.append((mu, down, flags))
        return flags

    search._class_flags = recording
    try:
        kept = children(k, parent_key, search._pack_masks(moved, moved_down), generators)
    finally:
        search._class_flags = real
    assert len(calls) == len(kept)
    for mu, down, flags in calls:
        lattice = Lattice._from_up(k + 1, _transpose_masks(k + 1, down), down)
        assert mu == lattice.mobius_to_top()
        assert flags == catalog_entry_of(lattice).flags
    for record in kept.records:
        key, flags, masks, _ = search._record_parts(k + 1, record)
        lattice = Lattice._from_up(k + 1, *search._unpack_masks(masks))
        assert catalog_entry(key.hex(), k + 1, flags.decode()) == catalog_entry_of(lattice)


def admissible_by_hand(ups, atoms, amask):
    """The filter of ``amask`` if its child passes the enumerator's two
    tests, else None: every atom outside the filter has an up-set no
    larger than the new atom's, and every non-bottom element has a join
    with the new atom."""
    filt = 0
    for a in range(len(ups)):
        if (amask >> a) & 1:
            filt |= ups[a]
    size = filt.bit_count() + 1
    if any(ups[a].bit_count() > size for a in atoms if not (filt >> a) & 1):
        return None
    if not has_joins(len(ups), ups, filt):
        return None
    return filt


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_admissibility_commutes_with_the_orbit_reduction(data):
    # The two tests give one answer on each orbit of the parent's
    # automorphisms, so running them before the orbit reduction picks
    # the representatives, in the order, that running them after it
    # does.  The relabelling keeps the bottom at element 0.
    k = data.draw(st.integers(2, 8))
    _, masks, _ = data.draw(st.sampled_from(search._level(k)))
    perm = [0] + data.draw(st.permutations(range(1, k)))
    ups = relabel_masks(search._unpack_masks(masks)[0], perm)
    down = _transpose_masks(k, ups)
    generators = _canonical_labelling(k, ups, down)[2]
    atoms = _order_structure(k, ups, down)[0][0]
    admissible = search._admissible_antichains(ups, down, atoms)
    antichains = search._antichain_masks(k, [ups[i] | down[i] for i in range(k)])
    by_hand = {a: admissible_by_hand(ups, atoms, a) for a in antichains}
    assert admissible == {a: filt for a, filt in by_hand.items() if filt is not None}
    assert list(admissible) == [a for a in antichains if a in admissible]
    after = [
        a for a in search._orbit_representatives(antichains, generators) if a in admissible
    ]
    assert search._orbit_representatives(list(admissible), generators) == after


def test_enumeration_work_through_ten_is_pinned(monkeypatch):
    # Through n = 10 the enumerator labels the 7,944 orbit-distinct
    # children that pass both tests (32,155 antichains, 24,696 orbits)
    # and keeps 7,371 classes; more labellings would mean work moved
    # from the tests into the canonical search.  A fresh level cache
    # makes the levels really rebuild.
    labellings = []
    real = search._canonical_labelling

    def counting(n, up, down, structure=None):
        labellings.append(n)
        return real(n, up, down, structure)

    monkeypatch.setattr(search, "_canonical_labelling", counting)
    monkeypatch.setattr(search, "_LEVELS", {2: search._LEVELS[2]})
    assert lattice_count(10) == 5994
    assert sum(len(search._LEVELS[n]) for n in range(2, 11)) == 7371
    assert len(labellings) <= 7944


def test_lattice_keys_are_derived_correctly():
    # enumerate_lattices fills each lattice's key from the enumerator's
    # own labelling of it; it must be the key a direct search gives.
    for n in range(2, 11):
        for lat in enumerate_lattices(n):
            assert lat._canonical_key == canonical_key_from_up(lat.n, lat.up, lat.down)


def test_enumerated_lattices_are_valid(lattices_by_size):
    # from_covers re-validates; round-trip one level through it
    for lat in lattices_by_size[6]:
        again = Lattice.from_covers(lat.n, lat.covers)
        assert is_isomorphic(again, lat)


# ----------------------------------------------------------------------
# child structure derived from the parent's, and the packed level format


def derived_children(ups, order):
    """``(child_up, derived, expected)`` for every antichain of the
    parent's non-bottom elements, whether or not the child is a lattice:
    the structure ``_child_structure`` derives from the parent's, with
    ``order`` as its linear extension, and ``_order_structure`` of the
    child computed from scratch."""
    k = len(ups)
    down = _transpose_masks(k, ups)
    parent = _order_structure(k, ups, down)
    comp = [ups[i] | down[i] for i in range(k)]
    for amask in search._antichain_masks(k, comp):
        filt = 0
        for a in range(k):
            if (amask >> a) & 1:
                filt |= ups[a]
        child = ((1 << k + 1) - 1,) + tuple(ups[1:]) + (filt | 1 << k,)
        expected = _order_structure(k + 1, child, _transpose_masks(k + 1, child))
        yield child, search._child_structure(parent, order, amask, filt), expected


def test_child_structure_matches_order_structure_on_every_child():
    # every child of every parent on up to 8 elements, including those
    # the enumerator drops (failed joins, smaller up-set than an atom),
    # with the enumerator's linear extension, ascending down-set size
    for k in range(2, 9):
        for _, masks, _ in search._level(k):
            ups, down = search._unpack_masks(masks)
            order = sorted(range(1, k), key=lambda v: down[v].bit_count())
            for child, derived, expected in derived_children(ups, order):
                assert derived == expected, child


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_child_structure_on_relabelled_parents(data):
    # the bottom stays at element 0, where the enumerator expects it; the
    # linear extension is by height, ties broken at random
    k = data.draw(st.integers(2, 8))
    _, masks, _ = data.draw(st.sampled_from(search._level(k)))
    perm = [0] + data.draw(st.permutations(range(1, k)))
    moved = relabel_masks(search._unpack_masks(masks)[0], perm)
    heights = _order_structure(k, moved, _transpose_masks(k, moved))[2]
    ties = data.draw(st.permutations(range(1, k)))
    order = sorted(range(1, k), key=lambda v: (heights[v], ties.index(v)))
    for child, derived, expected in derived_children(moved, order):
        assert derived == expected, child


def test_enumerated_down_masks_are_the_transpose():
    # enumerate_lattices hands the level's stored down-masks to the
    # lattice instead of transposing the up-masks again
    for n in range(2, 11):
        for lat in enumerate_lattices(n):
            assert list(lat.down) == _transpose_masks(n, lat.up)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_masks_round_trip(data):
    n = data.draw(st.integers(2, 16))
    masks = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    up, down = tuple(data.draw(masks)), tuple(data.draw(masks))
    packed = search._pack_masks(up, down)
    assert isinstance(packed, bytes)
    assert search._unpack_masks(packed) == (up, down)


# sha256 of each level's (key, masks, generators), one line per class:
# the hex key, the hex of the packed masks as little-endian 16-bit words
# and the hex of each generator
LEVEL_DIGESTS = {
    2: "825b81fdf02b9adfeb178cacc6c35671d6c4385c83b56794c47b2daff17beadd",
    3: "76425bc72279291554efa0fed7629a0017142640e7cdcea90c0ed365078031e9",
    4: "445d28d80071c9bb31383634963546688d694c7e5bd1fba0ed5915bb111fba17",
    5: "c3f5214f30407301c0a3097f4ed4734348788b2af432ee2af2c3d2b893509288",
    6: "fdeb928cc20111996974515f119cd4be8b1f7a0faa5149d74ca4bed7ba86d9dd",
    7: "6234c5973a6391f4aaf378b58c3ac16e9f126be6fddbac3dd24dba7e9ecb2f56",
    8: "2f04324da939bc8af9fa9b6f2ce0adefc4c93eea7ed068a560724257b15cba71",
    9: "11cd9fa7f04edd1541d59f16a39a902176b5449532e23c8e9e4d59c8c50ad366",
    10: "ecc87b4c21848fe954d018476be837d1842226081d0b0d353896b95bb7a13c34",
}
LEVEL_11_DIGEST = "fc15fafa8638a65aff3a55c0210edaa5252a73dcea07917d1927f8c06d3a5911"

# the one atomistic weak-not-strong class on 12 elements
ATOMISTIC_WEAK_NOT_STRONG_12 = "d22104080f07c3ffc0"


def level_digest(n):
    digest = hashlib.sha256()
    for key, masks, generators in search._level(n):
        words = array("H", masks)
        if sys.byteorder == "big":
            words.byteswap()
        line = f"{key} {words.tobytes().hex()} {' '.join(g.hex() for g in generators)}\n"
        digest.update(line.encode())
    return digest.hexdigest()


def test_levels_are_pinned():
    for n, expected in LEVEL_DIGESTS.items():
        assert level_digest(n) == expected, n


def test_level_records_are_compact():
    # a class costs its record and its slot in the level's list
    search._level(10)
    records = search._LEVELS[10]
    assert all(type(record) is bytes for record in records)
    size = sys.getsizeof(records) + sum(map(sys.getsizeof, records))
    assert size <= 120 * len(records)


def test_level_view_reads_its_records():
    level = search._level(6)
    assert len(level) == 15
    assert list(level[3:5]) == [level[3], level[4]]
    for record, (key, masks, generators) in zip(level.records, level):
        flags = search._record_parts(6, record)[1].decode()
        assert search._record(key, flags, masks, generators) == record
        assert len(key) == 2 * search._key_width(6)
        assert all(sorted(g) == list(range(6)) for g in generators)


def test_level_masks_fit_their_words():
    # each mask has one bit per element, in one 16-bit word
    assert DEFAULT_MAX_N <= 16
    assert DEFAULT_MAX_N <= 8 * array("H").itemsize
    for n in range(2, 9):
        for _, masks, _ in search._level(n):
            assert len(masks) == 2 * n * array("H").itemsize
