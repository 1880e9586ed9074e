"""Exhaustive small-lattice search: enumeration counts, the independent
brute-force oracle, catalog persistence, and the weak-not-strong sweep."""

import os
import random

import pytest

from latzeta import search
from latzeta.cosetlike import classify
from latzeta.errors import BudgetExceeded
from latzeta.lattice import Lattice, is_isomorphic
from latzeta.search import (
    CatalogStore,
    brute_force_lattice_count,
    catalog_entry,
    classify_catalog,
    enumerate_lattices,
    find_weak_not_strong,
    lattice_count,
    level_entries,
)

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
        brute_force_lattice_count(7)
    with pytest.raises(BudgetExceeded):
        list(enumerate_lattices(12))
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

    serial = search._semilattice_level(6)
    first = search._SEMI_LEVELS[1]
    monkeypatch.setattr(search, "Pool", RecordingPool)
    for cpus, asked, expected in ((2, 10**6, [2]), (3, 2, [2]), (None, 8, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(search, "_SEMI_LEVELS", {1: first})
        sizes.clear()
        assert search._semilattice_level(6, jobs=asked) == serial
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


def test_catalog_entry_fields():
    from latzeta.families import boolean_lattice

    entry = catalog_entry(boolean_lattice(2))
    assert entry.n == 4
    assert entry.atomistic and entry.strong and entry.weak
    assert entry.flags == "asw"
    assert len(entry.series_digest) == 12
    doc = entry.to_doc()
    assert doc["n"] == 4 and doc["strong"] and doc["key"] == entry.key


def test_catalog_flags_match_classify(lattices_by_size):
    # catalog_entry reads strong/weak off the zeta report; classify
    # decides them from the divisor ratios and the series terms.
    for lattices in lattices_by_size.values():
        for lattice in lattices:
            entry = catalog_entry(lattice)
            verdict = classify(lattice)
            assert (entry.strong, entry.weak) == (verdict.strong, verdict.weak)


def test_level_entries_and_summary():
    entries = level_entries(5)
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


def test_catalog_store_roundtrip(tmp_path):
    path = tmp_path / "catalog.txt"
    store = CatalogStore(path)
    assert not store.is_complete(4)
    computed = level_entries(4, store=store)
    assert store.is_complete(4)

    fresh = CatalogStore(path)
    assert fresh.is_complete(4)
    loaded = fresh.entries(4)
    assert [e.key for e in loaded] == [e.key for e in computed]
    assert [e.flags for e in loaded] == [e.flags for e in computed]
    # resumed entries drop the digest (flags only are persisted)
    assert all(e.series_digest is None for e in loaded)


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


def test_weak_not_strong_empty_through_eight():
    found = find_weak_not_strong(8)
    assert set(found) == set(range(2, 9))
    assert all(v == [] for v in found.values())


def test_weak_not_strong_budget():
    with pytest.raises(BudgetExceeded):
        find_weak_not_strong(9, enum_cap=8)


@pytest.mark.long
def test_eleven_element_count():
    assert lattice_count(11, jobs=4) == 37622


def test_enumerated_lattices_are_valid(lattices_by_size):
    # from_covers re-validates; round-trip one level through it
    for lat in lattices_by_size[6]:
        again = Lattice.from_covers(lat.n, lat.covers)
        assert is_isomorphic(again, lat)
