"""Exhaustive enumeration of finite lattices up to isomorphism, with
classification and a line-oriented catalog store.

The enumerator walks join-semilattices-with-top: removing the bottom of
a lattice on n elements leaves exactly such an object on n - 1
elements, and conversely adjoining a bottom to one yields a lattice, so
the isomorphism classes correspond one to one.  Each level is built
from the previous one by adding a new minimal element whose upper
covers form an antichain; only joins against the new element need
checking, and duplicates are discarded by canonical key.

An independent brute-force oracle (all naturally labeled posets,
filtered by a direct lattice test) cross-checks the counts for small n.
"""

import hashlib
import os
from dataclasses import dataclass
from multiprocessing import Pool

from .cosetlike import classify  # noqa: F401 -- bench/spans.py traces search.classify
from .errors import BudgetExceeded
from .lattice import (
    Lattice,
    _covers_from_up,
    _transpose_masks,
    canonical_key_from_up,
)
from .zeta import zeta_series

__all__ = [
    "DEFAULT_MAX_N",
    "LatticeCatalogEntry",
    "CatalogStore",
    "enumerate_lattices",
    "lattice_count",
    "brute_force_lattice_count",
    "catalog_entry",
    "level_entries",
    "classify_catalog",
    "find_weak_not_strong",
]

DEFAULT_MAX_N = 11


# ----------------------------------------------------------------------
# join-semilattice levels

# m -> list of (canonical_key, up_masks) sorted by key; level m holds the
# semilattices on m elements, i.e. the lattices on m + 1 minus bottoms.
_SEMI_LEVELS = {1: [(canonical_key_from_up(1, [1]), (1,))]}


def _antichain_masks(m, comp):
    """Nonempty antichain masks of a poset, via DFS over sorted elements.

    ``comp[i]`` is the bitmask of elements comparable to i (including
    i itself); a set is an antichain iff no member's mask hits another
    member.
    """
    out = []

    def rec(mask, start, forbidden):
        for i in range(start, m):
            bit = 1 << i
            if forbidden & bit:
                continue
            out.append(mask | bit)
            rec(mask | bit, i + 1, forbidden | comp[i])

    rec(0, 0, 0)
    return out


def _extend_parents(m, parents):
    """All one-minimal-element extensions of the given (m-1)-element
    semilattices, deduplicated by canonical key.

    Returns {key: up_masks} keeping the lexicographically least
    representative per class, which makes the result independent of how
    the parents were chunked across workers.
    """
    out = {}
    k = m - 1
    newbit = 1 << k
    for ups in parents:
        down = _transpose_masks(k, list(ups))
        comp = [ups[i] | down[i] for i in range(k)]
        for amask in _antichain_masks(k, comp):
            filt = 0
            rest = amask
            while rest:
                low = rest & -rest
                filt |= ups[low.bit_length() - 1]
                rest ^= low
            # The new element joins with a to the least element of
            # filt & up[a]; reject the extension if some pair has no
            # least common upper bound.
            ok = True
            for a in range(k):
                if (1 << a) & filt:
                    continue  # a is above the new element; join is a itself
                common = filt & ups[a]
                if not common:
                    ok = False
                    break
                rest = common
                found = False
                while rest:
                    low = rest & -rest
                    z = low.bit_length() - 1
                    if ups[z] & common == common:
                        found = True
                        break
                    rest ^= low
                if not found:
                    ok = False
                    break
            if not ok:
                continue
            child = ups + (filt | newbit,)
            key = canonical_key_from_up(m, list(child))
            prev = out.get(key)
            if prev is None or child < prev:
                out[key] = child
    return out


def _extend_chunk(args):
    return _extend_parents(*args)


def _semilattice_level(m, *, jobs=1):
    """Semilattices on m elements as a sorted list of (key, up_masks).

    ``jobs`` worker processes build the missing levels; it must be at
    least 1 and is lowered to the CPU count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    for level in range(2, m + 1):
        if level in _SEMI_LEVELS:
            continue
        parents = [ups for _, ups in _SEMI_LEVELS[level - 1]]
        if jobs > 1 and len(parents) >= 4 * jobs:
            chunks = [
                (level, parents[i::jobs]) for i in range(jobs)
            ]
            merged = {}
            with Pool(jobs) as pool:
                for part in pool.map(_extend_chunk, chunks):
                    for key, child in part.items():
                        prev = merged.get(key)
                        if prev is None or child < prev:
                            merged[key] = child
        else:
            merged = _extend_parents(level, parents)
        _SEMI_LEVELS[level] = sorted(merged.items())
    return _SEMI_LEVELS[m]


def _lattice_from_semilattice(ups):
    """Adjoin a bottom below the minimal elements of a semilattice."""
    m = len(ups)
    down = _transpose_masks(m, list(ups))
    covers = [(a + 1, b + 1) for a, b in _covers_from_up(m, list(ups), down)]
    for x in range(m):
        if down[x] == 1 << x:  # minimal in the semilattice
            covers.append((0, x + 1))
    return Lattice.from_covers(m + 1, covers)


def enumerate_lattices(n, *, jobs=1, max_n=DEFAULT_MAX_N):
    """Yield one lattice per isomorphism class on n elements.

    Deterministic order (ascending canonical key of the bottomless
    semilattice); every emitted object passes full construction-time
    lattice validation.
    """
    if n < 2:
        raise ValueError("lattices need at least 2 elements")
    if n > max_n:
        raise BudgetExceeded(f"enumeration capped at n = {max_n} (asked for {n})")
    for _, ups in _semilattice_level(n - 1, jobs=jobs):
        yield _lattice_from_semilattice(ups)


def lattice_count(n, *, jobs=1, max_n=DEFAULT_MAX_N):
    """Number of isomorphism classes of lattices on n elements."""
    if n < 2:
        raise ValueError("lattices need at least 2 elements")
    if n > max_n:
        raise BudgetExceeded(f"enumeration capped at n = {max_n} (asked for {n})")
    return len(_semilattice_level(n - 1, jobs=jobs))


# ----------------------------------------------------------------------
# independent brute-force oracle


def _naturally_labeled_posets(n):
    """Up-mask tuples of every naturally labeled poset on n points.

    Element k is inserted above an order ideal of the elements before
    it, which produces each naturally labeled poset exactly once (the
    ideal is forced: it is the new element's strict down-set).
    """
    def ideals(k, down):
        found = []
        for mask in range(1 << k):
            closed = True
            rest = mask
            while rest:
                low = rest & -rest
                if down[low.bit_length() - 1] & ~mask:
                    closed = False
                    break
                rest ^= low
            if closed:
                found.append(mask)
        return found

    def rec(k, up, down):
        if k == n:
            yield tuple(up)
            return
        bit = 1 << k
        for ideal in ideals(k, down):
            new_up = list(up)
            rest = ideal
            while rest:
                low = rest & -rest
                new_up[low.bit_length() - 1] |= bit
                rest ^= low
            new_up.append(bit)
            yield from rec(k + 1, new_up, down + [ideal | bit])

    yield from rec(0, [], [])


def _is_lattice_masks(n, up):
    """Direct lattice test on up-masks: every pair needs a least common
    upper bound and a greatest common lower bound."""
    down = _transpose_masks(n, list(up))
    for x in range(n):
        for y in range(x + 1, n):
            common = up[x] & up[y]
            if not _has_least(common, up):
                return False
            common = down[x] & down[y]
            if not _has_greatest(common, down):
                return False
    return True


def _has_least(common, up):
    rest = common
    while rest:
        low = rest & -rest
        if up[low.bit_length() - 1] & common == common:
            return True
        rest ^= low
    return False


def _has_greatest(common, down):
    rest = common
    while rest:
        low = rest & -rest
        if down[low.bit_length() - 1] & common == common:
            return True
        rest ^= low
    return False


def brute_force_lattice_count(n, *, max_n=6):
    """Isomorphism classes of lattices on n elements, the slow way.

    Enumerates every naturally labeled poset on n points, keeps those
    passing the direct pairwise join/meet test, and deduplicates by
    canonical key.  Exists purely to cross-check the semilattice
    enumerator on small n.
    """
    if n < 2:
        raise ValueError("lattices need at least 2 elements")
    if n > max_n:
        raise BudgetExceeded(f"brute force capped at n = {max_n}")
    keys = set()
    for up in _naturally_labeled_posets(n):
        if _is_lattice_masks(n, list(up)):
            keys.add(canonical_key_from_up(n, list(up)))
    return len(keys)


# ----------------------------------------------------------------------
# classification and catalog


@dataclass(frozen=True)
class LatticeCatalogEntry:
    """One isomorphism class with its classification flags."""

    key: str
    n: int
    atomistic: bool
    strong: bool
    weak: bool
    series_digest: str | None  # None when reloaded from a flags-only store

    @property
    def flags(self):
        return (
            ("a" if self.atomistic else "-")
            + ("s" if self.strong else "-")
            + ("w" if self.weak else "-")
        )

    def to_doc(self):
        return {
            "key": self.key,
            "n": self.n,
            "atomistic": self.atomistic,
            "strong": self.strong,
            "weak": self.weak,
            "series_digest": self.series_digest,
        }


def catalog_entry(lattice):
    """Flags and series digest of one lattice from a single engine pass;
    ``strongly_coset_like``/``ordinary`` are ``classify``'s strong/weak."""
    report = zeta_series(lattice)
    digest = hashlib.sha256(report.series.to_json().encode()).hexdigest()[:12]
    return LatticeCatalogEntry(
        key=lattice.canonical_form(),
        n=lattice.n,
        atomistic=lattice.is_atomistic(),
        strong=report.strongly_coset_like,
        weak=report.ordinary,
        series_digest=digest,
    )


class CatalogStore:
    """Catalog persistence: lines ``<canonical-hex> <n> <flags>`` with a
    ``# complete <n>`` marker once a level is fully enumerated.

    Levels without a marker are discarded on load, so an interrupted
    run resumes by redoing only its last level and the regenerated file
    is byte-identical to an uninterrupted one (entries are kept sorted,
    writes go through a temp file).
    """

    def __init__(self, path):
        self.path = str(path)
        self._levels = {}
        self._complete = set()
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        pending = {}
        with open(self.path, encoding="ascii") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line.split()
                    if parts[:2] == ["#", "complete"]:
                        level = int(parts[2])
                        self._complete.add(level)
                        self._levels[level] = pending.pop(level, {})
                    continue
                key, n, flags = line.split()
                pending.setdefault(int(n), {})[key] = flags
        # drop entries for levels that never saw their marker

    def is_complete(self, n):
        return n in self._complete

    def complete_levels(self):
        return sorted(self._complete)

    def entries(self, n):
        level = self._levels.get(n, {})
        out = []
        for key in sorted(level):
            flags = level[key]
            out.append(
                LatticeCatalogEntry(
                    key=key,
                    n=n,
                    atomistic=flags[0] == "a",
                    strong=flags[1] == "s",
                    weak=flags[2] == "w",
                    series_digest=None,
                )
            )
        return out

    def write_level(self, n, entries):
        self._levels[n] = {e.key: e.flags for e in entries}
        self._complete.add(n)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="ascii") as handle:
            for level in sorted(self._levels):
                if level not in self._complete:
                    continue
                data = self._levels[level]
                for key in sorted(data):
                    handle.write(f"{key} {level} {data[key]}\n")
                handle.write(f"# complete {level}\n")
        os.replace(tmp, self.path)


def level_entries(n, *, store=None, jobs=1, max_n=DEFAULT_MAX_N):
    """Catalog entries for every isomorphism class on n elements, sorted
    by canonical key; served from ``store`` when that level is already
    complete, recomputed (and persisted) otherwise."""
    if store is not None and store.is_complete(n):
        return store.entries(n)
    entries = [
        catalog_entry(lattice)
        for lattice in enumerate_lattices(n, jobs=jobs, max_n=max_n)
    ]
    entries.sort(key=lambda e: e.key)
    if store is not None:
        store.write_level(n, entries)
    return entries


def classify_catalog(n, *, store=None, jobs=1, max_n=DEFAULT_MAX_N):
    """Classification summary for all lattices on n elements."""
    entries = level_entries(n, store=store, jobs=jobs, max_n=max_n)
    return {
        "n": n,
        "total": len(entries),
        "strong": sum(e.strong for e in entries),
        "weak": sum(e.weak for e in entries),
        "atomistic": sum(e.atomistic for e in entries),
        "weak_not_strong": sum(e.weak and not e.strong for e in entries),
    }


def find_weak_not_strong(max_n, *, store=None, jobs=1, atomistic_only=False,
                         enum_cap=DEFAULT_MAX_N):
    """Weakly-but-not-strongly coset-like classes, grouped by size.

    Returns {n: [entries]} for 2 <= n <= max_n; with ``atomistic_only``
    the lists keep only atomistic classes (expected empty through the
    sizes this artifact can sweep).
    """
    if max_n > enum_cap:
        raise BudgetExceeded(f"enumeration capped at n = {enum_cap}")
    found = {}
    for n in range(2, max_n + 1):
        found[n] = [
            e
            for e in level_entries(n, store=store, jobs=jobs, max_n=enum_cap)
            if e.weak and not e.strong and (e.atomistic or not atomistic_only)
        ]
    return found
