"""Exhaustive enumeration of finite lattices up to isomorphism, with
classification and a line-oriented catalog store.

Each level holds the lattices on n elements, with the bottom as element
0, and is built from the previous one by adding a new atom whose upper
covers form an antichain of elements other than the bottom.  Removing an
atom from a lattice leaves a lattice, since no join of two other
elements can be that atom; so only joins against the new atom need
checking, with the predicate that construction uses,
``lattice._join_failure``.

Duplicates are never generated, by canonical augmentation (McKay,
*Isomorph-free exhaustive generation*, J. Algorithms 1998; Heitzig &
Reinhold, *Counting finite lattices*, Algebra Universalis 2002).  Every
class on n elements has a canonical parent: the class without its
canonical atom ``m*``, the first element of the best leaf ordering among
the atoms with the largest up-set.  Each parent is extended by one
antichain per orbit of its automorphism group, and a child is kept only
if its new atom lies in the automorphism orbit of ``m*``; so every class
is kept exactly once, from one parent and one antichain.

Two tests drop a child before it is labelled: a failed join with the new
atom, and an atom outside the new atom's filter with a larger up-set
(then the new atom cannot be ``m*``).  They run on every antichain
before the orbit reduction.  An automorphism of the parent maps an
antichain's filter onto its image's filter, atoms onto atoms with
up-sets of the same size, and principal filters onto principal filters,
so both tests give one answer on a whole orbit: the survivors are a
union of orbits, and the first survivor of each orbit is the first
member of that orbit, so the representatives are those the reduction
would pick from all antichains.  Only the survivors are mapped through
the generators, and one canonical labelling is made per orbit-distinct
survivor.  That labelling also gives the child's canonical key.  Both
orbit questions, on antichains and on the child's elements, go to
``lattice._orbit_firsts``, the routine that prunes the canonical search;
the second is skipped when ``m*`` is the new atom itself.

A child never recomputes what its parent knows.  A level stores the
class's up-masks and down-masks packed into 16-bit words
(``_pack_masks``), so neither the next level nor ``enumerate_lattices``
transposes them.  The parent's covers and heights are computed once,
and each child's are derived from them (``_child_structure``): adding
an atom below an antichain changes only the covers at the bottom, at
the antichain and at the atom, and the heights inside the antichain's
filter.  The labelling takes them as they are.

A level is a sorted list with one ``bytes`` record per class
(``_record``): the raw canonical key, the packed masks, then the
automorphism group's generators, n bytes each.  The key has one width
per level, so records sort in key order.  ``_extend_parents`` reads
parent records and emits child records, and ``_level`` hands them out
as ``(key, masks, generators)`` through a read-only view.  At n = 10 a
record with its list slot takes about 97 bytes.
"""

import os
import re
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise
from multiprocessing import Pool

from .cosetlike import classify  # noqa: F401 -- bench/spans.py traces search.classify
from .errors import BudgetExceeded, CatalogCorrupt
from .lattice import (
    Lattice,
    _canonical_labelling,
    _iter_bits,
    _join_failure,
    _orbit_firsts,
    _order_structure,
    canonical_key_from_up,
)
from .zeta import engine_pass
from .zeta import zeta_series  # noqa: F401 -- bench/spans.py traces search.zeta_series

__all__ = [
    "DEFAULT_MAX_N",
    "LatticeCatalogEntry",
    "CatalogStore",
    "enumerate_lattices",
    "lattice_count",
    "catalog_entry",
    "level_entries",
    "classify_catalog",
    "find_weak_not_strong",
]

# at most 16: a level stores each mask as a 16-bit word (see _pack_masks)
DEFAULT_MAX_N = 12

# every line of a catalog file, with runs of blanks read as one space
_CATALOG_LINE = re.compile(
    # an entry: key, n, flags; strong implies weak, so no "s" without "w"
    r"((?:[0-9a-f]{2})+) ([0-9]+) ([a-](?:sw|-[w-]))"
    r"|# complete ([0-9]+)"  # the marker that closes level n
    r"|(?!# complete(?: |$))(?:#.*)?"  # a comment or a blank line
)


# ----------------------------------------------------------------------
# lattice levels

_WORD = array("H").itemsize  # bytes per packed mask


def _pack_masks(up, down):
    """The masks of a level entry: the n up-masks, then the n down-masks,
    as 16-bit words in one ``bytes`` object."""
    return array("H", (*up, *down)).tobytes()


def _unpack_masks(masks):
    """``(up, down)``, two tuples of ints, from ``_pack_masks`` output."""
    words = array("H", masks)
    n = len(words) // 2
    return tuple(words[:n]), tuple(words[n:])


def _key_width(n):
    """Bytes in the raw canonical key of a lattice on n elements: one bit
    per pair of elements, padded to whole bytes, as in
    ``lattice._columns_to_hex``."""
    return max((n * (n - 1) // 2 + 7) // 8, 1)


def _record(key, masks, generators):
    """The level record of a class: the raw bytes of the hex ``key``, the
    ``_pack_masks`` output ``masks``, then each generator (a sequence of
    n element ids) as n bytes."""
    return bytes.fromhex(key) + masks + b"".join(map(bytes, generators))


def _record_parts(n, record):
    """The raw key, the packed masks and the list of generators of a
    record on n elements, each ``bytes``."""
    start = _key_width(n)
    end = start + 2 * n * _WORD
    generators = [record[i : i + n] for i in range(end, len(record), n)]
    return record[:start], record[start:end], generators


class _Level(Sequence):
    """Read-only view of a level's records as ``(key, masks,
    generators)`` triples: the hex key, the packed masks and a tuple of
    generators, each ``bytes``.  A triple is made only when read."""

    def __init__(self, n, records):
        self.n = n
        self.records = records

    def __len__(self):
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Level(self.n, self.records[index])
        key, masks, generators = _record_parts(self.n, self.records[index])
        return key.hex(), masks, tuple(generators)


# n -> the lattices on n elements, with the bottom as element 0: a list of
# ``_record`` bytes sorted by key, one per class.  Each record holds the
# class's canonical key, its up- and down-masks packed by ``_pack_masks``
# and permutations of the n elements that generate its automorphism
# group.  ``_level`` reads it through ``_Level``.
_LEVELS = {
    2: [_record(canonical_key_from_up(2, (3, 2), (1, 3)), _pack_masks((3, 2), (1, 3)), ())]
}


def _antichain_masks(n, comp):
    """Nonempty antichain masks of a lattice's elements other than the
    bottom (element 0), via DFS over sorted elements.

    ``comp[i]`` is the bitmask of elements comparable to i (including
    i itself); a set is an antichain iff no member's mask hits another
    member.
    """
    out = []

    def rec(mask, start, forbidden):
        for i in range(start, n):
            bit = 1 << i
            if forbidden & bit:
                continue
            out.append(mask | bit)
            rec(mask | bit, i + 1, forbidden | comp[i])

    rec(0, 1, 0)
    return out


def _admissible_antichains(ups, down, atoms):
    """The antichains that may carry a child's new atom, each mapped to
    its up-closure, in ``_antichain_masks`` order.

    The parent is a lattice on k elements with its bottom as element 0,
    up-masks ``ups``, down-masks ``down`` and atoms ``atoms``.  A new
    atom placed below an antichain of its non-bottom elements is below
    exactly the antichain's filter, so its up-set has one more element
    than that filter.  The antichain is dropped when a parent atom
    outside the filter, which stays an atom of the child, has a larger
    up-set, since the new atom could then not be the canonical atom
    ``m*``; and when ``_join_failure`` finds an element with no join
    with the new atom.  Both tests are invariant under the parent's
    automorphisms (see the module docstring), so the antichains kept
    are a union of whole orbits.
    """
    k = len(ups)
    comp = [ups[i] | down[i] for i in range(k)]
    # larger[t]: the atoms whose up-set has more than t elements
    larger = [0] * (k + 1)
    for a in atoms:
        for t in range(ups[a].bit_count()):
            larger[t] |= 1 << a
    filters = set(ups)
    above_bottom = ups[1:]
    out = {}
    for amask in _antichain_masks(k, comp):
        filt = 0
        for a in _iter_bits(amask):
            filt |= ups[a]
        if larger[filt.bit_count() + 1] & ~filt:
            continue
        if _join_failure(above_bottom, filters, filt) is None:
            out[amask] = filt
    return out


def _orbit_representatives(masks, generators):
    """The first of ``masks`` in each orbit of the group generated by
    ``generators``, which must map the set of masks to itself."""
    images = []
    for g in generators:
        image = {}
        for x in masks:
            y = 0
            for i in _iter_bits(x):
                y |= 1 << g[i]
            image[x] = y
        images.append(image)
    firsts = _orbit_firsts(masks, images)
    return [x for x in masks if firsts[x] == x]


def _child_structure(parent, order, amask, filt):
    """``_order_structure`` of a child, derived from its parent's.

    The child adds a new atom, element k, to a lattice on k elements
    with its bottom as element 0, below the antichain ``amask`` of
    non-bottom elements, whose up-closure is ``filt``.  ``parent`` is the
    parent's ``(covers_up, covers_down, heights)``, and ``order`` lists
    its non-bottom elements in a linear extension.  Only the new atom
    lies between old elements, and only between the bottom and the
    filter, so the covers change in four places: the new atom's upper
    covers are the antichain, the bottom trades the parent atoms inside
    the filter for the new atom, each antichain member trades the bottom
    (if it covered it) for the new atom, and the new atom covers the
    bottom.  Heights change only inside the filter, where they are
    recomputed bottom-up along ``order``.
    """
    parent_up, parent_down, parent_heights = parent
    k = len(parent_heights)
    members = list(_iter_bits(amask))
    covers_up = parent_up.copy()
    covers_up[0] = [a for a in parent_up[0] if not (filt >> a) & 1]
    covers_up[0].append(k)
    covers_up.append(members)
    covers_down = parent_down.copy()
    for a in members:
        covers_down[a] = [b for b in parent_down[a] if b]
        covers_down[a].append(k)
    covers_down.append([0])
    heights = parent_heights.copy()
    heights.append(1)
    for x in order:
        if (filt >> x) & 1:
            heights[x] = 1 + max(map(heights.__getitem__, covers_down[x]))
    return covers_up, covers_down, heights


def _extend_parents(n, parents):
    """The classes on n elements whose canonical parent is among the
    given (n-1)-element lattices, as unsorted level records.

    ``parents`` holds records of level n - 1 (``_record``), each lattice
    with its bottom as element 0.  For each parent, the antichains of
    non-bottom elements whose child passes the join test and the up-set
    size test (``_admissible_antichains``) are reduced to one per
    orbit of the parent's automorphism group, and each of those becomes
    the upper covers of a new atom.  Both tests are invariant under the
    automorphisms, so they keep or drop whole orbits, and running them
    first keeps the first member of every kept orbit while only the
    survivors are mapped through the generators.  A labelled child is
    kept only if its new atom is in the orbit of its canonical atom
    ``m*``.  Each child's down-masks, covers and heights are derived
    from its parent's, which are computed once per parent.  The key and
    generators are those of the child's labelling.
    """
    out = []
    k = n - 1
    newbit = 1 << k
    full = (1 << n) - 1
    for record in parents:
        _, masks, generators = _record_parts(k, record)
        ups, down = _unpack_masks(masks)
        structure = _order_structure(k, ups, down)
        # ordering by down-set size is a linear extension
        order = sorted(range(1, k), key=lambda v: down[v].bit_count())
        atoms = structure[0][0]
        above_bottom = ups[1:]
        admissible = _admissible_antichains(ups, down, atoms)
        for amask in _orbit_representatives(list(admissible), generators):
            filt = admissible[amask]
            child = (full,) + above_bottom + (filt | newbit,)
            # the new atom is below exactly the elements of its filter
            child_down = [
                d | newbit if (filt >> i) & 1 else d for i, d in enumerate(down)
            ]
            child_down.append(newbit | 1)
            key, perm, child_gens = _canonical_labelling(
                n, child, child_down, _child_structure(structure, order, amask, filt)
            )
            # the child's atoms with the new atom's up-set size
            size = filt.bit_count() + 1
            ties = {k} | {
                a for a in atoms if ups[a].bit_count() == size and not (filt >> a) & 1
            }
            star = next(x for x in perm if x in ties)
            if star != k:
                orbit = _orbit_firsts(range(n), child_gens)
                if orbit[star] != orbit[k]:
                    continue
            out.append(_record(key, _pack_masks(child, child_down), child_gens))
    return out


def _extend_chunk(args):
    return _extend_parents(*args)


def _level(n, *, jobs=1):
    """Lattices on n elements as a ``_Level``: a sequence of
    ``(key, masks, generators)`` sorted by key.

    ``jobs`` worker processes build the missing levels; it must be at
    least 1 and is lowered to the CPU count.  Each class comes from one
    parent, so its representative does not depend on ``jobs``; a key
    met twice means the augmentation is broken and raises
    ``RuntimeError``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    for size in range(3, n + 1):
        if size in _LEVELS:
            continue
        parents = _LEVELS[size - 1]
        if jobs > 1 and len(parents) >= 4 * jobs:
            chunks = [(size, parents[i::jobs]) for i in range(jobs)]
            with Pool(jobs) as pool:
                children = [c for part in pool.map(_extend_chunk, chunks) for c in part]
        else:
            children = _extend_parents(size, parents)
        # every key has the same width, so records sort in key order
        children.sort()
        width = _key_width(size)
        for before, after in pairwise(children):
            if before[:width] == after[:width]:
                raise RuntimeError(f"level {size}: class {before[:width].hex()} generated twice")
        _LEVELS[size] = children
    return _Level(n, _LEVELS[n])


def _check_enumeration_cap(n):
    if n < 2:
        raise ValueError("lattices need at least 2 elements")
    if n > DEFAULT_MAX_N:
        raise BudgetExceeded(
            f"enumeration capped at n = {DEFAULT_MAX_N} (asked for {n})"
        )


def enumerate_lattices(n, *, jobs=1):
    """Yield one lattice per isomorphism class on n elements, for
    2 <= n <= ``DEFAULT_MAX_N``.

    Deterministic order (ascending canonical key); every emitted object
    passes full construction-time lattice validation.  The lattices are
    built by canonical augmentation (see the module docstring), and each
    one's ``canonical_form`` is the key of the enumerator's own
    labelling rather than searched again.  Its masks and key are read
    straight from the level's record, and its down-masks are not
    transposed again.
    """
    _check_enumeration_cap(n)
    for record in _level(n, jobs=jobs).records:
        key, masks, _ = _record_parts(n, record)
        lattice = Lattice._from_up(n, *_unpack_masks(masks))
        lattice._canonical_key = key.hex()
        yield lattice


def lattice_count(n, *, jobs=1):
    """Number of isomorphism classes of lattices on n elements."""
    _check_enumeration_cap(n)
    return len(_level(n, jobs=jobs))


# ----------------------------------------------------------------------
# classification and catalog


@dataclass(frozen=True, slots=True)
class LatticeCatalogEntry:
    """One isomorphism class with its classification flags."""

    key: str
    n: int
    atomistic: bool
    strong: bool
    weak: bool

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
        }


def catalog_entry(lattice):
    """Flags of one lattice; ``strong``/``weak`` are the verdicts of one
    engine pass over the join-irreducibles, read without their witnesses
    and without building the series."""
    report = engine_pass(lattice, lattice.join_irreducibles())
    return LatticeCatalogEntry(
        key=lattice.canonical_form(),
        n=lattice.n,
        atomistic=lattice.is_atomistic(),
        strong=report.strongly_coset_like,
        weak=report.ordinary,
    )


class CatalogStore:
    """Catalog persistence: lines ``<canonical-hex> <n> <flags>`` with a
    ``# complete <n>`` marker once a level is fully enumerated.

    Levels without a marker are discarded on load, so an interrupted
    run resumes by redoing only its last level and the regenerated file
    is byte-identical to an uninterrupted one (entries are kept sorted,
    writes go through a temp file).  A line that is neither an entry, a
    marker nor a ``#`` comment raises ``CatalogCorrupt``.  With
    ``path=None`` the levels are kept in memory only.  Each level maps
    key to flags, and every entry with the same flags shares one
    interned string, so a level holds at most 8 flag objects.
    """

    def __init__(self, path=None):
        self.path = None if path is None else str(path)
        self._levels = {}
        self._load()

    def _load(self):
        if self.path is None or not os.path.exists(self.path):
            return
        pending = {}
        # a non-ASCII byte decodes to U+FFFD, which no entry or marker matches
        with open(self.path, encoding="ascii", errors="replace") as handle:
            for lineno, line in enumerate(handle, start=1):
                match = _CATALOG_LINE.fullmatch(" ".join(line.split()))
                if match is None:
                    raise CatalogCorrupt(
                        f"{self.path}, line {lineno}: malformed catalog line"
                        f" {line.strip()!r}"
                    )
                key, n, flags, level = match.groups()
                if key is not None:
                    pending.setdefault(int(n), {})[key] = sys.intern(flags)
                elif level is not None:
                    self._levels[int(level)] = pending.pop(int(level), {})
        # drop entries for levels that never saw their marker

    def is_complete(self, n):
        return n in self._levels

    def complete_levels(self):
        return sorted(self._levels)

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
                )
            )
        return out

    def write_level(self, n, entries):
        self._levels[n] = {e.key: sys.intern(e.flags) for e in entries}
        if self.path is None:
            return
        # A fresh temp file beside the catalog: O_EXCL never clobbers an
        # existing file or another writer's temp file, and mode 0666 less
        # the umask gives the catalog the permissions open() would.
        tmp = f"{self.path}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                for level, data in sorted(self._levels.items()):
                    for key in sorted(data):
                        handle.write(f"{key} {level} {data[key]}\n")
                    handle.write(f"# complete {level}\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise


def level_entries(n, *, store=None, jobs=1):
    """Catalog entries for every isomorphism class on n elements, sorted
    by canonical key; served from ``store`` when that level is already
    complete, recomputed (and persisted) otherwise."""
    if store is not None and store.is_complete(n):
        return store.entries(n)
    entries = [
        catalog_entry(lattice)
        for lattice in enumerate_lattices(n, jobs=jobs)
    ]
    entries.sort(key=lambda e: e.key)
    if store is not None:
        store.write_level(n, entries)
    return entries


def classify_catalog(n, *, store=None, jobs=1):
    """Classification summary for all lattices on n elements."""
    entries = level_entries(n, store=store, jobs=jobs)
    return {
        "n": n,
        "total": len(entries),
        "strong": sum(e.strong for e in entries),
        "weak": sum(e.weak for e in entries),
        "atomistic": sum(e.atomistic for e in entries),
        "weak_not_strong": sum(e.weak and not e.strong for e in entries),
    }


def find_weak_not_strong(max_n, *, store=None, jobs=1, atomistic_only=False):
    """Weakly-but-not-strongly coset-like classes, grouped by size.

    Returns {n: [entries]} for 2 <= n <= max_n <= ``DEFAULT_MAX_N``; with
    ``atomistic_only`` the lists keep only atomistic classes (expected
    empty through the sizes this artifact can sweep).
    """
    _check_enumeration_cap(max_n)
    found = {}
    for n in range(2, max_n + 1):
        found[n] = [
            e
            for e in level_entries(n, store=store, jobs=jobs)
            if e.weak and not e.strong and (e.atomistic or not atomistic_only)
        ]
    return found
