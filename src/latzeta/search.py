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
filter.  The labelling takes them as they are.  So are a kept child's
catalog flags: mu(x, top), the join-irreducibles and the atoms are
computed once per parent, and the new atom changes them only at itself,
the bottom and the antichain (``_class_flags``).

A level is a sorted list with one ``bytes`` record per class
(``_record``): the raw canonical key, the three characters of the
catalog flags, the packed masks, then the automorphism group's
generators, n bytes each.  The key has one width per level, so records
sort in key order.  ``_extend_parents`` reads parent records and emits
child records, and ``_level`` hands them out as ``(key, masks,
generators)`` through a read-only view.  The levels are the in-memory
catalog: ``level_entries`` and the census read keys and flags from the
records, or from a ``CatalogStore`` file, and build no ``Lattice``.
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
    _mobius_vector,
    _orbit_firsts,
    _order_structure,
    canonical_key_from_up,
)
from .zeta import _count_pass
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
_FLAGS = 3  # bytes of flag text per record


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


def _record(key, flags, masks, generators):
    """The level record of a class: the raw bytes of the hex ``key``, the
    flag text ``flags``, the ``_pack_masks`` output ``masks``, then each
    generator (a sequence of n element ids) as n bytes."""
    return bytes.fromhex(key) + flags.encode() + masks + b"".join(map(bytes, generators))


def _record_parts(n, record):
    """The raw key, the flag text, the packed masks and the list of
    generators of a record on n elements, each ``bytes``."""
    width = _key_width(n)
    start = width + _FLAGS
    end = start + 2 * n * _WORD
    generators = [record[i : i + n] for i in range(end, len(record), n)]
    return record[:width], record[width:start], record[start:end], generators


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
        key, _, masks, generators = _record_parts(self.n, self.records[index])
        return key.hex(), masks, tuple(generators)


# n -> the lattices on n elements, with the bottom as element 0: a list of
# ``_record`` bytes sorted by key, one per class.  Each record holds the
# class's canonical key, its catalog flags, its up- and down-masks packed
# by ``_pack_masks`` and permutations of the n elements that generate its
# automorphism group.  ``_level`` reads it through ``_Level``.
_LEVELS = {
    2: [_record(canonical_key_from_up(2, (3, 2), (1, 3)), "asw", _pack_masks((3, 2), (1, 3)), ())]
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


def _class_flags(mu, down, irreducibles, atoms):
    """The flags of a lattice with its bottom as element 0, from mu(x,
    top), its down-masks and the masks of its join-irreducibles and its
    atoms: the verdicts of the engine pass over the join-irreducibles."""
    _, _, weak, strong = _count_pass(down, 0, mu, irreducibles)
    return _flag_text(irreducibles == atoms, strong, weak)


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
    ``m*``.  Each child's down-masks, covers, heights and, once kept,
    flags are derived from its parent's, which are computed once per
    parent.  The key and generators are those of the child's labelling.
    """
    out = []
    k = n - 1
    newbit = 1 << k
    full = (1 << n) - 1
    for record in parents:
        _, _, masks, generators = _record_parts(k, record)
        ups, down = _unpack_masks(masks)
        structure = _order_structure(k, ups, down)
        # the top is the element whose principal ideal is everything
        mu = _mobius_vector(ups, full >> 1, down.index(full >> 1))
        # ordering by down-set size is a linear extension
        order = sorted(range(1, k), key=lambda v: down[v].bit_count())
        atoms = structure[0][0]
        atom_mask = sum(1 << a for a in atoms)
        irreducibles = sum(1 << x for x, below in enumerate(structure[1]) if len(below) == 1)
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
            child_structure = _child_structure(structure, order, amask, filt)
            key, perm, child_gens = _canonical_labelling(n, child, child_down, child_structure)
            # the antichain's atoms, the parent atoms in the filter, stop being atoms;
            # m* is the first of the atoms with the new atom's up-set size
            child_atoms = (atom_mask & ~filt) | newbit
            size = filt.bit_count() + 1
            star = next(x for x in perm if (child_atoms >> x) & 1 and child[x].bit_count() == size)
            if star != k:
                orbit = _orbit_firsts(range(n), child_gens)
                if orbit[star] != orbit[k]:
                    continue
            # mu(x, top) stays above the bottom, whose mu drops by the atom's; the
            # antichain's non-atoms gain a second lower cover
            atom = -sum(mu[y] for y in _iter_bits(filt))
            child_irr = (irreducibles & ~(amask & ~atom_mask)) | newbit
            flags = _class_flags((mu[0] - atom, *mu[1:], atom), child_down, child_irr, child_atoms)
            out.append(_record(key, flags, _pack_masks(child, child_down), child_gens))
    return out


def _extend_chunk(args):
    return _extend_parents(*args)


def _level(n, *, jobs=1):
    """Lattices on n elements, 2 <= n <= ``DEFAULT_MAX_N``, as a
    ``_Level``: a sequence of ``(key, masks, generators)`` sorted by key.

    ``jobs`` worker processes build the missing levels; it must be at
    least 1 and is lowered to the CPU count.  Each class comes from one
    parent, so its representative does not depend on ``jobs``; a key
    met twice means the augmentation is broken and raises
    ``RuntimeError``.
    """
    _check_enumeration_cap(n)
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
    for record in _level(n, jobs=jobs).records:
        key, _, masks, _ = _record_parts(n, record)
        lattice = Lattice._from_up(n, *_unpack_masks(masks))
        lattice._canonical_key = key.hex()
        yield lattice


def lattice_count(n, *, jobs=1):
    """Number of isomorphism classes of lattices on n elements."""
    return len(_level(n, jobs=jobs))


# ----------------------------------------------------------------------
# classification and catalog


def _flag_text(atomistic, strong, weak):
    """Flag text, as records, stores and files hold it: ``a``, ``s``,
    ``w``, each ``-`` when false."""
    return ("a" if atomistic else "-") + ("s" if strong else "-") + ("w" if weak else "-")


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
        return _flag_text(self.atomistic, self.strong, self.weak)


def catalog_entry(key, n, flags):
    """The entry of the class with hex key ``key`` on n elements, decoded
    from its flag text ``flags``."""
    return LatticeCatalogEntry(key, n, flags[0] == "a", flags[1] == "s", flags[2] == "w")


class CatalogStore:
    """Catalog file at ``path``: lines ``<canonical-hex> <n> <flags>``
    with a ``# complete <n>`` marker once a level is fully enumerated.

    Levels without a marker are discarded on load, so an interrupted
    run resumes by redoing only its last level and the regenerated file
    is byte-identical to an uninterrupted one (entries are kept sorted,
    writes go through a temp file).  A line that is neither an entry, a
    marker nor a ``#`` comment, or an entry whose key is not
    ``_key_width(n)`` bytes wide, raises ``CatalogCorrupt``.  Each level
    maps key to flags, and every entry with the same flags shares one
    interned string, so a level holds at most 8 flag objects.
    """

    def __init__(self, path):
        self.path = str(path)
        self._levels = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        pending = {}
        # a non-ASCII byte decodes to U+FFFD, which no entry or marker matches
        with open(self.path, encoding="ascii", errors="replace") as handle:
            for lineno, line in enumerate(handle, start=1):
                match = _CATALOG_LINE.fullmatch(" ".join(line.split()))
                key, n, flags, level = match.groups() if match else (None,) * 4
                # an entry's key has the width of every key on its level
                if match is None or key and len(key) != 2 * _key_width(int(n)):
                    raise CatalogCorrupt(
                        f"{self.path}, line {lineno}: malformed catalog line"
                        f" {line.strip()!r}"
                    )
                if key is not None:
                    pending.setdefault(int(n), {})[key] = sys.intern(flags)
                elif level is not None:
                    self._levels[int(level)] = pending.pop(int(level), {})
        # drop entries for levels that never saw their marker

    def is_complete(self, n):
        return n in self._levels

    def complete_levels(self):
        return sorted(self._levels)

    def flags(self, n):
        """``(key, flags)`` of a complete level n, in key order."""
        level = self._levels.get(n, {})
        return ((key, level[key]) for key in sorted(level))

    def entries(self, n):
        return [catalog_entry(key, n, flags) for key, flags in self.flags(n)]

    def write_level(self, n, pairs):
        self._levels[n] = {key: sys.intern(flags) for key, flags in pairs}
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


def _level_flags(n, store, jobs):
    """``(key, flags)`` of every class on n elements, in key order: from
    ``store`` when that level is complete there, else from the records,
    then written to ``store``; the level is built before this returns."""
    if store is None or not store.is_complete(n):
        parts = (_record_parts(n, record) for record in _level(n, jobs=jobs).records)
        pairs = ((key.hex(), flags.decode()) for key, flags, _, _ in parts)
        if store is None:
            return pairs
        store.write_level(n, pairs)
    return store.flags(n)


def level_entries(n, *, store=None, jobs=1):
    """Catalog entries for every isomorphism class on n elements, in key
    order, each made as it is read (see ``_level_flags``)."""
    return (catalog_entry(key, n, flags) for key, flags in _level_flags(n, store, jobs))


def classify_catalog(n, *, store=None, jobs=1):
    """Classification summary for all lattices on n elements.  It sums
    decoded entries, not flag strings, only because the ``census``
    benchmark times each ``catalog_entry`` call as one operation."""
    total = strong = weak = atomistic = weak_not_strong = 0
    for e in level_entries(n, store=store, jobs=jobs):
        total += 1
        strong += e.strong
        weak += e.weak
        atomistic += e.atomistic
        weak_not_strong += e.weak and not e.strong
    return dict(n=n, total=total, strong=strong, weak=weak, atomistic=atomistic,
                weak_not_strong=weak_not_strong)


def find_weak_not_strong(max_n, *, store=None, jobs=1, atomistic_only=False):
    """Weakly-but-not-strongly coset-like classes, grouped by size.

    Returns {n: [entries]} for 2 <= n <= max_n <= ``DEFAULT_MAX_N``; with
    ``atomistic_only`` the lists keep only atomistic classes, the first
    of which is on 12 elements (``d22104080f07c3ffc0``).
    """
    _check_enumeration_cap(max_n)
    found = {}
    for n in range(2, max_n + 1):
        found[n] = [
            catalog_entry(key, n, flags)
            for key, flags in _level_flags(n, store, jobs)
            if flags[1:] == "-w" and (flags[0] == "a" or not atomistic_only)
        ]
    return found
