"""Finite bounded lattices as explicit order tables.

Conventions used throughout:

- Elements are dense integer ids ``0 .. n-1``.  The labelling carries no
  meaning; ``canonical_form`` is the only notion of identity across
  relabellings.
- The order is stored as bitmasks: ``up[x]`` has bit ``y`` set iff
  ``x <= y``, and ``down[y]`` has bit ``x`` set iff ``x <= y``.
- There are two public constructors.  ``Lattice.from_sets`` takes
  distinct ground-set bitmasks ordered by inclusion; the families, the
  lower reduced product, subgroup and coset lattices and generated
  sublattices are built with it.  ``Lattice.from_covers`` takes a
  below/above relation and checks it is acyclic; it serves input that
  arrives as covers (``.lat`` files and fixtures).
  Both check the element count against ``DEFAULT_MAX_ELEMENTS`` before
  they build the principal filters, and both hand those to one kernel,
  ``Lattice._from_up``, as does ``search.enumerate_lattices`` with the
  up-masks a census record stores.  The kernel transposes the filters
  into the principal ideals itself and validates eagerly: existence of a
  unique bottom and top, and existence of the join of every element with
  every join-irreducible (an element whose strict principal ideal is
  itself a principal ideal).  That suffices for all joins, hence all
  meets (see ``Lattice._check_joins``), so a ``Lattice`` that exists is
  a lattice.  The census enumerator checks each new element with the
  same predicate, ``_join_failure``.
- A ``Lattice`` stores only the masks, the bounds, the filter and ideal
  indexes and its join-irreducibles; every other order fact is an index
  lookup.  The cover relation and heights of an order are computed from
  its masks by ``_order_structure``, which the ``covers`` property and
  the canonical labelling call on demand.  The census enumerator calls
  it once per parent and derives each child's covers and heights from
  the parent's (``search._child_structure``), handing them to the
  labelling, which then computes none.

Instances are immutable apart from internal memo caches (Moebius vectors
and the canonical key).  Each cache value is fully computed before it is
stored, so a racing second computation only repeats work; handing a
constructed lattice to several threads is safe.
"""

from __future__ import annotations

from .errors import (
    BottomHasNoIrreducibles,
    CyclicCovers,
    DegenerateLattice,
    NoBoundedStructure,
    NotALattice,
    NotComparable,
    SizeLimitExceeded,
)

#: Element cap of every constructor, checked before the filters are built.
DEFAULT_MAX_ELEMENTS = 50_000


def _iter_bits(mask):
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose_masks(n, rows):
    """Transpose a list of n-bit rows (up-masks <-> down-masks)."""
    cols = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in _iter_bits(row):
            cols[j] |= bit
    return cols


def _order_structure(n, up, down):
    """``(covers_up, covers_down, heights)`` of the order given by up/down
    masks: each element's upper and lower covers, ascending, and its
    longest-path height."""
    covers_up = [[] for _ in range(n)]
    covers_down = [[] for _ in range(n)]
    for a in range(n):
        strict = up[a] & ~(1 << a)
        for b in _iter_bits(strict):
            if not (strict & down[b] & ~(1 << b)):
                covers_up[a].append(b)
                covers_down[b].append(a)
    # ordering by down-set size is a linear extension, so lower covers
    # are always finalised first
    heights = [0] * n
    for x in sorted(range(n), key=lambda v: down[v].bit_count()):
        if covers_down[x]:
            heights[x] = 1 + max(heights[c] for c in covers_down[x])
    return covers_up, covers_down, heights


def _join_failure(up, filters, mask):
    """The first element ``x`` of ``up`` that has no join with the element
    whose principal filter is ``mask``, or None; the join exists iff
    ``up[x] & mask`` is in ``filters``, the principal filters.
    ``Lattice._check_joins`` asks this for each join-irreducible, and the
    census enumerator for each new atom, passing its strict filter and
    the up-masks of the elements other than the bottom, none of which
    lies below the atom."""
    for x, ux in enumerate(up):
        if ux & mask not in filters:
            return x
    return None


def _mobius_vector(up, members, target):
    """Tuple ``v`` with ``v[x] = mu(x, target)`` for ``x`` in
    ``members``, the ideal of ``target`` in the order with principal
    filters ``up``, and ``None`` elsewhere, by the defining recursion.
    The interval below ``target`` is walked by ascending filter size:
    ``x < y`` implies ``|up[y]| < |up[x]|``, so each ``y`` comes after
    every element above it."""
    vals = [None] * len(up)
    vals[target] = 1
    below = _iter_bits(members ^ (1 << target))
    for y in sorted(below, key=lambda v: up[v].bit_count()):
        bit = 1 << y
        acc = 0
        m = up[y] & members & ~bit
        while m:
            low = m & -m
            acc += vals[low.bit_length() - 1]
            m ^= low
        vals[y] = -acc
    return tuple(vals)


def _check_count(n):
    """Reject an element count that cannot make a lattice or is over
    ``DEFAULT_MAX_ELEMENTS``."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"element count must be a positive integer, got {n!r}")
    if n == 1:
        raise DegenerateLattice("the one-element order has bottom == top")
    if n > DEFAULT_MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"{n} elements exceed the cap of {DEFAULT_MAX_ELEMENTS}"
        )


class Lattice:
    """A finite bounded lattice over elements ``0 .. n-1``."""

    __slots__ = (
        "n",
        "up",
        "down",
        "bottom",
        "top",
        "_filter_index",
        "_ideal_index",
        "_irreducibles",
        "_irr_mask",
        "_mobius_cache",
        "_canonical_key",
    )

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use Lattice.from_covers(...) or Lattice.from_sets(...)")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_covers(cls, n, covers):
        """Build and validate a lattice from a below/above relation.

        ``covers`` is any iterable of pairs ``(a, b)`` meaning ``a < b``;
        it does not have to be reduced: only its transitive closure is
        kept, and the ``covers`` property derives the transitive
        reduction on demand.  Raises ``SizeLimitExceeded``,
        ``CyclicCovers``, ``NoBoundedStructure``, ``DegenerateLattice`` or
        ``NotALattice`` as appropriate; the lattice test looks up
        ``join(x, j)`` for every element ``x`` and every join-irreducible
        ``j``, not every pair.
        """
        _check_count(n)
        succ = [set() for _ in range(n)]  # a -> {b : a < b given}
        pred = [set() for _ in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"cover ({a}, {b}) out of range for n={n}")
            if a == b:
                raise CyclicCovers(f"self-loop at element {a}")
            succ[a].add(b)
            pred[b].add(a)

        # Reverse-topological sweep: finalise an element once all of its
        # successors are done, accumulating principal filters.
        up = [1 << x for x in range(n)]
        remaining = [len(succ[x]) for x in range(n)]
        stack = [x for x in range(n) if remaining[x] == 0]
        seen = 0
        while stack:
            x = stack.pop()
            seen += 1
            ux = up[x]
            for p in pred[x]:
                up[p] |= ux
                remaining[p] -= 1
                if remaining[p] == 0:
                    stack.append(p)
        if seen != n:
            raise CyclicCovers("cover relation contains a directed cycle")
        return cls._from_up(n, up)

    @classmethod
    def from_sets(cls, sets):
        """Build and validate the lattice of distinct ground-set bitmasks
        ordered by inclusion; element ``i`` is ``sets[i]``.

        A set's principal filter is the AND, over its ground bits, of the
        sets holding that bit, so no pair of sets is compared.  Raises
        ``ValueError`` for a negative or repeated mask, and otherwise
        what ``from_covers`` raises.
        """
        sets = list(sets)
        n = len(sets)
        _check_count(n)
        if len(set(sets)) != n:
            raise ValueError("the sets are not distinct")
        if min(sets) < 0:
            raise ValueError("ground-set masks must be non-negative")
        holders = [0] * max(sets).bit_length()  # ground bit -> sets holding it
        for i, s in enumerate(sets):
            for g in _iter_bits(s):
                holders[g] |= 1 << i
        full = (1 << n) - 1
        up = []
        for s in sets:
            filt = full
            for g in _iter_bits(s):
                filt &= holders[g]
            up.append(filt)
        return cls._from_up(n, up)

    @classmethod
    def _from_up(cls, n, up):
        """The lattice of the partial order on ``n >= 2`` elements whose
        principal filters are ``up``; raises ``NoBoundedStructure`` or
        ``NotALattice`` unless that order is a lattice.  The principal
        ideals are always the transpose of ``up``, computed here, so no
        caller hands in masks that this cannot check."""
        down = _transpose_masks(n, up)
        full = (1 << n) - 1
        bottom = top = -1
        for x in range(n):
            if up[x] == full:
                bottom = x
            if down[x] == full:
                top = x
        if bottom < 0 or top < 0:
            raise NoBoundedStructure("order has no unique minimum or maximum")

        self = object.__new__(cls)
        self.n = n
        self.up = tuple(up)
        self.down = tuple(down)
        self.bottom = bottom
        self.top = top
        self._filter_index = {up[x]: x for x in range(n)}
        self._ideal_index = ideals = {down[x]: x for x in range(n)}

        # in any finite order, x has one lower cover iff its strict ideal
        # is principal; the bottom's strict ideal is empty, which no
        # element's ideal is
        irr = tuple(x for x in range(n) if down[x] ^ (1 << x) in ideals)
        self._irreducibles = irr
        self._irr_mask = sum(1 << x for x in irr)
        self._check_joins()

        self._mobius_cache = {}
        self._canonical_key = None
        return self

    def _check_joins(self):
        """Raise ``NotALattice`` unless ``join(x, j)`` exists for every
        element ``x`` and every join-irreducible ``j``.

        That is enough for a bounded order.  Going up from the bottom, an
        element ``y`` with two lower covers ``a != b`` is their join, so
        ``up[x] & up[y] == up[join(join(x, a), b)]`` by the joins already
        established below ``y``; the bottom joins everything trivially.
        A finite join-semilattice with a bottom is a lattice, so meets
        exist too.
        """
        for j in self._irreducibles:
            x = _join_failure(self.up, self._filter_index, self.up[j])
            if x is not None:
                raise NotALattice(f"elements {x} and {j} have no least upper bound")

    @property
    def covers(self):
        """The cover relation as pairs ``(a, b)`` with ``a`` covered by
        ``b``, ascending by ``a``, then ``b``; derived on each read."""
        covers_up = _order_structure(self.n, self.up, self.down)[0]
        return tuple((a, b) for a, ups in enumerate(covers_up) for b in ups)

    # ------------------------------------------------------------------
    # order predicates and operations

    def leq(self, x, y):
        return (self.up[x] >> y) & 1 == 1

    def join(self, x, y):
        """The least upper bound: the element whose principal filter is
        the intersection of the filters of ``x`` and ``y``."""
        return self._filter_index[self.up[x] & self.up[y]]

    def meet(self, x, y):
        """The greatest lower bound, read from the ideal index likewise."""
        return self._ideal_index[self.down[x] & self.down[y]]

    def join_set(self, xs):
        """Join of an iterable of elements; the empty join is bottom."""
        acc = self.bottom
        for x in xs:
            acc = self.join(acc, x)
        return acc

    def atoms(self):
        """The elements whose strict ideal is just the bottom, ascending."""
        floor = 1 << self.bottom
        return tuple(x for x in self._irreducibles if self.down[x] ^ (1 << x) == floor)

    # ------------------------------------------------------------------
    # join-irreducibles

    def join_irreducibles(self):
        """Elements with exactly one lower cover (excludes bottom)."""
        return self._irreducibles

    def is_atomistic(self):
        return self._irreducibles == self.atoms()

    def below_irreducibles(self, x):
        """The join-irreducibles at or below ``x`` (x must not be bottom)."""
        if x == self.bottom:
            raise BottomHasNoIrreducibles(
                "the bottom element has no join-irreducibles below it"
            )
        return tuple(_iter_bits(self.down[x] & self._irr_mask))

    def count_below_irreducibles(self, x):
        if x == self.bottom:
            raise BottomHasNoIrreducibles(
                "the bottom element has no join-irreducibles below it"
            )
        return (self.down[x] & self._irr_mask).bit_count()

    # ------------------------------------------------------------------
    # Moebius function

    def mobius_vector(self, target):
        """Tuple ``v`` with ``v[x] = mu(x, target)`` for ``x <= target`` and
        ``None`` elsewhere (``_mobius_vector``), memoised per target."""
        if target not in self._mobius_cache:
            self._mobius_cache[target] = _mobius_vector(self.up, self.down[target], target)
        return self._mobius_cache[target]

    def mobius(self, x, y):
        """mu(x, y) for x <= y; raises ``NotComparable`` otherwise."""
        if not self.leq(x, y):
            raise NotComparable(f"element {x} is not below element {y}")
        return self.mobius_vector(y)[x]

    def mobius_to_top(self):
        return self.mobius_vector(self.top)

    # ------------------------------------------------------------------
    # canonical form

    def canonical_form(self):
        """Hex key identifying this lattice up to isomorphism.

        The key encodes the strict upper triangle of the order matrix in
        a canonical labelling (see ``canonical_key_from_up``); two
        lattices are isomorphic iff their keys are equal.
        """
        if self._canonical_key is None:
            self._canonical_key = canonical_key_from_up(self.n, self.up, self.down)
        return self._canonical_key

    # ------------------------------------------------------------------
    # misc

    def __repr__(self):
        return f"<Lattice n={self.n}>"

    def to_lat(self, comment=None):
        """The lattice in the ``.lat`` format, one line per cover."""
        lines = [f"# {part}" for part in str(comment or "").splitlines()]
        lines.append(f"n {self.n}")
        lines += [f"c {a} {b}" for a, b in self.covers]
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# canonical labelling


def _split(cells, key):
    """Each cell cut into runs of equal ``key``, in key order, in the
    cell's slot; runs keep their members' order.  ``key`` is called once
    per member of each cell with more than one member; a cell with one
    member or with one key passes through as it is."""
    out = []
    for members in cells:
        if len(members) == 1:
            out.append(members)
            continue
        runs = {}
        for x in members:
            runs.setdefault(key(x), []).append(x)
        if len(runs) == 1:
            out.append(members)
        else:
            out += [runs[k] for k in sorted(runs)]
    return out


def _orbit_firsts(points, maps):
    """The first of ``points`` in the orbit of each point, as a dict,
    under the group generated by ``maps``; each map (a list, ``bytes`` or
    dict indexed by point) sends every point to a point."""
    root = {x: x for x in points}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for gamma in maps:
        for x in points:
            a, b = find(x), find(gamma[x])
            if a != b:
                root[a] = b
    first = {}
    return {x: first.setdefault(find(x), x) for x in points}


def _refine_partition(n, cells, covers_up, covers_down):
    """Refine a partition to stability under iterated cover colouring.

    Each round recolours each member of a cell with more than one member
    by (the multiset of cells of its upper covers, the multiset of cells
    of its lower covers) and splits cells accordingly; a round that
    splits no cell is stable, and so is a discrete partition.  The key is
    one flat tuple, the sorted upper cells, ``-1``, the sorted lower
    cells; ``-1`` sorts below every cell, so it orders as the pair would.
    One-member cells cannot split, so their members get no key, and a
    member's own cell is left out of its key, since ``_split`` only
    compares members of one cell.  Each member's key is built once per
    round.  Splitting keeps sub-cells in key order inside the parent
    cell's slot, so the dominant component of the seed ordering (rank)
    keeps dominating the global cell order.
    """
    cell_of = [0] * n
    cell = cell_of.__getitem__

    def key(x):
        return (*sorted(map(cell, covers_up[x])), -1, *sorted(map(cell, covers_down[x])))

    while len(cells) < n:
        for idx, members in enumerate(cells):
            for x in members:
                cell_of[x] = idx
        split = _split(cells, key)
        if len(split) == len(cells):
            break
        cells = split
    return cells


def _root_partition(n, up, down, structure=None):
    """The refined seed colouring (rank, upper-cover degree, lower-cover
    degree) at the root of the canonical search, with the cover lists.
    The colour is one int that orders as the triple does, since degrees
    are below ``n + 1``.  ``structure`` is ``_order_structure(n, up,
    down)`` when the caller already has it, else None."""
    if structure is None:
        structure = _order_structure(n, up, down)
    covers_up, covers_down, heights = structure
    b = n + 1
    init = [(heights[x] * b + len(covers_up[x])) * b + len(covers_down[x]) for x in range(n)]
    seed = _split([list(range(n))], init.__getitem__)
    return _refine_partition(n, seed, covers_up, covers_down), covers_up, covers_down


def _leaf_columns(n, covers_down, perm):
    """Column ``p`` of the strict upper triangle in the ordering ``perm``:
    the bits ``perm[i] <= perm[p]`` for ``i < p``, first ``i`` highest.

    ``perm`` is a linear extension, so each element's strict down-set,
    the union of its lower covers' down-sets, comes before it.  Kept with
    position ``i`` at bit ``n - 1 - i``, that union shifted right by
    ``n - p`` is column ``p``, so each leaf costs one pass over the
    covers."""
    below = [0] * n  # each element's down-set, position i at bit n - 1 - i
    cols = [0] * n
    for p, x in enumerate(perm):
        strict = 0
        for c in covers_down[x]:
            strict |= below[c]
        below[x] = strict | 1 << (n - 1 - p)
        cols[p] = strict >> (n - p)
    return cols


def canonical_key_from_up(n, up, down):
    """Canonical hex key of the order given by up-masks ``up`` and their
    transpose, the down-masks ``down``.

    The key is the least strict upper triangle of the order matrix over
    the leaves of an individualisation-refinement search; see
    ``_canonical_labelling``, which also returns the best leaf ordering
    and generators of the automorphism group, and whose docstring shows
    why those generate the whole group.  ``Lattice.canonical_form``
    passes its stored masks, so the search of every built lattice still
    starts here.
    """
    return _canonical_labelling(n, up, down)[0]


def _canonical_labelling(n, up, down, structure=None):
    """Search behind ``canonical_key_from_up``: ``(key, best_perm,
    generators)`` of the order with up-masks ``up`` and down-masks
    ``down``.

    The caller passes ``down`` because it usually has it already: a
    ``Lattice`` stores it, and the census enumerator builds each child's
    down-masks from its parent's.  It must be the transpose of ``up``.
    Likewise ``structure``, if given, must be ``_order_structure(n, up,
    down)``: the enumerator derives each child's covers and heights from
    its parent's, and without it they are computed here.

    Elements are coloured by (rank, upper-cover degree, lower-cover
    degree) and the colouring is refined by iterated cover multisets.
    While some colour class has more than one member, the search
    branches on which member of the first such class comes first,
    re-refining after each choice.  Every fully discrete partition orders
    the elements by a linear extension (rank dominates the colouring, and
    equal-rank elements are incomparable), so the strict upper triangle
    of the order matrix in that ordering captures the whole order.  The
    key is the minimum over leaves of that triangle, read column by
    column (column ``j`` lists the bits ``label_i <= label_j`` for
    ``i < j``) and hex-encoded.  ``best_perm`` is the ordering of the
    first leaf reached with that triangle.

    When every cell of the refined root is one twin class (a discrete
    root is the case where every cell has one member), the root's cells
    in order are the only leaf and the search is skipped: refinement
    never separates twins, so individualising a member splits nothing
    else, and twin pruning (below) searches one branch per cell.  The
    twin transpositions generate the group.  Through n = 10 this serves
    7,222 of 7,944 census labellings (3,344 discrete, 3,878 twin-class).

    Branches are pruned by automorphisms (McKay & Piperno, *Practical
    graph isomorphism II*, 2014), which never changes the minimum:

    - Refinement is equivariant: ``refine(g(P)) = g(refine(P))`` for an
      automorphism ``g``, and the seed colouring is fixed by every
      automorphism.  So an automorphism fixing each element individualised
      on the way to a node maps the node to itself, and maps the subtree
      below child ``v`` onto the subtree below child ``g(v)``.  A leaf
      and its image have the same triangle, so a child in the orbit of an
      already searched child under such automorphisms adds no new leaf
      triangle and is skipped.
    - The automorphisms come from the search itself: a leaf whose
      triangle equals the best one found so far orders the elements as
      ``perm``, the best leaf as ``best_perm``, and
      ``perm[p] -> best_perm[p]`` preserves the order.
    - Twins (identical strict up- and down-sets) are swapped by an
      automorphism that fixes every other element, hence every
      individualised one; one branch per twin class is the cheap special
      case, checked first.

    At a node, ``_orbit_firsts`` computes the orbits of the branching
    cell under the recorded automorphisms that fix every individualised
    element, again only when the list of found automorphisms has grown.

    ``generators`` (lists ``g`` with ``g[x]`` the image of ``x``) are the
    recorded leaf automorphisms plus one transposition per adjacent pair
    of each twin class, and they generate the whole automorphism group.
    An individualised element sits at the start of its cell and cells
    only split in place, so a leaf's ordering fixes its path, and an
    automorphism mapping one leaf onto another maps path onto path.  Let
    ``b_1 .. b_t`` be the path of the leaf ``best_perm`` and ``g`` an
    automorphism fixing ``b_1 .. b_k``; it fixes that node, so ``u =
    g(b_(k+1))`` lies in the node's branching cell.  If ``u`` was pruned,
    as a twin of a searched ``v`` or by recorded automorphisms fixing
    ``b_1 .. b_k``, generated elements fixing ``b_1 .. b_k`` map ``u``
    to a searched ``v``; otherwise ``v = u``.  If ``v != b_(k+1)``, some
    automorphism fixing ``b_1 .. b_k`` maps ``b_(k+1)`` to ``v``, so the
    subtree of ``v`` holds a leaf with the best triangle.  Pruning keeps
    each subtree's minimum, so the search reaches such a leaf, after the
    best one (the first reached), and records an automorphism mapping
    its path onto the best path: it fixes ``b_1 .. b_k`` and maps ``v``
    to ``b_(k+1)``.  So ``g`` followed by generated elements fixes
    ``b_1 .. b_(k+1)``; going down the path, ``g`` followed by generated
    elements fixes the whole best leaf and is the identity.  Twin
    pruning records nothing, hence the transpositions: three atoms of
    one height give a single leaf and no recorded automorphism.
    """
    base, covers_up, covers_down = _root_partition(n, up, down, structure)
    classes = [members for members in base if len(members) > 1]
    # refinement never separates twins, so each cell is one twin class iff
    # the cells with more than one member hold as many twin classes as cells
    strict = {(up[x] & ~(1 << x), down[x] & ~(1 << x)) for cell in classes for x in cell}
    if len(strict) == len(classes):
        # then the root's cells in order are the only leaf; members stay
        # ascending in their cells, so the cells sort by least member
        perm = [x for members in base for x in members]
        key = _columns_to_hex(n, _leaf_columns(n, covers_down, perm))
        return key, perm, _twin_swaps(n, sorted(classes))
    twin = [(up[x] & ~(1 << x), down[x] & ~(1 << x)) for x in range(n)]
    best = best_perm = None
    automorphisms = []

    def leaf(cells):
        nonlocal best, best_perm
        perm = [members[0] for members in cells]
        cols = _leaf_columns(n, covers_down, perm)
        if best is None or cols < best:
            best, best_perm = cols, perm
        elif cols == best:
            gamma = [0] * n
            for x, y in zip(perm, best_perm):
                gamma[x] = y
            automorphisms.append(gamma)

    def rec(cells, prefix):
        for idx, members in enumerate(cells):
            if len(members) > 1:
                break
        else:
            leaf(cells)
            return
        seen_twins = set()
        searched = []
        orbit = None
        known = 0
        for v in members:
            key = twin[v]
            if key in seen_twins:
                continue
            if len(automorphisms) > known:
                known = len(automorphisms)
                fixing = [g for g in automorphisms if all(g[u] == u for u in prefix)]
                orbit = _orbit_firsts(members, fixing)
            if orbit is not None and any(orbit[v] == orbit[u] for u in searched):
                continue
            seen_twins.add(key)
            searched.append(v)
            rest = [w for w in members if w != v]
            child = cells[:idx] + [[v], rest] + cells[idx + 1 :]
            rec(_refine_partition(n, child, covers_up, covers_down), prefix + [v])

    rec(base, [])
    del rec  # rec refers to itself; without this only the cyclic GC frees the search
    twin_classes = {}
    for x in range(n):
        twin_classes.setdefault(twin[x], []).append(x)
    generators = automorphisms + _twin_swaps(n, twin_classes.values())
    return _columns_to_hex(n, best), best_perm, generators


def _twin_swaps(n, classes):
    """The transposition of each adjacent pair of members of each class,
    as lists ``g`` with ``g[x]`` the image of ``x``."""
    swaps = []
    for members in classes:
        for a, b in zip(members, members[1:]):
            gamma = list(range(n))
            gamma[a], gamma[b] = b, a
            swaps.append(gamma)
    return swaps


# bits a canonical key collects before it moves whole bytes out: the
# census keys, up to 120 bits, never reach it
_HEX_CHUNK_BITS = 4096


def _columns_to_hex(n, cols):
    """Hex of columns 1 .. n-1 of a leaf triangle, column ``p`` as ``p``
    bits, zero-padded to whole bytes (at least one).  Whole bytes leave
    the accumulator once it passes ``_HEX_CHUNK_BITS``, so no shift
    touches more than a chunk and the key takes one pass."""
    chunks = []
    acc = width = 0
    for p in range(1, n):
        acc = (acc << p) | cols[p]
        width += p
        if width > _HEX_CHUNK_BITS:
            keep = width % 8
            chunks.append((acc >> keep).to_bytes(width // 8, "big"))
            acc &= (1 << keep) - 1
            width = keep
    pad = -width % 8
    chunks.append((acc << pad).to_bytes((width + pad) // 8, "big"))
    return (b"".join(chunks) or b"\0").hex()


def is_isomorphic(a, b):
    """Test lattice isomorphism by comparing canonical keys."""
    if a.n != b.n:
        return False
    # isomorphic orders have equally many comparable pairs
    if sum(x.bit_count() for x in a.up) != sum(x.bit_count() for x in b.up):
        return False
    return a.canonical_form() == b.canonical_form()


# ----------------------------------------------------------------------
# the lower reduced product


def lower_reduced_product(a, b):
    """Product of ``a`` and ``b`` with both bottoms removed and a fresh
    bottom, element 0, adjoined below the resulting minimal pairs."""
    xs = [x for x in range(a.n) if x != a.bottom]
    ys = [y for y in range(b.n) if y != b.bottom]
    n = len(xs) * len(ys) + 1
    if n > DEFAULT_MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"product would have {n} > {DEFAULT_MAX_ELEMENTS} elements"
        )
    return Lattice.from_sets(
        [0] + [a.down[x] | b.down[y] << a.n for x in xs for y in ys]
    )


# ----------------------------------------------------------------------
# ".lat" text format


def parse_lat(text):
    """Parse the line-oriented lattice format.

    ``n <count>`` declares the element count, ``c <a> <b>`` declares a
    cover ``a < b``, ``#`` starts a comment.  Returns ``(n, covers)``.
    """
    n = None
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields[1:]]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {line!r}") from None
        if fields[0] == "n" and len(fields) == 2:
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate element count")
            n = values[0]
        elif fields[0] == "c" and len(fields) == 3:
            if n is None:
                raise ValueError(f"line {lineno}: cover before element count")
            covers.append((values[0], values[1]))
        else:
            raise ValueError(f"line {lineno}: unrecognised directive {line!r}")
    if n is None:
        raise ValueError("missing element count line 'n <count>'")
    return n, covers
