"""Lattice builders and oracles that more than one test module uses.

The oracles share no code with the library paths they check: the
pairwise lattice test has its own least-element search, heights are
longest chains found over every comparable pair, not over covers, orbits
are searched breadth first rather than merged in a union-find, and the
refinement cuts its runs by hand rather than through ``lattice._split``.
Integer partitions come from a recursion on the first part rather than
the iterative generator, and a leaf triangle is read by scanning every
earlier position rather than built from the lower covers.  The
shape series builds one base per shape and counts each shape's members
from a tally of its parts.  The classification is read off the built
series and per-element counts rather than off the engine's count table.
Distributivity is Birkhoff's count of the order ideals of J, and the
Boolean, chain and divisor series keep the three closed forms that one
formula over (|J|, #maximal) replaced.  The census flags, which the
enumerator derives from each parent's mu and covers, are checked against
``catalog_entry_of`` the built and validated ``Lattice``: its own
Moebius vector, join-irreducibles and atoms through the engine pass.
"""

import math
from collections import Counter
from fractions import Fraction

from latzeta import search
from latzeta.cosetlike import Classification
from latzeta.dirichlet import DirichletSeries
from latzeta.families import factorize
from latzeta.lattice import Lattice, _transpose_masks, canonical_key_from_up
from latzeta.search import LatticeCatalogEntry
from latzeta.zeta import engine_pass, zeta_series


def adjoin_atoms(lattice, k):
    """``lattice`` with ``k >= 1`` new atoms, each covering the bottom and
    covered by the top; the new atoms are elements ``n .. n+k-1``."""
    n = lattice.n
    pairs = list(lattice.covers)
    for new in range(n, n + k):
        pairs += [(lattice.bottom, new), (new, lattice.top)]
    return Lattice.from_covers(n + k, pairs)


def _hex_to_columns(n, key):
    """The columns of the strict upper triangle packed in a canonical
    key: column ``p`` has ``p`` bits, first element highest."""
    total = n * (n - 1) // 2
    acc = int.from_bytes(bytes.fromhex(key), "big")
    acc >>= (-total) % 8
    cols = [0] * n
    for p in range(n - 1, 0, -1):
        cols[p] = acc & ((1 << p) - 1)
        acc >>= p
    return cols


def decode_canonical_key(key, n):
    """Rebuild a lattice from a canonical key and its element count."""
    cols = _hex_to_columns(n, key)
    pairs = []
    for j in range(1, n):
        col = cols[j]
        for i in range(j):
            if (col >> (j - 1 - i)) & 1:
                pairs.append((i, j))
    return Lattice.from_covers(n, pairs)


def heights(lattice):
    """The length of the longest chain from the bottom up to each
    element, by relaxing every comparable pair until nothing grows."""
    n = lattice.n
    height = [0] * n
    grown = True
    while grown:
        grown = False
        for x in range(n):
            for y in range(n):
                if y != x and lattice.leq(y, x) and height[y] + 1 > height[x]:
                    height[x] = height[y] + 1
                    grown = True
    return height


def number_mobius(n):
    """Classical Moebius function of a positive integer."""
    fact = factorize(n)
    if any(e > 1 for _, e in fact):
        return 0
    return -1 if len(fact) % 2 else 1


def order_ideals(down):
    """Every order ideal, as a mask, of the poset whose point i has the
    reflexive down-mask ``down[i]``, by testing every subset."""
    k = len(down)
    return [mask for mask in range(1 << k)
            if all(down[i] & ~mask == 0 for i in range(k) if (mask >> i) & 1)]


def naturally_labeled_posets(n):
    """Up-mask tuples of every naturally labeled poset on n points.

    Element k is inserted above an order ideal of the elements before
    it, which produces each naturally labeled poset exactly once (the
    ideal is forced: it is the new element's strict down-set).
    """
    def rec(k, up, down):
        if k == n:
            yield tuple(up)
            return
        bit = 1 << k
        for ideal in order_ideals(down):
            new_up = [u | bit if (ideal >> i) & 1 else u for i, u in enumerate(up)]
            yield from rec(k + 1, new_up + [bit], down + [ideal | bit])

    yield from rec(0, [], [])


def _has_extreme(common, masks):
    """Whether some member of the set ``common`` has a mask holding all of
    ``common``: a least member for up-masks, a greatest for down-masks."""
    return any((common >> z) & 1 and masks[z] & common == common
               for z in range(len(masks)))


def is_lattice_masks(n, up):
    """Direct lattice test on up-masks: every pair needs a least common
    upper bound and a greatest common lower bound."""
    down = [sum(1 << x for x in range(n) if (up[x] >> y) & 1) for y in range(n)]
    return all(
        _has_extreme(up[x] & up[y], up) and _has_extreme(down[x] & down[y], down)
        for x in range(n) for y in range(x + 1, n)
    )


def brute_force_lattice_count(n):
    """Isomorphism classes of lattices on n elements, the slow way: every
    naturally labeled poset on n points that passes the pairwise test,
    deduplicated by canonical key."""
    return len({canonical_key_from_up(n, up, _transpose_masks(n, up))
                for up in naturally_labeled_posets(n) if is_lattice_masks(n, up)})


def level_classes(n, records=None):
    """The census level on n elements, or the level-n ``records`` given,
    as a list of ``(hex key, up-masks, generators)`` triples in record
    order: the up-masks a tuple of ints, each generator ``bytes``."""
    out = []
    for record in search._level(n) if records is None else records:
        key, _, up, generators = search._record_parts(n, record)
        out.append((key.hex(), up, generators))
    return out


def bottomless(ups):
    """The up-masks of a lattice whose bottom is element 0, with the
    bottom removed and every other element moved down by one."""
    return tuple(u >> 1 for u in ups[1:])


def moved_mask(mask, g):
    """The set ``mask`` moved point by point by the permutation ``g``."""
    return sum(1 << g[i] for i in range(len(g)) if (mask >> i) & 1)


def orbit_representatives_bfs(masks, generators):
    """The first of ``masks`` in each orbit of the generated group, by a
    search out of each mask that no earlier orbit reached."""
    seen = set()
    reps = []
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            x = stack.pop()
            for g in generators:
                y = moved_mask(x, g)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return reps


def in_orbit_bfs(x, y, generators):
    """Whether ``y`` is in the orbit of ``x`` under the generated group."""
    orbit = {x}
    stack = [x]
    while stack:
        z = stack.pop()
        for g in generators:
            if g[z] not in orbit:
                orbit.add(g[z])
                stack.append(g[z])
    return y in orbit


def refine_partition_loop(n, cells, covers_up, covers_down):
    """Cover-colour refinement with its own run loop: each round keys
    every element, one-member cells included, by (its cell, upper-cover
    cells, lower-cover cells), sorts each cell by that key, cuts it into
    runs of equal key in place, and stops when no cell was cut.  This is
    the all-element refinement that ``lattice._refine_partition``
    replaced by keying only the members of cells that can split."""
    cell_of = [0] * n
    for idx, members in enumerate(cells):
        for x in members:
            cell_of[x] = idx
    while True:
        keys = [
            (
                cell_of[x],
                tuple(sorted(cell_of[y] for y in covers_up[x])),
                tuple(sorted(cell_of[y] for y in covers_down[x])),
            )
            for x in range(n)
        ]
        new_cells = []
        changed = False
        for members in cells:
            members = sorted(members, key=lambda x: keys[x])
            start = 0
            for i in range(1, len(members) + 1):
                if i == len(members) or keys[members[i]] != keys[members[start]]:
                    new_cells.append(members[start:i])
                    if i - start != len(members):
                        changed = True
                    start = i
        cells = new_cells
        if not changed:
            return cells
        for idx, members in enumerate(cells):
            for x in members:
                cell_of[x] = idx


def root_partition_loop(n, covers_up, covers_down, height):
    """The seed colouring (height, upper-cover degree, lower-cover
    degree) cut into runs by hand, then refined by the loop above."""
    init = [(height[x], len(covers_up[x]), len(covers_down[x])) for x in range(n)]
    order = sorted(range(n), key=lambda x: init[x])
    seed = []
    start = 0
    for i in range(1, n + 1):
        if i == n or init[order[i]] != init[order[start]]:
            seed.append(order[start:i])
            start = i
    return refine_partition_loop(n, seed, covers_up, covers_down)


def leaf_columns_scan(n, up, perm):
    """Column ``p`` of the strict upper triangle in the ordering ``perm``:
    the bits ``perm[i] <= perm[p]`` for ``i < p``, first ``i`` highest,
    read off the up-mask of every earlier position."""
    cols = [0] * n
    for p in range(1, n):
        x = perm[p]
        col = 0
        for e in perm[:p]:
            col = (col << 1) | ((up[e] >> x) & 1)
        cols[p] = col
    return cols


def integer_partitions_recursive(n, max_part=None):
    """The partitions of n as non-increasing tuples in reverse
    lexicographic order: each first part from the largest down, then the
    partitions of the rest into parts no larger."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in integer_partitions_recursive(n - first, first):
            yield (first,) + rest


def shape_series_per_shape(rows, j_total):
    """The series over (blocks, |J_P|) rows with one term per shape: a
    shape of k blocks adds (-1)^(k-1) (k-1)! times its number of set
    partitions at base j_total / |J_P|, and equal bases merge only in
    ``DirichletSeries``."""
    def members(blocks):
        count = math.factorial(sum(blocks))
        for size in blocks:
            count //= math.factorial(size)
        for times in Counter(blocks).values():
            count //= math.factorial(times)
        return count

    return DirichletSeries(
        (Fraction(j_total, jp),
         (-1) ** (len(b) - 1) * math.factorial(len(b) - 1) * members(b))
        for b, jp in rows
    )


def catalog_entry_of(lattice):
    """The catalog entry of a built lattice: ``strong`` and ``weak`` are
    the verdicts of one engine pass over its join-irreducibles."""
    report = engine_pass(lattice, lattice.join_irreducibles())
    return LatticeCatalogEntry(
        key=lattice.canonical_form(),
        n=lattice.n,
        atomistic=lattice.is_atomistic(),
        strong=report.strongly_coset_like,
        weak=report.ordinary,
    )


def classify_from_series(lattice):
    """The classification derived through the built series: weak iff the
    series is ordinary, its non-integer bases in series order, and the
    strong failures from one ``count_below_irreducibles`` per element."""
    series = zeta_series(lattice).series
    j = len(lattice.join_irreducibles())
    failures = tuple(
        (x, lattice.count_below_irreducibles(x), j)
        for x in range(lattice.n)
        if x != lattice.bottom and j % lattice.count_below_irreducibles(x)
    )
    return Classification(
        strong=not failures,
        weak=series.is_ordinary(),
        strong_failures=failures,
        non_integer_bases=tuple(q for q, _ in series.terms() if q.denominator != 1),
    )


def is_distributive(lattice):
    """Birkhoff: x -> J_x maps a lattice one-to-one into the order ideals
    of J, and onto them exactly when the lattice is distributive, so it
    is distributive iff J has n order ideals.  Each ideal is counted as
    the antichain of its maximal members, and the count stops past n."""
    js = lattice.join_irreducibles()
    count = 0

    def rec(start, chosen):
        nonlocal count
        count += 1
        for i in range(start, len(js)):
            if count > lattice.n:
                return
            if not any(lattice.leq(js[i], c) or lattice.leq(c, js[i]) for c in chosen):
                rec(i + 1, chosen + [js[i]])

    rec(0, [])
    return count == lattice.n


def maximal_irreducible_count(lattice):
    """The number of join-irreducibles below no other join-irreducible."""
    js = lattice.join_irreducibles()
    return sum(not any(k != j and lattice.leq(j, k) for k in js) for j in js)


# the Boolean, chain and divisor closed forms, each by its own formula


def boolean_series_by_rank(r):
    """((-1)^r / r^s) * sum_{k=1..r} (-1)^k C(r, k) k^s."""
    return DirichletSeries(
        (Fraction(r, k), (-1) ** (r + k) * math.comb(r, k)) for k in range(1, r + 1)
    )


def chain_series_by_case(k):
    """1 - 1/((k-1)/(k-2))^s for a k-chain, and 1 for the 2-chain."""
    if k == 2:
        return DirichletSeries({Fraction(1): 1})
    return DirichletSeries({Fraction(1): 1, Fraction(k - 1, k - 2): -1})


def divisor_series_by_omega(n):
    """((-1)^w / w^s) * sum_k (-1)^k C(r, w-k) k^s, with w the prime
    factors of n counted with multiplicity and r the distinct ones, the
    k = 0 term dropped."""
    fact = factorize(n)
    w = sum(e for _, e in fact)
    r = len(fact)
    return DirichletSeries(
        (Fraction(w, k), (-1) ** (w + k) * math.comb(r, w - k))
        for k in range(max(w - r, 1), w + 1)
    )
