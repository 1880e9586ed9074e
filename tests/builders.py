"""Lattice builders and oracles that more than one test module uses.

The oracles share no code with the library paths they check: the
pairwise lattice test has its own least-element search, and heights are
longest chains found over every comparable pair, not over covers.
"""

from latzeta.families import factorize
from latzeta.lattice import Lattice, _hex_to_columns, canonical_key_from_up


def adjoin_atoms(lattice, k):
    """``lattice`` with ``k >= 1`` new atoms, each covering the bottom and
    covered by the top; the new atoms are elements ``n .. n+k-1``."""
    n = lattice.n
    pairs = list(lattice.covers)
    for new in range(n, n + k):
        pairs += [(lattice.bottom, new), (new, lattice.top)]
    return Lattice.from_covers(n + k, pairs)


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


def naturally_labeled_posets(n):
    """Up-mask tuples of every naturally labeled poset on n points.

    Element k is inserted above an order ideal of the elements before
    it, which produces each naturally labeled poset exactly once (the
    ideal is forced: it is the new element's strict down-set).
    """
    def ideals(k, down):
        return [mask for mask in range(1 << k)
                if all(down[i] & ~mask == 0 for i in range(k) if (mask >> i) & 1)]

    def rec(k, up, down):
        if k == n:
            yield tuple(up)
            return
        bit = 1 << k
        for ideal in ideals(k, down):
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
    return len({canonical_key_from_up(n, list(up))
                for up in naturally_labeled_posets(n) if is_lattice_masks(n, up)})
