"""Lattice builders that more than one test module uses."""

from latzeta.lattice import Lattice


def adjoin_atoms(lattice, k):
    """``lattice`` with ``k >= 1`` new atoms, each covering the bottom and
    covered by the top; the new atoms are elements ``n .. n+k-1``."""
    n = lattice.n
    pairs = list(lattice.covers)
    for new in range(n, n + k):
        pairs += [(lattice.bottom, new), (new, lattice.top)]
    return Lattice.from_covers(n + k, pairs)
