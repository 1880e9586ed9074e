"""Automorphism pruning in the canonical search, checked differentially.

``canonical_key_from_up`` skips every branch whose subtree is an
automorphic image of one already searched.  The oracle here runs the
same individualisation-refinement search (same refinement, same leaf
triangles, read by the earlier scan of every position in ``builders``)
with no pruning at all, so it visits every leaf.  Both must
give the same key on every relabelling of every census class up to 8
elements, of the coset lattices of C4, C6 and S3, and of the incidence
lattices of a few regular graphs, whose search trees hold branches that
are not automorphic images of each other.

The generators the search returns must generate the whole automorphism
group: checked against a backtracking count of order automorphisms on
every census lattice up to 8 elements, with the enumerator's stored
generators, and on the lattices above.

The oracle shares the refinement with the search, so the refinement and
the orbit routine are checked against their earlier hand-written forms
in ``builders`` (the refinement also on random orders and seed
partitions), the search's leaf triangles, built from the lower covers,
against that scan, and the maps the search prunes with must fix the
path.  The down-masks the census enumerator builds for each child must
be the transpose of its up-masks and give the same labelling.
"""

import functools
import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from latzeta.groups import coset_lattice, cyclic, symmetric
from latzeta import lattice, search
from latzeta.lattice import (
    Lattice,
    _canonical_labelling,
    _columns_to_hex,
    _leaf_columns,
    _orbit_firsts,
    _order_structure,
    _refine_partition,
    _root_partition,
    _transpose_masks,
    canonical_key_from_up,
)
from latzeta.search import _pack_masks, _unpack_masks, enumerate_lattices

from builders import (
    _hex_to_columns,
    bottomless,
    in_orbit_bfs,
    leaf_columns_scan,
    moved_mask,
    orbit_representatives_bfs,
    refine_partition_loop,
    root_partition_loop,
)


def unpruned_key(n, up):
    """Minimum leaf triangle over the whole search tree, hex-encoded."""
    base, covers_up, covers_down = _root_partition(n, up, _transpose_masks(n, up))
    leaves = []

    def rec(cells):
        for idx, members in enumerate(cells):
            if len(members) > 1:
                break
        else:
            leaves.append(leaf_columns_scan(n, up, [m[0] for m in cells]))
            return
        for v in members:
            rest = [w for w in members if w != v]
            child = cells[:idx] + [[v], rest] + cells[idx + 1 :]
            rec(_refine_partition(n, child, covers_up, covers_down))

    rec(base)
    return _columns_to_hex(n, min(leaves))


def incidence_lattice(k, edges):
    """Bottom, one atom per vertex of a simple graph on ``k`` vertices,
    one coatom per edge above its two ends, and a top."""
    top = 1 + k + len(edges)
    pairs = [(0, 1 + v) for v in range(k)]
    for i, (a, b) in enumerate(edges):
        e = 1 + k + i
        pairs += [(1 + a, e), (1 + b, e), (e, top)]
    pairs += [(1 + v, top) for v in range(k)]
    return Lattice.from_covers(top + 1, pairs)


def cycles(*lengths):
    """Edges of the disjoint union of cycles of the given lengths."""
    edges, start = [], 0
    for length in lengths:
        edges += [(start + i, start + (i + 1) % length) for i in range(length)]
        start += length
    return sum(lengths), edges


# Regular graphs: colour refinement cannot split their vertices or their
# edges, so the search branches on vertices that may lie in different
# orbits (two triangles beside a hexagon) and has to find the best one.
GRAPHS = {
    "2C3+C6": cycles(3, 3, 6),
    "C3+C4": cycles(3, 4),
    "C3+C5": cycles(3, 5),
    "C4+C5": cycles(4, 5),
    "K4": (4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
    "K33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "prism": (6, cycles(3, 3)[1] + [(0, 3), (1, 4), (2, 5)]),
    "cube": (8, [(a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit]),
}


@functools.cache
def census():
    """Every lattice class on 2..8 elements."""
    return tuple(lat for n in range(2, 9) for lat in enumerate_lattices(n))


@functools.cache
def wide():
    """Lattices with many automorphisms or with refinement-stable cells:
    the coset lattices, then the incidence lattices of the graphs."""
    lattices = [coset_lattice(g).lattice for g in (cyclic(4), cyclic(6), symmetric(3))]
    lattices += [incidence_lattice(*graph) for graph in GRAPHS.values()]
    return tuple(lattices)


@functools.cache
def oracle_key(lattice):
    return unpruned_key(lattice.n, list(lattice.up))


def relabel_masks(ups, perm):
    """Up-masks with element x renamed perm[x]."""
    up = [0] * len(ups)
    for x, mask in enumerate(ups):
        for y in range(len(ups)):
            if (mask >> y) & 1:
                up[perm[x]] |= 1 << perm[y]
    return up


def test_pruned_search_matches_unpruned_on_every_class():
    for lat in census() + wide():
        assert lat.canonical_form() == oracle_key(lat)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pruned_search_matches_unpruned_after_relabelling(data):
    # A relabelling maps the whole unpruned tree onto the relabelled
    # input's tree with the same leaf triangles, so the oracle's key of
    # the class is the key every relabelling must get.
    lat = data.draw(st.sampled_from(census()) | st.sampled_from(wide()))
    perm = data.draw(st.permutations(range(lat.n)))
    up = relabel_masks(lat.up, perm)
    assert canonical_key_from_up(lat.n, up, _transpose_masks(lat.n, up)) == oracle_key(lat)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leaf_columns_from_the_lower_covers(data):
    # The search builds each leaf triangle from the lower covers, which
    # a linear extension puts before their element; the oracle scans
    # every earlier position.  Equal down-set sizes are ordered at random.
    lat = data.draw(st.sampled_from(census()) | st.sampled_from(wide()))
    ties = data.draw(st.permutations(range(lat.n)))
    perm = sorted(range(lat.n), key=lambda x: (lat.down[x].bit_count(), ties[x]))
    covers_down = _order_structure(lat.n, lat.up, lat.down)[1]
    cols = _leaf_columns(lat.n, covers_down, perm)
    assert cols == leaf_columns_scan(lat.n, lat.up, perm)
    key = _columns_to_hex(lat.n, cols)
    assert len(key) == 2 * max((lat.n * (lat.n - 1) // 2 + 7) // 8, 1)
    assert _hex_to_columns(lat.n, key) == cols


def automorphism_count(n, up):
    """Number of order automorphisms, by backtracking.  Elements are
    placed in breadth-first order over the covers between elements other
    than the bottom and the top, so each one but the first of a component
    is tied to a placed neighbour; an element goes to an element with the
    same up- and down-set sizes whose relations to the placed images
    match its own."""
    down = _transpose_masks(n, up)
    sig = [(up[x].bit_count(), down[x].bit_count()) for x in range(n)]
    ends = {x for x in range(n) if n in sig[x]}  # the bottom and the top
    neighbours = [[] for _ in range(n)]
    for a, ups in enumerate(_order_structure(n, up, down)[0]):
        for b in ups:
            if a not in ends and b not in ends:
                neighbours[a].append(b)
                neighbours[b].append(a)
    order = []
    for start in range(n):
        if start in order:
            continue
        order.append(start)
        queue = [start]
        while queue:
            x = queue.pop(0)
            for y in neighbours[x]:
                if y not in order:
                    order.append(y)
                    queue.append(y)
    image = {}

    def extend(i, used):
        if i == n:
            return 1
        x = order[i]
        total = 0
        for y in range(n):
            if (used >> y) & 1 or sig[y] != sig[x]:
                continue
            if all(
                (up[x] >> z) & 1 == (up[y] >> w) & 1
                and (up[z] >> x) & 1 == (up[w] >> y) & 1
                for z, w in image.items()
            ):
                image[x] = y
                total += extend(i + 1, used | 1 << y)
                del image[x]
        return total

    return extend(0, 0)


def group_order(n, up, generators):
    """Order of the group the generators close to, after checking that
    each generator preserves the order."""
    for g in generators:
        assert sorted(g) == list(range(n))
        for x in range(n):
            for y in range(n):
                assert (up[x] >> y) & 1 == (up[g[x]] >> g[y]) & 1
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        h = stack.pop()
        for g in generators:
            gh = tuple(g[h[x]] for x in range(n))
            if gh not in group:
                group.add(gh)
                stack.append(gh)
    return len(group)


def test_generators_give_the_whole_group_on_census_lattices():
    # The enumerator's stored generators (bytes) are the search's own.
    for n in range(2, 9):
        for _key, masks, generators in search._level(n):
            ups = _unpack_masks(masks)[0]
            up = list(ups)
            assert group_order(n, up, generators) == automorphism_count(n, up), ups


def test_generators_give_the_whole_group_on_wide_lattices():
    for lat in wide():
        up = list(lat.up)
        key, best_perm, generators = _canonical_labelling(lat.n, up, lat.down)
        assert key == lat.canonical_form()
        assert sorted(best_perm) == list(range(lat.n))
        assert group_order(lat.n, up, generators) == automorphism_count(lat.n, up)


# ----------------------------------------------------------------------
# the orbit routine and the cell splitter against their earlier forms


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_orbit_firsts_matches_breadth_first_orbits(data):
    n = data.draw(st.integers(1, 10))
    generators = data.draw(st.lists(st.permutations(range(n)), max_size=3))
    points = data.draw(st.permutations(range(n)))
    firsts = _orbit_firsts(points, generators)
    for x in points:
        assert firsts[x] == next(y for y in points if in_orbit_bfs(y, x, generators))
        for y in points:
            assert (firsts[x] == firsts[y]) == in_orbit_bfs(x, y, generators)
    # on a set of masks that the generators map to itself, in any order
    closed = set(data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6)))
    stack = list(closed)
    while stack:
        x = stack.pop()
        for g in generators:
            y = moved_mask(x, g)
            if y not in closed:
                closed.add(y)
                stack.append(y)
    masks = data.draw(st.permutations(sorted(closed)))
    assert search._orbit_representatives(masks, generators) == orbit_representatives_bfs(
        masks, generators
    )


def test_refinement_matches_the_run_loop_on_every_semilattice():
    # The unpruned oracle above refines with the search's own
    # _refine_partition, so it cannot catch a change to refinement: here
    # every node of the unpruned tree is refined by both, after a random
    # relabelling, and the ordered cells must agree.  The semilattices
    # are the census lattices on up to 8 elements with the bottom removed.
    rng = random.Random(20)
    for m in range(1, 8):
        for _key, masks, _ in search._level(m + 1):
            ups = _unpack_masks(masks)[0]
            perm = list(range(m))
            rng.shuffle(perm)
            up = relabel_masks(bottomless(ups), perm)
            down = _transpose_masks(m, up)
            covers_up, covers_down, height = _order_structure(m, up, down)
            cells = root_partition_loop(m, covers_up, covers_down, height)
            assert _root_partition(m, up, down)[0] == cells
            stack = [cells]
            while stack:
                cells = stack.pop()
                idx = next((i for i, c in enumerate(cells) if len(c) > 1), None)
                if idx is None:
                    continue
                for v in cells[idx]:
                    rest = [w for w in cells[idx] if w != v]
                    child = cells[:idx] + [[v], rest] + cells[idx + 1 :]
                    refined = refine_partition_loop(m, child, covers_up, covers_down)
                    assert _refine_partition(m, child, covers_up, covers_down) == refined
                    stack.append(refined)


@st.composite
def orders_with_seeds(draw):
    """A random order on up to 12 points under a random labelling, with
    a random ordered seed partition: ``(n, up, cells)``."""
    n = draw(st.integers(1, 12))
    above = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    # point i lies below the drawn points after it, closed transitively
    closed = [0] * n
    for i in range(n - 1, -1, -1):
        closed[i] = 1 << i
        for j in range(i + 1, n):
            if (above[i] >> j) & 1:
                closed[i] |= closed[j]
    perm = draw(st.permutations(range(n)))
    up = relabel_masks(closed, perm)
    colour = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    cells = [[x for x in order if colour[x] == c] for c in sorted(set(colour))]
    return n, up, cells


@settings(max_examples=400, deadline=None)
@given(orders_with_seeds())
def test_refinement_matches_the_all_element_loop_on_random_orders(drawn):
    # _refine_partition keys only the members of cells that can split;
    # the all-element loop keys every element, with its own cell too.
    n, up, cells = drawn
    covers_up, covers_down, _ = _order_structure(n, up, _transpose_masks(n, up))
    refined = _refine_partition(n, [list(c) for c in cells], covers_up, covers_down)
    assert refined == refine_partition_loop(n, cells, covers_up, covers_down)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_labelling_with_the_enumerators_child_down(data):
    # _extend_parents builds each child's down-masks from its parent's;
    # they must be the transpose of the child's up-masks, and the search
    # must give what it gives from the transpose.  The relabelling keeps
    # the bottom at element 0, where the enumerator expects it.
    k = data.draw(st.integers(2, 8))
    key, masks, _ = data.draw(st.sampled_from(search._level(k)))
    ups = _unpack_masks(masks)[0]
    perm = [0] + data.draw(st.permutations(range(1, k)))
    moved = tuple(relabel_masks(ups, perm))
    moved_down = _transpose_masks(k, moved)
    generators = _canonical_labelling(k, moved, moved_down)[2]
    calls = []

    def recording(n, up, down, structure=None):
        result = _canonical_labelling(n, up, down, structure)
        calls.append((n, up, down, result))
        return result

    search._canonical_labelling = recording
    try:
        parent = search._record(key, "---", _pack_masks(moved, moved_down), generators)
        search._extend_parents(k + 1, [parent])
    finally:
        search._canonical_labelling = _canonical_labelling
    assert calls
    for n, up, down, result in calls:
        transposed = _transpose_masks(n, list(up))
        assert list(down) == transposed
        assert result == _canonical_labelling(n, up, transposed)


def test_pruning_maps_fix_the_individualised_elements(monkeypatch):
    # A child is pruned by automorphisms that fix every element
    # individualised on the way to its node (see _canonical_labelling).
    # Pruning with every recorded automorphism, with orbits merged over
    # all elements, gave the same keys on every lattice tried (ROADMAP
    # item 7), so the maps handed to the orbit routine are checked here.
    calls = []

    def recording(points, maps):
        # ``prefix`` in the caller is the node's path of individualised elements
        prefix = list(sys._getframe(1).f_locals["prefix"])
        calls.append((list(points), [list(g) for g in maps], prefix))
        return _orbit_firsts(points, maps)

    monkeypatch.setattr(lattice, "_orbit_firsts", recording)
    for lat in wide() + census()[-300:]:
        _canonical_labelling(lat.n, lat.up, lat.down)
    assert any(prefix and maps for _, maps, prefix in calls)
    for points, maps, prefix in calls:
        for g in maps:
            assert all(g[u] == u for u in prefix)
            assert sorted(g[x] for x in points) == sorted(points)
