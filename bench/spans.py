"""Spans for the traced run, and the per-layer metrics read from them.

The tracer wraps the library's functions in memory, binding by binding,
from outside the package: nothing under ``src/latzeta`` is edited.  A
function imported by name into another module is a separate binding, so
every such binding is listed in ``BINDINGS``.  Per-element methods
(``join``, ``meet``, ``leq``, ``count_below_irreducibles``) are never
wrapped; they run millions of times.

A span is ``[name, parent, op, start, end, extra]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the index of the
benchmark operation it belongs to, and ``extra`` a binding tag or a
small key used by the wasted-work ratios.  Spans are kept in memory and
written out as JSON lines when the batch ends.
"""

import contextlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute path, span name, extra).  ``extra`` is a constant
# tag, or "translate" for the (coset lattice, g) key of a translation.
BINDINGS = [
    ("lattice", "Lattice.from_covers", "lattice.from_covers", None),
    ("lattice", "canonical_key_from_up", "lattice.canonical_key_from_up", "lattice"),
    ("search", "canonical_key_from_up", "lattice.canonical_key_from_up", "search"),
    ("lattice", "Lattice.mobius_vector", "lattice.mobius_vector", None),
    ("lattice", "is_isomorphic", "lattice.is_isomorphic", None),
    ("groups", "is_isomorphic", "lattice.is_isomorphic", None),
    ("lattice", "lower_reduced_product", "lattice.lower_reduced_product", None),
    ("groups", "lower_reduced_product", "lattice.lower_reduced_product", None),
    ("zeta", "zeta_series", "zeta.zeta_series", None),
    ("search", "zeta_series", "zeta.zeta_series", None),
    ("groups", "zeta_series", "zeta.zeta_series", None),
    ("cosetlike", "zeta_series", "zeta.zeta_series", None),
    ("cosetlike", "classify", "cosetlike.classify", None),
    ("search", "classify", "cosetlike.classify", None),
    ("zeta", "verify_series_against_oracle", "zeta.verify_series_against_oracle", None),
    ("zeta", "brute_force_probability", "zeta.brute_force_probability", None),
    ("dirichlet", "DirichletSeries.evaluate_exact", "dirichlet.evaluate_exact", None),
    ("families", "boolean_lattice", "families.construct", None),
    ("families", "chain", "families.construct", None),
    ("families", "divisibility_lattice", "families.construct", None),
    ("families", "subspace_lattice", "families.construct", None),
    ("families", "partition_lattice", "families.construct", None),
    ("families", "d_divisible_partition_lattice", "families.construct", None),
    ("families", "boolean_zeta_closed", "families.closed_form", None),
    ("families", "chain_zeta_closed", "families.closed_form", None),
    ("families", "divisibility_zeta_closed", "families.closed_form", None),
    ("families", "subspace_zeta_closed", "families.closed_form", None),
    ("families", "partition_zeta_closed", "families.closed_form", None),
    ("search", "catalog_entry", "search.catalog_entry", None),
    ("search", "CatalogStore.write_level", "search.catalog.write", None),
    ("search", "CatalogStore._load", "search.catalog.load", None),
    ("groups", "FiniteGroup.subgroups", "groups.subgroups", None),
    ("groups", "coset_lattice", "groups.coset_lattice", None),
    ("groups", "CosetLattice.translate", "groups.translate", "translate"),
    ("groups", "sublattice_generated", "groups.sublattice_generated", None),
    ("groups", "is_good_sublattice", "groups.is_good_sublattice", None),
    ("cosetlike", "central_binomial_check", "cosetlike.central_binomial_check", None),
    ("cosetlike", "odd_case_check", "cosetlike.odd_case_check", None),
    ("cosetlike", "mainthm_witness", "cosetlike.mainthm_witness", None),
    ("cosetlike", "nagura_scan", "cosetlike.nagura_scan", None),
    ("cosetlike", "ddiv_strong_check", "cosetlike.shape_checks", None),
    ("cosetlike", "partition_strong_check", "cosetlike.shape_checks", None),
    ("cosetlike", "p0prime_divisibility", "cosetlike.shape_checks", None),
]

LEVELS = range(2, 11)


def rebind(owner, attr, wrap):
    """Replace ``owner.attr`` by ``wrap(function)``; return the undo.

    Class methods are unwrapped and rewrapped so that the replacement
    is still a class method.
    """
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attr, wrap(raw))
    return lambda: setattr(owner, attr, raw)


class NullTrace:
    """Stands in for the tracer in untraced runs."""

    def region(self, name):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    """Records a span for each call through the wrapped bindings."""

    def __init__(self, ops):
        self.ops = ops  # the batch's OpClock; its ``current`` is the op id
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []
        self._cosets = {}  # id -> (index, coset lattice), kept alive

    def _open(self, name, extra):
        stack = self._stack
        record = [name, stack[-1] if stack else -1, self.ops.current,
                  time.perf_counter(), 0.0, extra]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        self._stack.pop()
        record[4] = time.perf_counter()

    def _translate_key(self, coset_lattice, g):
        entry = self._cosets.setdefault(
            id(coset_lattice), (len(self._cosets), coset_lattice)
        )
        return [entry[0], g]

    def wrap(self, name, fn, extra=None):
        def traced(*args, **kwargs):
            tag = self._translate_key(*args) if extra == "translate" else extra
            record = self._open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    @contextlib.contextmanager
    def region(self, name):
        """One span around a block of the workload's own code."""
        record = self._open(name, None)
        try:
            yield
        finally:
            self._close(record)

    def count(self, name, value):
        self.counts[name] = value

    def install(self, modules):
        for module, path, name, extra in BINDINGS:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._undo.append(
                rebind(owner, attr, lambda fn, n=name, e=extra: self.wrap(n, fn, e))
            )

    def uninstall(self):
        while self._undo:
            self._undo.pop()()
        self._cosets.clear()

    def write(self, path):
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics, computed from the written spans


def _calls_and_self(spans):
    """Per span name: number of calls and total self time in seconds."""
    child = [0.0] * len(spans)
    for name, parent, _op, start, end, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    for i, (name, _parent, _op, start, end, _extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
    return calls, self_s


def _under(spans, i, ancestor):
    """Whether span i has an enclosing span named ``ancestor``."""
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][1]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics whose span name is not the metric name minus its suffix.
_SPAN_OF = {
    "search.catalog.write_s": "search.catalog.write",
    "search.catalog.load_s": "search.catalog.load",
}


def layer_metrics(spans, counts, names):
    """Each per-layer metric in ``names`` from one traced batch; 0 where
    a layer was not reached."""
    calls, self_s = _calls_and_self(spans)
    canon = "lattice.canonical_key_from_up"
    enum_keys = sum(1 for s in spans if s[0] == canon and s[5] == "search")
    recanon = sum(
        1 for i, s in enumerate(spans)
        if s[0] == canon and _under(spans, i, "search.catalog_entry")
    )
    class_series = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "zeta.zeta_series" and _under(spans, i, "search.catalog_entry")
    )
    translations = {tuple(s[5]) for s in spans if s[0] == "groups.translate"}
    kept = sum(counts.get(f"search.level.{n}.classes", 0) for n in LEVELS)
    derived = {
        "search.canon_useful_frac": _ratio(kept, enum_keys),
        "search.catalog_recanon": recanon,
        "zeta.zeta_series.per_class": _ratio(
            class_series, calls["search.catalog_entry"]
        ),
        "groups.translate.distinct_frac": _ratio(
            len(translations), calls["groups.translate"]
        ),
    }
    out = {}
    for metric in names:
        if metric in derived:
            value = derived[metric]
        elif metric in counts:
            value = counts[metric]
        elif metric in _SPAN_OF:
            value = self_s[_SPAN_OF[metric]]
        elif metric.endswith(".calls"):
            value = calls[metric[: -len(".calls")]]
        else:
            value = self_s[metric[: -len(".s")]]
        out[metric] = value
    return out, {"enum_keys": enum_keys, "kept": kept,
                 "translate_distinct": len(translations)}
