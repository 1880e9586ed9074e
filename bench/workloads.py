"""The four benchmark workloads and their reference checks.

Each workload has three steps:

- ``prepare(seed, workdir)`` makes the inputs; it is part of set-up;
- ``run(inputs, ops, trace)`` is the timed batch; every user-visible
  operation goes through the ``OpClock``;
- ``check(inputs, results)`` compares the answers with independent
  references after the timed region and returns the failures.

The workloads call the library through module attributes at call time
(``zeta.zeta_series(...)``), so the tracer's in-memory bindings see
every call.
"""

import os
import random
import time
from array import array

from latzeta import cosetlike, families, groups, search, zeta
from latzeta.errors import LatZetaError

from spans import rebind


class OpClock:
    """Times each user-visible operation of a batch."""

    def __init__(self):
        self.times = array("d")  # seconds; compact, so it barely moves peak RSS
        self.errors = []
        self.current = None  # index of the operation in progress

    def call(self, label, fn, *args):
        """Run one operation; a library error is a failed operation."""
        self.current = len(self.times)
        start = time.perf_counter()
        try:
            return fn(*args)
        except LatZetaError as exc:
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.times.append(time.perf_counter() - start)
            self.current = None

    def hook(self, module, name, label):
        """Time every call of ``module.name`` made inside the library as
        one operation; returns the undo."""
        return rebind(
            module, name,
            lambda fn: lambda *args: self.call(label, fn, *args),
        )


# ----------------------------------------------------------------------
# families: the series of one big lattice at a time


def _pipeline(build, closed):
    """build -> zeta_series -> classify -> closed form, as the CLI's
    ``family --closed-form-check`` does; returns the answers only, so the
    lattice is freed when the operation ends."""
    lattice = build()
    series = zeta.zeta_series(lattice).series
    verdict = cosetlike.classify(lattice)
    return series, verdict, closed() if closed else None


FAMILY_TARGETS = {
    "partition:8": (lambda: families.partition_lattice(8),
                    lambda: families.partition_zeta_closed(8)),
    "partition:7": (lambda: families.partition_lattice(7),
                    lambda: families.partition_zeta_closed(7)),
    "ddiv:2,4": (lambda: families.d_divisible_partition_lattice(2, 4), None),
    "subspace:2,4": (lambda: families.subspace_lattice(2, 4),
                     lambda: families.subspace_zeta_closed(2, 4)),
    "boolean:8": (lambda: families.boolean_lattice(8),
                  lambda: families.boolean_zeta_closed(8)),
    "divisor:720720": (lambda: families.divisibility_lattice(720720),
                       lambda: families.divisibility_zeta_closed(720720)),
}

ORACLE_TARGETS = {
    "partition:6": lambda: families.partition_lattice(6),
    "subspace:2,4": lambda: families.subspace_lattice(2, 4),
}

ORACLE_S_MAX = 5


def _oracle(build):
    return zeta.verify_series_against_oracle(build(), ORACLE_S_MAX)


class Families:
    """Six lattices through the full pipeline, then two oracle checks;
    the seed sets the order of the eight operations."""

    @staticmethod
    def prepare(seed, workdir):
        work = [("target", name) for name in FAMILY_TARGETS]
        work += [("oracle", name) for name in ORACLE_TARGETS]
        random.Random(seed).shuffle(work)
        return work

    @staticmethod
    def run(work, ops, trace):
        results = {}
        for kind, name in work:
            if kind == "target":
                answer = ops.call(name, _pipeline, *FAMILY_TARGETS[name])
            else:
                answer = ops.call(f"oracle {name}", _oracle, ORACLE_TARGETS[name])
            results[kind, name] = answer
        return results

    @staticmethod
    def check(work, results):
        failures = []
        for (kind, name), answer in sorted(results.items()):
            if answer is None:
                continue  # already counted by the OpClock
            if kind == "oracle":
                if answer.methods != ("direct", "mobius") or sorted(
                    answer.s_values
                ) != list(range(1, ORACLE_S_MAX + 1)):
                    failures.append(f"oracle {name}: incomplete {answer.methods}")
                continue
            series, verdict, closed = answer
            if closed is not None and series != closed:
                failures.append(f"{name}: series differs from the closed form")
            if closed is not None and verdict.weak != closed.is_ordinary():
                failures.append(f"{name}: weak verdict disagrees with the closed form")
            kind_, _, arg = name.partition(":")
            if kind_ == "partition":
                want = cosetlike.partition_strong_check(int(arg)).strong
                if verdict.strong != want:
                    failures.append(f"{name}: strong {verdict.strong} != {want}")
            if kind_ == "ddiv":
                want = cosetlike.ddiv_strong_check(2, 4).strong
                if verdict.strong != want:
                    failures.append(f"{name}: strong {verdict.strong} != {want}")
        return failures


# ----------------------------------------------------------------------
# census: every lattice on up to ten elements, classified and stored

CENSUS_MAX_N = 10
A006966 = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078, 10: 5994}
WEAK_NOT_STRONG = {n: 0 for n in range(2, 10)} | {10: 29}


class Census:
    """``classify_catalog(n)`` for n = 2..10 into a fresh catalog file,
    then ``find_weak_not_strong(10)`` over the reloaded file.  The
    levels build on each other, so the order is fixed and the seed does
    not change the work."""

    @staticmethod
    def prepare(seed, workdir):
        return os.path.join(workdir, "catalog.txt")

    @staticmethod
    def run(path, ops, trace):
        store = search.CatalogStore(path)
        summaries = {}
        undo_hook = ops.hook(search, "catalog_entry", "catalog entry")
        try:
            for n in range(2, CENSUS_MAX_N + 1):
                with trace.region(f"search.level.{n}"):
                    summaries[n] = search.classify_catalog(n, store=store, jobs=1)
                trace.count(f"search.level.{n}.classes", summaries[n]["total"])
        finally:
            undo_hook()
        reloaded = search.CatalogStore(path)
        found = search.find_weak_not_strong(CENSUS_MAX_N, store=reloaded, jobs=1)
        return summaries, store, reloaded, found

    @staticmethod
    def check(path, results):
        summaries, store, reloaded, found = results
        failures = []
        for n in range(2, CENSUS_MAX_N + 1):
            total = summaries[n]["total"]
            if total != A006966[n]:
                failures.append(f"n={n}: {total} classes, A006966 says {A006966[n]}")
            for where, count in (("catalog", summaries[n]["weak_not_strong"]),
                                 ("reloaded", len(found[n]))):
                if count != WEAK_NOT_STRONG[n]:
                    failures.append(
                        f"n={n}: {count} weak-not-strong ({where}), "
                        f"expected {WEAK_NOT_STRONG[n]}"
                    )
        levels = range(2, CENSUS_MAX_N + 1)
        if reloaded.complete_levels() != list(levels) or any(
            store.entries(n) != reloaded.entries(n) for n in levels
        ):
            failures.append("the reloaded catalog differs from the computed entries")
        ten_point = cosetlike.load_fixture("ten_point").canonical_form()
        if ten_point not in {e.key for e in found.get(10, [])}:
            failures.append("fixture:ten_point is not among the n=10 hits")
        return failures


# ----------------------------------------------------------------------
# groups: identities and good sublattices on relabelled groups


def relabel(group, rng):
    """The same group with its non-identity elements renamed at random."""
    n = group.n
    perm = [0] + rng.sample(range(1, n), n - 1)  # old id -> new id
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        row = group.table[a]
        for b in range(n):
            table[perm[a]][perm[b]] = perm[row[b]]
    return groups.FiniteGroup(table, group.name)


BROWN_GROUPS = {
    "C2": lambda: groups.cyclic(2),
    "C3": lambda: groups.cyclic(3),
    "C4": lambda: groups.cyclic(4),
    "C6": lambda: groups.cyclic(6),
    "C8": lambda: groups.cyclic(8),
    "C12": lambda: groups.cyclic(12),
    "S3": lambda: groups.symmetric(3),
    "D4": lambda: groups.dihedral(4),
    "S4": lambda: groups.symmetric(4),
}

COPRIME_PAIRS = [(6, 5), (4, 3), (2, 3)]

# group -> number of good (seed, H) hits
GOOD_GROUPS = {
    "C2xC2xC4": (lambda: groups.direct_product(
        groups.direct_product(groups.cyclic(2), groups.cyclic(2)), groups.cyclic(4)
    ), 8),
    "D8": (lambda: groups.dihedral(8), 4),
    "C12": (lambda: groups.cyclic(12), 39),
}


class Groups:
    """Brown's identity on nine groups, the coprime product law on three
    pairs, and the good-sublattice scan on three groups.  The seed
    relabels every group's elements; the answers do not depend on the
    labels."""

    @staticmethod
    def prepare(seed, workdir):
        rng = random.Random(seed)
        return {
            "brown": [(name, relabel(make(), rng))
                      for name, make in BROWN_GROUPS.items()],
            "coprime": [(f"C{a}xC{b}", relabel(groups.cyclic(a), rng),
                         relabel(groups.cyclic(b), rng))
                        for a, b in COPRIME_PAIRS],
            "good": [(name, relabel(make(), rng))
                     for name, (make, _) in GOOD_GROUPS.items()],
        }

    @staticmethod
    def run(inputs, ops, trace):
        brown = [ops.call(f"brown {name}", groups.verify_brown_identity, g)
                 for name, g in inputs["brown"]]
        coprime = [ops.call(f"coprime {name}", groups.verify_coprime_product, a, b)
                   for name, a, b in inputs["coprime"]]
        undo_hook = ops.hook(groups, "is_good_sublattice", "good-sublattice test")
        try:
            good = [groups.good_sublattice_scan(g) for _, g in inputs["good"]]
        finally:
            undo_hook()
        return brown, coprime, good

    @staticmethod
    def check(inputs, results):
        brown, coprime, good = results
        failures = []
        for (name, _), answer in zip(inputs["brown"], brown):
            if answer is not None and answer.s_max != 5:
                failures.append(f"brown {name}: checked to s={answer.s_max}")
        for (name, _, _), answer in zip(inputs["coprime"], coprime):
            if answer is not None and not answer.lattices_isomorphic:
                failures.append(f"coprime {name}: lattices not isomorphic")
        for (name, _), hits in zip(inputs["good"], good):
            want = GOOD_GROUPS[name][1]
            if len(hits) != want:
                failures.append(f"good {name}: {len(hits)} hits, expected {want}")
            for seed, _h, verdict, sub in hits:
                if not verdict.good:
                    failures.append(f"good {name}: hit {seed} fails the test")
                elif not zeta.zeta_series(sub.lattice).strongly_coset_like:
                    failures.append(f"good {name}: hit {seed} not strongly coset-like")
        return failures


# ----------------------------------------------------------------------
# sweeps: the divisibility arithmetic of acceptance criteria 10 and 11

WITNESS_DS = (3, 4, 5)
WITNESS_M_MAX = 500
THRESHOLD_MAX = 50

# operation kind -> the cosetlike function it calls, looked up at call
# time so that the tracer's binding is the one called
SWEEP_FUNCTIONS = {
    "central": "central_binomial_check",
    "odd": "odd_case_check",
    "nagura": "nagura_scan",
    "ddiv": "ddiv_strong_check",
    "partition": "partition_strong_check",
    "p0prime": "p0prime_divisibility",
    "witness": "mainthm_witness",
}


class Sweeps:
    """Every m or n value of the central-binomial, odd-case, shape and
    (d-1)! sweeps, the Nagura scan, the witness thresholds for d = 3..5
    and the witnesses for m = 1..500.  The thresholds run first, then
    the Nagura scan; the seed shuffles the order of everything else."""

    @staticmethod
    def prepare(seed, workdir):
        work = [("central", m) for m in range(2, 10**4 + 1)]
        work += [("odd", m) for m in range(3, 10**4 + 1)]
        work += [("ddiv", 2, n) for n in range(2, 31)]
        work += [("partition", n) for n in range(2, 31)]
        work += [("p0prime", d, n) for d in range(2, 13) for n in range(2, 201)]
        work += [("witness", d, m)
                 for d in WITNESS_DS for m in range(1, WITNESS_M_MAX + 1)]
        random.Random(seed).shuffle(work)
        # the scan's sieve sets the peak memory; where it falls among the
        # other operations would make the peak depend on the seed
        return [("nagura", 25, 10**6)] + work

    @staticmethod
    def run(work, ops, trace):
        thresholds = {d: ops.call(f"threshold d={d}", cosetlike.mainthm_threshold, d)
                      for d in WITNESS_DS}
        # keep only what the check reads, so that the answers kept for
        # the check do not grow the batch's memory with its order
        gists = []
        for kind, *args in work:
            answer = ops.call(kind, getattr(cosetlike, SWEEP_FUNCTIONS[kind]), *args)
            if answer is not None and kind in ("ddiv", "partition"):
                answer = answer.strong
            elif answer is not None and kind == "witness":
                answer = (answer.confirmed and answer.square_ok
                          and answer.multiplicity_ok)
            gists.append(answer)
        return thresholds, gists

    @staticmethod
    def check(work, results):
        thresholds, gists = results
        failures = []
        for d, m0 in thresholds.items():
            if m0 is None or m0 > THRESHOLD_MAX:
                failures.append(f"threshold d={d} is {m0}, above {THRESHOLD_MAX}")
        for (kind, *args), gist in zip(work, gists):
            if kind == "nagura":
                ok = gist == []
            elif kind == "ddiv":
                ok = gist == (args[1] in (2, 3, 5))
            elif kind == "partition":
                ok = gist == (args[0] <= 4)
            elif kind == "witness":  # confirmed from the threshold on
                d, m = args
                ok = thresholds[d] is None or m < thresholds[d] or gist is True
            else:
                ok = gist is True
            if not ok:
                failures.append(f"{kind}{tuple(args)}: {gist!r}")
        return failures


WORKLOADS = {
    "families": Families,
    "census": Census,
    "groups": Groups,
    "sweeps": Sweeps,
}
