"""Command-line front end.

Thin adapters only: every computation lives in the library modules.
Targets name lattices (``partition:5``, ``fixture:ten_point``,
``file:path.lat``, ``group:cyclic:6`` for a coset lattice), group specs
name groups (``cyclic:6``, ``sym:3``, ``dihedral:4``,
``prod:cyclic:4,cyclic:3``).  Machine output (``--format json``) is
byte-stable: sorted keys, no timing, exact rationals as strings.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import families, groups, search
from .cosetlike import (
    FIXTURE_NAMES,
    classify,
    coatom_criterion,
    ddiv_strong_check,
    load_fixture,
)
from .errors import (
    CatalogCorrupt, LatZetaError, MismatchDetected, UnknownFixture, UsageError
)
from .lattice import Lattice, lower_reduced_product, parse_lat
from .zeta import verify_series_against_oracle, zeta_series

__all__ = ["run", "main", "build_parser"]


# ----------------------------------------------------------------------
# target and group-spec parsing


def _int_args(raw, count, what):
    parts = raw.split(",")
    if len(parts) != count:
        raise UsageError(f"{what} takes {count} integer argument(s), got {raw!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"{what} arguments must be integers, got {raw!r}") from None


@contextmanager
def _spec_errors(spec):
    """Report a constructor's ``ValueError`` (``boolean:0``, a ``.lat`` cover
    out of range, ...) or an unknown fixture as a ``UsageError`` naming the spec."""
    try:
        yield
    except (ValueError, UnknownFixture) as exc:
        raise UsageError(f"{spec!r}: {exc}") from None


def parse_group(spec):
    """Build a finite group from a spec like ``cyclic:6`` or
    ``prod:cyclic:2,cyclic:3`` (left-folded direct product)."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"group spec {spec!r} needs a ':'")
    if kind == "prod":
        factors = [parse_group(p) for p in rest.split(",")]
        if len(factors) < 2:
            raise UsageError("prod: needs at least two factors")
        product = factors[0]
        for factor in factors[1:]:
            product = groups.direct_product(product, factor)
        return product
    with _spec_errors(spec):
        if kind == "cyclic":
            return groups.cyclic(_int_args(rest, 1, "cyclic")[0])
        if kind == "sym":
            return groups.symmetric(_int_args(rest, 1, "sym")[0])
        if kind == "dihedral":
            return groups.dihedral(_int_args(rest, 1, "dihedral")[0])
    raise UsageError(
        f"unknown group kind {kind!r} (expected cyclic, sym, dihedral, prod)"
    )


# kind -> (integer arguments, size from the spec, constructor, closed form)
_FAMILIES = {
    "boolean": (1, families.boolean_size, families.boolean_lattice,
                families.boolean_zeta_closed),
    "chain": (1, families.chain_size, families.chain, families.chain_zeta_closed),
    "divisor": (1, families.divisibility_size, families.divisibility_lattice,
                families.divisibility_zeta_closed),
    "subspace": (2, families.subspace_size, families.subspace_lattice,
                 families.subspace_zeta_closed),
    "partition": (1, families.partition_size, families.partition_lattice,
                  families.partition_zeta_closed),
    "ddiv": (2, families.d_divisible_size, families.d_divisible_partition_lattice,
             families.ddiv_zeta_closed),
}


def _check_cap(count, max_elements):
    if max_elements is not None and count > max_elements:
        raise UsageError(
            f"target has {count} elements, over the --max-elements cap "
            f"{max_elements}"
        )


def _family_lattice(kind, params, max_elements):
    _, size, build, _ = _FAMILIES[kind]
    _check_cap(size(*params), max_elements)
    return build(*params)


def parse_lattice_target(spec, *, max_elements=None):
    """Build a lattice from a target spec; see module docstring.

    ``max_elements`` is checked before anything is built wherever the
    spec tells the size: the families, a coset lattice, a ``file:``
    target's ``n`` line.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"target {spec!r} needs a ':'")
    with _spec_errors(spec):
        if kind in _FAMILIES:
            params = _int_args(rest, _FAMILIES[kind][0], kind)
            return _family_lattice(kind, params, max_elements)
        if kind == "fixture":
            lattice = load_fixture(rest)
            _check_cap(lattice.n, max_elements)
            return lattice
        if kind == "group":
            group = parse_group(rest)
            _check_cap(groups.coset_count(group), max_elements)
            return groups.coset_lattice(group).lattice
        if kind == "file":
            try:
                with open(rest, encoding="ascii") as handle:
                    text = handle.read()
            except OSError as exc:
                raise UsageError(f"cannot read {rest!r}: {exc}") from None
            n, covers = parse_lat(text)
            _check_cap(n, max_elements)
            return Lattice.from_covers(n, covers)
    raise UsageError(f"unknown target kind {kind!r}")


# ----------------------------------------------------------------------
# output


def _emit(doc, args, human_lines, code):
    """Write the document to stdout or ``--output`` and return ``code``,
    or 2 when the output file cannot be written."""
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = "\n".join(human_lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def _frac(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


# ----------------------------------------------------------------------
# subcommand handlers: each returns (doc, human_lines, exit_code)


def _cmd_zeta(args):
    lattice = parse_lattice_target(args.target, max_elements=args.max_elements)
    report = zeta_series(lattice)
    doc = {"command": "zeta", "target": args.target, **report.to_doc()}
    lines = [
        f"P(L, s) = {report.series.pretty()}",
        f"elements: {lattice.n}   join-irreducibles: {report.j_count}",
        f"ordinary: {report.ordinary}   strongly coset-like: "
        f"{report.strongly_coset_like}",
    ]
    return doc, lines, 0


def _cmd_classify(args):
    lattice = parse_lattice_target(args.target, max_elements=args.max_elements)
    verdict = classify(lattice)
    witness = coatom_criterion(lattice)
    doc = {
        "command": "classify",
        "target": args.target,
        **verdict.to_doc(),
        "coatom_witness": witness,
    }
    lines = [
        f"strong: {verdict.strong}   weak: {verdict.weak}",
    ]
    if verdict.strong_failures:
        x, jx, j = verdict.strong_failures[0]
        lines.append(
            f"strong fails at element {x}: |J_x| = {jx} does not divide |J| = {j}"
            + (f" (+{len(verdict.strong_failures) - 1} more)"
               if len(verdict.strong_failures) > 1 else "")
        )
    if verdict.non_integer_bases:
        lines.append(
            "non-integer bases: "
            + ", ".join(_frac(q) for q in verdict.non_integer_bases)
        )
    lines.append(f"coatom-criterion witness: {witness}")
    return doc, lines, 0


def _cmd_mobius(args):
    lattice = parse_lattice_target(args.target, max_elements=args.max_elements)
    mu = lattice.mobius_to_top()
    doc = {
        "command": "mobius",
        "target": args.target,
        "n": lattice.n,
        "top": lattice.top,
        "mobius_top": [int(v) for v in mu],
    }
    lines = [f"mu(x, top) on {lattice.n} elements (top = {lattice.top}):"]
    lines += [f"  {x}: {mu[x]}" for x in range(lattice.n)]
    return doc, lines, 0


def _cmd_group(args):
    group = parse_group(args.group)
    series = groups.group_zeta(group)
    doc = {
        "command": "group",
        "group": args.group,
        "order": group.n,
        "series": series.to_doc(),
    }
    lines = [f"|G| = {group.n}", f"P(G, s) = {series.pretty()}"]
    if args.brown:
        check = groups.verify_brown_identity(group, s_max=args.smax)
        doc["brown"] = {"ok": True, "s_max": check.s_max}
        lines.append(f"brown identity: OK (s=0..{check.s_max})")
    if args.coprime:
        other = parse_group(args.coprime)
        check = groups.verify_coprime_product(group, other)
        doc["coprime"] = {
            "other": args.coprime,
            "ok": True,
            "lattices_isomorphic": check.lattices_isomorphic,
        }
        lines.append(
            f"coprime product with {args.coprime}: series OK, "
            f"lattices isomorphic: {check.lattices_isomorphic}"
        )
    return doc, lines, 0


def _parse_family(spec):
    """``(kind, integer parameters, closed form)`` of a spec like ``ddiv:2,3``."""
    kind, _, rest = spec.partition(":")
    if kind not in _FAMILIES:
        raise UsageError(f"no closed form for family {spec!r}")
    arity, _, _, closed_form = _FAMILIES[kind]
    params = _int_args(rest, arity, kind)
    with _spec_errors(spec):
        return kind, params, closed_form(*params)


def _engine_mismatch(spec, kind, params, closed, max_elements=None):
    """The engine series of the family lattice when it differs from the
    closed form ``closed``, None when they agree."""
    with _spec_errors(spec):
        engine = zeta_series(_family_lattice(kind, params, max_elements)).series
    return None if engine == closed else engine


def _cmd_family(args):
    kind, params, closed = family = _parse_family(args.family)
    doc = {"command": "family", "family": args.family, "series": closed.to_doc()}
    lines = [f"P(L, s) = {closed.pretty()}"]
    if kind == "ddiv":
        # the closed form has checked d and n
        d, n = params
        summary = ddiv_strong_check(d, n)
        doc["shape_strong_check"] = summary.to_doc()
        lines.append(
            f"shape-level strong check (d={d}, n={n}): {summary.strong}"
        )
    if args.closed_form_check:
        engine = _engine_mismatch(args.family, *family, args.max_elements)
        if engine is not None:
            raise MismatchDetected(
                f"closed form for {args.family} disagrees with the engine",
                context={"closed": closed.to_doc(), "engine": engine.to_doc()},
            )
        doc["closed_form_check"] = "ok"
        lines.append("closed form matches the engine series")
    return doc, lines, 0


class _Catalog(search.CatalogStore):
    """The search's catalog store, whose failed writes are usage errors.

    The error names the catalog and the reason only: the OSError itself
    names the random temp file the write went through."""

    def write_level(self, n, pairs):
        try:
            super().write_level(n, pairs)
        except OSError as exc:
            raise UsageError(f"cannot write {self.path!r}: {exc.strerror}") from None


def _cmd_search(args):
    if args.max_n < 2:
        raise UsageError(f"--max-n must be at least 2, got {args.max_n}")
    try:
        store = None if args.catalog is None else _Catalog(args.catalog)
    except OSError as exc:
        raise UsageError(f"cannot read {args.catalog!r}: {exc}") from None
    found = search.find_weak_not_strong(
        args.max_n, store=store, jobs=args.jobs,
        atomistic_only=args.atomistic_only,
    )
    summaries = [
        search.classify_catalog(n, store=store, jobs=args.jobs) for n in found
    ]
    doc = {
        "command": "search",
        "max_n": args.max_n,
        "atomistic_only": args.atomistic_only,
        "levels": summaries,
        "weak_not_strong": {
            str(n): [e.key for e in entries] for n, entries in found.items()
        },
    }
    lines = ["n  total  strong  weak  atomistic  weak-not-strong"]
    for s in summaries:
        lines.append(
            f"{s['n']:<2} {s['total']:>6} {s['strong']:>7} {s['weak']:>5} "
            f"{s['atomistic']:>9} {s['weak_not_strong']:>15}"
        )
    hits = sum(len(v) for v in found.values())
    lines.append(f"weak-not-strong classes found: {hits}")
    return doc, lines, 0


def _cmd_fixture(args):
    lattice = load_fixture(args.name)
    report = zeta_series(lattice)
    lat_text = lattice.to_lat(comment=f"fixture {args.name}")
    doc = {
        "command": "fixture",
        "name": args.name,
        "lat": lat_text,
        **report.to_doc(),
    }
    lines = [lat_text.rstrip("\n"), f"# P(L, s) = {report.series.pretty()}"]
    return doc, lines, 0


# ----------------------------------------------------------------------
# verification suites


def _suite_brown(args):
    roster = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "cyclic:8",
              "cyclic:12", "sym:3", "dihedral:4"]
    for name in roster:
        groups.verify_brown_identity(parse_group(name), s_max=args.smax)
        yield f"brown {name}", True
    sizes = [groups.coset_lattice(parse_group(g)).lattice.n
             for g in ("cyclic:6", "sym:3")]
    yield "coset sizes 13/19", sizes == [13, 19]


def _suite_closed_forms(args):
    targets = (
        ["boolean:%d" % r for r in range(1, 6)]
        + ["divisor:%d" % n for n in (4, 8, 12, 30, 360)]
        + ["subspace:2,2", "subspace:2,3", "subspace:3,2", "subspace:4,2"]
        + ["partition:%d" % n for n in (3, 4, 5, 6)]
        + ["ddiv:%d,%d" % dn for dn in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                        (4, 2), (5, 2), (6, 2))]
    )
    for spec in targets:
        yield f"closed {spec}", _engine_mismatch(spec, *_parse_family(spec)) is None


def _suite_oracle(args):
    for n in range(2, 8):
        for lattice in search.enumerate_lattices(n):
            verify_series_against_oracle(lattice, args.smax)
        yield f"oracle n={n}", True


def _suite_products(args):
    right = [(name, parse_lattice_target(name))
             for name in ("chain:3", "boolean:2", "fixture:ten_point")]
    for lname in ("boolean:2", "boolean:3", "partition:4", "group:cyclic:2"):
        L = parse_lattice_target(lname)
        for rname, K in right:
            product = lower_reduced_product(L, K)
            ok = (
                zeta_series(product).series
                == zeta_series(L).series * zeta_series(K).series
            )
            yield f"star {lname} x {rname}", ok
    for a, b in ((2, 3), (4, 3)):
        check = groups.verify_coprime_product(groups.cyclic(a), groups.cyclic(b))
        yield f"coprime cyclic:{a} x cyclic:{b}", check.lattices_isomorphic


def _suite_limits(args):
    h = Fraction(1, 10**6)
    for n in (2, 3):
        for s in range(1, 5):
            check = families.q_to_one_limit_check(n, s, h)
            yield f"limit n={n} s={s}", check.difference < 1e-3


def _suite_stirling(args):
    for r in range(1, 6):
        series = families.boolean_zeta_closed(r)
        ok = all(
            series.evaluate_exact(s) == families.stirling_boolean_value(r, s)
            for s in range(1, 10)
        )
        yield f"stirling r={r}", ok


def _suite_fixtures(args):
    for name in FIXTURE_NAMES:
        verdict = classify(load_fixture(name))
        ratios = {Fraction(j, jx) for _, jx, j in verdict.strong_failures}
        yield f"fixture {name}", (
            verdict.weak and not verdict.strong and Fraction(8, 3) in ratios
        )


_SUITES = {
    "brown": _suite_brown,
    "closed-forms": _suite_closed_forms,
    "oracle": _suite_oracle,
    "products": _suite_products,
    "limits": _suite_limits,
    "stirling": _suite_stirling,
    "fixtures": _suite_fixtures,
}


def _cmd_verify(args):
    if args.suite == "all":
        names = sorted(_SUITES)
    elif args.suite in _SUITES:
        names = [args.suite]
    else:
        raise UsageError(
            f"unknown suite {args.suite!r}; available: "
            + ", ".join(sorted(_SUITES) + ["all"])
        )
    checks = []
    for name in names:
        for check_name, ok in _SUITES[name](args):
            checks.append({"name": check_name, "ok": bool(ok)})
    all_ok = all(c["ok"] for c in checks)
    doc = {
        "command": "verify",
        "suite": args.suite,
        "checks": checks,
        "ok": all_ok,
    }
    lines = [
        f"{'OK ' if c['ok'] else 'FAIL'} {c['name']}" for c in checks
    ] + [f"suite {args.suite}: {'OK' if all_ok else 'FAILED'}"]
    return doc, lines, 0 if all_ok else 1


# ----------------------------------------------------------------------
# parser


def _count(raw):
    """A count option's value: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    # each subcommand declares only the options its handler reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("human", "json"), default="human")
    output.add_argument("--output", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    capped = argparse.ArgumentParser(add_help=False, parents=[output])
    capped.add_argument("--max-elements", type=_count, default=None,
                        help="refuse lattices larger than this")
    sweep = argparse.ArgumentParser(add_help=False, parents=[output])
    sweep.add_argument("--smax", type=_count, default=5,
                       help="largest exponent for verification sweeps")

    parser = argparse.ArgumentParser(
        prog="latzeta",
        description="Probabilistic zeta functions of finite lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", parents=[capped],
                       help="series and report for a lattice target")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_zeta)

    p = sub.add_parser("classify", parents=[capped],
                       help="strong/weak coset-likeness of a target")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("mobius", parents=[capped],
                       help="Moebius numbers mu(x, top) of a target")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_mobius)

    p = sub.add_parser("group", parents=[sweep],
                       help="group zeta series and identities")
    p.add_argument("group")
    p.add_argument("--brown", action="store_true",
                   help="verify the coset-lattice shift identity")
    p.add_argument("--coprime", default=None, metavar="GROUP",
                   help="verify the coprime product law against this group")
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("family", parents=[capped],
                       help="closed-form series for a lattice family")
    p.add_argument("family")
    p.add_argument("--closed-form-check", action="store_true",
                   help="compare the closed form with the generic engine")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("search", parents=[output],
                       help="enumerate and classify small lattices")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--atomistic-only", action="store_true")
    p.add_argument("--catalog", default=None, metavar="PATH",
                   help="persist/resume the catalog at this path")
    p.add_argument("--jobs", type=_count, default=1,
                   help="worker processes, at most the CPU count")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("verify", parents=[sweep],
                       help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   help=", ".join(sorted(_SUITES) + ["all"]))
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("fixture", parents=[output],
                       help="emit a fixture lattice in .lat form")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.set_defaults(handler=_cmd_fixture)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, lines, code = args.handler(args)
    except (UsageError, CatalogCorrupt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MismatchDetected as exc:
        doc = {"error": "MismatchDetected", "message": str(exc),
               "context": exc.context}
        return _emit(doc, args, [f"MISMATCH: {exc}"], 1)
    except LatZetaError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        return _emit(doc, args, [f"error ({type(exc).__name__}): {exc}"], 1)
    return _emit(doc, args, lines, code)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
