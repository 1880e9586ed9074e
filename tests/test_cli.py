"""Command-line interface: target parsing, output formats, exit codes,
and the verification suites."""

import errno
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from latzeta import groups, search, zeta
from latzeta.cli import build_parser, parse_group, parse_lattice_target, run
from latzeta.cosetlike import load_fixture
from latzeta.errors import UsageError
from latzeta.families import ddiv_zeta_closed
from latzeta.lattice import Lattice, is_isomorphic, parse_lat


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# spec parsing


def test_parse_lattice_targets():
    assert parse_lattice_target("boolean:3").n == 8
    assert parse_lattice_target("chain:4").n == 4
    assert parse_lattice_target("divisor:12").n == 6
    assert parse_lattice_target("subspace:2,2").n == 5
    assert parse_lattice_target("partition:4").n == 15
    assert parse_lattice_target("ddiv:2,2").n == 5
    assert parse_lattice_target("fixture:ten_point").n == 10
    assert parse_lattice_target("group:cyclic:2").n == 4


def test_parse_lattice_target_errors():
    for bad in ("nonsense", "boolean:x", "subspace:2", "mystery:3"):
        with pytest.raises(UsageError):
            parse_lattice_target(bad)
    with pytest.raises(UsageError):
        parse_lattice_target("boolean:4", max_elements=10)
    with pytest.raises(UsageError):
        parse_lattice_target("file:/no/such/file.lat")


def test_parse_group():
    assert parse_group("cyclic:6").n == 6
    assert parse_group("sym:3").n == 6
    assert parse_group("dihedral:5").n == 10
    assert parse_group("prod:cyclic:2,cyclic:3").n == 6
    assert parse_group("prod:cyclic:2,cyclic:2,cyclic:2").n == 8
    for bad in ("cyclic", "weird:3", "prod:cyclic:2"):
        with pytest.raises(UsageError):
            parse_group(bad)


# ----------------------------------------------------------------------
# subcommands


def test_zeta_human(capsys):
    code, out, _ = invoke(capsys, "zeta", "boolean:2")
    assert code == 0
    assert "P(L, s) = 1 - 1/2^(s-1)" in out  # 2/2^s in collapsed form
    assert "join-irreducibles: 2" in out


def test_zeta_json_stable(capsys):
    code1, out1, _ = invoke(capsys, "zeta", "partition:4", "--format", "json")
    code2, out2, _ = invoke(capsys, "zeta", "partition:4", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "zeta" and doc["n"] == 15
    assert doc["series"]["terms"][0] == {"q": "1/1", "c": "1"}


def test_classify(capsys):
    code, out, _ = invoke(capsys, "classify", "fixture:ten_point")
    assert code == 0
    assert "strong: False   weak: True" in out
    code, out, _ = invoke(
        capsys, "classify", "boolean:3", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["weak"] is False and doc["coatom_witness"] is not None


def test_mobius(capsys):
    code, out, _ = invoke(capsys, "mobius", "chain:3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mobius_top"] == [0, -1, 1]


def test_group_brown_coprime(capsys):
    code, out, _ = invoke(
        capsys, "group", "cyclic:6", "--brown", "--smax", "4",
        "--coprime", "cyclic:5",
    )
    assert code == 0
    assert "brown identity: OK (s=0..4)" in out
    assert "lattices isomorphic: True" in out


def test_group_json(capsys):
    code, out, _ = invoke(capsys, "group", "sym:3", "--format", "json")
    doc = json.loads(out)
    assert doc["order"] == 6
    assert {"q": "3/1", "c": "-3"} in doc["series"]["terms"]


def test_family_closed_form_check(capsys):
    for family in ("boolean:4", "chain:5", "divisor:30", "subspace:3,2",
                   "partition:4"):
        code, out, _ = invoke(
            capsys, "family", family, "--closed-form-check"
        )
        assert code == 0
        assert "closed form matches the engine series" in out


def test_family_ddiv(capsys):
    code, out, _ = invoke(capsys, "family", "ddiv:2,4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["shape_strong_check"]["strong"] is False
    assert doc["series"] == ddiv_zeta_closed(2, 4).to_doc()


def test_family_ddiv_closed_form_check(capsys):
    code, out, _ = invoke(capsys, "family", "ddiv:2,4", "--closed-form-check")
    assert code == 0
    assert out.startswith(f"P(L, s) = {ddiv_zeta_closed(2, 4).pretty()}\n")
    assert "shape-level strong check (d=2, n=4): False" in out
    assert "closed form matches the engine series" in out


def test_verify_closed_forms_covers_ddiv(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "closed-forms")
    assert code == 0 and "FAIL" not in out
    for spec in ("ddiv:2,2", "ddiv:2,3", "ddiv:2,4", "ddiv:3,2", "ddiv:3,3",
                 "ddiv:4,2", "ddiv:5,2", "ddiv:6,2"):
        assert f"OK  closed {spec}\n" in out


@pytest.mark.parametrize("family", [
    "partition:200", "ddiv:2,200", "ddiv:6,34", "subspace:2,500",
    "subspace:1000000000000000003,2", "boolean:20000",
])
def test_over_budget_closed_form_exit_code(capsys, family):
    code, out, err = invoke(capsys, "family", family)
    assert code == 1 and err == ""
    assert out.startswith("error (SizeLimitExceeded): ")


def test_family_unknown(capsys):
    code, _, err = invoke(capsys, "family", "mystery:1")
    assert code == 2 and "error" in err


def test_search(capsys):
    code, out, _ = invoke(capsys, "search", "--max-n", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"][-1]["total"] == 15
    assert doc["weak_not_strong"] == {str(n): [] for n in range(2, 7)}


# sha256 of the census outputs for n <= 10, fixed while the enumerator
# still built each lattice from a semilattice with a bottom adjoined
CENSUS_JSON_SHA256 = "c94b8d8dedcde3813cd8bdb8fcc509f56b26da46cf49223956773a83f52d481e"
CENSUS_CATALOG_SHA256 = "4dfec3b82b8b460b4a34e9dced299fd6c12dc7cd9b0c78534fe447b56f1d59a2"


def test_census_bytes_are_pinned(capsys, tmp_path):
    code, out, _ = invoke(capsys, "search", "--max-n", "10", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_JSON_SHA256
    catalog = tmp_path / "catalog.txt"
    code, _, _ = invoke(capsys, "search", "--max-n", "10", "--catalog", str(catalog))
    assert code == 0
    assert hashlib.sha256(catalog.read_bytes()).hexdigest() == CENSUS_CATALOG_SHA256


# sha256 of ``--format json`` stdout per command, fixed while classify
# still listed its non-integer bases from a built series
JSON_SHA256 = {
    "zeta boolean:3":
        "8d3bf3c3e17a3014581def637913c5cde679276b900e6a1dd5adbba4c6dd6875",
    "zeta partition:5":
        "e58d8d9d5d0129ce9a36322dd1ee0e7f1a3b46270a96255d2c9c0190b8fdd47f",
    "zeta ddiv:2,3":
        "f9e5066495918cb2f669fcf69ca03fdb6e3e1c61de9c6ecd13e5c89f9833d33d",
    "zeta divisor:360":
        "f42926686981647c41f83f99922c0cad3d3d7ce98b1e98d7c553d66804493d60",
    "zeta subspace:2,3":
        "4eddb8078e5ffacbf7b1d18f3cafa8ccd29d3fd08fb00db6ffdb63d4dc80fe08",
    "zeta fixture:eleven_point":
        "ea28343990d0e44338302184f1060050e1f75adc486b6e9b2121e52a6c3e1815",
    "zeta fixture:ten_point":
        "59522b5736bf25be5c4f8d53968147f96300358310a5557f01449ab913ed92e9",
    "zeta group:sym:3":
        "7c9dda451a506c040b5eac6d7aaa3eb671095b86f535cabc48bd9a36e58cc304",
    "classify boolean:3":
        "72f5fe164c6f3186ca75fbbf9b3fa40fbc9fa03ccdd90d472522aff9cc482ef0",
    "classify partition:5":
        "d446a2a22d0c3f6069a96892695cb44a295e1a570d9f1e3b6bd4c0a7c2c58396",
    "classify ddiv:2,3":
        "b07872d9618d2d13a3e04810e0c752387d1418bf711e75f14d63bf77db2a45d2",
    "classify divisor:360":
        "ad1bc4ef9c59c2a4084449b652e4f55ed0f2f366589b7dde36fc792ecac5a5df",
    "classify subspace:2,3":
        "4cfce3aa80e6e07ea299b0cfed7b3d691d5ae467d20701cd76149a79efd14b08",
    "classify fixture:eleven_point":
        "9c7a55919a5f785127842dcf683a503f3ab60cc9cc6befbd06ec47176dff7781",
    "classify fixture:ten_point":
        "c258d8d297d2f8756290bba167d15f43bc053cbb50f4abc6921b8aa41e25998d",
    "classify group:sym:3":
        "b0ae84a368f0a977849bc239e8e502088ef7cc2cf6a8e902cd133bcbc661b8bf",
    "mobius boolean:3":
        "b34957401d98ff2a8f78115059c4fa416ab7345d46ba04cf8f9002074e75ef46",
    "mobius partition:5":
        "cd1b559f021e72cc41992d990aafa437fe42bb2dbda70bbcec71e04d82f18086",
    "mobius ddiv:2,3":
        "4e06b5da8eb218841c54ce697ec266093f454602df0024a0404e97fc013c2de2",
    "mobius divisor:360":
        "e27d4dbe72ddc9a0de2394fb14c36fcfc0726f57afbf53d2a7f83fb114ed8435",
    "mobius subspace:2,3":
        "e46a6e5cffdae2a6708d9fbc9376d84cf34835d723b07e00617d9d89367ecd07",
    "mobius fixture:eleven_point":
        "7b28b5419fe32592b69eeda671a681459253fae2761970f1a59e17c45d9717e1",
    "mobius fixture:ten_point":
        "34ef6a65046ce69e4f6afbe512eaefa50d01bf29ef5977da6f27328c2dd5e04a",
    "mobius group:sym:3":
        "8d349db6d8338a3820a65579329671fb226ed79de386a9b28563b8cced6d14ca",
    "family partition:12":
        "480e986894dda6e7f68f1f54f48517ebda9d5d70595f0f43ce56852ab41f8a4a",
    "family ddiv:3,6":
        "bb03bff66c937f5d3386bcc77b83772551fd6d847ea8a31ac949daadffca965c",
    "family boolean:6":
        "17561df5f1466d0a9d76779d193a30894f15af31186488b53e8ac2b1c8e7c316",
    "family chain:5":
        "1bcd538ea000d4d2bb94adc69b740dcfd87d1c7ed456d32be19552ad58523524",
    "family divisor:360":
        "1056448eab6d97fbd52f61daa28138b59fa401ddec07acb5d8336b499319b472",
    "fixture ten_point":
        "edda21aa518ca1a15f0479a00964c4361f3084706e9a95850f6160aa432954e0",
    "group sym:3 --brown":
        "3b1cbcc6eefa7dd7c7e78fc2fd1e153aaa93eb7a4cef8312b867890884875049",
}


@pytest.mark.parametrize("command", sorted(JSON_SHA256))
def test_json_bytes_are_pinned(capsys, command):
    code, out, _ = invoke(capsys, *command.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_SHA256[command]


def test_zeta_of_a_fixture_builds_its_series_once(capsys, monkeypatch):
    # the fixture's load-time check builds no series; the command builds one
    built = []
    real = zeta.DirichletSeries

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(zeta, "DirichletSeries", counting)
    code, out, _ = invoke(capsys, "zeta", "fixture:ten_point", "--format", "json")
    assert code == 0
    assert len(built) == 1


def test_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    # A stand-in for multiprocessing.Pool that records the worker count and
    # maps in this process, on a fresh level cache so that the levels are
    # really rebuilt; no worker process is started.
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, chunks):
            return [fn(*chunk) for chunk in chunks]

    serial = invoke(capsys, "search", "--max-n", "7")
    first = search._LEVELS[2]
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    for cpus, asked, expected in ((2, "3", [2]), (2, "2", [2]), (4, "1", []), (None, "2", [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(search, "_LEVELS", {2: first})
        sizes.clear()
        assert invoke(capsys, "search", "--max-n", "7", "--jobs", asked) == serial
        # only level 7, built from 15 parents, is big enough to be split
        assert sizes == expected, (cpus, asked)


@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_rejected_jobs_exit_code(capsys, jobs):
    code, out, err = invoke(capsys, "search", "--max-n", "3", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_search_rejects_max_n_below_two(capsys, monkeypatch, max_n):
    monkeypatch.setattr(search, "find_weak_not_strong", None)
    code, out, err = invoke(capsys, "search", "--max-n", max_n)
    assert code == 2 and out == ""
    assert err == f"error: --max-n must be at least 2, got {max_n}\n"


def test_search_catalog_resume(capsys, tmp_path):
    path = str(tmp_path / "cat.txt")
    code, out1, _ = invoke(
        capsys, "search", "--max-n", "5", "--catalog", path, "--format", "json"
    )
    assert code == 0
    code, out2, _ = invoke(
        capsys, "search", "--max-n", "5", "--catalog", path, "--format", "json"
    )
    assert code == 0 and out1 == out2


def test_search_prints_the_same_with_and_without_a_catalog(capsys, tmp_path):
    # without --catalog the summaries read the level records; with it,
    # the first run writes the file and the second reads it back
    argv = ["search", "--max-n", "9", "--format", "json"]
    plain = invoke(capsys, *argv)
    path = str(tmp_path / "cat.txt")
    written = invoke(capsys, *argv, "--catalog", path)
    reread = invoke(capsys, *argv, "--catalog", path)
    assert plain[0] == 0 and plain == written == reread


# flags "strong but not weak" (as-, -s-) are malformed: strong implies weak;
# so is a key whose width is not that of its level's keys (10 bytes at n = 10)
@pytest.mark.parametrize("bad", ["badline", "abcd 3", "# complete x", "80 2 as-", "ab 10 asw"])
def test_search_malformed_catalog_exit_code(capsys, tmp_path, bad):
    path = tmp_path / "cat.txt"
    path.write_text(f"80 2 asw\n# complete 2\n{bad}\n")
    code, out, err = invoke(capsys, "search", "--max-n", "3", "--catalog", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}, line 3: malformed catalog line {bad!r}\n"


# a key met twice on a level, a level marked complete with no entries or twice
@pytest.mark.parametrize(
    "text, reason",
    [
        ("80 2 asw\n80 2 ---\n# complete 2\n",
         "line 2: key 80 is not above the previous key on level 2"),
        ("# complete 3\n", "line 1: level 3 is marked complete with no entries"),
        ("80 2 asw\n# complete 2\n80 2 ---\n# complete 2\n",
         "line 4: level 2 is marked complete twice"),
    ],
    ids=["twice", "bare-marker", "second-block"],
)
def test_search_corrupt_catalog_level_exit_code(capsys, tmp_path, text, reason):
    path = tmp_path / "cat.txt"
    path.write_text(text)
    code, out, err = invoke(capsys, "search", "--max-n", "3", "--catalog", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}, {reason}\n"


def test_search_catalog_directory_exit_code(capsys, tmp_path):
    code, out, err = invoke(capsys, "search", "--max-n", "3", "--catalog", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {str(tmp_path)!r}: ")


def test_search_catalog_in_missing_directory_exit_code(capsys, tmp_path):
    path = str(tmp_path / "missing" / "cat.txt")
    code, out, err = invoke(capsys, "search", "--max-n", "3", "--catalog", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path!r}: ")
    assert list(tmp_path.rglob("*")) == []  # no temp file left behind


def test_search_catalog_write_error_is_the_same_every_run(capsys, tmp_path):
    # the reason names the catalog, not the random temp file beside it
    path = str(tmp_path / "missing" / "cat.txt")
    runs = [invoke(capsys, "search", "--max-n", "3", "--catalog", path) for _ in range(2)]
    assert runs[0] == runs[1]
    code, _, err = runs[0]
    assert code == 2
    assert err == f"error: cannot write {path!r}: {os.strerror(errno.ENOENT)}\n"
    assert ".tmp" not in err


def test_fixture_roundtrip(capsys):
    code, out, _ = invoke(capsys, "fixture", "eleven_point")
    assert code == 0
    rebuilt = Lattice.from_covers(*parse_lat(out.split("# P(L, s)")[0]))
    assert is_isomorphic(rebuilt, load_fixture("eleven_point"))


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = invoke(
        capsys, "zeta", "chain:3", "--format", "json", "--output", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["n"] == 3


@pytest.mark.parametrize(
    "argv", [("zeta", "partition:4"), ("fixture", "ten_point")], ids=["zeta", "fixture"]
)
@pytest.mark.parametrize("where", ["missing/x.json", "."], ids=["missing", "directory"])
def test_unwritable_output_exit_code(capsys, tmp_path, argv, where):
    path = str(tmp_path / where)
    code, out, err = invoke(capsys, *argv, "--output", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path!r}: ")


def test_file_target(capsys, tmp_path):
    path = tmp_path / "lat.lat"
    path.write_text(load_fixture("ten_point").to_lat())
    code, out, _ = invoke(capsys, "zeta", f"file:{path}")
    assert code == 0
    assert "1 - 1/2^s - 2/4^s" in out


# ----------------------------------------------------------------------
# option surface: each subcommand accepts only the options it reads

_BASE_ARGV = {
    "zeta": ["zeta", "boolean:2"],
    "classify": ["classify", "boolean:2"],
    "mobius": ["mobius", "boolean:2"],
    "group": ["group", "sym:3", "--brown"],
    "family": ["family", "boolean:2", "--closed-form-check"],
    "search": ["search", "--max-n", "3"],
    "verify": ["verify", "--suite", "stirling"],
    "fixture": ["fixture", "ten_point"],
}
# option -> (value on the command line, parsed value)
_OPTION_VALUES = {
    "--format": ("json", "json"),
    "--output": ("report.json", "report.json"),
    "--max-elements": ("3", 3),
    "--smax": ("3", 3),
    "--budget-tuples": ("100", 100),
    "--jobs": ("1", 1),
}
_READERS = {
    "--format": set(_BASE_ARGV),
    "--output": set(_BASE_ARGV),
    "--max-elements": {"zeta", "classify", "mobius", "family"},
    "--smax": {"group", "verify"},
    "--budget-tuples": set(),  # removed: the direct oracle counts any s
    "--jobs": {"search"},
}
_KEPT = [(c, o) for c in _BASE_ARGV for o in _OPTION_VALUES if c in _READERS[o]]
_REMOVED = [(c, o) for c in _BASE_ARGV for o in _OPTION_VALUES if c not in _READERS[o]]


def test_option_surface_size():
    assert (len(_KEPT), len(_REMOVED)) == (23, 25)


@pytest.mark.parametrize("command, option", _KEPT)
def test_kept_option_parses(command, option):
    raw, parsed = _OPTION_VALUES[option]
    args = build_parser().parse_args(_BASE_ARGV[command] + [option, raw])
    assert getattr(args, option[2:].replace("-", "_")) == parsed


@pytest.mark.parametrize("command, option", _REMOVED)
def test_removed_option_exit_code(capsys, command, option):
    raw, _ = _OPTION_VALUES[option]
    code, out, err = invoke(capsys, *_BASE_ARGV[command], option, raw)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


# ----------------------------------------------------------------------
# exit codes


def test_usage_exit_codes(capsys):
    assert invoke(capsys, "zeta", "nonsense")[0] == 2
    assert invoke(capsys, "verify", "--suite", "mystery")[0] == 2
    assert run([]) == 2  # no subcommand
    assert run(["zeta"]) == 2  # missing target


@pytest.mark.parametrize("target", [
    "boolean:0", "chain:1", "divisor:1", "partition:1",
])
def test_rejected_target_exit_code(capsys, target):
    code, out, err = invoke(capsys, "zeta", target)
    assert code == 2 and out == ""
    assert err.startswith(f"error: '{target}': ")


def test_rejected_group_exit_code(capsys):
    code, _, err = invoke(capsys, "group", "cyclic:0")
    assert code == 2
    assert err.startswith("error: 'cyclic:0': ")


def test_over_order_group_exit_code(capsys):
    # refused before 200000! is computed or printed
    code, out, _ = invoke(capsys, "group", "sym:200000")
    assert code == 1
    assert "OrderLimitExceeded" in out


@pytest.mark.parametrize("family", [
    "chain:1", "ddiv:0,2",
    "boolean:0", "subspace:2,0", "partition:1", "divisor:1",
])
def test_rejected_family_exit_code(capsys, family):
    code, _, err = invoke(capsys, "family", family)
    assert code == 2
    assert err.startswith(f"error: '{family}': ")


@pytest.mark.parametrize("spec", ["subspace:1,2", "subspace:6,2"])
def test_family_subspace_needs_a_prime_power(capsys, spec):
    # family refuses a field order that is not a prime power as zeta
    # does; with q = 1 the closed form would divide by zero
    family = invoke(capsys, "family", spec)
    zeta = invoke(capsys, "zeta", spec)
    assert family[0] == zeta[0] == 1
    assert family[1] == zeta[1] != ""


@pytest.mark.parametrize("text", [
    "n 3\nc 0 1\nc 1 5\n",  # cover out of range
    "n x\n",  # element count not an integer
    "n 0\n",  # element count not positive
])
def test_rejected_file_exit_code(capsys, tmp_path, text):
    path = tmp_path / "bad.lat"
    path.write_text(text)
    code, _, err = invoke(capsys, "zeta", f"file:{path}")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("target, count", [
    ("partition:8", 4140), ("boolean:7", 128), ("chain:12", 12),
    ("divisor:720", 30), ("subspace:2,4", 67), ("ddiv:2,5", 6557),
    ("group:sym:4", 235),
])
def test_max_elements_checked_before_building(capsys, monkeypatch, target, count):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was built")

    # every constructor ends in the shared kernel, and no target may reach it
    monkeypatch.setattr(Lattice, "from_covers", refuse)
    monkeypatch.setattr(Lattice, "_from_up", refuse)
    code, out, err = invoke(capsys, "zeta", target, "--max-elements", "10")
    assert code == 2 and out == ""
    assert err == (
        f"error: target has {count} elements, over the --max-elements cap 10\n"
    )


def test_max_elements_checked_before_reading_covers(capsys, monkeypatch, tmp_path):
    path = tmp_path / "big.lat"
    path.write_text("n 1000\nc 0 1\n")
    monkeypatch.setattr(Lattice, "from_covers", None)
    code, _, err = invoke(capsys, "zeta", f"file:{path}", "--max-elements", "10")
    assert code == 2
    assert err == "error: target has 1000 elements, over the --max-elements cap 10\n"


def test_file_over_the_element_cap_exits_1(capsys, tmp_path):
    # with no --max-elements, the library's element cap refuses the file
    # before its principal filters are allocated
    path = tmp_path / "big.lat"
    path.write_text("n 1000000000\n")
    code, out, _ = invoke(capsys, "zeta", f"file:{path}")
    assert code == 1
    assert out == (
        "error (SizeLimitExceeded): 1000000000 elements exceed the cap of 50000\n"
    )


@pytest.mark.parametrize("target", ["chain:5", "partition:3", "group:cyclic:2"])
def test_max_elements_admits_targets_at_the_cap(capsys, target):
    size = parse_lattice_target(target).n
    code, _, _ = invoke(capsys, "zeta", target, "--max-elements", str(size))
    assert code == 0
    code, _, _ = invoke(capsys, "zeta", target, "--max-elements", str(size - 1))
    assert code == 2


@pytest.mark.parametrize("argv, last", [
    (["cyclic:1"], "P(G, s) = 1"),
    (["sym:1"], "P(G, s) = 1"),
    (["cyclic:1", "--brown"], "brown identity: OK (s=0..5)"),
    (["cyclic:1", "--coprime", "cyclic:1"],
     "coprime product with cyclic:1: series OK, lattices isomorphic: True"),
    (["cyclic:3", "--coprime", "cyclic:1"],
     "coprime product with cyclic:1: series OK, lattices isomorphic: True"),
])
def test_trivial_group(capsys, argv, last):
    # the subgroup lattice of the trivial group is the one-point order,
    # which is no Lattice; the group's series is still 1
    code, out, err = invoke(capsys, "group", *argv)
    assert code == 0 and err == ""
    assert out.endswith(f"\n{last}\n")
    if argv[0] != "cyclic:3":
        assert out.startswith("|G| = 1\nP(G, s) = 1\n")


def test_trivial_group_json(capsys):
    code, out, _ = invoke(capsys, "group", "cyclic:1", "--brown", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 1 and doc["brown"] == {"ok": True, "s_max": 5}
    assert doc["series"]["terms"] == [{"q": "1/1", "c": "1"}]


@pytest.mark.parametrize("command", ["zeta", "classify", "mobius"])
def test_unknown_fixture_target_exit_code(capsys, command):
    code, out, err = invoke(capsys, command, "fixture:nope")
    assert code == 2 and out == ""
    assert err.startswith("error: 'fixture:nope': unknown fixture 'nope'")


def test_domain_error_exit_code(capsys):
    # coprime check on groups with a common factor: domain error -> 1
    code, out, _ = invoke(
        capsys, "group", "cyclic:2", "--coprime", "cyclic:4"
    )
    assert code == 1
    assert "NotCoprimeOrders" in out


def test_verify_suites(capsys):
    for suite in ("fixtures", "stirling", "limits"):
        code, out, _ = invoke(capsys, "verify", "--suite", suite)
        assert code == 0
        assert f"suite {suite}: OK" in out
        assert "FAIL" not in out


def _record_oracle_checks(monkeypatch):
    """Wrap the CLI's oracle check; returns the set of (s_max, checked
    exponents, methods) it sees."""
    import latzeta.cli as cli_mod

    real = cli_mod.verify_series_against_oracle
    seen = set()

    def recording(lattice, s_max):
        check = real(lattice, s_max)
        seen.add((s_max, tuple(sorted(check.s_values)), check.methods))
        return check

    monkeypatch.setattr(cli_mod, "verify_series_against_oracle", recording)
    return seen


def test_verify_oracle_honours_smax(capsys, monkeypatch):
    seen = _record_oracle_checks(monkeypatch)
    code, out, _ = invoke(capsys, "verify", "--suite", "oracle", "--smax", "5")
    assert code == 0 and "suite oracle: OK" in out
    assert seen == {(5, (1, 2, 3, 4, 5), ("direct", "mobius"))}


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "oracle", "--smax", "0"),
    ("group", "sym:3", "--brown", "--smax", "-2"),
    ("group", "sym:3", "--brown", "--smax", "0"),
])
def test_empty_smax_range_exit_code(capsys, argv):
    # no check is reported as passed when the range s = 1..smax is empty
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert "argument --smax: must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "oracle", "--smax", "100000"),
    ("verify", "--suite", "all", "--smax", "65"),
    ("group", "sym:3", "--brown", "--smax", "65"),
])
def test_smax_past_the_cap_exit_code(capsys, monkeypatch, argv):
    # refused (exit 1) before an oracle or identity check does any work:
    # the series, the coset lattices and the census lattices are not built
    import latzeta.zeta as zeta_mod

    monkeypatch.setattr(zeta_mod, "zeta_series", None)
    monkeypatch.setattr(groups, "coset_lattice", None)
    monkeypatch.setattr(search, "enumerate_lattices", lambda n: [None])
    code, out, _ = invoke(capsys, *argv)
    assert code == 1
    assert "BudgetExceeded" in out and "capped at s = 64" in out


def test_verify_oracle_checks_both_methods_at_smax_9(capsys, monkeypatch):
    # the 7-element lattices with |J| = 6 have 6**9 tuples at s = 9; both
    # oracles still check every lattice at every s
    seen = _record_oracle_checks(monkeypatch)
    code, out, _ = invoke(
        capsys, "verify", "--suite", "oracle", "--smax", "9", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    verdicts = {c["name"]: c["ok"] for c in doc["checks"]}
    assert verdicts == {f"oracle n={n}": True for n in range(2, 8)}
    assert seen == {(9, tuple(range(1, 10)), ("direct", "mobius"))}


def test_verify_json(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "fixtures", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_console_entry_point():
    # the installed script must agree with the in-process runner
    proc = subprocess.run(
        [sys.executable, "-m", "latzeta.cli", "zeta", "boolean:2",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["j_count"] == 2


def test_search_cap_checked_before_enumerating(capsys, monkeypatch):
    seen = []
    real = search.level_entries

    def recording(n, **kwargs):
        seen.append(n)
        return real(n, **kwargs)

    monkeypatch.setattr(search, "level_entries", recording)
    code, out, _ = invoke(capsys, "search", "--max-n", "13")
    assert code == 1
    assert out == "error (BudgetExceeded): enumeration capped at n = 12 (asked for 13)\n"
    assert seen == []
