"""Shared fixtures.

The expensive shared objects (the full lattice inventory through 7
elements and the partition lattices on 7 and 8 points) are built once
per session.  The terminal summary echoes one PASS/FAIL line per
acceptance criterion.
"""

import re

import pytest

from latzeta.families import partition_lattice
from latzeta.search import enumerate_lattices


@pytest.fixture(scope="session")
def lattices_by_size():
    """{n: [lattice, ...]} for every isomorphism class on 2..7 elements."""
    return {n: list(enumerate_lattices(n)) for n in range(2, 8)}


@pytest.fixture(scope="session")
def big_partition_lattices():
    """{7: Pi_7, 8: Pi_8}; building Pi_8 dominates (about 1 s)."""
    return {n: partition_lattice(n) for n in (7, 8)}


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call":
                continue
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                k = int(match.group(1))
                verdicts[k] = verdicts.get(k, True) and outcome == "passed"
    if verdicts:
        terminalreporter.write_line("")
        for k in sorted(verdicts):
            verdict = "PASS" if verdicts[k] else "FAIL"
            terminalreporter.write_line(f"ACCEPTANCE {k} {verdict}")
