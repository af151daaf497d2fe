"""Acceptance gate: one test per criterion, each printing its verdict line.

The same checks back the `tiltrig selftest` subcommand; every tolerance is
exact (integer multiset equality), so there is nothing to calibrate.
"""

import pytest

from tiltrig import acceptance
from tiltrig.acceptance import CRITERIA


@pytest.mark.parametrize("name,check", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, check, capsys):
    ok, detail = check()
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail}")
    assert ok, detail


def _run_fresh(checks):
    """(ok, detail) of each check, starting from unbuilt fixture systems."""
    acceptance._sl2_system.cache_clear()
    acceptance._ce3_system.cache_clear()
    return [check() for check in checks]


def test_shared_fixture_systems_add_no_order_dependence():
    checks = [check for _, check in CRITERIA]
    normal = _run_fresh(checks)
    assert _run_fresh(checks[::-1])[::-1] == normal
    assert _run_fresh(checks[4:6]) == normal[4:6]
    assert _run_fresh(checks[5:6]) == normal[5:6]
