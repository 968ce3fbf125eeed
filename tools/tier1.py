"""Tier-1 gate: run the whole test suite once and check which tests failed.

    python tools/tier1.py

Runs the tier-1 command of ROADMAP.md (`python -m pytest -q
--continue-on-collection-errors` from the repository root, with src/ on
PYTHONPATH) with a JUnit XML report in a temporary directory, then prints
the passed, failed and skipped counts, the wall time, and the line count of
src/quartic_census/*.py that each change reports before and after.  It
exits 0 only when the failures are exactly acceptance criteria 1, 5 and 6,
which pin published constants that the code shows to be misprints and so
fail by design.  Any other failure exits 1, and so does any of those three
passing, since that would be news.  It takes no arguments, and it
deselects, skips and xfails nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The tests that fail by design, as pytest's JUnit report names them.
EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_1_density_closed_forms",
    "tests.test_acceptance::test_criterion_5_constants",
    "tests.test_acceptance::test_criterion_6_v4_census_vs_main_term",
}


def outcomes(report: Path) -> dict[str, str]:
    """Each test of a JUnit XML report, as 'module::name', with its outcome:
    failed (a failure or an error, in any phase), skipped or passed."""
    out: dict[str, str] = {}
    for case in ET.parse(report).iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}"
        tags = {child.tag for child in case}
        outcome = "failed" if tags & {"failure", "error"} else "skipped" if "skipped" in tags else "passed"
        if out.get(test) != "failed":
            out[test] = outcome
    return out


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", f"--junitxml={report}"]
        t0 = time.monotonic()
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        wall = time.monotonic() - t0
        if not report.exists():
            print(f"tier-1: pytest exited {code} without a report")
            return 1
        results = outcomes(report)
    failed = {test for test, outcome in results.items() if outcome == "failed"}
    n = {kind: sum(outcome == kind for outcome in results.values()) for kind in ("passed", "failed", "skipped")}
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "quartic_census").glob("*.py"))
    print(
        f"tier-1: {n['passed']} passed, {n['failed']} failed, {n['skipped']} skipped in {wall:.1f} s;"
        f" src/quartic_census/*.py: {src_lines} lines"
    )
    for test in sorted(failed - EXPECTED_FAILURES):
        print(f"tier-1: unexpected failure: {test}")
    for test in sorted(EXPECTED_FAILURES - failed):
        print(f"tier-1: fails by design, but did not fail: {test}")
    return 0 if failed == EXPECTED_FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
