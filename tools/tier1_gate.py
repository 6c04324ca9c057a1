"""Run the tier-1 test suite and pass only if exactly the expected tests fail.

Usage: python tools/tier1_gate.py

A04b (``test_a04b_cycle_distance_order_sensitivity``) fails by design: the
value-based cycle distance does not react to a shuffle of the frames (see
ROADMAP.md, "Settled"). So the tier-1 command,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``,
exits 1 on working code. This gate runs that command with ``--junitxml``
and exits 0 only when the failing set is exactly ``EXPECTED_FAILURES``.
Any other failure or collection error fails it, and so does A04b passing,
which would mean its check was weakened.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Test ids as "<classname>::<name>" of pytest's JUnit XML.
EXPECTED_FAILURES = {"tests.test_acceptance::test_a04b_cycle_distance_order_sensitivity"}


def failing_tests(junit_xml: Path) -> tuple[set[str], int]:
    """The ids of the failed or errored test cases, and the number of cases."""
    cases = list(ET.parse(junit_xml).iter("testcase"))
    failed = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    return failed, len(cases)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp, "tier1.xml")
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={junit}"]
        code = subprocess.run(cmd, cwd=ROOT).returncode
        if code not in (0, 1) or not junit.is_file():
            print(f"tier1 gate: pytest exited {code} without a test report", file=sys.stderr)
            return 1
        failed, n_cases = failing_tests(junit)
    unexpected, missing = failed - EXPECTED_FAILURES, EXPECTED_FAILURES - failed
    for test in sorted(unexpected):
        print(f"tier1 gate: unexpected failure {test}", file=sys.stderr)
    for test in sorted(missing):
        print(f"tier1 gate: expected failure passed or did not run: {test}", file=sys.stderr)
    if unexpected or missing:
        return 1
    print(f"tier1 gate: {n_cases} tests, failing set is exactly {sorted(EXPECTED_FAILURES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
