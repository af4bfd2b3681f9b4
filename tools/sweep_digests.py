"""Run ``nlc sweep`` at both enumeration caps and check each ``--report``
file against the sha256 that ``tests/test_sweeps.py`` pins for it.

The delta sweep runs to order 12 and the diameter sweep to order 7, the
largest orders they take, through the ``nlc`` console script on the path
(tier-1 calls the library).  Each summary on stdout must say that the
conjecture holds, and each report must be byte for byte the one whose
digest the test pins.  Standard library only, so it also runs where
networkx is not installed.  Exits 1 at the first sweep that fails.

    python tools/sweep_digests.py
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CAPS = (("delta", 12), ("diameter", 7))


def _pinned() -> dict[tuple[str, int], str]:
    """The report digests of tests/test_sweeps.py, keyed by (conjecture, max-n)."""
    text = (ROOT / "tests" / "test_sweeps.py").read_text(encoding="utf-8")
    return {(which, int(max_n)): digest for which, max_n, digest
            in re.findall(r'\("(\w+)", (\d+), "([0-9a-f]{64})"\)', text)}


def main() -> int:
    nlc = shutil.which("nlc")
    if nlc is None:
        print("no nlc console script on the path; install the package first", file=sys.stderr)
        return 1
    pinned = _pinned()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for which, max_n in CAPS:
            label = f"sweep {which} {max_n}"
            done = subprocess.run([nlc, "sweep", "--conjecture", which, "--max-n", str(max_n),
                                   "--report", str(report)], capture_output=True, text=True)
            if done.returncode or json.loads(done.stdout)["holds"] is not True:
                print(done.stdout, done.stderr, sep="", file=sys.stderr)
                print(f"{label} exits {done.returncode} and does not hold", file=sys.stderr)
                return 1
            digest = hashlib.sha256(report.read_bytes()).hexdigest()
            if digest != pinned.get((which, max_n)):
                print(f"{label} wrote a report with sha256 {digest}, "
                      f"not the one tests/test_sweeps.py pins", file=sys.stderr)
                return 1
            print(f"{label}: holds, report sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
