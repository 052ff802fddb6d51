"""Pin the reference output digests that every benchmark run checks.

    python3 perfbench/pin_digests.py

Run from the root of a rest-lint checkout, and only when a change is meant
to alter the CLI's output bytes; say so in the change that re-pins.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import DIGESTS_FILE, WORK_DIR, reference_digest
from workloads import WORKLOADS


def main() -> int:
    checkout = Path.cwd()
    work = checkout / WORK_DIR / "pin"
    digests = {}
    for name in sorted(WORKLOADS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        inputs, inv = reference_digest(checkout, name, work)
        if inv.exit_code != inputs.expected_exit or inv.counts != inputs.expected_counts:
            print(f"{name}: output fails its own checks; not pinning", file=sys.stderr)
            return 1
        digests[name] = inv.digest
    shutil.rmtree(work, ignore_errors=True)
    DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
