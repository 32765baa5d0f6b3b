"""Re-record the correctness-gate reference (``reference.json``).

    python3 perfbench/record_reference.py

Run it only in a benchmark-only change that moves verification margins or
bound values on purpose, and say why in that change.  The gate inputs are
fixed (``workloads.GATE_SEED``), so the reference does not depend on the
seed a benchmark run is given.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    reference = {w: workloads.gate_summary(w, scratch) for w in workloads.WORKLOADS}
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
