"""Per-member and per-check timings beside the ROADMAP re-anchor baseline.

    python3 perfbench/baseline.py [--members 20]

Untraced: each member is timed through ``verify.run_member_suite`` at
``(0.3, beta, 1)`` for beta in {0, 0.6, 0.9, 0.99}, and each of the seven
checks is timed by calling it directly on members at ``(0.3, 0.6, 1)``.
Medians are printed next to the ROADMAP numbers, which were single runs
quoted at +-20 %.  Disagreements are reported, not tuned away.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harmclass import verify  # noqa: E402
from harmclass.model import ClassParams  # noqa: E402

#: ROADMAP baseline: ms per member by beta (alpha = 0.3, delta = 1 assumed;
#: the ROADMAP gives "10-13 ms at beta <= 0.6").
MEMBER_MS = {0.0: (10.0, 13.0), 0.6: (10.0, 13.0), 0.9: (23.0, 23.0), 0.99: (87.0, 87.0)}

#: ROADMAP baseline: ms per check at (0.3, 0.6, 1).
CHECK_MS = {
    "g_growth": 3.4,
    "f_growth": 3.2,
    "distortion": 2.9,
    "bloch": 0.9,
    "area": 0.7,
    "covering": 0.15,
    "coeff": 0.1,
}

TOLERANCE = 0.2


def verdict(measured: float, low: float, high: float) -> str:
    if low * (1 - TOLERANCE) <= measured <= high * (1 + TOLERANCE):
        return "within 20 %"
    return "DISAGREES"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--members", type=int, default=20)
    args = parser.parse_args(argv)

    print(f"{'beta':>6}{'ms/member':>12}{'ROADMAP':>12}  verdict")
    for beta, (low, high) in MEMBER_MS.items():
        params = ClassParams(0.3, beta, 1.0)
        verify.run_member_suite(params, 1, 0)  # warm-up
        times = []
        for seed in range(1, args.members + 1):
            t0 = perf_counter()
            verify.run_member_suite(params, 1, seed)
            times.append(1e3 * (perf_counter() - t0))
        measured = statistics.median(times)
        quoted = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        print(f"{beta:>6g}{measured:>12.2f}{quoted:>12}  {verdict(measured, low, high)}")

    params = ClassParams(0.3, 0.6, 1.0)
    members = [m for _i, m, _r in verify.run_member_suite(params, args.members, 1)]
    grid = verify.default_polar_grid()
    checks = {
        "coeff": lambda m: verify.verify_coefficients(m, params, 12),
        "distortion": lambda m: verify.verify_distortion(m, params, grid),
        "g_growth": lambda m: verify.verify_g_growth(m, params, grid),
        "area": lambda m: verify.verify_area(m, params),
        "f_growth": lambda m: verify.verify_f_growth(m, params, grid),
        "covering": lambda m: verify.verify_covering(m, params),
        "bloch": lambda m: verify.verify_bloch(m, params, grid),
    }
    print(f"\n{'check at (0.3, 0.6, 1)':<24}{'ms':>8}{'ROADMAP':>10}  verdict")
    for name, check in sorted(checks.items(), key=lambda kv: -CHECK_MS[kv[0]]):
        times = []
        for member in members:
            t0 = perf_counter()
            check(member)
            times.append(1e3 * (perf_counter() - t0))
        measured = statistics.median(times)
        quoted = CHECK_MS[name]
        print(f"{name:<24}{measured:>8.3f}{quoted:>10g}  {verdict(measured, quoted, quoted)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
