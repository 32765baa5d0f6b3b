"""The harmclass benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {sweep,high_beta,bounds} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout that contains it and imports
harmclass from that checkout's ``src``.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``BENCHMARK.json`` and
``README.md`` in this directory).  The last line of stdout is one JSON
object; the lines before it are a readable report.  The exit code is 0 when
every output check passed, 1 when one failed, 2 on a usage or set-up error.

Run hygiene: every measured run is a fresh interpreter (``worker.py``), so a
module-level cache pays its fill inside the run it serves; BLAS/OpenMP
thread counts are pinned to 1; exactly one process generates and runs the
units at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"

#: Wall-clock budget for the whole command; a run must finish within 180 s.
BUDGET_S = 170.0

#: Fresh interpreters whose set-up time is sampled per untraced run.
SETUP_SAMPLES = 5

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

UNIT_NAME = {"sweep": "member", "high_beta": "member", "bounds": "point"}

#: Rough seconds per pass at the commit that defined the benchmark.  Sizes
#: the fixed-work traced runs (three of them share ``--seconds``); it never
#: enters a result.
PASS_SECONDS_ESTIMATE = {"sweep": 0.28, "high_beta": 0.2, "bounds": 0.06}

#: Per-layer counts that must repeat exactly across runs with one seed.
DETERMINISTIC = (
    "series.horner_madds",
    "numerics.integrand_evals",
    "numerics.quad_calls",
    "bounds.envelope_calls",
    "model.g_order_mean",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("HCL_TOL", None)  # the CLI reads it; the gate reference assumes the default
    env.pop("PYTHONPATH", None)
    return env


def spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up seconds and its result object."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("time budget used up")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_untraced(args, base: list[str], deadline: float) -> dict:
    setup = [spawn([*base, "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, res = spawn([*base, "--seconds", str(args.seconds), "--gate"], deadline)
    setup.append(ready)
    unit_ms = [1e3 * s for s in res["norm_unit_s"]]
    raw_ms = [1e3 * s for s in res["unit_s"]]
    deciles = statistics.quantiles(unit_ms, n=10, method="inclusive")
    raw_deciles = statistics.quantiles(raw_ms, n=10, method="inclusive")
    metrics = {
        "ops_per_s": statistics.median(res["norm_pass_rates"]),
        "op_ms_p50": statistics.median(unit_ms),
        "op_ms_p90": deciles[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    unit = UNIT_NAME[args.workload]
    attempted = len(unit_ms)
    probe_ms = 1e3 * statistics.median(res["probe_s"])
    lines = [
        f"speed probe {probe_ms:.4g} ms per pass (median of {len(res['probe_s'])}),"
        f" reference {1e3 * res['probe_reference_s']:.4g} ms; timings below are scaled to the"
        f" reference, raw values in brackets",
        f"{unit}s_per_s {metrics['ops_per_s']:.6g} 1/s"
        f"  [raw {statistics.median(res['pass_rates']):.6g}; ops_per_s:"
        f" median over {len(res['pass_rates'])} passes]",
        f"{unit}_ms_p50 {metrics['op_ms_p50']:.6g} ms"
        f"  [raw {statistics.median(raw_ms):.6g}; op_ms_p50: over {attempted} {unit}s]",
        f"{unit}_ms_p90 {metrics['op_ms_p90']:.6g} ms"
        f"  [raw {raw_deciles[8]:.6g}; op_ms_p90: over {attempted} {unit}s]",
        f"setup_s {metrics['setup_s']:.6g} s  [median of {len(setup)} fresh interpreters:"
        f" {', '.join(f'{s:.3f}' for s in setup)}]",
        f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
        f"ops_failed_frac {res['failed'] / attempted:.6g}  [{res['failed']} of {attempted} {unit}s]",
    ]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": res["failed"],
        "problems": res["problems"] + res["gate"],
        "lines": lines,
        "numpy": res["numpy"],
    }


def run_traced(args, base: list[str], deadline: float) -> dict:
    n_passes = max(1, round(args.seconds / (4.0 * PASS_SECONDS_ESTIMATE[args.workload])))
    fixed = [*base, "--passes", str(n_passes)]
    spans_path = SCRATCH / f"spans-{args.workload}.json"
    _, plain = spawn([*fixed, "--gate"], deadline)
    _, traced = spawn([*fixed, "--trace", "--spans", str(spans_path)], deadline)
    _, again = spawn([*fixed, "--trace"], deadline)

    problems = plain["problems"] + plain["gate"] + traced["problems"] + again["problems"]
    if not plain["digest"] == traced["digest"] == again["digest"]:
        problems.append("traced and untraced runs produced different outputs")
    unstable = [
        f"{k}: {traced['layers'][k]!r} then {again['layers'][k]!r}"
        for k in DETERMINISTIC
        if traced["layers"][k] != again["layers"][k]
    ]
    if unstable:
        problems.append("counts did not repeat: " + "; ".join(unstable))
    overhead = 100.0 * (sum(traced["norm_unit_s"]) / sum(plain["norm_unit_s"]) - 1.0)
    metrics = dict(traced["layers"], **{"trace.overhead_pct": overhead})

    unit = UNIT_NAME[args.workload]
    units = len(traced["unit_s"])
    agg = traced["trace"]
    lines = [
        f"traced {units} {unit}s ({n_passes} passes) x3 fresh interpreters:"
        f" untraced, traced, traced again",
        f"untraced {1e3 * sum(plain['norm_unit_s']) / units:.4g} ms/{unit},"
        f" traced {1e3 * sum(traced['norm_unit_s']) / units:.4g} ms/{unit} (speed-normalized),"
        f" tracing overhead {overhead:.3g} %  ({agg['spans']} spans -> {spans_path.name})",
        f"fidelity: untraced and traced outputs {'identical' if plain['digest'] == traced['digest'] else 'DIFFER'}",
        f"determinism: counts {'repeat exactly' if not unstable else 'DID NOT REPEAT'}"
        f" across two traced runs",
        f"{'span':<36}{'calls/' + unit:>14}{'incl ms/' + unit:>16}{'self ms/' + unit:>16}",
    ]
    for name in sorted(agg["self_s"], key=agg["self_s"].get, reverse=True):
        calls = agg["counts"].get(name, units)
        lines.append(
            f"{name:<36}{calls / units:>14.6g}{1e3 * agg['inclusive_s'][name] / units:>16.4f}"
            f"{1e3 * agg['self_s'][name] / units:>16.4f}"
        )
    return {
        "metrics": metrics,
        "attempted": len(plain["unit_s"]) + 2 * units,
        "failed": plain["failed"] + traced["failed"] + again["failed"],
        "problems": problems,
        "lines": lines,
        "numpy": plain["numpy"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "harmclass" / "__init__.py").is_file():
        print(f"perfbench: no harmclass source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    SCRATCH.mkdir(exist_ok=True)
    base = [args.workload, str(args.seed), "--scratch", str(SCRATCH)]
    try:
        result = (run_traced if args.trace else run_untraced)(args, base, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(
        f"# perfbench workload={args.workload} seed={args.seed}"
        f" seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"# env python={platform.python_version()} numpy={result['numpy']}"
        f" nproc={os.cpu_count()} cpu={cpu_model()!r}"
        f" threads=1 ({','.join(THREAD_VARS)}) fresh interpreter per measured run"
    )
    for line in result["lines"]:
        print(line)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    print(f"correctness: {'ok' if correct else 'FAILED'} (gate: perfbench/reference.json)")

    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in metric_specs
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
