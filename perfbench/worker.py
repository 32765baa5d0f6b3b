"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports harmclass
from the checkout's ``src``, prepares the seeded inputs, prints ``READY``
(the parent times set-up up to that line), runs the units, and prints one
JSON object as its last line.

    worker.py WORKLOAD SEED (--seconds S | --passes N | --setup-only)
              [--trace] [--gate] [--spans PATH] --scratch DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import harmclass  # noqa: E402
import harmclass.cli  # noqa: E402,F401

import calibrate  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    amount = parser.add_mutually_exclusive_group(required=True)
    amount.add_argument("--seconds", type=float)
    amount.add_argument("--passes", type=int)
    amount.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gate", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--scratch", required=True)
    return parser.parse_args(argv)


def run_units(runner, stream, seconds, n_passes, tracer):
    """Time units pass by pass until the time or the pass count is used up.

    After each pass the machine-speed probe runs, untimed.  Unit times are
    also returned normalized to the reference machine speed, using the
    median probe of the five passes centred on the unit's own pass.
    """
    passes = []
    probe_s = []
    digest = hashlib.sha256()  # over every unit's output, for the fidelity check
    problems = []
    failed = 0
    deadline = perf_counter() + seconds if seconds is not None else None
    for units in stream:
        times = []
        for unit in units:
            t0 = perf_counter()
            try:
                if tracer is None:
                    raw = runner.call(unit)
                else:
                    raw = tracer.unit(len(passes) * len(units) + len(times), runner.call, unit)
            except workloads.NUMERICAL_ERRORS as exc:
                raw = exc
            times.append(perf_counter() - t0)
            unit_failed, record, unit_problems = runner.outcome(unit, raw)
            failed += unit_failed
            digest.update(record.encode() + b"\0")
            problems += unit_problems
        passes.append(times)
        probe_s.append(calibrate.probe())
        if n_passes is not None and len(passes) >= n_passes:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
    scales = [
        calibrate.REFERENCE_S / statistics.median(probe_s[max(0, i - 2) : i + 3])
        for i in range(len(passes))
    ]
    return {
        "unit_s": [t for times in passes for t in times],
        "norm_unit_s": [t * k for times, k in zip(passes, scales) for t in times],
        "pass_rates": [len(times) / sum(times) for times in passes],
        "norm_pass_rates": [len(times) / sum(times) / k for times, k in zip(passes, scales)],
        "probe_s": probe_s,
        "failed": failed,
        "digest": digest.hexdigest(),
        "problems": problems[:20],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = Path(args.scratch)
    runner = workloads.Runner(args.workload, scratch)
    stream = workloads.passes(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer(harmclass)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        with tracer:
            result = run_units(runner, stream, args.seconds, args.passes, tracer)
        result["trace"] = tracer.aggregate()
        result["layers"] = layer_metrics(result["trace"], len(result["unit_s"]))
        if args.spans:
            tracer.write(args.spans)
    else:
        result = run_units(runner, stream, args.seconds, args.passes, None)
    result["gate"] = workloads.check_gate(args.workload, scratch) if args.gate else None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    result["probe_reference_s"] = calibrate.REFERENCE_S
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
