#!/usr/bin/env python3
"""Siting benchmark: per-case latency, site cost, failures and memory.

Run from the repository root (the program is imported from ./src):

    python3 perfbench/run.py --workload zoom_dem --seed 1 --seconds 40 --trace 0

Workloads: zoom_dem and micro_batch (see workloads.py and BENCHMARK.json for
why each exists). Each run is one process
and one closed loop: a single client sends the next case only after the
previous one returned, cycling through the seeded case list until --seconds
have passed. Only the calls into the program are timed; output checks run
between cases.

--trace 0 prints the end-to-end metrics. --trace 1 first runs one untraced
pass over the case list, then installs the layer wrappers and runs traced
passes (at least one); it prints the per-layer metrics, the tracing overhead
(traced over untraced time of the same pass) and writes the spans to
.perfbench/. The last line of standard output is one JSON object. Exit code 1
means a correctness failure; 2 means the program could not be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPAN_DIR = Path(".perfbench")
SETUP_REPEATS = 3
MIN_TAIL_SAMPLES = 20  # below this, the tail is the maximum
TAIL_BEYOND = 10


def _pin_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


# One set-up: a fresh interpreter importing the package, plus input generation.
IMPORT_PROBE = "import time; t = time.perf_counter(); import phs_siting; print(time.perf_counter() - t)"


def import_seconds(src: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label."""
    s = sorted(times)
    n = len(s)
    if n < MIN_TAIL_SAMPLES:
        return s[-1], f"max of n={n}"
    k = n - TAIL_BEYOND - 1
    return s[k], f"p{math.floor(100 * (k + 1) / n)} of n={n}"


def run_cases(cases, run, deadline: float):
    """Cycle through the case list until the deadline; at least one case runs."""
    done = []
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        case = cases[k % len(cases)]
        done.append((case.id, k // len(cases), run(case, nullcontext)))
        k += 1
    return done


def report(name: str, value: float, unit: str, note: str = "") -> dict:
    print(f"{name:28s} {value:14.6g} {unit:6s} {note}")
    return {"value": value, "unit": unit}


def correctness(done) -> list[str]:
    return [f"{cid} (pass {p}): {w}" for cid, p, out in done for w in out.wrong]


def end_to_end(done, setup_s: float) -> dict:
    outs = [out for _, _, out in done]
    n = len(outs)
    times = [o.seconds for o in outs]
    tail_s, tail_label = tail(times)
    costs = {}
    for cid, _, out in done:
        if out.cost is not None:
            costs.setdefault(cid, out.cost)
    sites = sum(o.site for o in outs)
    limits = sum(o.limit_hit for o in outs)
    near = sum(o.near_limit for o in outs)
    print(f"fail_rate {(n - sites) / n:.4f} and limit_rate {limits / n:.4f} of {n} cases; "
          f"{near} subproblem(s) finished above half their time limit")
    m = {
        "case_s_p50": report("case_s_p50", statistics.median(times), "s", f"n={n}"),
        "case_s_tail": report("case_s_tail", tail_s, "s", tail_label),
        "cases_per_s": report("cases_per_s", n / sum(times), "1/s", "cases / timed seconds"),
        "site_rate": report("site_rate", sites / n, "ratio", "1 - fail_rate"),
        "no_limit_rate": report("no_limit_rate", 1 - limits / n, "ratio", "1 - limit_rate"),
        "cost_musd": report("cost_musd", statistics.fmean(costs.values()) / 1e6 if costs else math.nan,
                            "MUSD", f"mean over {len(costs)} distinct cases"),
        "peak_rss_mb": report("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
        "setup_s": report("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
    }
    drift = sorted({cid for cid, _, out in done if out.cost is not None and out.cost != costs[cid]})
    if drift:
        print(f"WARNING: cost changed between passes for {', '.join(drift)}")
    return m


def traced(cases, run, args, tracing) -> tuple[list, dict]:
    """Pair each case untraced and traced (alternating which runs first), then trace until the deadline."""
    deadline = time.perf_counter() + args.seconds
    tracer = tracing.Tracer()
    base, done = [], []

    def run_traced(case, p):
        tracer.case = f"{case.id}#{p}"
        tracer.install()
        tracer.active = True
        try:
            done.append((case.id, p, run(case, tracer.paused)))
        finally:
            tracer.active = False
            tracer.uninstall()

    for k, case in enumerate(cases):
        if k % 2:
            run_traced(case, 0)
        base.append((case.id, 0, run(case, nullcontext)))
        if not k % 2:
            run_traced(case, 0)
    k = len(cases)
    while time.perf_counter() < deadline:
        run_traced(cases[k % len(cases)], k // len(cases))
        k += 1
    tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = tracing.count_metrics(tracer.counts, [f"{c.id}#0" for c in cases])
    metrics.update(tracing.layer_metrics(tracer.spans, len(done)))
    first = sum(out.seconds for _, p, out in done if p == 0)
    metrics["tracing.overhead"] = first / sum(out.seconds for _, _, out in base) - 1
    out = {k: report(k, metrics[k], tracing.UNITS[k]) for k in sorted(metrics)}
    passes = 1 + max(p for _, p, _ in done)
    mismatched = tracing.repeat_mismatches(tracer.counts)
    print(f"exact counts repeat across {passes} traced pass(es)" if not mismatched else
          f"WARNING: exact counts differ between passes for {', '.join(mismatched)}")
    return base + done, out


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_threads()
    src = Path.cwd() / "src"
    if not (src / "phs_siting" / "__init__.py").is_file():
        print("perfbench: ./src/phs_siting not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import numpy as np

    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make, run = workloads.WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        cases = make(np.random.default_rng(args.seed))
        setups.append(time.perf_counter() - t + import_seconds(src))
    setup_s = statistics.median(setups)
    # Untimed: first-call set-up and the first growth of the heap happen once per process.
    run(cases[0], nullcontext)

    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} distinct cases, "
          f"trace {args.trace}")
    if args.trace:
        done, metrics = traced(cases, run, args, tracing)
    else:
        done = run_cases(cases, run, time.perf_counter() + args.seconds)
        metrics = end_to_end(done, setup_s)

    wrong = correctness(done)
    for line in wrong[:20]:
        print(f"CORRECTNESS FAILURE {line}")
    attempted = len(done)
    failed = sum(not out.site for _, _, out in done)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
