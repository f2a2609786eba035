"""Benchmark of the cbizero library: four workloads, end to end and per layer.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1] [--smoke]

Each pass runs one workload's fixed list of operations once, in a fresh
single-threaded interpreter (`worker.py`), and checks every answer.
Passes repeat until the next one would end after ``--seconds``; there is
always at least one.  Set-up time is sampled in at least five fresh
interpreters.

``--trace 0`` reports the end-to-end metrics: setup_s (median over the
interpreters), wall_s (mean pass time), op_p50_ms (median over the
operations of each one's mean latency across the passes; every pass runs
the same operations in the same order) and peak_rss_mb (median over the
passes).  The text lines add op_p90_ms (only with at least 100
operations) and error_rate.  Means are used where medians would flip:
on a shared virtual machine the vCPU speed switches between states up
to 1.9x apart for seconds to minutes at a time (NOTES.md has the
measurements).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones and the tracing overhead.
``--smoke`` runs one tiny pass of each workload.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the
operations, failures, cache statistics and machine description is
written to ``benchmarks/results/``; a traced run also writes its spans
there.  See NOTES.md for the workloads and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("classify", "laws", "cutout-long", "cutout-short")
MIN_SETUP_SAMPLES = 5
MIN_P90_SAMPLES = 100
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A pass could not run or its output could not be read."""


def unit(name: str) -> str:
    if name == "cutout.ns_per_mark":
        return "ns"
    if name.endswith("_share") or name.endswith("_per_mark") or name == "error_rate":
        return "ratio"
    for suffix, label in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return label
    return "count"


def percentile(values, share):
    """Nearest-rank percentile; failed operations are +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Runner:
    def __init__(self, seconds: float, smoke: bool):
        self.seconds = seconds
        self.smoke = smoke
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{var: "1" for var in THREAD_VARS})

    def child(self, workload, seed, deadline, *extra) -> dict:
        cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
        if self.smoke:
            cmd.append("--smoke")
        cmd.extend(extra)
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{workload}: out of time before a pass could start")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: pass exceeded the {RUN_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0:
            raise BenchError(f"{workload}: pass exited with {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"{workload}: unreadable pass output\n{proc.stdout[-500:]}")

    def passes(self, workload, seed, trace, spans_path):
        """Untraced passes (and traced ones in step) until the time is spent."""
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        plain, traced = [], []
        while True:
            plain.append(self.child(workload, seed, deadline))
            if trace:
                extra = ["--trace"]
                if not traced:
                    extra += ["--spans", spans_path]
                traced.append(self.child(workload, seed, deadline, *extra))
            elapsed = time.monotonic() - start
            if self.smoke or elapsed * (len(plain) + 1) / len(plain) > self.seconds:
                break
        setups = [p["setup_s"] for p in plain]
        if not trace:
            while len(setups) < (1 if self.smoke else MIN_SETUP_SAMPLES):
                setups.append(self.child(workload, seed, deadline, "--setup-only")["setup_s"])
        return plain, traced, setups


def summarize(plain, traced, setups, trace):
    latencies, attempted, failures, wrong = [], 0, {}, 0
    for p in plain + traced:
        for op in p["ops"]:
            attempted += 1
            wrong += op["status"] == "wrong"
        for f in p["failures"]:
            key = (f["label"], f["detail"])
            failures[key] = failures.get(key, 0) + 1
    # every pass runs the same operations in the same order, so each
    # operation's latency is its mean over the passes; in the percentiles
    # an operation that failed in any pass counts as missing every limit
    for per_pass in zip(*(p["ops"] for p in plain)):
        if per_pass[0]["latency_s"] is not None:
            ok = all(op["status"] == "ok" for op in per_pass)
            latencies.append(statistics.fmean(op["latency_s"] for op in per_pass)
                             if ok else math.inf)
    failed = sum(failures.values())
    walls = [p["wall_s"] for p in plain]
    extra = {
        "op_p90_ms": (1e3 * percentile(latencies, 0.9)
                      if len(latencies) >= MIN_P90_SAMPLES else None),
        "error_rate": failed / attempted,
    }
    if trace:
        keys = traced[0]["layers"]
        metrics = {k: statistics.median(t["layers"][k] for t in traced) for k in keys}
        metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                       - statistics.median(walls))
        correct = wrong == 0 and all(t["layers"]["trace.self_share"] <= 1.0 for t in traced)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(walls),
            "op_p50_ms": 1e3 * percentile(latencies, 0.5),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        correct = wrong == 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "failures": [{"label": l, "detail": d, "passes": n}
                     for (l, d), n in failures.items()],
        "samples": {"passes": len(plain), "traced_passes": len(traced),
                    "setup": len(setups), "ops": len(latencies),
                    "wall_median_s": statistics.median(walls),
                    "wall_min_s": min(walls)},
    }


def machine(plain) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "git_commit": commit,
            **plain[0]["versions"], **{var: "1" for var in THREAD_VARS}}


def report(workload, seed, trace, summary):
    s = summary["samples"]
    print(f"{workload}: seed {seed}, {s['passes']} passes"
          + (f" + {s['traced_passes']} traced" if trace else "")
          + f", {summary['attempted']} operations attempted, {summary['failed']} failed")
    rows = dict(summary["metrics"])
    if not trace:
        rows.update({k: v for k, v in summary["extra"].items() if v is not None})
    for name, value in rows.items():
        print(f"  {name:<28} {value:>14.6g} {unit(name)}")
    if not trace and summary["extra"]["op_p90_ms"] is None:
        print(f"  {'op_p90_ms':<28} {'undefined':>14} (fewer than {MIN_P90_SAMPLES} ops)")
    for f in summary["failures"]:
        print(f"  FAILED x{f['passes']}: {f['label']}: {f['detail']}")


def run_workload(runner, workload, seed, trace):
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{workload}_seed{seed}" + ("_smoke" if runner.smoke else "")
    spans_path = os.path.join(RESULTS, f"SPANS_{stem}.json.gz")
    plain, traced, setups = runner.passes(workload, seed, trace, spans_path)
    summary = summarize(plain, traced, setups, trace)
    bad = [k for k, v in summary["metrics"].items() if not math.isfinite(v)]
    if bad:
        raise BenchError(f"{workload}: metrics {bad} undefined: too many operations failed")
    record = {
        "workload": workload, "seed": seed, "seconds": runner.seconds,
        "smoke": runner.smoke, "trace": trace, "machine": machine(plain),
        **{k: summary[k] for k in ("correct", "attempted", "failed", "samples",
                                   "extra", "failures")},
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in summary["metrics"].items()},
        "setup_samples_s": setups,
        "lru_caches": plain[0]["lru_caches"],
        "passes": plain, "traced_passes": traced,
    }
    if trace:
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    path = os.path.join(RESULTS, f"BENCH_{stem}_trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(workload, seed, trace, summary)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cbizero", "__init__.py")):
        print(f"no cbizero sources under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(args.seconds, args.smoke)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(runner, w, args.seed, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": unit(k.split(".", 1)[1] if len(names) > 1 else k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
