"""One benchmark pass of one workload, in a fresh interpreter.

    python3 benchmarks/worker.py --workload NAME --seed N [--smoke]
                                 [--setup-only] [--trace] [--spans PATH]

Times ``import cbizero`` plus building the workload's inputs (set-up),
then runs every operation once, checks each answer against its oracle
and runs the statistical gates.  Prints one JSON object on stdout.
`run.py` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _lru_caches() -> dict:
    """hits/misses of every lru_cache reachable from the cbizero modules."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not (name == "cbizero" or name.startswith("cbizero.")):
            continue
        for attr, value in vars(mod).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == name:
                stats = info()
                out[f"{name[len('cbizero.'):]}.{attr}"] = {
                    "hits": stats.hits, "misses": stats.misses}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import cbizero
    import_s = time.perf_counter() - start
    if not os.path.abspath(cbizero.__file__).startswith(SRC + os.sep):
        print(f"cbizero imported from {cbizero.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    setup_s = time.perf_counter() - start

    import numpy
    import scipy
    result = {"setup_s": setup_s, "import_s": import_s,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        start = time.perf_counter()
        import cbizero.cli  # noqa: F401  (the cold import every CLI call pays)
        result["cli_import_s"] = import_s + time.perf_counter() - start
        import tracer as tracing
        tracer = tracing.Tracer(extra_modules=[workloads]).install()

    ops, failures = [], []
    clock = time.perf_counter
    wall_start = clock()
    for i, op in enumerate(workload.ops):
        span = None
        if tracer is not None:
            tracer.op = i
            span = tracer.begin(f"op:{op.label}", "bench")
        t0 = clock()
        try:
            value = op.call()
        except Exception as exc:
            value, detail = None, f"{type(exc).__name__}: {exc}"
            status = "raised"
        else:
            detail, status = None, None
        latency = clock() - t0
        if span is not None:
            tracer.end(span)
        if status is None:
            detail = op.check(value)
            status = "ok" if detail is None else "wrong"
        ops.append({"label": op.label, "latency_s": latency, "status": status})
        if detail is not None:
            failures.append({"label": op.label, "status": status, "detail": detail})
    for gate in workload.gates:
        detail = gate.check()
        ops.append({"label": f"gate:{gate.label}", "latency_s": None,
                    "status": "ok" if detail is None else "wrong"})
        if detail is not None:
            failures.append({"label": f"gate:{gate.label}", "status": "wrong",
                             "detail": detail})
    wall_s = clock() - wall_start

    result.update({
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "failures": failures,
    })
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wall_s, result["cli_import_s"])
        result["missing_boundaries"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans, [op["label"] for op in ops])
    result["lru_caches"] = _lru_caches()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
