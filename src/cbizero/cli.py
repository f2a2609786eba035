"""Command-line front end.

Parses mechanism grammar strings and experiment parameters, dispatches
to the library, and emits machine-readable reports (JSON or CSV, every
float carrying 12 significant digits).  Each option and its default
live in ``build_parser`` alone, which names each command's handler.
Inputs are checked by argparse (presence and type), by ``_check_run``
(reps >= 1, T > 0 finite and 0 < eps <= T/10, before any mechanism is
parsed)
and by the mechanism classes (parameters finite and in range).  Exit
codes: 0 success, 1 for usage, domain or parse errors (diagnostic on
stderr), 2 for an honest Inconclusive classification, so harnesses can
tell "cannot decide" from "wrong".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .classify import INCONCLUSIVE_CLASS, TRIVIAL_POINT, classify_zero_state
from .cutout import sample_cutout, statistics
from .flow import FlowError, solver
from .mechanisms import EvaluationError, parse_branching, parse_immigration
from .ou import ou_classify, pushforward_ks, sample_ou_cutout
from .zeroset import gzero_density, laplace_exponent

__all__ = ["build_parser", "main"]

REPORT_DIR_ENV = "CBIZERO_REPORT_DIR"
PUSHFORWARD_POINTS = 10_000


# --- output plumbing ------------------------------------------------------

def _roundtrip(value: float):
    # 12 significant digits; JSON has no inf/nan so spell them out
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(f"{value:.12g}")


def _jsonable(obj):
    if isinstance(obj, (float, np.floating)):
        return _roundtrip(float(obj))
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        v = _roundtrip(float(value))
        return v if isinstance(v, str) else f"{v:.12g}"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(_jsonable(value), separators=(",", ":"))
    return str(value)


def _table_text(rows: Sequence[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_text(list(rows))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_cell(v) for v in row.values()])
    return buf.getvalue()


def _report_text(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(payload)
    return _table_text([{"key": key, "value": value} for key, value in payload.items()],
                       fmt)


def _resolve_out(out: str) -> Path:
    path = Path(out)
    if not path.is_absolute():
        path = Path(os.environ.get(REPORT_DIR_ENV, ".")) / path
    return path


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write(_resolve_out(out), text)


# --- command handlers -----------------------------------------------------

def _check_run(args: argparse.Namespace) -> None:
    """The bounds of a stochastic command that argparse cannot state."""
    if args.reps < 1:
        raise ValueError("reps must be at least 1")
    if not args.T > 0.0:
        raise ValueError("horizon T must be positive")
    if math.isinf(args.T):
        raise ValueError("horizon T must be finite")
    if not 0.0 < args.eps <= args.T / 10.0:
        raise ValueError("eps must lie in (0, T/10]")


def _run_classify(args: argparse.Namespace) -> int:
    psi = parse_branching(args.psi)
    phi = parse_immigration(args.phi)
    report = classify_zero_state(psi, phi,
                                 numeric_only=args.numeric_only).as_dict()
    _emit(_report_text(report, args.format), args.out)
    return 2 if report["zero_class"] == INCONCLUSIVE_CLASS else 0


def _run_vflow(args: argparse.Namespace) -> int:
    flow = solver(parse_branching(args.psi))
    rows = [{"t": t, "v_t": flow.v_from_infinity(t),
             "v_t_lambda": flow.v_from_lambda(t, args.lam)}
            for t in args.t]
    _emit(_table_text(rows, args.format), args.out)
    return 0


def _run_laplace(args: argparse.Namespace) -> int:
    psi = parse_branching(args.psi)
    phi = parse_immigration(args.phi)
    rows = [{"q": q, "L": laplace_exponent(psi, phi, q)} for q in args.q]
    _emit(_table_text(rows, args.format), args.out)
    return 0


def _run_gzero(args: argparse.Namespace) -> int:
    psi = parse_branching(args.psi)
    phi = parse_immigration(args.phi)
    rows = [{"t": t, "density": gzero_density(psi, phi, t)} for t in args.t]
    _emit(_table_text(rows, args.format), args.out)
    return 0


def _dimension_grid(T: float, eps: float) -> list:
    """Every decade the realization supports: T/10 down to eps."""
    grid = [T / 10.0]
    while grid[-1] / 10.0 >= eps * (1.0 - 1e-12):
        grid.append(grid[-1] / 10.0)
    if len(grid) < 2:
        grid.insert(0, T / 5.0)
    return grid


def _run_simulate(args: argparse.Namespace) -> int:
    _check_run(args)
    psi = parse_branching(args.psi)
    phi = parse_immigration(args.phi)
    grid = _dimension_grid(args.T, args.eps)
    rows = []
    first = None
    for i in range(args.reps):
        rep_seed = args.seed + i
        uncovered = sample_cutout(psi, phi, args.T, args.eps, rep_seed)
        if first is None:
            first = uncovered
        stats = statistics(uncovered, grid)
        rows.append({"seed": rep_seed, "lebesgue": stats["lebesgue"],
                     "g_last": stats["g_last"],
                     "dim_fit": stats["dim_fit"]["slope"]})
    out_path = _resolve_out(args.out)
    _write(out_path, _table_text(rows, "csv"))

    slopes = [row["dim_fit"] for row in rows]
    summary = {
        "psi": args.psi, "phi": args.phi,
        "T": args.T, "eps": args.eps,
        "reps": args.reps, "seed": args.seed,
        "grid_sizes": grid,
        "lebesgue_mean": float(np.mean([r["lebesgue"] for r in rows])),
        "g_last_mean": float(np.mean([r["g_last"] for r in rows])),
        "dim_fit_mean": float(np.mean(slopes)),
        "dim_fit_sd": float(np.std(slopes)),
    }
    _write(out_path.with_suffix(".summary.json"), _json_text(summary))
    if args.dump_intervals:
        rows = [{"start": float(lo), "end": float(hi)} for lo, hi in first.intervals]
        _write(out_path.with_suffix(".intervals.csv"), _table_text(rows, "csv"))
    return 0


def _run_ou(args: argparse.Namespace) -> int:
    _check_run(args)
    classification = ou_classify(args.alpha)
    if classification.zero_class == TRIVIAL_POINT:
        payload = {"class": classification.zero_class,
                   "dim_theory": classification.dim,
                   "dim_fit": None, "ks_pushforward": None}
    else:
        grid = _dimension_grid(args.T, args.eps)
        slopes = [
            statistics(sample_ou_cutout(args.alpha, args.T, args.eps,
                                        args.seed + i),
                       grid)["dim_fit"]["slope"]
            for i in range(args.reps)
        ]
        payload = {"class": classification.zero_class,
                   "dim_theory": classification.dim,
                   "dim_fit": float(np.mean(slopes)),
                   "ks_pushforward": pushforward_ks(
                       args.alpha, args.eps, PUSHFORWARD_POINTS,
                       args.seed)}
    _emit(_report_text(payload, args.format), args.out)
    return 0


# --- argument parsing -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with code 2 on usage errors, which this tool
        # reserves for honest Inconclusive verdicts; remap to 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> Tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _add_pair(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--psi", required=True,
                     help="branching mechanism, e.g. stable:d=1,alpha=2")
    sub.add_argument("--phi", required=True,
                     help="immigration mechanism, e.g. gamma:a=1,b=1")


def _add_output(sub: argparse.ArgumentParser, default_fmt: str) -> None:
    sub.add_argument("--format", choices=("json", "csv"),
                     default=default_fmt, help="report format")
    sub.add_argument("--out", default=None,
                     help="report path; relative paths land in "
                          f"${REPORT_DIR_ENV} (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbizero",
                     description="Classify and simulate CBI zero sets.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("classify", help="zero-set trichotomy for a pair")
    p.set_defaults(run=_run_classify)
    _add_pair(p)
    p.add_argument("--numeric-only", action="store_true",
                   help="skip the regular-variation fast path")
    _add_output(p, "json")

    p = sub.add_parser("vflow", help="flow tables (t, v_t, v_t(lambda))")
    p.set_defaults(run=_run_vflow)
    p.add_argument("--psi", required=True)
    p.add_argument("--t", required=True, type=_float_list,
                   help="comma-separated times")
    p.add_argument("--lam", type=float, default=1.0,
                   help="initial value for the v_t(lambda) column")
    _add_output(p, "csv")

    p = sub.add_parser("laplace", help="subordinator Laplace exponent L(q)")
    p.set_defaults(run=_run_laplace)
    _add_pair(p)
    p.add_argument("--q", required=True, type=_float_list,
                   help="comma-separated arguments")
    _add_output(p, "csv")

    p = sub.add_parser("gzero", help="density of the last zero")
    p.set_defaults(run=_run_gzero)
    _add_pair(p)
    p.add_argument("--t", required=True, type=_float_list,
                   help="comma-separated times")
    _add_output(p, "csv")

    p = sub.add_parser("simulate", help="cutout replicates on [0, T]")
    p.set_defaults(run=_run_simulate)
    _add_pair(p)
    p.add_argument("--T", required=True, type=float)
    p.add_argument("--eps", required=True, type=float,
                   help="duration truncation, in (0, T/10]")
    p.add_argument("--reps", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True,
                   help="replicate CSV path; the JSON summary lands next "
                        "to it")
    p.add_argument("--dump-intervals", action="store_true",
                   help="also write replicate 0's uncovered intervals")

    p = sub.add_parser("ou", help="stable OU zero set")
    p.set_defaults(run=_run_ou)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--T", required=True, type=float)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--reps", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    _add_output(p, "json")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, FlowError, EvaluationError) as exc:
        print(f"cbizero: error: {exc}", file=sys.stderr)
        return 1
