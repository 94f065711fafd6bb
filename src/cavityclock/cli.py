"""Command-line front end: single evaluations, parameter sweeps, verification.

All quantities are in natural units (c = hbar = 1) with length as the base
unit; masses and accelerations are inverse lengths, times are lengths.

Output is CSV (also for single points) with the fixed column order

    mode,l,M,alpha,lambda,t_or_tau,value,value_kind,error_estimate,regime,status,message

Exit codes: 0 ok, 1 validation error (also a usage error, or a config or
output file that cannot be opened), 2 numerical failure, 3 verify failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import accelerated, quadrature, stationary
from .accelerated import AveragingWindow
from .core import FieldParams
from .errors import IntegrandError, UndefinedRatioError
from .kinematics import cavity_geometry
from .quadrature import QuadratureConfig
from .verify import CHECK_GROUPS, run_checks

CSV_COLUMNS = ["mode", "l", "M", "alpha", "lambda", "t_or_tau", "value",
               "value_kind", "error_estimate", "regime", "status", "message"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

# the package's validation errors are ValueErrors, SpecialFunctionRangeError an OverflowError
_VALIDATION_ERRORS = (ValueError,)
_NUMERICAL_ERRORS = (IntegrandError, UndefinedRatioError, OverflowError)

SWEEPABLE = ("alpha", "l", "M", "t_or_tau")


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit with EXIT_VALIDATION:
    argparse's own code, 2, is this CLI's numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavityclock",
        description="Decay rate of a cavity particle clock, resting or uniformly "
                    "accelerated (natural units, lengths as base).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_alpha: bool):
        p.add_argument("--l", type=float, help="cavity proper length")
        p.add_argument("--mass", type=float, help="external field mass M")
        p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="coupling strength (probability scales as lambda^2)")
        if with_alpha:
            p.add_argument("--alpha", type=float, help="proper acceleration of the cavity center")
            p.add_argument("--avg-width", type=float,
                           default=accelerated.DEFAULT_AVG_RELATIVE_HALFWIDTH,
                           help="relative halfwidth of the acceleration window")
            p.add_argument("--avg-samples", type=int,
                           default=accelerated.DEFAULT_AVG_SAMPLES,
                           help="samples across the acceleration window")
        p.add_argument("--time", type=float, default=None,
                       help="duration (lab time t or proper time tau)")
        p.add_argument("--rate", action="store_true",
                       help="compute the long-time rate instead of a finite-time probability")
        p.add_argument("--rel-tol", type=float, default=quadrature.DEFAULT_REL_TOL)
        p.add_argument("--abs-tol", type=float, default=quadrature.DEFAULT_ABS_TOL)
        p.add_argument("--sweep", type=str, default=None, metavar="PARAM:START:STOP:POINTS:lin|log",
                       help=f"sweep one of {SWEEPABLE} and emit one CSV row per point")
        p.add_argument("--config", type=str, default=None,
                       help="key=value file supplying defaults; flags override")
        p.add_argument("--output", type=str, default="stdout",
                       help="output path, or 'stdout'")

    # no abbreviated flags: _apply_config tells given flags by their full names
    p_stat = sub.add_parser("stationary", help="resting cavity clock", allow_abbrev=False)
    common(p_stat, with_alpha=False)

    p_acc = sub.add_parser("accelerated", help="uniformly accelerated cavity clock",
                           allow_abbrev=False)
    common(p_acc, with_alpha=True)
    p_acc.add_argument("--averaged", action="store_true",
                       help="average the long-time rate over the acceleration window")

    p_dev = sub.add_parser("deviation", allow_abbrev=False,
                           help="averaged accelerated rate over resting rate, minus one")
    common(p_dev, with_alpha=True)

    p_ver = sub.add_parser("verify", help="run the built-in verification suite")
    p_ver.add_argument("--only", type=str, default=None, choices=CHECK_GROUPS)

    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill unset values from the key=value config file; explicit flags win.
    A boolean is 1/0, true/false or yes/no in any case; a value that does not
    convert is refused, naming its key."""
    if getattr(args, "config", None) is None:
        return
    booleans = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    mapping = {"l": ("l", float), "mass": ("mass", float), "alpha": ("alpha", float),
               "lambda": ("lam", float), "time": ("time", float),
               "rate": ("rate", lambda s: booleans[s.lower()]),
               "rel-tol": ("rel_tol", float), "abs-tol": ("abs_tol", float),
               "avg-width": ("avg_width", float), "avg-samples": ("avg_samples", int),
               "sweep": ("sweep", str), "output": ("output", str)}
    explicit = {a.split("=")[0].lstrip("-").strip() for a in argv if a.startswith("--")}
    with open(args.config, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line not of the form key=value: {line!r}")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in mapping:
                raise ValueError(f"unknown config key {key!r}")
            if key in explicit:
                continue
            dest, conv = mapping[key]
            if hasattr(args, dest):
                try:
                    setattr(args, dest, conv(raw))
                except (KeyError, ValueError):
                    raise ValueError(f"config key {key!r} has an invalid value {raw!r}") from None


def _require(args: argparse.Namespace, names: list[str]) -> None:
    for n in names:
        if getattr(args, n, None) is None:
            raise ValueError(f"missing required parameter --{n.replace('_', '-')}")


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _param_columns(args: argparse.Namespace, overrides: dict) -> dict:
    """The parameter columns of one row, ok or error alike, with sweep
    overrides applied; t_or_tau is empty for rates and deviations."""
    mode = args.command
    timed = not args.rate and mode != "deviation"
    return {"mode": mode, "l": overrides.get("l", args.l), "M": overrides.get("M", args.mass),
            "alpha": 0.0 if mode == "stationary" else overrides.get("alpha", args.alpha),
            "lambda": args.lam,
            "t_or_tau": overrides.get("t_or_tau", args.time) if timed else ""}


def _evaluate(args: argparse.Namespace, overrides: dict) -> dict:
    """Compute one record for the current mode with sweep overrides applied."""
    row = _param_columns(args, overrides)
    mode, l, alpha, duration = row["mode"], row["l"], row["alpha"], row["t_or_tau"]
    cfg = QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    fields = FieldParams(M=row["M"], lam=args.lam)
    if duration is None:
        raise ValueError("missing required parameter --time (or use --rate)")
    geom = cavity_geometry(l, alpha)  # alpha is 0.0 in the stationary mode

    if mode == "stationary":
        result = (stationary.decay_rate_stationary_longtime(geom, fields) if args.rate
                  else stationary.decay_probability_stationary(geom, fields, duration, cfg))
    elif mode == "deviation":
        window = AveragingWindow(alpha, args.avg_width, args.avg_samples)
        result = accelerated.ideal_clock_deviation_result(geom, fields, window, cfg)
    elif not args.rate:
        result = accelerated.decay_probability_accelerated(geom, fields, duration, cfg)
    elif args.averaged:
        window = AveragingWindow(alpha, args.avg_width, args.avg_samples)
        result = accelerated.averaged_decay_rate(geom, fields, window, cfg)
    else:
        result = accelerated.decay_rate_accelerated_longtime(geom, fields, cfg)

    if not result.diagnostics.get("converged", True):
        raise IntegrandError("quadrature did not converge to the requested tolerance")
    row.update(value=result.value, value_kind=result.kind,
               error_estimate=result.error_estimate, regime=result.regime,
               status="ok", message="")
    return row


def _parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    parts = spec.split(":")
    if len(parts) != 5:
        raise ValueError("sweep spec must be PARAM:START:STOP:POINTS:lin|log")
    param, start_s, stop_s, pts_s, spacing = parts
    if param not in SWEEPABLE:
        raise ValueError(f"cannot sweep {param!r}; choose one of {SWEEPABLE}")
    start, stop, points = float(start_s), float(stop_s), int(pts_s)
    if not start < stop:
        raise ValueError("sweep requires start < stop")
    if points < 2:
        raise ValueError("sweep requires at least 2 points")
    if spacing == "lin":
        values = np.linspace(start, stop, points)
    elif spacing == "log":
        if start <= 0:
            raise ValueError("log spacing requires start > 0")
        values = np.geomspace(start, stop, points)
    else:
        raise ValueError("sweep spacing must be 'lin' or 'log'")
    return param, values


def _error_row(args, overrides, exc) -> dict:
    return {**_param_columns(args, overrides),
            "value": "", "value_kind": "", "error_estimate": "", "regime": "",
            "status": "error", "message": f"{type(exc).__name__}: {exc}"}


def _write_rows(rows: list[dict], output: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    text = buf.getvalue()
    if output == "stdout":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_verify(args: argparse.Namespace) -> int:
    results = run_checks(only=args.only)
    width = max(len(r.group) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{r.group:<{width}}  {status}  worst={r.worst:.3e}  bound={r.bound:.0e}  {r.detail}")
    print("verification:", "all checks passed" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        return _run_verify(args)

    try:
        _apply_config(args, argv)
        _require(args, ["l", "mass"])
        if args.command in ("accelerated", "deviation"):
            _require(args, ["alpha"])

        if args.sweep is None:
            rows = [_evaluate(args, {})]
        else:
            param, values = _parse_sweep(args.sweep)
            rows = []
            for v in values:
                overrides = {param: float(v)}
                try:
                    rows.append(_evaluate(args, overrides))
                except (_VALIDATION_ERRORS + _NUMERICAL_ERRORS) as exc:
                    rows.append(_error_row(args, overrides, exc))
        _write_rows(rows, args.output)
        return EXIT_OK
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (*_VALIDATION_ERRORS, OSError) as exc:  # OSError: the config or output file
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
