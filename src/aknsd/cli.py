"""Command-line surface.

Commands: dress, resolvent, flow, evolve, verify, limit, tau.  Shared flags
can also come from environment variables with the AKNSD_ prefix (AKNSD_CONFIG,
AKNSD_OUT, AKNSD_FORMAT, AKNSD_MODE, AKNSD_TOL, AKNSD_SEED, AKNSD_VERBOSE);
explicit flags win over the environment, which wins over the config file.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 input
error (bad config, bad file, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import scalars
from .baker import TauExpSum, baker_from_tau, tau_lambda_defect
from .config import ExperimentConfig, flow_problems, parse_config
from .dynamics import FlowIndex, integrate
from .errors import AknsdError, ConfigError, ConsistencyError, SchemaError
from .hierarchy import (
    cross_solver_difference,
    diagonal_drift,
    dressing_residual,
    flow_field,
)
from .matrices import SmallMatrix
from .persist import (
    export_json,
    export_trajectory_csv,
    export_trajectory_json,
    lattice_to_json,
    load_state,
    save_state,
)
from .series import MatSeries, series_diff_max
from .verify import SUITES, limit_scan, run_verify_suite

ENV_PREFIX = "AKNSD_"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
FORMATS = ("json", "csv")


def _parse_flag(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"not one of {FORMATS}: {text!r}")
    return text


# shared flags that the environment can supply, with the parser of their text
_ENV_FLAGS = (("config", str), ("out", str), ("format", _parse_format), ("mode", str),
              ("tol", float), ("seed", int), ("verbose", _parse_flag))


def _apply_env(args) -> None:
    """Fill each shared flag left unset on the command line from AKNSD_<NAME>."""
    for name, parse in _ENV_FLAGS:
        text = os.environ.get(ENV_PREFIX + name.upper())
        if getattr(args, name) is not None or not text:
            continue
        try:
            setattr(args, name, parse(text))
        except ValueError:
            raise ConfigError(
                f"bad value {text!r} in {ENV_PREFIX}{name.upper()}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aknsd",
        description="Exact-arithmetic workbench for the discrete AKNS-D hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--mode", choices=scalars.MODES, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--verbose", action="store_true", default=None)
        return p

    command("dress", cmd_dress, "solve the dressing and report its residual").add_argument(
        "--state", default=None, help="verify an existing state document instead of solving")
    command("resolvent", cmd_resolvent, "build a resolvent both ways and compare").add_argument(
        "--alpha", type=int, default=1)
    p = command("flow", cmd_flow, "evaluate one hierarchy flow field")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", type=int, default=None)
    command("evolve", cmd_evolve, "integrate the potential along a flow")
    command("verify", cmd_verify, "run a verification suite").add_argument(
        "--suite", choices=SUITES, default="all")
    command("limit", cmd_limit, "run the small-step continuum scan")
    command("tau", cmd_tau, "tau-function demo: candidate and consistency")
    return parser


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("no configuration given (use --config or AKNSD_CONFIG)")
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    overrides = {name: getattr(args, name) for name in ("mode", "tol", "seed")
                 if getattr(args, name) is not None}
    if overrides:
        try:
            text = json.dumps({**json.loads(text), **overrides})
        except (ValueError, TypeError):
            pass  # not a JSON object: parse_config reports it
    return parse_config(text)


def _out_path(args, config) -> str | None:
    return args.out or config.out


def _wrote(args, path: str) -> None:
    if args.verbose:
        print(f"wrote {path}")


def _emit(args, doc: dict, path: str | None) -> None:
    if path:
        export_json(doc, path)
        _wrote(args, path)
    else:
        print(json.dumps(doc, indent=1, sort_keys=True))


def cmd_dress(args) -> int:
    config = _load_config(args)
    state = load_state(args.state) if args.state else config.solve()
    residual = dressing_residual(state)
    print(f"dressing residual: {scalars.format_scalar(residual)}")
    out = _out_path(args, config)
    if out and not args.state:
        save_state(state, out)
        _wrote(args, out)
    return EXIT_OK if residual <= config.tolerance(state.mode) else EXIT_CHECK_FAILED


def cmd_resolvent(args) -> int:
    config = _load_config(args)
    state = config.solve()
    worst = cross_solver_difference(state, args.alpha)
    ok = worst <= config.tolerance()
    doc = {
        "alpha": args.alpha,
        "depth": state.depth,
        "cross_solver_difference": scalars.format_scalar(worst),
        "pass": bool(ok),
    }
    _emit(args, doc, _out_path(args, config))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_flow(args) -> int:
    config = _load_config(args)
    k = config.first_flow[0] if args.k is None else args.k
    alpha = config.first_flow[1] if args.alpha is None else args.alpha
    problems = flow_problems(k, alpha, config.m, config.depth)
    if problems:
        raise ConfigError("; ".join(problems))
    field = flow_field(config.data(), config.build_potential(), k, alpha,
                       tol=config.tolerance())
    doc = {
        "k": k,
        "alpha": alpha,
        "mode": field.mode,
        "diagonal_drift": scalars.format_scalar(diagonal_drift(field)),
        "field": lattice_to_json(field),
    }
    _emit(args, doc, _out_path(args, config))
    return EXIT_OK


def cmd_evolve(args) -> int:
    config = _load_config(args)
    flow = FlowIndex(*config.first_flow)
    traj = integrate(config.data(scalars.FLOAT), config.build_potential(scalars.FLOAT),
                     config.window, flow, config.h, config.steps)
    out = _out_path(args, config)
    if out:
        if args.format == "csv":
            export_trajectory_csv(traj, out)
        else:
            export_trajectory_json(traj, out)
        _wrote(args, out)
    print(f"evolved {config.steps} steps of h={config.h} along flow "
          f"({flow.k},{flow.alpha}); {len(traj.warnings)} leakage warning(s)")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_config(args)
    report = run_verify_suite(config, args.suite)
    doc = report.to_json()
    out = _out_path(args, config)
    if out:
        export_json(doc, out)
        _wrote(args, out)
    print(f"suite {args.suite}: {report.verdict} "
          f"({sum(c['pass'] for c in report.checks)}/{len(report.checks)} checks)")
    return EXIT_OK if report.verdict == "pass" else EXIT_CHECK_FAILED


def cmd_limit(args) -> int:
    config = _load_config(args)
    scan = limit_scan(config)
    _emit(args, scan.to_json(), _out_path(args, config))
    return EXIT_OK if scan.passed else EXIT_CHECK_FAILED


def cmd_tau(args) -> int:
    config = _load_config(args)
    data = config.data()
    tau = TauExpSum.one(config.mode)
    consistent = all(tau_lambda_defect(tau, data, n) <= config.tolerance()
                     for n in (-2, 0, 3))
    ident = MatSeries.constant(SmallMatrix.identity(config.m, config.mode))
    worst = scalars.max_of(
        (series_diff_max(baker_from_tau(tau, {}, n, data, config.depth), ident)
         for n in (config.window.n_min, 0, config.window.n_max)),
        config.mode)
    doc = {
        "vacuum_candidate_error": scalars.format_scalar(worst),
        "lambda_consistency": bool(consistent),
    }
    _emit(args, doc, _out_path(args, config))
    return EXIT_OK if worst == 0 and consistent else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_env(args)
        return args.handler(args)
    except (ConfigError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except AknsdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
