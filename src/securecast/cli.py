"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 configuration or parse
error, 2 property violation (an E or 3T conflict, a Monte Carlo estimate
whose confidence interval clears its bound, or a trace check failure).

All randomness flows from --seed; there is no wall-clock or OS entropy in
any code path.  SECURECAST_THREADS caps the Monte Carlo worker pool.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import (AnalysisParams, BoundReport, bound_report,
                       format_number, monte_carlo_conflict_rate,
                       overall_conflict_bound, solve_min_cost_params)
from .adversary import STRATEGIES
from .quorum import InvalidParamsError
from .simnet import ConfigError, SimConfig, build_world
from .tracecheck import TraceParseError, check_trace_file

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2


def _worker_cap(requested: int) -> int:
    """--parallel, capped by SECURECAST_THREADS when that is set and not
    empty; a cap that is not a whole number >= 1 is a config error."""
    cap = os.environ.get("SECURECAST_THREADS")
    if not cap:
        return max(1, requested)
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ConfigError("SECURECAST_THREADS",
                          f"need a whole number >= 1, got {cap!r}")
    return max(1, min(requested, limit))


def _add_sim_flags(p: argparse.ArgumentParser):
    p.add_argument("--protocol", choices=["e", "3t", "act"])
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--kappa", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--slack-c", type=int, dest="slack_c")
    p.add_argument("--messages", type=int)
    p.add_argument("--adversary", choices=("none",) + STRATEGIES)
    p.add_argument("--num-faulty", type=int, dest="num_faulty")
    p.add_argument("--crash-after", type=int, dest="crash_after")
    p.add_argument("--seed", type=int)
    p.add_argument("--drop-prob", type=float, dest="p_drop")
    p.add_argument("--latency-hi", type=int, dest="latency_hi")
    p.add_argument("--no-stability", action="store_true")
    p.add_argument("--config", help="key=value file; flags override it")


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _boolean(val: str) -> bool:
    try:
        return _BOOLEANS[val.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {val!r}") from None


_CONFIG_KEYS = {
    "protocol": str, "n": int, "t": int, "kappa": int, "delta": int,
    "slack_c": int, "messages": int, "adversary": str, "num_faulty": int,
    "crash_after": int, "seed": int, "p_drop": float, "latency_hi": int,
    "stability": _boolean,
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("config", f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path}: not a text file") from exc
    out = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"{path}:{lineno}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError("config", f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError("config", f"{path}:{lineno}: bad value "
                              f"{val!r} for {key}") from exc
    return out


def _sim_config(args, stability: bool = True) -> SimConfig:
    """The CLI's own defaults, then the --config file, then explicit
    flags; SimConfig supplies every other default."""
    values = {"protocol": "e", "n": 4, "t": 1, "stability": stability}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "no_stability", False):
        values["stability"] = False
    # formatting trace lines nobody writes out is wasted work
    return SimConfig(**values,
                     record_trace=bool(getattr(args, "trace_out", None)))


def _check_writable(path: str, fld: str):
    """Refuse an output path that cannot be opened for writing, before any
    work is done for it.  Opening for append creates a missing file and
    leaves an existing one as it is; the command overwrites it later."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ConfigError(fld, f"{path}: {exc.strerror}") from exc


def cmd_simulate(args) -> int:
    try:
        cfg = _sim_config(args)
        world = build_world(cfg)
        if args.trace_out:
            _check_writable(args.trace_out, "trace_out")
    except (ConfigError, InvalidParamsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = world.run_to_quiescence()
    if args.trace_out:
        world.write_trace(args.trace_out)
    print(f"protocol={cfg.protocol} n={cfg.n} t={cfg.t} "
          f"adversary={cfg.adversary} seed={cfg.seed}")
    print(f"messages={report.messages_multicast} "
          f"deliveries={report.total_deliveries()} "
          f"conflicts={report.conflicts} alerts={report.alerts_raised} "
          f"quiescent={str(report.quiescent).lower()} ticks={report.elapsed}")
    if cfg.protocol in ("e", "3t") and report.conflicts > 0:
        print("property violation: conflicting deliveries under an "
              "agreement-preserving protocol", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _analysis_params(args) -> AnalysisParams:
    return AnalysisParams(args.n, args.t, args.kappa or 0, args.delta or 0,
                          args.slack_c or 0)


def cmd_analyze(args) -> int:
    try:
        params = _analysis_params(args)
        rep = bound_report(params)
    except (InvalidParamsError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(",".join(BoundReport.CSV_COLUMNS))
    print(",".join(rep.csv_row()))
    if args.epsilon is not None:
        found = solve_min_cost_params(args.n, args.t, args.epsilon,
                                      params.slack_c)
        if found is None:
            print(f"epsilon={format_number(args.epsilon)}: no feasible "
                  f"(kappa, delta)", file=sys.stderr)
            return EXIT_CONFIG
        k, d = found
        achieved = overall_conflict_bound(
            AnalysisParams(args.n, args.t, k, d, params.slack_c)).specific
        print(f"epsilon,{format_number(args.epsilon)},kappa,{k},delta,{d},"
              f"bound,{format_number(achieved)}")
    return EXIT_OK


def _check_trials(trials: int):
    if trials < 1:
        raise ConfigError("trials", f"need at least one trial, got {trials}")


def _mc_verdict(result, bound: float) -> str:
    """NONE when nothing was attacked, else PASS or FAIL against bound."""
    return ("NONE" if not result.attacked
            else "PASS" if result.ci_low <= bound else "FAIL")


def cmd_montecarlo(args) -> int:
    try:
        _check_trials(args.trials)
        # Monte Carlo worlds run without the stability oracle; a config
        # file asking for it is refused rather than ignored
        cfg = _sim_config(args, stability=False)
        if cfg.stability:
            raise ConfigError("stability", "montecarlo runs with stability "
                              "off; stability=true is not supported here")
        cfg.validate()
        params = AnalysisParams(cfg.n, cfg.t, cfg.kappa, cfg.delta, cfg.slack_c)
        workers = _worker_cap(args.parallel)
    except (ConfigError, InvalidParamsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    bound = overall_conflict_bound(params).specific
    result = monte_carlo_conflict_rate(cfg, args.trials, parallel=workers,
                                       bound=bound)
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    verdict = _mc_verdict(result, bound)
    print("trials,attacked,conflicts,estimate,ci_low,ci_high,bound,verdict")
    print(f"{args.trials},{result.attacked},{result.conflicts},"
          f"{format_number(result.estimate)},{format_number(result.ci_low)},"
          f"{format_number(result.ci_high)},{format_number(bound)},{verdict}")
    return EXIT_VIOLATION if verdict == "FAIL" else EXIT_OK


# The sweep's variables; a point takes each from the grid, else its flag.
_GRID_VARS = ("n", "t", "kappa", "delta", "slack_c")


def _parse_grid(spec: str) -> dict[str, list[int]]:
    grid = {}
    if not spec.strip():
        return grid
    for part in spec.split(","):
        if "=" not in part or ".." not in part.split("=", 1)[1]:
            raise ConfigError("grid", f"malformed grid term {part!r}, "
                              f"expected name=lo..hi")
        name, rng = part.split("=", 1)
        name = name.strip()
        if name not in _GRID_VARS:
            raise ConfigError("grid", f"unknown grid variable {name!r}")
        lo, hi = rng.split("..", 1)
        try:
            grid[name] = list(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise ConfigError("grid", f"bad range in {part!r}") from exc
    return grid


def cmd_sweep(args) -> int:
    try:
        grid = _parse_grid(args.grid)
        if args.montecarlo:
            _check_trials(args.trials)
            workers = _worker_cap(args.parallel)
        if args.out:
            _check_writable(args.out, "out")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    base = {name: getattr(args, name) for name in _GRID_VARS}
    names = sorted(grid)
    points = [{}]
    for name in names:
        points = [dict(p, **{name: v}) for p in points for v in grid[name]]
    if not grid:
        points = []

    columns = list(BoundReport.CSV_COLUMNS)
    if args.montecarlo:
        columns += ["estimate", "ci_low", "ci_high", "verdict"]
    lines = [",".join(columns)]
    exit_code = EXIT_OK
    for point in points:
        vals = dict(base, **point)
        try:
            params = AnalysisParams(vals["n"], vals["t"], vals["kappa"],
                                    vals["delta"], vals["slack_c"])
            rep = bound_report(params)
            if args.montecarlo:
                cfg = SimConfig(protocol="act", adversary="regime-split",
                                seed=args.seed, record_trace=False,
                                stability=False, **vals)
                cfg.validate()
        except (InvalidParamsError, ConfigError):
            continue  # infeasible grid point, skipped
        row = rep.csv_row()
        if args.montecarlo:
            bound = rep.overall_conflict.specific
            mc = monte_carlo_conflict_rate(cfg, args.trials,
                                           parallel=workers, bound=bound)
            if mc.warning:
                print(f"warning: n={cfg.n} t={cfg.t} kappa={cfg.kappa} "
                      f"delta={cfg.delta} slack_c={cfg.slack_c}: "
                      f"{mc.warning}", file=sys.stderr)
            verdict = _mc_verdict(mc, bound)
            if verdict == "FAIL":
                exit_code = EXIT_VIOLATION
            row += [format_number(mc.estimate), format_number(mc.ci_low),
                    format_number(mc.ci_high), verdict]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def cmd_trace_check(args) -> int:
    try:
        result = check_trace_file(args.path)
    except FileNotFoundError:
        print(f"no such trace: {args.path}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a directory, no permission, a read error
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for mid in result.conflicts:
        print(f"conflict observed on {mid} (counted, not a violation for "
              f"probabilistic runs)")
    if result.ok:
        print("trace clean")
        return EXIT_OK
    for v in result.violations:
        print(str(v), file=sys.stderr)
    return EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="securecast",
        description="Secure reliable multicast protocols under simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one seeded world")
    _add_sim_flags(p)
    p.add_argument("--trace-out", help="write the event trace to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="print the closed-form bound table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--kappa", type=int, default=0)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--slack-c", type=int, dest="slack_c", default=0)
    p.add_argument("--epsilon", type=float,
                   help="also solve for minimal (kappa, delta) meeting this")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("montecarlo",
                       help="estimate the conflict rate over seeded worlds")
    _add_sim_flags(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("sweep", help="bound table over a parameter grid")
    p.add_argument("--grid", required=True,
                   help='e.g. "kappa=1..6,delta=1..12"')
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--t", type=int, default=10)
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--delta", type=int, default=5)
    p.add_argument("--slack-c", type=int, dest="slack_c", default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--montecarlo", action="store_true")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace-check",
                       help="replay a trace through the invariant checker")
    p.add_argument("path")
    p.set_defaults(func=cmd_trace_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
