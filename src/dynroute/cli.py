"""Command-line interface: plan, simulate, bench, validate.

Exit codes are a stable contract:

  0  success
  2  usage error (bad flags, empty suite)
  3  scenario parse/validation failure
  4  planner reported the goal unreachable
  5  a vehicle ended stranded (without --allow-stranded)

A command whose standard output is closed by its reader ends quietly with the
code it returned, or 0 if it was still writing.

A bench cell that cannot be scored, including every cell of a scenario whose
oracle raises, counts as a failure and is listed under "errors" (exit 0).

Every flag may also be supplied through a JSON config file (--config), as a
value of the flag's JSON type; explicit flags win on conflict. Output files
are written to a temporary sibling and renamed into place, so readers never
observe partial files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from .evaluate import RHO, compare_algorithms, report_csv, report_table
from .graph import Scenario, ScenarioError, load_scenario
from .heuristics import HeuristicWeights
from .planners import FOUND
from .simulate import (ALGORITHMS, MAX_EPOCHS, PLANNERS, STRANDED, SimConfig, TruthTimeline,
                       run_simulation, vehicle_params)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCENARIO = 3
EXIT_UNREACHABLE = 4
EXIT_STRANDED = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _atomic_write(path: Path, text: str) -> None:
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_USAGE) from exc


def _check_out(out: str | None) -> None:
    """Fail before any work if ``--out`` names a file, or a prefix of files, in no directory."""
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise CliError(f"cannot write {out}: no directory {os.path.dirname(out)}", EXIT_USAGE)


def _load(path: str) -> Scenario:
    try:
        return load_scenario(Path(path).read_bytes())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from exc
    except ScenarioError as exc:
        raise CliError(f"{path}: {exc}", EXIT_SCENARIO) from exc


def _parse_weights(text: str) -> HeuristicWeights:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError("--weights expects wg,w1,w2,w3", EXIT_USAGE)
    try:
        wg, w1, w2, w3 = (float(p) for p in parts)
        return HeuristicWeights(wg, w1, w2, w3)
    except ValueError as exc:
        raise CliError(f"bad --weights: {exc}", EXIT_USAGE) from exc


def _config_type_error(action: argparse.Action, value: object) -> str | None:
    """What a config-file ``value`` for ``action`` must be, or None if it is.

    JSON gives typed values, so none is converted: flags take true/false,
    int options an integer, float options any number, the rest a string.
    ``null`` is accepted only where the option's own default is None.
    """
    if value is None and action.default is None:
        return None
    if isinstance(action, argparse._StoreTrueAction):
        return None if isinstance(value, bool) else "true or false"
    if action.type is int:
        expected, types = "an integer", int
    elif action.type is float:
        expected, types = "a number", (int, float)
    else:
        expected, types = "a string", str
    if isinstance(value, bool) or not isinstance(value, types):
        return expected
    if action.choices is not None and value not in action.choices:
        return f"one of {', '.join(map(str, action.choices))}"
    return None


def _apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str] | None
) -> argparse.Namespace:
    """Install config values as defaults and re-parse so explicit flags win."""
    if not getattr(args, "config", None):
        return args
    try:
        overrides = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or bad JSON
        raise CliError(f"bad config file {args.config}: {exc}", EXIT_USAGE) from exc
    if not isinstance(overrides, dict):
        raise CliError("config file must be a JSON object", EXIT_USAGE)
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    subparser = subparsers.choices[args.command]
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    updates = {}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise CliError(f"config file sets unknown option {key!r}", EXIT_USAGE)
        expected = _config_type_error(actions[dest], value)
        if expected:
            raise CliError(
                f"config file option {key!r} must be {expected}, got {json.dumps(value)}",
                EXIT_USAGE,
            )
        updates[dest] = value
    subparser.set_defaults(**updates)
    return parser.parse_args(argv)


def _sim_config(args: argparse.Namespace) -> SimConfig:
    """The settings ``args`` gives; ``plan`` has only ``--epoch-s``."""
    try:
        return SimConfig(
            epoch_s=float(args.epoch_s),
            share_observations=not getattr(args, "no_share", False),
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc


def _override_scenario(scn: Scenario, args: argparse.Namespace) -> Scenario:
    changes = {}
    if args.seed is not None:
        changes["seed"] = int(args.seed)
    if getattr(args, "alpha", None) is not None:
        try:
            changes["initial_field"] = dataclasses.replace(
                scn.initial_field, smoothing_alpha=float(args.alpha)
            )
        except ValueError as exc:
            raise CliError(f"--alpha: {exc}", EXIT_USAGE) from exc
    return dataclasses.replace(scn, **changes) if changes else scn


# -- subcommands --------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    scn = _override_scenario(_load(args.scenario), args)
    if not (0 <= args.query < len(scn.queries)):
        raise CliError(
            f"--query {args.query} out of range (scenario has {len(scn.queries)})",
            EXIT_USAGE,
        )
    q = scn.queries[args.query]
    weights = _parse_weights(args.weights) if args.weights else None
    snap = TruthTimeline(scn, _sim_config(args).epoch_s).at_time(q.depart_s)
    plan = PLANNERS[args.algo](snap, q.start, q.goal, vehicle_params(scn, weights)[q.vehicle])
    if plan.status != FOUND:
        print("Unreachable")
        return EXIT_UNREACHABLE
    print("path:", " -> ".join(plan.path))
    print(f"g_cost: {plan.g_cost:.6f}")
    print(f"f_cost: {plan.f_cost_at_goal:.6f}")
    print(f"expanded: {plan.expanded}")
    if args.out:
        _atomic_write(
            Path(args.out),
            json.dumps(
                {
                    "path": list(plan.path),
                    "g_cost": plan.g_cost,
                    "f_cost": plan.f_cost_at_goal,
                    "expanded": plan.expanded,
                    "status": plan.status,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n",
        )
    return EXIT_OK


def _trace_csv(trace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vehicle", "status", "realized_cost_s", "arrival_s", "replans", "path"])
    for v in trace.vehicles:
        writer.writerow(
            [
                v["vehicle"],
                v["status"],
                f"{v['realized_cost_s']:.6f}",
                "" if v["arrival_s"] is None else f"{v['arrival_s']:.6f}",
                v["replans"],
                "|".join(v["path"]),
            ]
        )
    return buf.getvalue()


def cmd_simulate(args: argparse.Namespace) -> int:
    scn = _override_scenario(_load(args.scenario), args)
    config = _sim_config(args)
    trace = run_simulation(scn, config, args.algo)
    if args.out:
        _atomic_write(
            Path(args.out + ".trace.json"),
            json.dumps(trace.to_dict(), sort_keys=True, indent=2) + "\n",
        )
        _atomic_write(Path(args.out + ".csv"), _trace_csv(trace))
    else:
        sys.stdout.write(_trace_csv(trace))
    stranded = [v["vehicle"] for v in trace.vehicles if v["status"] == STRANDED]
    if stranded and not args.allow_stranded:
        print(f"stranded vehicles: {', '.join(stranded)}", file=sys.stderr)
        return EXIT_STRANDED
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    suite_dir = Path(args.suite)
    paths = sorted(suite_dir.glob("*.scn"))
    if not paths:
        raise CliError(f"no *.scn files in {suite_dir}", EXIT_USAGE)
    rho = float(args.rho)
    if not rho >= 1.0:  # NaN included
        raise CliError("--rho must be >= 1", EXIT_USAGE)
    jobs = int(args.jobs)
    if jobs < 1:
        raise CliError("--jobs must be >= 1", EXIT_USAGE)
    config = _sim_config(args)
    try:
        report = compare_algorithms(paths, rho=rho, config=config, jobs=jobs)
    except OSError as exc:  # a *.scn that is a directory or a dangling link
        raise CliError(f"cannot read {exc.filename}: {exc}", EXIT_USAGE) from exc
    except ScenarioError as exc:
        raise CliError(str(exc), EXIT_SCENARIO) from exc
    table = report_table(report)
    sys.stdout.write(table)
    if args.out:
        _atomic_write(Path(args.out + ".csv"), report_csv(report))
        _atomic_write(Path(args.out + ".txt"), table)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    errors = []
    for path in args.scenarios:
        try:
            load_scenario(Path(path).read_bytes())
            print(f"{path}: OK")
        except (OSError, ScenarioError) as exc:
            errors.append({"file": path, "error": str(exc)})
    if errors:
        print(json.dumps({"errors": errors}, sort_keys=True, indent=2))
        return EXIT_SCENARIO
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_shared(p: argparse.ArgumentParser, simulates: bool) -> None:
    """Options of every command that runs a scenario; ``plan`` does not simulate."""
    p.add_argument("--config", help="JSON file of option defaults; explicit flags win")
    p.add_argument("--epoch-s", dest="epoch_s", type=float, default=SimConfig.epoch_s,
                   help=f"replanning epoch length in seconds, > 0 (default "
                        f"{SimConfig.epoch_s:g}); the {SimConfig.horizon_s:g} s horizon "
                        f"spans at most {MAX_EPOCHS:,} epochs")
    if simulates:
        p.add_argument("--no-share", action="store_true",
                       help="disable observation sharing between vehicles")
    p.add_argument("--out", default=None, help="output path or prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynroute",
        description="dynamic-heuristic route planning, fleet simulation and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan a single scenario query")
    p_plan.add_argument("--scenario", required=True)
    p_plan.add_argument("--algo", choices=ALGORITHMS, default="dyn_astar")
    p_plan.add_argument("--query", type=int, default=0, help="query index, >= 0")
    p_plan.add_argument("--weights", default=None, help="wg,w1,w2,w3 (each >= 0, wg > 0)")
    p_plan.add_argument("--seed", type=int, default=None, help="override scenario seed")
    _add_shared(p_plan, simulates=False)
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="run the fleet simulation")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--algo", choices=ALGORITHMS, default="dyn_astar")
    p_sim.add_argument("--allow-stranded", action="store_true",
                       help="exit 0 even if vehicles end stranded")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sim.add_argument("--alpha", type=float, default=None,
                       help="observation smoothing factor, in (0, 1]")
    _add_shared(p_sim, simulates=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="compare all algorithms over a scenario suite")
    p_bench.add_argument("--suite", required=True, help="directory of *.scn files")
    p_bench.add_argument("--rho", type=float, default=RHO,
                         help=f"pass threshold multiplier on oracle cost, >= 1 (default {RHO:g})")
    p_bench.add_argument("--jobs", type=int, default=1, help="parallel scenario workers, >= 1")
    _add_shared(p_bench, simulates=True)
    p_bench.set_defaults(func=cmd_bench)

    p_val = sub.add_parser("validate", help="validate scenario files without running")
    p_val.add_argument("scenarios", nargs="+", help="scenario files to check")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    code = EXIT_OK
    try:
        try:
            args = parser.parse_args(argv)
            args = _apply_config_file(args, parser, argv)
            _check_out(getattr(args, "out", None))
            code = args.func(args)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone: what is still buffered has no reader.
        # Pointing fd 1 at devnull keeps the flush at exit from failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
