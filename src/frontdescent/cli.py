"""Experiment runner CLI.

Subcommands:
  run           execute the solver over a grid of (problem, n) x variant
  profiles      build performance profiles from one or more results directories
  trace-table   print selected iterations of a trace CSV in report form
  list-problems print the problem registry

Configuration is a JSON file mirroring the solver parameter names; command
line flags override file values. All output files are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
import warnings
from typing import Dict, List, Optional

import numpy as np

from .driver import TRACE_COLUMNS, VARIANTS, FDConfig, RunResult, run
from .front import SCHEMA_HEADER, front_csv_text, read_csv, read_images_csv
from .hypervolume import hypervolume, reference_point_cross_solver
from .metrics import (
    PROFILE_FAILURE,
    build_reference_front,
    delta_spread,
    gamma_spread,
    performance_profiles,
    profile_preprocess,
    purity,
)
from .suite import initial_points, list_problems, make_problem

__all__ = ["main"]

CONFIG_KEYS = {"instances", "variants", "solver", "time_limit", "out", "initial_points"}

# metric name -> f(images, pooled reference front, cross-solver reference point)
METRICS = {
    "purity": lambda Y, ref, zeta: purity(Y, ref),
    "hypervolume": lambda Y, ref, zeta: hypervolume(Y, zeta),
    "gamma_spread": lambda Y, ref, zeta: gamma_spread(Y, ref),
    "delta_spread": lambda Y, ref, zeta: delta_spread(Y, ref),
}


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trace_csv_text(result: RunResult) -> str:
    lines = [SCHEMA_HEADER, ",".join(TRACE_COLUMNS)]
    for rec in result.trace:
        row = rec.row()
        lines.append(
            ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _pool(fronts) -> tuple:
    """Reference front and cross-solver reference point of the pooled images."""
    fronts = list(fronts)
    return build_reference_front(fronts), reference_point_cross_solver(np.vstack(fronts))


def _fd_config(solver: dict, variant: str) -> FDConfig:
    unknown = set(solver) - {f.name for f in dataclasses.fields(FDConfig)}
    if unknown:
        raise ValueError(f"unknown solver parameter(s): {sorted(unknown)}")
    return FDConfig(**{**solver, "variant": variant})


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        unknown = set(cfg) - CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
    if (args.problem is None) != (args.n is None):
        raise ValueError("--problem and --n go together")
    if args.problem is not None:
        cfg["instances"] = [[args.problem, int(args.n)]]
    if args.variant is not None:
        cfg["variants"] = [args.variant]
    # command line flags override the file; time_limit overrides wall_clock_limit
    time_limit = args.time_limit if args.time_limit is not None else cfg.get("time_limit")
    solver = dict(cfg.get("solver", {}))
    for key, value in (
        ("sigma", args.sigma), ("eps_hv", args.eps_hv), ("wall_clock_limit", time_limit)
    ):
        if value is not None:
            solver[key] = float(value)
    cfg["solver"] = solver
    if args.out is not None:
        cfg["out"] = args.out
    cfg.setdefault("variants", ["sd"])
    cfg.setdefault("out", "results")
    return cfg


def cmd_run(args) -> int:
    # every problem, starting set and config is built here, so that config
    # errors fail before any run
    try:
        cfg = _load_config(args)
        instances = [(str(p), int(n)) for p, n in cfg.get("instances", [])]
        if not instances:
            raise ValueError("no instances configured (use --problem/--n or a config file)")
        if len(set(instances)) < len(instances):
            warnings.warn("duplicate instances in config were deduplicated")
        configs = [_fd_config(cfg["solver"], v) for v in dict.fromkeys(cfg["variants"])]
        starts = []
        for pname, n in dict.fromkeys(instances):
            problem = make_problem(pname, n)
            starts.append((problem, initial_points(problem, cfg.get("initial_points"))))
        out_dir = cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
        if not os.access(out_dir, os.W_OK):
            raise PermissionError(f"output directory {out_dir!r} is not writable")
    except Exception as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = {"solver_parameters": {}, "runs": []}
    for problem, X0 in starts:
        done = []
        for fdcfg in configs:
            base = os.path.join(out_dir, f"{problem.name}_n{problem.n}__{fdcfg.variant}")
            entry = {
                "problem": problem.name,
                "n": problem.n,
                "variant": fdcfg.variant,
                "artifacts": os.path.basename(base),
            }
            manifest["runs"].append(entry)
            t0 = time.perf_counter()
            try:
                result = run(problem, X0, fdcfg)
            except Exception as exc:
                entry.update(status="failed", error=f"{type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - t0
            _atomic_write(base + ".front.csv", front_csv_text(result.front, problem.n, problem.m))
            _atomic_write(base + ".trace.csv", _trace_csv_text(result))
            evals = result.counters.as_dict()
            entry.update(
                status="ok",
                stop_reason=result.stop_reason,
                wall_time=wall,
                iterations=len(result.trace),
                front_size=len(result.front),
                evals=evals,
            )
            manifest["solver_parameters"][fdcfg.variant] = dataclasses.asdict(fdcfg)
            done.append((base, result.front.images(), {"evals": evals, "wall_time": wall}))

        # cross-run metrics against the reference front pooled over the variants
        if done:
            ref, zeta = _pool(images for _, images, _ in done)
            for base, images, costs in done:
                scores = {name: f(images, ref, zeta) for name, f in METRICS.items()}
                _write_json(base + ".metrics.json", {**scores, **costs})

    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    n_failed = sum(1 for r in manifest["runs"] if r["status"] != "ok")
    print(
        f"completed {len(manifest['runs']) - n_failed}/{len(manifest['runs'])} runs "
        f"into {out_dir}"
    )
    return 0


def _collect_fronts(dirs: List[str]) -> Dict[str, Dict[str, np.ndarray]]:
    """{instance: {solver: images}} from the front CSVs of the results dirs.

    With several dirs a solver is labelled ``<basename(dir)>:<variant>``, so
    dirs that share a basename are rejected rather than merged.
    """
    labels = [os.path.basename(os.path.normpath(d)) for d in dirs]
    for label in labels:
        clash = [d for d, other in zip(dirs, labels) if other == label]
        if len(clash) > 1:
            raise ValueError(f"results directories {', '.join(clash)} share the label {label!r}")
    by_instance: Dict[str, Dict[str, np.ndarray]] = {}
    multiple = len(dirs) > 1
    for d, label in zip(dirs, labels):
        for fname in sorted(os.listdir(d)):
            if not fname.endswith(".front.csv"):
                continue
            stem = fname[: -len(".front.csv")]
            if "__" not in stem:
                continue
            instance, variant = stem.rsplit("__", 1)
            solver = f"{label}:{variant}" if multiple else variant
            by_instance.setdefault(instance, {})[solver] = read_images_csv(
                os.path.join(d, fname)
            )
    return by_instance


def cmd_profiles(args) -> int:
    try:
        collected = _collect_fronts(args.results)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shared = {inst: fronts for inst, fronts in collected.items() if len(fronts) >= 2}
    if not shared:
        print("error: need >= 2 solvers with overlapping instances", file=sys.stderr)
        return 2

    score = METRICS[args.metric]
    costs = []
    for inst in sorted(shared):
        # a solver that returned no point fails on every metric
        row = dict.fromkeys(shared[inst], PROFILE_FAILURE)
        fronts = {s: Y for s, Y in shared[inst].items() if len(Y)}
        if fronts:
            ref, zeta = _pool(fronts.values())
            values = {s: score(Y, ref, zeta) for s, Y in fronts.items()}
            # hypervolume costs are measured from the reference front's volume
            kw = {"v_ref": hypervolume(ref, zeta)} if args.metric == "hypervolume" else {}
            row.update(profile_preprocess(args.metric, values, **kw))
        costs.append(row)

    curves = performance_profiles(costs)
    payload = {
        s: [[float(t), float(r)] for t, r in zip(taus, rhos)]
        for s, (taus, rhos) in curves.items()
    }
    _write_json(args.out + ".json", payload)
    solvers = sorted(curves)
    taus = curves[solvers[0]][0]
    lines = [",".join(["tau"] + solvers)]
    for i, t in enumerate(taus):
        lines.append(
            ",".join([repr(float(t))] + [repr(float(curves[s][1][i])) for s in solvers])
        )
    _atomic_write(args.out + ".csv", "\n".join(lines) + "\n")
    print(f"wrote {args.out}.json and {args.out}.csv ({len(costs)} instances)")
    return 0


def _read_trace(path: str) -> List[dict]:
    header, rows = read_csv(path)
    return [dict(zip(header, row)) for row in rows]


def cmd_trace_table(args) -> int:
    try:
        rows = _read_trace(args.trace)
        if args.rows == "all":
            wanted = list(range(len(rows)))
        else:
            wanted = [int(s) for s in args.rows.split(",") if s.strip() != ""]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = f"{'k':>5}  {'|X^k| (% stat.)':>18}  {'n_r (last)':>12}  {'n_e (% stat.)':>15}  {'|X^k+1|':>8}"
    print(header)
    for k in wanted:
        match = [r for r in rows if int(r["k"]) == k]
        if not match:
            print(f"{k:>5}  -- not in trace --")
            continue
        r = match[0]
        print(
            f"{k:>5}  "
            f"{r['front_size_in']:>8} ({float(r['pct_sigma_stationary_in']):.1f}%)  "
            f"{r['n_refinements']:>6} ({r['iterations_since_last_refinement']})  "
            f"{r['n_explorations']:>6} ({float(r['pct_exploration_sigma_stationary']):.1f}%)  "
            f"{r['front_size_out']:>8}"
        )
    return 0


def cmd_list_problems(_args) -> int:
    for entry in list_problems():
        dims = ", ".join(str(d) for d in entry.dims)
        print(f"{entry.name:10s} m={entry.m}  n in {{{dims}}}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="frontdescent")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute solver runs")
    pr.add_argument("--config", help="JSON experiment configuration file")
    pr.add_argument("--problem")
    pr.add_argument("--n", type=int)
    pr.add_argument("--variant", choices=VARIANTS)
    pr.add_argument("--sigma", type=float)
    pr.add_argument("--eps-hv", dest="eps_hv", type=float)
    pr.add_argument("--time-limit", dest="time_limit", type=float)
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_run)

    pp = sub.add_parser("profiles", help="build performance profiles")
    pp.add_argument("results", nargs="+", help="results directories")
    pp.add_argument(
        "--metric",
        choices=list(METRICS),
        default="purity",
    )
    pp.add_argument("--out", default="profiles", help="output basename")
    pp.set_defaults(func=cmd_profiles)

    pt = sub.add_parser("trace-table", help="print a trace excerpt")
    pt.add_argument("trace", help="trace CSV path")
    pt.add_argument("--rows", default="all", help="comma-separated k values or 'all'")
    pt.set_defaults(func=cmd_trace_table)

    pl = sub.add_parser("list-problems", help="print the problem registry")
    pl.set_defaults(func=cmd_list_problems)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
