"""Front-descent benchmark: one named workload, timed end to end or per layer.

    python3 bench/run.py --workload biobj_explore --seed 0 --seconds 40 --trace 0

A round solves every (instance, starting set, variant) of the workload with
``frontdescent.driver.run`` under a fixed iteration cap and with the
hypervolume stop rule off, writes each solve's front, trace and metrics
files, and computes the cross-variant report (purity, spreads and
hypervolume against the pooled reference front), as ``frontdescent run``
does. Rounds repeat the same inputs while --seconds allow another; there is
always one. With --trace 1 every job is solved traced, and the jobs of every
TWIN_EVERY-th starting set also untraced, to measure the tracing overhead.
Every output is checked by bench/checks.py, and the first starting
set is solved once more to check that it writes the same bytes; a solve that
raises or fails a check counts as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from clock import SteadyClock, rescale  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# uniform draws per batch, and in all, when building a seeded starting set
DRAW_BATCH = 100
MAX_DRAWS = 20_000
# traced rounds: the starting sets whose jobs are also solved untraced
TWIN_EVERY = 8


@dataclass(frozen=True)
class Instance:
    problem: str
    n: int
    cap: int  # max_iterations of every solve of this instance
    start_size: int  # points per seeded starting set
    sets: int  # starting sets in one round


@dataclass(frozen=True)
class Workload:
    instances: tuple
    variants: tuple


# Why each workload: see bench/README.md. A round solves many small starting
# sets rather than one large one because the work of a single solve swings
# widely with its starting set; the sum over many sets is steady across seeds.
WORKLOADS = {
    "biobj_explore": Workload(
        instances=(Instance("CEC09_1", 10, cap=4, start_size=5, sets=80),),
        variants=("sd", "bb"),
    ),
    "triobj_hv": Workload(
        instances=(Instance("CEC09_8", 10, cap=5, start_size=5, sets=40),),
        variants=("sd",),
    ),
    "newton_dual": Workload(
        instances=(
            Instance("CEC09_10", 10, cap=1, start_size=4, sets=45),
            # SLC_2 solves are cheap, and their hypervolume gain varies most
            Instance("SLC_2", 10, cap=3, start_size=2, sets=135),
        ),
        variants=("newton",),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "round_s": "s",
    "objective_evals": "count",
    "jacobian_evals": "count",
    "front_points": "count",
    "hv_gain": "ratio",
    "peak_rss_mb": "MiB",
}

DIRECTION_FUNCS = ("common_steepest", "partial_steepest", "newton_direction", "bb_direction")

PER_LAYER = {
    "hypervolume.calls": "count",
    "hypervolume.self_s": "s",
    "hypervolume.mean_points": "points",
    **{f"directions.{d}.{k}": u for d in DIRECTION_FUNCS for k, u in (("calls", "count"), ("self_s", "s"))},
    "directions.sdr_accept_ratio": "ratio",
    "front.insert_filter.calls": "count",
    "front.insert_filter.self_s": "s",
    "front.insert_filter.accept_ratio": "ratio",
    "front.insert_filter.mean_archive": "points",
    "driver.self_s": "s",
    "driver.iterations": "count",
    "linesearch.exploration_ls.calls": "count",
    "linesearch.exploration_ls.self_s": "s",
    "linesearch.exploration_ls.evals_per_call": "count",
    "linesearch.exploration_ls.accept_ratio": "ratio",
    "linesearch.armijo_front.calls": "count",
    "linesearch.armijo_front.self_s": "s",
    "linesearch.armijo_front.evals_per_call": "count",
    "model.evaluate.calls": "count",
    "model.evaluate.self_s": "s",
    "model.jacobian.calls": "count",
    "model.jacobian.self_s": "s",
    "model.hessians.calls": "count",
    "model.hessians.self_s": "s",
    "model.hessians.jacobian_calls": "count",
    "metrics.calls": "count",
    "metrics.self_s": "s",
    "report.total_s": "s",
    "report.write_s": "s",
    "suite.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Program:
    """The frontdescent modules, imported from the checkout's src/."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "frontdescent", "__init__.py")):
            sys.exit(f"error: no frontdescent package under {SRC}")
        sys.path.insert(0, SRC)
        for name in ("cli", "driver", "directions", "front", "hypervolume", "linesearch", "metrics", "model", "suite"):
            setattr(self, name, importlib.import_module(f"frontdescent.{name}"))
        if not os.path.abspath(self.driver.__file__).startswith(SRC + os.sep):
            sys.exit(f"error: frontdescent was imported from outside {SRC}")


class CallCounter:
    """Calls to a problem's objective and Jacobian callables."""

    def __init__(self):
        self.objective = 0
        self.jacobian = 0


def counted(problem, counter: CallCounter):
    raw_objective, raw_jacobian = problem.objective, problem.jacobian

    def objective(x):
        counter.objective += 1
        return raw_objective(x)

    def jacobian(x):
        counter.jacobian += 1
        return raw_jacobian(x)

    return dataclasses.replace(problem, objective=objective, jacobian=jacobian)


@dataclass
class Job:
    """One solve: an instance, a starting set and a variant."""

    label: str
    raw: object  # the suite's problem
    problem: object  # the same problem with counted callables
    counter: CallCounter
    config: object
    X: np.ndarray
    F: np.ndarray
    group: tuple  # (instance, starting set): the solves one report pools
    hv_start: Optional[float] = None
    verdict: list = field(default_factory=list)  # failures found in the first round
    digest: Optional[str] = None


@dataclass
class Solve:
    job: Job
    result: object  # None when the solve raised
    objective_calls: int
    jacobian_calls: int
    report: dict = field(default_factory=dict)
    zeta: Optional[np.ndarray] = None
    twinned: bool = False  # traced rounds: the job was also solved untraced
    twin: object = None  # that untraced solve, None if it raised


@dataclass
class Round:
    solves: list
    clock: SteadyClock  # sections "solve" and "report"
    tracer: Optional[Tracer] = None
    # traced rounds: (untraced, traced) wall times of the jobs solved both ways
    pairs: list = field(default_factory=list)
    objective_calls: int = 0
    jacobian_calls: int = 0
    layers: Optional[dict] = None  # traced rounds: per-layer metrics


def seeded_start(problem, rng, size: int) -> tuple:
    """``size`` mutually nondominated points drawn uniformly in the sampling
    box: the nondominated subset of all draws, thinned evenly in f_1 order.
    Batches are drawn until the subset holds ``size`` points."""
    X = np.empty((0, problem.n))
    F = np.empty((0, problem.m))
    drawn = 0
    while len(X) < size and drawn < MAX_DRAWS:
        Xb = rng.uniform(problem.lower, problem.upper, size=(DRAW_BATCH, problem.n))
        Fb = np.array([problem.objective(x) for x in Xb])
        drawn += DRAW_BATCH
        X, F = np.vstack([X, Xb]), np.vstack([F, Fb])
        keep = checks.nondominated_mask(F)
        X, F = X[keep], F[keep]
    order = np.lexsort(F.T[::-1])
    pick = order[np.unique(np.round(np.linspace(0, len(order) - 1, size)).astype(int))]
    return X[pick], F[pick]


def build_jobs(fd: Program, workload: Workload, seed: int) -> tuple:
    """The jobs, and the seconds spent drawing seeded starting sets. Seed 0:
    the suite's hyper-diagonal starting sets, with n, n+1, ... samples. Other
    seeds: uniform draws in the sampling box, made by the benchmark."""
    jobs = []
    draw_s = 0.0
    for i, inst in enumerate(workload.instances):
        raw = fd.suite.make_problem(inst.problem, inst.n)
        counter = CallCounter()
        problem = counted(raw, counter)
        for s in range(inst.sets):
            if seed == 0:
                X0 = fd.suite.initial_points(raw, inst.n + s)
                X, F = X0.points(), X0.images()
            else:
                t = time.perf_counter()
                X, F = seeded_start(raw, np.random.default_rng([seed, i, s]), inst.start_size)
                draw_s += time.perf_counter() - t
            for variant in workload.variants:
                config = fd.driver.FDConfig(variant=variant, max_iterations=inst.cap, eps_hv=0.0)
                label = f"{inst.problem}_n{inst.n}_s{s}__{variant}"
                jobs.append(Job(label, raw, problem, counter, config, X, F, (i, s)))
    return jobs, draw_s


def report(fd: Program, solves: list, out_dir: str, tracer) -> None:
    """Write each solve's files, then the cross-variant metrics per group."""
    groups: dict = {}
    for s in solves:
        if s.result is None:
            continue
        base = os.path.join(out_dir, s.job.label)
        with tracer.span("report.write"):
            fd.front.write_front_csv(s.result.front, base + ".front.csv", s.job.raw.n, s.job.raw.m)
            with open(base + ".trace.csv", "w") as fh:
                fh.write(fd.cli._trace_csv_text(s.result))
        groups.setdefault(s.job.group, []).append(s)
    for group in groups.values():
        pool = [s.result.front.images() for s in group]
        ref = fd.metrics.build_reference_front(pool)
        zeta = fd.hypervolume.reference_point_cross_solver(np.vstack(pool))
        for s in group:
            images = s.result.front.images()
            inside = images[np.all(images <= zeta, axis=1)]
            s.zeta = zeta
            s.report = {
                "purity": fd.metrics.purity(images, ref),
                "gamma_spread": fd.metrics.gamma_spread(images, ref),
                "delta_spread": fd.metrics.delta_spread(images, ref),
                "hypervolume": fd.hypervolume.hypervolume(inside, zeta) if inside.size else 0.0,
                "evals": s.result.counters.as_dict(),
            }
            with tracer.span("report.write"):
                with open(os.path.join(out_dir, s.job.label + ".metrics.json"), "w") as fh:
                    fh.write(json.dumps(s.report, indent=2, sort_keys=True) + "\n")


def solve(fd: Program, job: Job, spans):
    """The RunResult of one solve from a fresh copy of its starting set (run()
    caches Jacobians on the entries it is given), or None if it raised."""
    X0 = fd.front.FrontSet(
        [fd.front.FrontEntry(x=x.copy(), fx=f.copy()) for x, f in zip(job.X, job.F)]
    )
    try:
        with spans.span("driver.run"):
            return fd.driver.run(job.problem, X0, job.config)
    except Exception:  # one solve's failure is counted, the round goes on
        print(f"solve {job.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None


def run_round(fd: Program, jobs: list, out_dir: str, tracer: Optional[Tracer] = None) -> Round:
    """Solve every job, then report. With a tracer the jobs of every
    ``TWIN_EVERY``-th starting set are first solved untraced and then traced,
    back to back, so that the tracing overhead is measured on the same inputs
    at nearly the same moment."""
    spans = tracer or NullTracer()
    counters = list({id(j.counter): j.counter for j in jobs}.values())
    rnd = Round([], SteadyClock(), tracer)
    for job in jobs:
        twin = None
        has_twin = tracer is not None and job.group[1] % TWIN_EVERY == 0
        if has_twin:
            t = time.perf_counter()
            twin = solve(fd, job, NullTracer())
            twin_s = time.perf_counter() - t
        if tracer:
            install_layer_spans(fd, tracer, counters)
        obj0, jac0 = job.counter.objective, job.counter.jacobian
        try:
            with rnd.clock.section("solve"):
                t = time.perf_counter()
                result = solve(fd, job, spans)
                if has_twin:
                    rnd.pairs.append((twin_s, time.perf_counter() - t))
        finally:
            if tracer:
                tracer.uninstall()
        rnd.solves.append(
            Solve(job, result, job.counter.objective - obj0, job.counter.jacobian - jac0, has_twin, twin)
        )
    rnd.objective_calls = sum(s.objective_calls for s in rnd.solves)
    rnd.jacobian_calls = sum(s.jacobian_calls for s in rnd.solves)
    if tracer:
        install_layer_spans(fd, tracer, counters)
    try:
        with rnd.clock.section("report"):
            report(fd, rnd.solves, out_dir, spans)
    finally:
        if tracer:
            tracer.uninstall()
    return rnd


def file_bytes(out_dir: str, label: str) -> tuple:
    out = []
    for suffix in (".front.csv", ".trace.csv", ".metrics.json"):
        with open(os.path.join(out_dir, label + suffix), "rb") as fh:
            out.append(fh.read())
    return tuple(out)


def first_round_failures(s: Solve, front_b: bytes, trace_b: bytes) -> list:
    """Every output check of one solve."""
    fails = []
    job, res = s.job, s.result
    X, F = checks.parse_front_csv(front_b)
    if not np.array_equal(F, res.front.images()):
        fails.append("front CSV images differ from the returned front")
    recomputed = np.array([job.raw.objective(x) for x in X]).reshape(F.shape)
    if not np.array_equal(F, recomputed):
        fails.append("a front image differs from the objective re-evaluated at its point")
    if not checks.is_mutually_nondominated(F):
        fails.append("front is not mutually nondominated")
    hv_trace = checks.parse_trace_hv(trace_b)
    hv_exact = checks.exact_hypervolume(F, res.reference_point)
    if not hv_trace or not checks.rel_close(hv_trace[-1], hv_exact):
        fails.append(f"last trace hypervolume {hv_trace[-1:]} != exact {hv_exact!r}")
    if not checks.hv_never_falls(hv_trace):
        fails.append("hypervolume fell along the trace")
    hv_report = checks.exact_hypervolume(F, s.zeta)
    if not checks.rel_close(s.report["hypervolume"], hv_report):
        fails.append(f"report hypervolume {s.report['hypervolume']!r} != exact {hv_report!r}")
    job.hv_start = checks.exact_hypervolume(job.F, res.reference_point)
    if not job.hv_start > 0:
        fails.append("starting set bounds no hypervolume")
    return fails


def same_outputs(a, b) -> bool:
    return (
        b is not None
        and np.array_equal(a.front.points(), b.front.points())
        and np.array_equal(a.front.images(), b.front.images())
        and [r.row() for r in a.trace] == [r.row() for r in b.trace]
    )


def digest_of(out_dir: str, label: str) -> tuple:
    data = file_bytes(out_dir, label)
    return hashlib.sha256(b"".join(data)).hexdigest(), data


def check_first_round(fd: Program, rnd: Round, jobs: list, out_dir: str) -> None:
    """Run every output check on the first round and keep the verdicts. An
    untraced run then solves the jobs of starting set 0 again, which must
    write the same bytes."""
    for s in rnd.solves:
        s.job.verdict = []
        if s.result is not None:
            s.job.digest, data = digest_of(out_dir, s.job.label)
            s.job.verdict = first_round_failures(s, data[0], data[1])
    if rnd.tracer is None:
        again = run_round(fd, [j for j in jobs if j.group[1] == 0], out_dir)
        for s in again.solves:
            if s.result is None or digest_of(out_dir, s.job.label)[0] != s.job.digest:
                s.job.verdict.append("solving it again wrote different outputs")


def count_failed(rnd: Round, out_dir: str, first: bool) -> int:
    """Solves of a round that raised or failed a check. Later rounds must
    write the first round's bytes again, so they inherit its verdicts."""
    failed = 0
    for s in rnd.solves:
        fails = []
        if s.result is None:
            fails.append("raised")
        else:
            c = s.result.counters
            if s.objective_calls < c.objective_evals or s.jacobian_calls < c.jacobian_evals:
                fails.append("program counts more evaluations than the callables saw")
            if not first and digest_of(out_dir, s.job.label)[0] != s.job.digest:
                fails.append("outputs differ from the first round")
            if s.twinned and not same_outputs(s.result, s.twin):
                fails.append("traced and untraced solves differ")
        fails += s.job.verdict
        if fails:
            failed += 1
            print(f"FAILED {s.job.label}: {'; '.join(fails)}", file=sys.stderr)
    return failed


def install_layer_spans(fd: Program, tracer: Tracer, counters: list) -> None:
    """Wrap every layer's public functions where the caller looks them up.
    ``counters`` are the problems' CallCounters, read around each Hessian."""

    def jacobian_calls(_args):
        return sum(c.jacobian for c in counters)

    def add(key, value):
        def after(tally, args, result, token):
            tally[key] += value(args, result, token)
        return after

    d = fd.driver
    tracer.wrap(d, "front_hypervolume", "driver.front_hypervolume")
    tracer.wrap(d, "hypervolume", "hypervolume", after=add("hypervolume.points", lambda a, r, t: len(a[0])))
    tracer.wrap(fd.hypervolume, "hypervolume", "hypervolume",
                after=add("hypervolume.points", lambda a, r, t: len(a[0])))

    def insert_after(tally, args, result, token):
        tally["insert_filter.accepted"] += int(result is not args[0])
        tally["insert_filter.archive"] += len(args[0])

    tracer.wrap(d, "insert_filter", "front.insert_filter", after=insert_after)
    tracer.wrap(d, "armijo_front", "linesearch.armijo_front")
    tracer.wrap(d, "exploration_ls", "linesearch.exploration_ls",
                after=add("exploration_ls.accepted", lambda a, r, t: int(r is not None)))
    tracer.wrap(fd.linesearch, "evaluate", "model.evaluate")
    tracer.wrap(d, "jacobian", "model.jacobian")
    tracer.wrap(d, "hessians", "model.hessians", before=jacobian_calls,
                after=add("hessians.jacobian_calls", lambda a, r, t: jacobian_calls(a) - t))
    for name in DIRECTION_FUNCS:
        tracer.wrap(fd.directions, name, f"directions.{name}")
    tracer.wrap(fd.directions, "sdr_check", "directions.sdr_check",
                after=add("sdr_check.accepted", lambda a, r, t: int(bool(r))))
    for name in ("build_reference_front", "purity", "gamma_spread", "delta_spread"):
        tracer.wrap(fd.metrics, name, f"metrics.{name}")
    tracer.wrap(fd.hypervolume, "reference_point_cross_solver", "metrics.reference_point_cross_solver")


def layer_metrics(rnd: Round) -> dict:
    summ = rnd.tracer.summary()
    tally = rnd.tracer.tally
    children = summ.get("children", {})

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "hypervolume.calls": calls("hypervolume"),
        "hypervolume.self_s": self_s("hypervolume"),
        "hypervolume.mean_points": ratio(tally["hypervolume.points"], calls("hypervolume")),
        "directions.sdr_accept_ratio": ratio(tally["sdr_check.accepted"], calls("directions.sdr_check")),
        "front.insert_filter.calls": calls("front.insert_filter"),
        "front.insert_filter.self_s": self_s("front.insert_filter"),
        "front.insert_filter.accept_ratio": ratio(tally["insert_filter.accepted"], calls("front.insert_filter")),
        "front.insert_filter.mean_archive": ratio(tally["insert_filter.archive"], calls("front.insert_filter")),
        "driver.self_s": self_s("driver.run") + self_s("driver.front_hypervolume"),
        "driver.iterations": sum(len(s.result.trace) for s in rnd.solves if s.result is not None),
        "metrics.calls": sum(v["calls"] for k, v in summ.items() if k.startswith("metrics.")),
        "metrics.self_s": sum(v["self_s"] for k, v in summ.items() if k.startswith("metrics.")),
        "report.total_s": rnd.clock.steady_s.get("report", 0.0),
        "report.write_s": summ.get("report.write", {}).get("total_s", 0.0),
        "model.hessians.jacobian_calls": tally["hessians.jacobian_calls"],
    }
    for d in DIRECTION_FUNCS:
        m[f"directions.{d}.calls"] = calls(f"directions.{d}")
        m[f"directions.{d}.self_s"] = self_s(f"directions.{d}")
    for ls in ("exploration_ls", "armijo_front"):
        name = f"linesearch.{ls}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.evals_per_call"] = ratio(children[(name, "model.evaluate")], calls(name))
    m["linesearch.exploration_ls.accept_ratio"] = ratio(
        tally["exploration_ls.accepted"], calls("linesearch.exploration_ls")
    )
    for name in ("model.evaluate", "model.jacobian", "model.hessians"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    return m


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(rounds: list, first: dict, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "solve_s": median([r.clock.steady_s.get("solve", 0.0) for r in rounds]),
        "round_s": median([sum(r.clock.steady_s.values()) for r in rounds]),
        "objective_evals": median([r.objective_calls for r in rounds]),
        "jacobian_evals": median([r.jacobian_calls for r in rounds]),
        "front_points": first["front_points"],
        "hv_gain": first["hv_gain"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def first_round_figures(rnd: Round) -> dict:
    """Front sizes, and the hypervolume gain: the geometric mean over the
    instances of each instance's geometric mean over its solves, so that
    every instance weighs the same whatever its number of starting sets."""
    done = [s for s in rnd.solves if s.result is not None]
    log_gains: dict = {}
    for s in done:
        final = s.result.trace[-1].hypervolume_value
        if s.job.hv_start and final > 0:
            log_gains.setdefault(s.job.group[0], []).append(math.log(final / s.job.hv_start))
    means = [statistics.fmean(v) for v in log_gains.values()]
    return {
        "front_points": sum(len(s.result.front) for s in done),
        "hv_gain": math.exp(statistics.fmean(means)) if means else 0.0,
    }


def per_layer_metrics(rounds: list, setup_tracer: Tracer) -> dict:
    for r in rounds:
        # a median over the pairs, so that one pair caught by a slow phase of
        # the machine does not set the figure
        r.layers["trace.overhead_s"] = median([traced - twin for twin, traced in r.pairs])
        r.layers["trace.overhead_ratio"] = median([traced / twin - 1.0 for twin, traced in r.pairs])
    out = {k: median([r.layers[k] for r in rounds]) for k in rounds[0].layers}
    setup = setup_tracer.summary()
    out["suite.self_s"] = sum(v["self_s"] for k, v in setup.items() if k.startswith("suite."))
    return out


def outputs_digest(jobs: list) -> str:
    """One digest over the first round's files of every job."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.label.encode() + b"\0" + (job.digest or "failed").encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    fd = Program()
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.wrap(fd.suite, "make_problem", "suite.make_problem")
        setup_tracer.wrap(fd.suite, "initial_points", "suite.initial_points")
    try:
        jobs, draw_s = build_jobs(fd, workload, args.seed)
    finally:
        setup_tracer.uninstall()
    # the program's set-up: imports, make_problem and, on seed 0, initial_points
    setup_s = rescale(time.perf_counter() - T_START - draw_s)

    rounds: list = []
    failed = 0
    first: dict = {}
    t_measure = time.perf_counter()
    while True:
        rnd = run_round(fd, jobs, out_dir, Tracer() if args.trace else None)
        if not rounds:
            check_first_round(fd, rnd, jobs, out_dir)
            first = first_round_figures(rnd)
        failed += count_failed(rnd, out_dir, first=not rounds)
        if rnd.tracer:
            rnd.layers = layer_metrics(rnd)
        rnd.solves = []  # keeps memory use the same whatever the number of rounds
        rounds.append(rnd)
        n = len(rounds)
        if (time.perf_counter() - t_measure) * (n + 1) / n > args.seconds:
            break

    attempted = len(jobs) * len(rounds)
    if args.trace:
        metrics, units_of = per_layer_metrics(rounds, setup_tracer), PER_LAYER
        spans_path = os.path.join(OUT_DIR, f"{args.workload}.spans.csv")
        for i, r in enumerate(rounds):
            r.tracer.write_csv(spans_path, str(i), mode="w" if i == 0 else "a")
    else:
        metrics, units_of = end_to_end_metrics(rounds, first, setup_s), END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"solves/round {len(jobs)}  failed {failed}/{attempted}")
    print(f"outputs sha256 {outputs_digest(jobs)}")
    for i, r in enumerate(rounds):
        wall, steady = r.clock.wall_s, r.clock.steady_s
        print(f"round {i}: solve {wall['solve']:.3f} s wall, {steady['solve']:.3f} s rescaled; "
              f"report {wall['report']:.3f} s wall, {steady['report']:.3f} s rescaled")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units_of[k]} for k in units_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
