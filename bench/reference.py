"""Re-measure the single-solve reference figures quoted in bench/README.md.

    python3 bench/reference.py

Each case is one solve from the suite's default hyper-diagonal starting set,
run once untraced (wall time, evaluation counts, front size) and once traced
(the layers with the largest self time). Takes about two minutes.
"""

import time

import run as bench  # sets the BLAS thread variables before NumPy loads

CASES = (
    # (problem, n, variant, FDConfig overrides)
    ("CEC09_1", 10, "sd", {}),
    ("CEC09_8", 10, "sd", {"max_iterations": 10, "eps_hv": 0.0}),
    ("CEC09_10", 10, "newton", {"max_iterations": 6, "eps_hv": 0.0}),
    ("SLC_2", 10, "newton", {"max_iterations": 6, "eps_hv": 0.0}),
)


def main() -> None:
    fd = bench.Program()
    for name, n, variant, overrides in CASES:
        raw = fd.suite.make_problem(name, n)
        counter = bench.CallCounter()
        problem = bench.counted(raw, counter)
        X0 = fd.suite.initial_points(raw)
        config = fd.driver.FDConfig(variant=variant, **overrides)

        t = time.perf_counter()
        result = fd.driver.run(problem, X0, config)
        wall = time.perf_counter() - t
        c = result.counters
        print(f"{name} n={n} {variant}: {len(result.trace)} iterations in {wall:.2f} s, "
              f"|front| {len(result.front)}, stop {result.stop_reason}")
        print(f"  callables: {counter.objective} objective, {counter.jacobian} Jacobian; "
              f"program counters: {c.objective_evals} objective, {c.jacobian_evals} Jacobian, "
              f"{c.hessian_evals} Hessian")

        # a fresh starting set: run() caches Jacobians on the entries it is given
        X0 = fd.suite.initial_points(raw)
        tracer = bench.Tracer()
        bench.install_layer_spans(fd, tracer, [counter])
        try:
            with tracer.span("driver.run"):
                fd.driver.run(problem, X0, config)
        finally:
            tracer.uninstall()
        summ = tracer.summary()
        summ.pop("children")
        total = summ["driver.run"]["total_s"]
        top = sorted(summ.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        shares = ", ".join(f"{k} {100 * v['self_s'] / total:.0f}%" for k, v in top)
        print(f"  traced {total:.2f} s; self time: {shares}")


if __name__ == "__main__":
    main()
