import json
import os
import shutil

import numpy as np
import pytest

from frontdescent.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def jos1_results(tmp_path):
    out = tmp_path / "res"
    code = run_cli(
        "run", "--problem", "JOS_1", "--n", "5", "--variant", "sd",
        "--out", str(out),
    )
    assert code == 0
    return out


class TestRun:
    def test_artifacts_written(self, jos1_results):
        base = jos1_results / "JOS_1_n5__sd"
        for suffix in (".front.csv", ".trace.csv", ".metrics.json"):
            assert (base.parent / (base.name + suffix)).exists()
        assert (jos1_results / "manifest.json").exists()

    def test_manifest_contents(self, jos1_results):
        manifest = json.loads((jos1_results / "manifest.json").read_text())
        assert len(manifest["runs"]) == 1
        r = manifest["runs"][0]
        assert r["status"] == "ok"
        assert r["problem"] == "JOS_1" and r["n"] == 5 and r["variant"] == "sd"
        assert r["stop_reason"] in ("hv_improvement", "theta_threshold")
        assert manifest["solver_parameters"]["sd"]["variant"] == "sd"

    def test_metrics_json_fields(self, jos1_results):
        m = json.loads((jos1_results / "JOS_1_n5__sd.metrics.json").read_text())
        assert set(m) >= {"purity", "gamma_spread", "delta_spread", "hypervolume",
                          "evals", "wall_time"}
        assert m["purity"] == 1.0  # single solver: its front is the reference

    def test_trace_schema(self, jos1_results):
        lines = (jos1_results / "JOS_1_n5__sd.trace.csv").read_text().splitlines()
        assert lines[0] == "# fd-schema v1"
        assert lines[1].startswith("k,front_size_in,")
        assert len(lines) >= 3

    def test_deterministic_rerun(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "run", "--problem", "JOS_1", "--n", "5", "--out", str(out)
            ) == 0
            texts.append(
                (
                    (out / "JOS_1_n5__sd.front.csv").read_bytes(),
                    (out / "JOS_1_n5__sd.trace.csv").read_bytes(),
                )
            )
        assert texts[0] == texts[1]

    def test_duplicate_instances_deduplicated(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [["JOS_1", 5], ["JOS_1", 5]],
            "variants": ["sd"],
        }))
        out = tmp_path / "res"
        with pytest.warns(UserWarning, match="deduplicated"):
            code = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 1

    def test_unknown_problem_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli("run", "--problem", "NOPE", "--n", "5", "--out", str(out))
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unknown_solver_parameter_exits_2(self, tmp_path, capsys):
        # the last two are fixed constants in driver.py, not FDConfig fields
        for name in ("learning_rate", "crowding_gap_factor", "exploration_theta_tol"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "instances": [["JOS_1", 5]],
                "solver": {name: 0.1},
            }))
            code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "res"))
            assert code == 2
            assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha0": 0},
            {"max_backtracks": 0},
            {"kappa": 0},
            {"a_min": 0},
            {"a_min": 10.0, "a_max": 1.0},
            {"max_iterations": -1},
        ],
    )
    def test_bad_line_search_constant_exits_2_before_writing(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [["JOS_1", 5]], "solver": bad}))
        out = tmp_path / "res"
        code = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "bad", [{"initial_points": 0}, {"external_fronts": ["other.front.csv"]}]
    )
    def test_bad_top_level_key_exits_2_before_writing(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [["JOS_1", 5]], **bad}))
        out = tmp_path / "res"
        code = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_flags_recorded_and_time_limit_caps(self, tmp_path):
        out = tmp_path / "res"
        assert run_cli(
            "run", "--problem", "JOS_1", "--n", "5", "--sigma", "1e-3",
            "--eps-hv", "0", "--time-limit", "0", "--out", str(out),
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        params = manifest["solver_parameters"]["sd"]
        assert params["sigma"] == 1e-3
        assert params["eps_hv"] == 0.0
        assert params["wall_clock_limit"] == 0.0
        assert manifest["runs"][0]["stop_reason"] == "time_cap"

    def test_time_limit_overrides_wall_clock_limit(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [["JOS_1", 5]],
            "solver": {"wall_clock_limit": 1000.0},
            "time_limit": 0,
        }))
        out = tmp_path / "res"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_parameters"]["sd"]["wall_clock_limit"] == 0.0
        assert manifest["runs"][0]["stop_reason"] == "time_cap"

    def test_missing_n_exits_2(self, tmp_path):
        # --n without --problem would otherwise be ignored for the config's instances
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [["JOS_1", 5]]}))
        out = tmp_path / "r"
        assert run_cli("run", "--problem", "JOS_1", "--out", str(out)) == 2
        assert run_cli("run", "--config", str(cfg), "--n", "10", "--out", str(out)) == 2
        assert not out.exists()

    def test_no_instances_exits_2(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path / "r")) == 2

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory modes")
    def test_unwritable_out_dir_exits_nonzero(self, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        out.chmod(0o500)
        try:
            assert run_cli("run", "--problem", "JOS_1", "--n", "5",
                           "--out", str(out)) != 0
        finally:
            out.chmod(0o700)


class TestProfiles:
    @pytest.fixture
    def two_variant_results(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [["JOS_1", 5], ["JOS_1", 20]],
            "variants": ["sd", "newton"],
        }))
        out = tmp_path / "res"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        return out

    def test_profiles_written(self, two_variant_results, tmp_path):
        dest = tmp_path / "prof"
        code = run_cli("profiles", str(two_variant_results),
                       "--metric", "purity", "--out", str(dest))
        assert code == 0
        payload = json.loads((tmp_path / "prof.json").read_text())
        assert set(payload) == {"sd", "newton"}
        for curve in payload.values():
            rhos = [r for _, r in curve]
            assert rhos == sorted(rhos)
        table = (tmp_path / "prof.csv").read_text().splitlines()
        assert table[0] == "tau,newton,sd"

    def test_hypervolume_metric(self, two_variant_results, tmp_path):
        dest = tmp_path / "hvprof"
        assert run_cli("profiles", str(two_variant_results),
                       "--metric", "hypervolume", "--out", str(dest)) == 0
        assert (tmp_path / "hvprof.json").exists()

    @pytest.mark.parametrize("metric", ["purity", "hypervolume", "gamma_spread", "delta_spread"])
    def test_empty_front_is_a_failure(self, jos1_results, tmp_path, metric):
        # a header-only front CSV scores as a failure: its rho stays 0
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "JOS_1_n5__empty.front.csv").write_text("f_1,f_2\n")
        dest = tmp_path / "prof"
        code = run_cli("profiles", str(jos1_results), str(empty),
                       "--metric", metric, "--out", str(dest))
        assert code == 0
        payload = json.loads((tmp_path / "prof.json").read_text())
        assert set(payload) == {"res:sd", "empty:empty"}
        assert all(r == 0.0 for _, r in payload["empty:empty"])
        assert payload["res:sd"][-1][1] == 1.0

    def test_single_solver_exits_2(self, jos1_results, tmp_path, capsys):
        code = run_cli("profiles", str(jos1_results), "--out", str(tmp_path / "p"))
        assert code == 2
        assert ">= 2 solvers" in capsys.readouterr().err

    def test_label_clash_exits_2(self, jos1_results, tmp_path, capsys):
        # a/results and b/results would both label their fronts results:sd
        dirs = [tmp_path / "a" / "results", tmp_path / "b" / "results", tmp_path / "c" / "other"]
        for d in dirs:
            shutil.copytree(jos1_results, d)
        code = run_cli("profiles", *map(str, dirs), "--out", str(tmp_path / "p"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(dirs[0]) in err and str(dirs[1]) in err
        assert not (tmp_path / "p.json").exists()

    def test_missing_results_dir_exits_2(self, jos1_results, tmp_path, capsys):
        missing = tmp_path / "missing"
        code = run_cli("profiles", str(jos1_results), str(missing), "--out", str(tmp_path / "p"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err


class TestTraceTable:
    def test_selected_rows(self, jos1_results, capsys):
        trace = jos1_results / "JOS_1_n5__sd.trace.csv"
        assert run_cli("trace-table", str(trace), "--rows", "0,99") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["k", "|X^k|", "(%", "stat.)", "n_r", "(last)",
                                  "n_e", "(%", "stat.)", "|X^k+1|"]
        assert out[1].lstrip().startswith("0")
        assert "-- not in trace --" in out[2]

    def test_all_rows(self, jos1_results, capsys):
        trace = jos1_results / "JOS_1_n5__sd.trace.csv"
        assert run_cli("trace-table", str(trace)) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        n_trace = len(trace.read_text().splitlines()) - 2
        assert len(lines) == n_trace + 1

    def test_non_integer_rows_exits_2(self, jos1_results, capsys):
        trace = jos1_results / "JOS_1_n5__sd.trace.csv"
        assert run_cli("trace-table", str(trace), "--rows", "0,x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x'" in err

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.trace.csv"
        assert run_cli("trace-table", str(missing)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err


class TestListProblems:
    def test_prints_thirteen(self, capsys):
        assert run_cli("list-problems") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 13
        assert any(l.startswith("JOS_1") for l in lines)
