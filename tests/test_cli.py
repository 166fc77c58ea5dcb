import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hoprox.bench import ExperimentConfig
from hoprox.cli import build_parser, main, resolve_config
from hoprox.problems import gen_bp


def run_cli(args):
    return main(args)


class TestResolveConfig:
    def test_bp_defaults_mirror_experiments(self):
        cfg = resolve_config(["bp", "--out", "x"])
        assert (cfg.m, cfg.n, cfg.density) == (100, 500, 0.2)
        assert cfg.eps == 1e-4
        assert cfg.p_values == [1.0, 2.0, 3.0]
        assert cfg.betas == [2.0]

    def test_mc_defaults(self):
        cfg = resolve_config(["mc", "--out", "x"])
        assert (cfg.m, cfg.n, cfg.density) == (50, 50, 0.1)
        assert cfg.betas == [5.0]

    def test_vi_defaults(self):
        cfg = resolve_config(["vi", "--out", "x"])
        assert cfg.kind == "vi-affine"
        assert cfg.eps == 0.0
        assert cfg.lambda_ppa == 1.0

    @pytest.mark.parametrize("command", ["bp", "vi"])
    def test_configs_share_no_default_list(self, command):
        first = resolve_config([command, "--out", "x"])
        first.betas.append(9.0)
        first.eps_subs.append(9.0)
        second = resolve_config([command, "--out", "x"])
        assert (second.betas, second.eps_subs) == ([2.0], [0.1])

    def test_sweep_explicit_dims_kept(self):
        cfg = resolve_config(["mc", "--m", "8", "--n", "9", "--density", "0.3", "--out", "x"])
        assert (cfg.m, cfg.n, cfg.density) == (8, 9, 0.3)

    def test_sweep_keeps_bp_sized_dims_for_mc(self):
        cfg = resolve_config(["mc", "--m", "100", "--n", "500", "--density", "0.2", "--out", "x"])
        assert (cfg.m, cfg.n, cfg.density) == (100, 500, 0.2)
        assert cfg.betas == [5.0]

    def test_invalid_config_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            resolve_config(["bp", "--eps", "-1", "--out", "x"])
        assert err.value.code == 2

    def test_vi_dump_instance_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            resolve_config(["vi", "--dump-instance", "--out", "x"])
        assert err.value.code == 2
        assert "--dump-instance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["mc", "--m", "0"], "m"),
            (["vi", "--n", "0"], "n"),
            (["bp", "--density", "0"], "density"),
            (["mc", "--m", "2", "--n", "2", "--density", "0.1"], "density"),
            (["bp", "--seed", "-1"], "seeds"),
            (["vi", "--seed", "-2"], "seeds"),
        ],
    )
    def test_bad_dimension_is_usage_error(self, argv, field, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 2
        assert f"{field} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,repeated",
        [
            (["bp", "--seed", "0", "0", "--p", "1"], "bp_seed0_p1_beta2_esub0.1"),
            (["bp", "--p", "1", "1"], "bp_seed0_p1_beta2_esub0.1"),
            (["bp", "--p", "1", "1.0000001"], "bp_seed0_p1_beta2_esub0.1"),
            (["bp", "--p", "1", "--eps-sub", "0.1", "0.10000001"], "bp_seed0_p1_beta2_esub0.1"),
        ],
    )
    def test_repeated_run_id_is_usage_error(self, argv, repeated, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 2
        assert f"error: run ids must be distinct; repeated: {repeated}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["vi", "--lam", "0"], "lambda_ppa"),
            (["vi", "--p", "nan"], "p"),
            (["bp", "--eps", "nan"], "eps"),
            (["bp", "--beta", "2", "nan"], "beta"),
            (["mc", "--eps-sub", "nan"], "eps_sub"),
            (["mc", "--p", "1", "nan"], "p"),
            (["vi", "--lam", "inf"], "lambda_ppa"),
            (["vi", "--p", "inf"], "p"),
            (["vi", "--eps", "inf"], "step_tol"),
            (["bp", "--beta", "inf"], "beta"),
            (["bp", "--eps-sub", "inf"], "eps_sub"),
            (["mc", "--eps=-inf"], "eps"),
        ],
    )
    def test_bad_solver_value_is_usage_error(self, argv, field, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 2
        assert f"error: {field} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bp", "mc", "vi"])
    def test_each_flag_and_default_sets_one_config_field(self, command):
        # a config field with no flag or default, or a flag no field takes, fails here
        parsed = vars(build_parser().parse_args([command]))
        del parsed["command"]
        assert set(parsed) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["vi", "--m", "3"],
            ["vi", "--density", "0.5"],
            ["vi", "--beta", "2"],
            ["vi", "--eps-sub", "0.1"],
            ["vi", "--max-inner", "5"],
            ["bp", "--lam", "2"],
            ["mc", "--lam", "2"],
        ],
    )
    def test_flag_the_solver_does_not_read_is_usage_error(self, argv, tmp_path, capsys):
        # vi --m parsed as a prefix of --max-outer while prefixes were accepted
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(argv[1:])}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            resolve_config([])
        assert err.value.code == 2


class TestMain:
    def test_bp_run_writes_artifacts(self, tmp_path, capsys):
        code = run_cli(
            [
                "bp", "--m", "5", "--n", "20", "--density", "0.2", "--seed", "0",
                "--p", "1", "2", "--beta", "2", "--eps-sub", "0.01", "--eps", "1e-3",
                "--max-outer", "200", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "residuals.svg").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["runs"]) == 2
        for run in manifest["runs"]:
            assert (tmp_path / run["csv"]).exists()
        out = capsys.readouterr().out
        assert "manifest" in out

    def test_dump_instance_round_trips(self, tmp_path):
        code = run_cli(
            [
                "bp", "--m", "4", "--n", "10", "--density", "0.3", "--seed", "7",
                "--p", "2", "--eps-sub", "0.01", "--eps", "1e-3", "--out", str(tmp_path),
                "--dump-instance",
            ]
        )
        assert code == 0
        # after the header, the rows of A, the ground truth, then b, as generated
        lines = (tmp_path / "bp_seed7.instance.txt").read_text().splitlines()[1:]
        fresh = gen_bp(4, 10, 0.3, 7)
        assert len(lines) == 4 + 2
        for line, expected in zip(lines, [*fresh.a, fresh.ground_truth, fresh.b]):
            assert np.array([float(v) for v in line.split()]).tobytes() == expected.tobytes()

    def test_vi_run(self, tmp_path):
        code = run_cli(
            ["vi", "--n", "8", "--p", "1", "2", "--max-outer", "100", "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # p = 2 stops at the rounding floor of F, p = 1 runs to the cap
        assert [r["status"] for r in manifest["runs"]] == ["max_outer", "converged"]

    def test_vi_non_finite_step_fails_the_cell(self, tmp_path):
        # lam*M's eigenvalues overflow, so the step has no finite secular function
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(["vi", "--n", "3", "--lam", "1e308", "--p", "2", "--out", str(tmp_path)])
        assert code == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        [run] = manifest["runs"]
        assert run["status"].startswith("failed: secular function not finite")
        assert "SubproblemError" in run["error"]

    def test_mc_run(self, tmp_path):
        code = run_cli(
            [
                "mc", "--m", "8", "--n", "8", "--density", "0.2", "--p", "2",
                "--eps-sub", "0.01", "--eps", "1e-3", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["runs"][0]["status"] == "converged"

    def test_module_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "hoprox", "vi", "--n", "4", "--p", "1", "--max-outer", "2", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "manifest.json").exists()
