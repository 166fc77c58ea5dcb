import json
import re
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict, replace
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hoprox.bench as bench
from hoprox.alm import AlmConfig, AlmTrace, OuterRecord, run_alm
from hoprox.bench import (
    CSV_HEADER,
    ExperimentConfig,
    emit_plots,
    read_csv,
    run_sweep,
    sweep_failed,
    write_csv,
)
from hoprox.ppa import PpaConfig, run_ppa
from hoprox.problems import bp_composite, gen_bp, gen_mc, gen_vi_affine
from hoprox.prox import ProxFunction, l1_norm

# the l1 norms of make_trace's iterates 1, 2 and 3
OBJECTIVES = [3.5, 3.1, 3.0999999999]


def make_trace():
    """A converged three-row trace whose CSV objectives, under ``l1_norm()``, are OBJECTIVES."""
    records = [
        OuterRecord(0.5, 1.25, 12),
        OuterRecord(0.05, 0.4, 7),
        OuterRecord(1e-7, 1e-3, 2),
    ]
    iterates = [np.zeros(2)] + [np.array([value, 0.0]) for value in OBJECTIVES]
    return AlmTrace(records=records, status="converged", iterates=iterates)


SVG = "{http://www.w3.org/2000/svg}"


def read_svg(path):
    """Width, height, panel titles and polylines, as (point count, stroke) pairs, of a residuals.svg."""
    root = ET.parse(path).getroot()
    assert root.tag == SVG + "svg"
    titles = [t.text for t in root.iter(SVG + "text") if t.get("text-anchor") == "middle"]
    lines = [(len(line.get("points").split()), line.get("stroke")) for line in root.iter(SVG + "polyline")]
    return int(root.get("width")), int(root.get("height")), titles, lines


def count_reads(monkeypatch):
    """Counter of the paths that bench.read_csv is called on from here on."""
    reads = Counter()
    original = bench.read_csv
    monkeypatch.setattr(bench, "read_csv", lambda path: reads.update([path]) or original(path))
    return reads


# the m and n values the generated configs draw from: bad ones, good ones, and
# a float, a bool and a numpy integer standing for an integer
DIMENSIONS = [-1, 0, 1, 2, 3, 2.5, 4.0, True, np.int64(3)]


def generate(cfg, seed=0):
    """The instance run_sweep generates for ``cfg`` on ``seed``."""
    if cfg.kind == "bp":
        return gen_bp(cfg.m, cfg.n, cfg.density, seed)
    if cfg.kind == "mc":
        return gen_mc(cfg.m, cfg.n, cfg.density, seed)
    return gen_vi_affine(cfg.n, seed)


def tiny_bp_config(out_dir, **overrides):
    params = dict(
        kind="bp",
        m=5,
        n=20,
        density=0.2,
        seeds=[0],
        p_values=[1.0, 2.0, 3.0],
        betas=[2.0],
        eps_subs=[0.01],
        eps=1e-3,
        max_outer=300,
        max_inner=20_000,
        out_dir=str(out_dir),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestWriteCsv:
    def test_structure(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(make_trace(), path, l1_norm())
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[0] == "0"

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace = make_trace()
        write_csv(trace, path, l1_norm())
        records, objectives = read_csv(path)
        assert records == trace.records
        assert objectives == OBJECTIVES

    def test_converged_run_ends_below_eps(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(make_trace(), path, l1_norm())
        assert read_csv(path)[0][-1].primal_residual <= 1e-3

    @pytest.mark.parametrize("unmoved,calls", [([0], 3), ([1], 2), ([2], 2), ([1, 2], 1)])
    def test_objective_evaluated_once_per_iterate(self, tmp_path, unmoved, calls):
        # row k's objective is f at iterates[k + 1]; an x-update with no inner
        # iteration hands on the same array, and its row reuses the value
        trace = make_trace()
        for k in unmoved:
            trace.iterates[k + 1] = trace.iterates[k]
            trace.records[k].inner_iterations = 0
        evaluated = []
        f = ProxFunction(lambda x: evaluated.append(x) or l1_norm().value(x), l1_norm().prox)
        write_csv(trace, tmp_path / "trace.csv", f)
        assert len(evaluated) == len({id(x) for x in trace.iterates[1:]}) == calls
        expected = [l1_norm().value(x) for x in trace.iterates[1:]]
        assert read_csv(tmp_path / "trace.csv")[1] == expected

    def test_alm_trace_needs_f(self, tmp_path):
        with pytest.raises(TypeError, match="objective"):
            write_csv(make_trace(), tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_ppa_trace_columns(self, tmp_path):
        op, x0 = gen_vi_affine(6, 0)
        trace = run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=5))
        path = tmp_path / "vi.csv"
        write_csv(trace, path)
        rows, objectives = read_csv(path)
        assert len(rows) == 5
        assert [r.primal_residual for r in rows] == trace.residual_norms
        assert [r.multiplier_step_norm for r in rows] == trace.step_norms
        assert objectives == [0.0] * 5
        assert [r.inner_iterations for r in rows] == trace.inner_solves

    @pytest.mark.parametrize("kind", ["alm", "ppa"])
    def test_rows_number_and_sum_their_inner_work(self, tmp_path, kind):
        if kind == "alm":
            prob = bp_composite(gen_bp(5, 20, 0.2, 0))
            cfg = AlmConfig(p=2.0, beta=2.0, eps=1e-3, eps_sub=0.01, max_outer=300, max_inner=20_000)
            trace = run_alm(prob, np.zeros(20), np.zeros(5), cfg)
            records, f = trace.records, prob.f
        else:
            op, x0 = gen_vi_affine(8, 0)
            trace = run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=10))
            columns = zip(trace.residual_norms, trace.step_norms, trace.inner_solves)
            records, f = [OuterRecord(*row) for row in columns], None
        assert len(records) > 1
        write_csv(trace, tmp_path / "trace.csv", f)
        rows = [row.split(",") for row in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(records)
        assert all(len(row) == len(CSV_HEADER.split(",")) for row in rows)
        # iter is the row index and cum_inner the running sum of inner_iters
        assert [int(row[0]) for row in rows] == list(range(len(rows)))
        assert [int(row[4]) for row in rows] == list(accumulate(int(row[3]) for row in rows))
        # every other field is the trace's
        assert read_csv(tmp_path / "trace.csv")[0] == records

    def test_readme_quotes_header(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert f"`{CSV_HEADER}`" in readme.read_text()

    def test_unknown_trace_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(object(), tmp_path / "bad.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # the last is the header of CSVs written with a wall_ms column
        for text in ("nope\n", "", "iter,r_k,dual_step_norm,inner_iters,cum_inner,objective,wall_ms\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="header"):
                read_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is empty"):
            read_csv(path)

    @pytest.mark.parametrize(
        "row,error",
        [("0,1,2,3", "not enough values to unpack"), ("0,1,2,x,0,1", "invalid literal for int")],
        ids=["short-row", "non-integer-inner"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, error):
        # the bad row is line 4, after a good row and a blank line
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\n0,0.5,1.25,12,12,3.5\n\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 4: {error}"):
            read_csv(path)


class TestRunSweep:
    @pytest.mark.parametrize(
        "overrides,status",
        [
            (dict(eps=1e6), "converged"),
            (dict(eps_subs=[1e-12], max_inner=1), "subsolver_stalled"),
        ],
        ids=["met-at-x0", "first-x-update-stalls"],
    )
    def test_final_residual_of_run_without_record(self, tmp_path, overrides, status):
        # with no record the last iterate is x0 = 0, whose residual is ||b||; it
        # was written as 0.0, which reads as solved
        manifest = run_sweep(tiny_bp_config(tmp_path, p_values=[1.0], **overrides))
        (run,) = manifest["runs"]
        assert (run["status"], run["outer_iterations"]) == (status, 0)
        assert run["final_residual"] == np.linalg.norm(gen_bp(5, 20, 0.2, 0).b) > 0

    def test_bp_sweep_artifacts(self, tmp_path):
        manifest = run_sweep(tiny_bp_config(tmp_path))
        assert len(manifest["runs"]) == 3
        for run in manifest["runs"]:
            assert run["status"] == "converged"
            assert run["final_residual"] == read_csv(tmp_path / run["csv"])[0][-1].primal_residual
        assert (tmp_path / "manifest.json").exists()
        assert manifest["rng_algorithm"] == bench.RNG_ALGORITHM
        assert not sweep_failed(manifest)

    def test_determinism_bitwise(self, tmp_path):
        m1 = run_sweep(tiny_bp_config(tmp_path / "a"))
        m2 = run_sweep(tiny_bp_config(tmp_path / "b"))
        for r1, r2 in zip(m1["runs"], m2["runs"]):
            assert r1["csv"] == r2["csv"]
            b1 = (tmp_path / "a" / r1["csv"]).read_bytes()
            b2 = (tmp_path / "b" / r2["csv"]).read_bytes()
            assert b1 == b2

    def test_manifest_rerun_reproduces(self, tmp_path):
        run_sweep(tiny_bp_config(tmp_path / "a"))
        loaded = json.loads((tmp_path / "a" / "manifest.json").read_text())
        cfg = ExperimentConfig(**{**loaded["config"], "out_dir": str(tmp_path / "b")})
        run_sweep(cfg)
        for run in loaded["runs"]:
            assert (tmp_path / "a" / run["csv"]).read_bytes() == (tmp_path / "b" / run["csv"]).read_bytes()

    def test_numpy_integers_written_as_numbers(self, tmp_path):
        # validate accepts numpy integers; the manifest must hold them as JSON numbers
        cfg = tiny_bp_config(
            tmp_path, seeds=[np.int64(0), np.int64(1)], m=np.int64(5), max_outer=np.int64(300), p_values=[1.0]
        )
        manifest = run_sweep(cfg)
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
        assert [run["id"] for run in manifest["runs"]] == ["bp_seed0_p1_beta2_esub0.01", "bp_seed1_p1_beta2_esub0.01"]

    def test_value_json_cannot_hold_leaves_no_manifest(self, tmp_path):
        # a set of orders or a range of seeds works for the CSVs, but the
        # manifest, written after every cell has run, holds only JSON values
        for field, value in (("p_values", {1.0}), ("seeds", range(2))):
            out = tmp_path / field
            with pytest.raises(ValueError, match=rf"^{field} must be a JSON value, as the manifest records it, got "):
                run_sweep(tiny_bp_config(out, **{field: value}))
            assert not out.exists()

    def test_instance_shared_across_p(self, tmp_path):
        cfg = tiny_bp_config(tmp_path, dump_instances=True)
        run_sweep(cfg)
        # one instance file per seed, not per run
        assert (tmp_path / "bp_seed0.instance.txt").exists()
        assert len(list(tmp_path.glob("*.instance.txt"))) == 1

    def test_vi_sweep(self, tmp_path):
        cfg = tiny_bp_config(
            tmp_path, kind="vi-affine", n=10, p_values=[1.0, 2.0], eps=0.0, max_outer=20
        )
        manifest = run_sweep(cfg)
        assert len(manifest["runs"]) == 2
        for run in manifest["runs"]:
            assert run["status"] == "max_iters"
            rows, _ = read_csv(tmp_path / run["csv"])
            assert len(rows) == 20
            assert run["final_residual"] == rows[-1].primal_residual > 0.0

    def test_vi_status_says_why_the_run_stopped(self, tmp_path):
        # p = 2 reaches the rounding floor of F and stops on its zero step;
        # p = 1 is still descending at the cap
        cfg = tiny_bp_config(
            tmp_path, kind="vi-affine", n=10, p_values=[1.0, 2.0], eps=0.0, max_outer=100
        )
        first, second = run_sweep(cfg)["runs"]
        assert (first["status"], first["outer_iterations"]) == ("max_iters", 100)
        assert second["status"] == "rounding_floor"
        assert second["outer_iterations"] < 100
        rows, _ = read_csv(tmp_path / second["csv"])
        assert rows[-1].multiplier_step_norm == 0.0
        assert second["final_residual"] == rows[-1].primal_residual < 1e-12

    def test_vi_dump_instance_rejected(self, tmp_path):
        # the CLI's vi takes no --dump-instance, so only a config built in code reaches this check
        cfg = tiny_bp_config(tmp_path, kind="vi-affine", eps=0.0, dump_instances=True)
        with pytest.raises(ValueError, match="--dump-instance"):
            cfg.validate()
        with pytest.raises(ValueError, match="--dump-instance"):
            run_sweep(cfg)
        assert not any(tmp_path.iterdir())

    def test_empty_axis_rejected(self, tmp_path):
        cfg = tiny_bp_config(tmp_path, p_values=[])
        with pytest.raises(ValueError, match="p_values"):
            run_sweep(cfg)

    def test_invalid_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(tiny_bp_config(tmp_path, kind="xy"))
        with pytest.raises(ValueError):
            run_sweep(tiny_bp_config(tmp_path, betas=[-1.0]))
        with pytest.raises(ValueError):
            run_sweep(tiny_bp_config(tmp_path, p_values=[0.5]))

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(n=0), "n"),
            (dict(m=0), "m"),
            (dict(density=0.0), "density"),
            (dict(density=1.5), "density"),
            (dict(kind="mc", m=0), "m"),
            (dict(kind="mc", n=-1), "n"),
            (dict(kind="vi-affine", n=0, eps=0.0), "n"),
            (dict(density=0.02), "density"),
            (dict(density=0.025), "density"),
            (dict(kind="mc", m=2, n=2, density=0.1), "density"),
            (dict(seeds=[-1]), "seeds"),
            (dict(kind="vi-affine", eps=0.0, seeds=[0, -2]), "seeds"),
            (dict(seeds=[0.5]), "seeds"),
            # True would seed as 1 under an id of its own, vi_seedTrue_p1
            (dict(kind="vi-affine", eps=0.0, seeds=[True, 1]), "seeds"),
            # a float or bool dimension would pass a comparison and fail inside numpy
            (dict(n=20.5), "n"),
            (dict(kind="vi-affine", n=True, eps=0.0), "n"),
            (dict(kind="mc", m=4.0), "m"),
        ],
    )
    def test_bad_dimensions_rejected_before_output(self, tmp_path, overrides, field):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{field} must"):
            run_sweep(tiny_bp_config(out, **overrides))
        assert not out.exists()

    def test_non_str_out_dir_rejected_before_output(self, tmp_path):
        # the manifest records out_dir as a JSON string
        out = tmp_path / "out"
        cfg = tiny_bp_config(out)
        cfg.out_dir = out
        with pytest.raises(ValueError, match="^out_dir must be a str, as the manifest records it, got PosixPath$"):
            run_sweep(cfg)
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(p_values=[1.0, float("nan")]), "p"),
            (dict(betas=[float("nan")]), "beta"),
            (dict(eps_subs=[0.1, float("nan")]), "eps_sub"),
            (dict(eps=float("nan")), "eps"),
            (dict(eps=0.0), "eps"),
            (dict(max_inner=0), "max_inner"),
            (dict(kind="vi-affine", eps=0.0, lambda_ppa=0.0), "lambda_ppa"),
            (dict(kind="vi-affine", eps=0.0, p_values=[float("nan")]), "p"),
            (dict(kind="vi-affine", eps=float("nan")), "step_tol"),
        ],
    )
    def test_bad_solver_values_rejected_before_output(self, tmp_path, overrides, field):
        # every grid cell's solver config is built, as run_cell builds it
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{field} must"):
            run_sweep(tiny_bp_config(out, **overrides))
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,repeated",
        [
            (dict(seeds=[0, 0]), "bp_seed0_p1_beta2_esub0.01"),
            (dict(p_values=[1.0, 1.0000001]), "bp_seed0_p1_beta2_esub0.01"),
            (dict(eps_subs=[0.1, 0.10000001]), "bp_seed0_p1_beta2_esub0.1"),
            (dict(kind="vi-affine", eps=0.0, p_values=[2.0, 2.0]), "vi_seed0_p2"),
        ],
        ids=["seed", "p", "eps_sub", "vi"],
    )
    def test_repeated_run_id_rejected_before_output(self, tmp_path, overrides, repeated):
        # each run id names the cell's CSV; a repeat would overwrite one cell with another
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^run ids must be distinct; repeated: {repeated}$"):
            run_sweep(tiny_bp_config(out, **{"p_values": [1.0], **overrides}))
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides", [dict(density=0.03), dict(kind="mc", m=2, n=2, density=0.15)], ids=["bp", "mc"]
    )
    def test_density_of_one_sample_accepted(self, tmp_path, overrides):
        # 0.03 * 20 and 0.15 * 4 round to one sample (0.025 * 20 rounds to 0)
        cfg = tiny_bp_config(tmp_path, **overrides)
        cfg.validate()
        instance = generate(cfg)
        assert (np.count_nonzero(instance.ground_truth) if cfg.kind == "bp" else instance.observed_indices.size) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(bench.KINDS),
        m=st.sampled_from(DIMENSIONS),
        n=st.sampled_from(DIMENSIONS),
        density=st.sampled_from([0, 1e-3, 0.025, 0.03, 0.5, 1, 1.5, float("nan")]),
    )
    @example(kind="bp", m=5, n=20, density=0.03)
    @example(kind="mc", m=2, n=2, density=0.15)
    def test_every_accepted_config_generates(self, kind, m, n, density):
        # validate holds the generators' rules, so nothing it accepts fails to generate
        cfg = tiny_bp_config("unused", kind=kind, m=m, n=n, density=density)
        try:
            cfg.validate()
        except ValueError:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gen_bp warns when m >= n
            generate(cfg)

    def test_vi_ignores_m_and_density(self, tmp_path):
        tiny_bp_config(tmp_path, kind="vi-affine", m=0, density=0.0, eps=0.0).validate()

    def test_vi_sweep_from_the_fields_it_reads(self, tmp_path):
        # m, density, betas, eps_subs and max_inner have defaults; an explicit value is accepted and ignored
        read = dict(kind="vi-affine", n=6, seeds=[0, 1], p_values=[1.0, 2.0], eps=0.0, max_outer=15)
        alm_only = dict(m=20, density=1.0, betas=[2.0], eps_subs=[0.1], max_inner=50_000)
        first = run_sweep(ExperimentConfig(**read, out_dir=str(tmp_path / "a")))
        second = run_sweep(ExperimentConfig(**read, **alm_only, out_dir=str(tmp_path / "b")))
        assert [run["csv"] for run in first["runs"]] == [run["csv"] for run in second["runs"]]
        assert len(first["runs"]) == 4
        for run in first["runs"]:
            assert (tmp_path / "a" / run["csv"]).read_bytes() == (tmp_path / "b" / run["csv"]).read_bytes()
        defaults = dict(m=0, density=0.0, betas=[], eps_subs=[], max_inner=0)
        assert {key: first["config"][key] for key in alm_only} == defaults

    @pytest.mark.parametrize("kind", ["bp", "mc"])
    @pytest.mark.parametrize("field", ["m", "density", "betas", "eps_subs", "max_inner"])
    def test_alm_field_left_out_rejected_before_output(self, tmp_path, kind, field):
        out = tmp_path / "out"
        params = asdict(tiny_bp_config(out, kind=kind, m=4, n=5, density=0.5))
        del params[field]
        with pytest.raises(ValueError, match=f"^{field} must"):
            run_sweep(ExperimentConfig(**params))
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides", [dict(), dict(kind="vi-affine", n=6, eps=0.0, max_outer=10)], ids=["bp", "vi"]
    )
    def test_time_kept_in_manifest_not_csv(self, tmp_path, overrides):
        manifest = run_sweep(tiny_bp_config(tmp_path, **overrides))
        for run in manifest["runs"]:
            header, *rows = (tmp_path / run["csv"]).read_text().splitlines()
            assert header == CSV_HEADER and "wall" not in header
            assert rows and all(len(row.split(",")) == len(CSV_HEADER.split(",")) for row in rows)
            assert run["wall_ms_measured"] > 0

    def test_manifest_oracle_totals(self, tmp_path, monkeypatch):
        calls = []

        def counted_bp(inst):
            prob = bp_composite(inst)
            counted = ProxFunction(prob.f.value, lambda v, t: calls.append(t) or prob.f.prox(v, t))
            return replace(prob, f=counted)

        monkeypatch.setattr(bench, "bp_composite", counted_bp)
        manifest = run_sweep(tiny_bp_config(tmp_path))
        assert sum(run["prox_calls"] for run in manifest["runs"]) == len(calls)
        for run in manifest["runs"]:
            outer, inner = run["outer_iterations"], run["inner_iterations"]
            assert run["status"] == "converged" and inner > 0
            assert inner == sum(rec.inner_iterations for rec in read_csv(tmp_path / run["csv"])[0])
            # each x-update calls the prox at entry (at p = 1 only) and once
            # per stopping test after a step, bar a certified stop; the other
            # calls are trials
            entry_tests = outer if run["p"] == 1 else 0
            assert run["trials"] == run["prox_calls"] - entry_tests - run["stop_tests"] + run["certified"]

    def test_cell_failure_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = bench.run_cell

        def flaky(problem, solver_cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom")
            return original(problem, solver_cfg)

        monkeypatch.setattr(bench, "run_cell", flaky)
        manifest = run_sweep(tiny_bp_config(tmp_path))
        assert len(manifest["runs"]) == 3
        statuses = [r["status"] for r in manifest["runs"]]
        assert sum(s.startswith("failed") for s in statuses) == 1
        assert sweep_failed(manifest)


class TestEmitPlots:
    def test_four_beta_sweep_gives_four_panels(self, tmp_path, monkeypatch):
        cfg = tiny_bp_config(tmp_path, betas=[0.5, 2.0, 5.0, 10.0], p_values=[1.0, 2.0])
        manifest = run_sweep(cfg)
        reads = count_reads(monkeypatch)
        width, height, titles, _ = read_svg(emit_plots(manifest))
        # two panels to a row
        assert (width, height) == (2 * 480, 2 * 360)
        assert sorted(titles) == sorted(f"beta={beta}, eps_sub=0.01" for beta in ("0.5", "2", "5", "10"))
        assert reads == Counter({tmp_path / run["csv"]: 1 for run in manifest["runs"]})

    def test_panels_in_numeric_order(self, tmp_path):
        cfg = tiny_bp_config(tmp_path, betas=[0.5, 2.0, 5.0, 10.0], p_values=[1.0])
        titles = read_svg(emit_plots(run_sweep(cfg)))[2]
        assert titles == [f"beta={beta}, eps_sub=0.01" for beta in ("0.5", "2", "5", "10")]

    def test_single_run_single_panel(self, tmp_path, monkeypatch):
        cfg = tiny_bp_config(tmp_path, p_values=[2.0])
        manifest = run_sweep(cfg)
        reads = count_reads(monkeypatch)
        width, height, titles, _ = read_svg(emit_plots(manifest))
        assert (width, height, titles) == (480, 360, ["beta=2, eps_sub=0.01"])
        assert reads == Counter({tmp_path / manifest["runs"][0]["csv"]: 1})

    def test_missing_csv_rejected(self, tmp_path):
        manifest = run_sweep(tiny_bp_config(tmp_path))
        (tmp_path / manifest["runs"][0]["csv"]).unlink()
        with pytest.raises(FileNotFoundError):
            emit_plots(manifest)
        assert not (tmp_path / "residuals.svg").exists()

    def test_figure_structure(self, tmp_path):
        manifest = run_sweep(tiny_bp_config(tmp_path, p_values=[1.0, 2.0]))
        path = emit_plots(manifest)
        assert path == tmp_path / "residuals.svg"
        width, height, titles, lines = read_svg(path)
        # the sweep has a single (beta, eps_sub) cell, so the figure is one panel
        assert (width, height, titles) == (480, 360, ["beta=2, eps_sub=0.01"])
        # every residual is positive and finite, so each curve is one polyline
        # through all its rows, in p order, followed by one legend swatch per curve
        rows = [read_csv(tmp_path / run["csv"])[0] for run in manifest["runs"]]
        assert all(len(recs) > 1 and all(0 < rec.primal_residual < np.inf for rec in recs) for recs in rows)
        assert [n for n, _ in lines] == [len(recs) for recs in rows] + [2] * len(rows)
        assert len({stroke for _, stroke in lines}) >= 2

    def test_line_breaks_at_non_positive_or_non_finite_residual(self, tmp_path):
        residuals = ["1", "0.5", "0", "0.2", "0.1", "inf", "0.01", "0.001"]
        csv = "\n".join([CSV_HEADER] + [f"{k},{r},0,1,{k + 1},0" for k, r in enumerate(residuals)])
        (tmp_path / "r.csv").write_text(csv + "\n")
        runs = [{"id": "r", "csv": "r.csv", "seed": 0, "p": 2.0, "beta": 2.0, "eps_sub": 0.01, "status": "converged"}]
        lines = read_svg(emit_plots({"config": {"out_dir": str(tmp_path)}, "runs": runs}))[3]
        # three two-point pieces of the curve and the legend swatch, all in the curve's colour
        assert [n for n, _ in lines] == [2, 2, 2, 2]
        assert len({stroke for _, stroke in lines}) == 1

    @pytest.mark.parametrize(
        "overrides", [dict(), dict(kind="vi-affine", n=6, eps=0.0, max_outer=10)], ids=["bp", "vi"]
    )
    def test_rerender_from_manifest_file(self, tmp_path, overrides):
        # a finished sweep is re-rendered from the manifest.json it wrote
        manifest = run_sweep(tiny_bp_config(tmp_path, seeds=[0, 1], **overrides))
        first = emit_plots(manifest).read_bytes()
        (tmp_path / "residuals.svg").unlink()
        loaded = json.loads((tmp_path / "manifest.json").read_text())
        assert loaded == manifest
        assert emit_plots(loaded).read_bytes() == first

    def test_two_calls_write_identical_bytes(self, tmp_path):
        manifest = run_sweep(tiny_bp_config(tmp_path, seeds=[0, 1], betas=[2.0, 5.0]))
        first = emit_plots(manifest).read_bytes()
        assert emit_plots(manifest).read_bytes() == first

    def test_all_failed_sweep_gives_empty_figure(self, tmp_path):
        config = asdict(tiny_bp_config(tmp_path))
        runs = [{"id": "r", "csv": "r.csv", "seed": 0, "p": 1.0, "beta": 2.0, "eps_sub": 0.01,
                 "status": "failed: boom"}]
        width, height, titles, lines = read_svg(emit_plots({"config": config, "runs": runs}))
        assert (width, height, titles, lines) == (480, 360, [], [])
