import numpy as np

from hoprox.alm import AlmConfig, run_alm
from hoprox.ppa import PpaConfig, run_ppa
from hoprox.problems import bp_composite, gen_bp, gen_vi_affine
from hoprox.prox import l1_norm

from cell_digest import cell_digests, compare, digest, summary


def ppa_cell():
    op, x0 = gen_vi_affine(6, 0)
    return run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=20))


def alm_cell():
    cfg = AlmConfig(p=2.0, beta=2.0, eps=1e-3, eps_sub=0.01, max_outer=300, max_inner=20_000)
    return run_alm(bp_composite(gen_bp(5, 20, 0.2, 0)), np.zeros(20), np.zeros(5), cfg)


def test_repeated_runs_give_equal_digests():
    assert digest("ppa", ppa_cell()) == digest("ppa", ppa_cell())
    assert digest("alm", alm_cell(), l1_norm()) == digest("alm", alm_cell(), l1_norm())


def test_one_ulp_in_one_iterate_changes_the_digest():
    for kind, trace, f in (("ppa", ppa_cell(), None), ("alm", alm_cell(), l1_norm())):
        before = digest(kind, trace, f)
        x = trace.iterates[-1].copy()
        x[0] = np.nextafter(x[0], np.inf)
        trace.iterates[-1] = x
        assert digest(kind, trace, f) != before


def test_status_alone_changes_the_digest():
    for kind, trace, f in (("ppa", ppa_cell(), None), ("alm", alm_cell(), l1_norm())):
        before = digest(kind, trace, f)
        trace.status = "unresolved_step" if kind == "ppa" else "max_outer"
        assert digest(kind, trace, f) != before


def test_compare_names_both_statuses_of_a_cell_whose_status_moved():
    before = {"ppa-sym/s0-p2": "0" * 64, "ppa-sym/s0-p3": "1" * 64, "ppa-sym/s1-p2": "2" * 64}
    after = {"ppa-sym/s0-p2": "3" * 64, "ppa-sym/s0-p3": "4" * 64, "ppa-sym/s1-p2": "2" * 64}
    counts = {"ppa-sym/s0-p2": 1, "ppa-sym/s0-p3": 11, "ppa-sym/s1-p2": 14}
    statuses_before = {"ppa-sym/s0-p2": "step_tol", "ppa-sym/s0-p3": "rounding_floor", "ppa-sym/s1-p2": "step_tol"}
    statuses_after = {**statuses_before, "ppa-sym/s0-p2": "unresolved_step"}
    assert compare(before, after, counts, counts, statuses_before=statuses_before, statuses_after=statuses_after) == [
        "ppa-sym/s0-p2: 1 → 1 steps, status step_tol → unresolved_step",
        "ppa-sym/s0-p3: 11 → 11 steps",
    ]
    # a file written without statuses compares as before
    assert compare(before, after, counts, counts, statuses_after=statuses_after)[0] == "ppa-sym/s0-p2: 1 → 1 steps"


def test_compare_names_differing_and_one_sided_cells():
    lines = compare({"a": "0" * 64, "b": "1" * 64, "c": "2" * 64}, {"a": "0" * 64, "b": "3" * 64, "d": "4" * 64})
    assert [line.split(":")[0] for line in lines] == ["b", "c", "d"]


def test_compare_names_both_counts_of_a_differing_cell():
    before = {"ppa-skew/s0-p2": "0" * 64, "alm-bp/s0-p1": "1" * 64, "alm-bp/s1-p1": "2" * 64}
    after = {"ppa-skew/s0-p2": "3" * 64, "alm-bp/s0-p1": "4" * 64, "alm-bp/s1-p1": "2" * 64}
    counts_before = {"ppa-skew/s0-p2": 200, "alm-bp/s0-p1": 88, "alm-bp/s1-p1": 90}
    counts_after = {"ppa-skew/s0-p2": 8, "alm-bp/s0-p1": 88, "alm-bp/s1-p1": 90}
    assert compare(before, after, counts_before, counts_after) == [
        "alm-bp/s0-p1: 88 → 88 outer steps",
        "ppa-skew/s0-p2: 200 → 8 steps",
    ]
    # a file written without counts still compares by digest
    assert compare(before, after, None, counts_after) == [
        f"alm-bp/s0-p1: {'1' * 12} != {'4' * 12}",
        f"ppa-skew/s0-p2: {'0' * 12} != {'3' * 12}",
    ]


def test_cell_digests_record_each_run_length():
    statuses = {}
    digests, counts = cell_digests(["ppa-skew"], seeds=[0], statuses=statuses)
    assert sorted(digests) == sorted(counts) == sorted(statuses) == ["ppa-skew/s0-p1", "ppa-skew/s0-p2", "ppa-skew/s0-p3"]
    # every skew cell stops at its zero step well inside the 200-step cap
    assert counts == {"ppa-skew/s0-p1": 49, "ppa-skew/s0-p2": 8, "ppa-skew/s0-p3": 7}
    assert set(statuses.values()) == {"rounding_floor"}


def test_compare_names_both_evaluation_totals_of_a_differing_ppa_cell():
    before = {"ppa-sym/s0-p2": "0" * 64, "ppa-sym/s0-p3": "1" * 64}
    after = {"ppa-sym/s0-p2": "2" * 64, "ppa-sym/s0-p3": "3" * 64}
    counts = {"ppa-sym/s0-p2": 14, "ppa-sym/s0-p3": 11}
    # only s0-p2 has a total on both sides, as with a file written before totals were kept
    assert compare(before, after, counts, counts, {"ppa-sym/s0-p2": 52}, {"ppa-sym/s0-p2": 37, "ppa-sym/s0-p3": 20}) == [
        "ppa-sym/s0-p2: 14 → 14 steps, 52 → 37 evaluations",
        "ppa-sym/s0-p3: 11 → 11 steps",
    ]
    assert compare(before, after, counts, counts) == ["ppa-sym/s0-p2: 14 → 14 steps", "ppa-sym/s0-p3: 11 → 11 steps"]


def test_cell_digests_record_each_ppa_evaluation_total():
    evaluations = {}
    digests, counts = cell_digests(["ppa-skew"], seeds=[0], evaluations=evaluations)
    assert sorted(evaluations) == sorted(digests)
    # each run ends on its zero step, which takes no evaluation; a p = 1
    # step takes one, and a p > 1 search at least one
    assert evaluations["ppa-skew/s0-p1"] == counts["ppa-skew/s0-p1"] - 1
    assert all(evaluations[name] >= counts[name] - 1 for name in digests)


def test_results_digest_leaves_out_only_prox_calls():
    trace = alm_cell()
    full, results = digest("alm", trace, l1_norm()), digest("alm", trace, l1_norm(), prox_calls=False)
    trace.reports[0].prox_calls += 1
    assert digest("alm", trace, l1_norm()) != full
    assert digest("alm", trace, l1_norm(), prox_calls=False) == results
    trace.reports[0].trials += 1
    assert digest("alm", trace, l1_norm(), prox_calls=False) != results


def test_compare_names_cells_equal_in_results_with_their_prox_totals():
    before = {"alm-mc/s0-p2-esub0.1": "0" * 64, "alm-bp/s0-p2": "1" * 64, "alm-bp/s0-p1": "2" * 64}
    after = {"alm-mc/s0-p2-esub0.1": "3" * 64, "alm-bp/s0-p2": "4" * 64, "alm-bp/s0-p1": "2" * 64}
    counts = {"alm-mc/s0-p2-esub0.1": 500, "alm-bp/s0-p2": 4, "alm-bp/s0-p1": 88}
    results_before = {"alm-mc/s0-p2-esub0.1": {"digest": "5" * 64, "prox_calls": 1247},
                      "alm-bp/s0-p2": {"digest": "6" * 64, "prox_calls": 2508}}
    results_after = {"alm-mc/s0-p2-esub0.1": {"digest": "5" * 64, "prox_calls": 747},
                     "alm-bp/s0-p2": {"digest": "7" * 64, "prox_calls": 2505}}
    assert compare(before, after, counts, counts, None, None, results_before, results_after) == [
        "alm-bp/s0-p2: 4 → 4 outer steps, 2,508 → 2,505 prox calls",
        "alm-mc/s0-p2-esub0.1: results equal, 1,247 → 747 prox calls",
    ]
    # a file written without results digests compares as before
    assert compare(before, after, counts, counts, None, None, None, results_after) == [
        "alm-bp/s0-p2: 4 → 4 outer steps",
        "alm-mc/s0-p2-esub0.1: 500 → 500 outer steps",
    ]


def test_cell_digests_record_each_alm_results_digest_and_prox_total():
    results = {}
    digests, _ = cell_digests(["alm-bp"], seeds=[0], results=results)
    assert sorted(results) == sorted(digests) == ["alm-bp/s0-p1", "alm-bp/s0-p2", "alm-bp/s0-p3"]
    for name, record in results.items():
        assert record["digest"] != digests[name]
        assert isinstance(record["prox_calls"], int) and record["prox_calls"] > 0
    ppa_results = {}
    cell_digests(["ppa-skew"], seeds=[0], results=ppa_results)
    assert ppa_results == {}


def test_summary_gives_one_line_per_workload():
    before = {"alm-bp/s0-p1": "0" * 64, "alm-bp/s0-p2": "1" * 64, "alm-bp/s0-p3": "2" * 64,
              "ppa-sym/s0-p1": "3" * 64, "ppa-sym/s0-p2": "4" * 64}
    after = {"alm-bp/s0-p1": "0" * 64, "alm-bp/s0-p2": "5" * 64, "alm-bp/s0-p3": "6" * 64,
             "ppa-sym/s0-p1": "3" * 64, "ppa-sym/s0-p2": "7" * 64}
    results_before = {"alm-bp/s0-p1": {"digest": "8" * 64, "prox_calls": 2_245},
                      "alm-bp/s0-p2": {"digest": "9" * 64, "prox_calls": 2_365},
                      "alm-bp/s0-p3": {"digest": "a" * 64, "prox_calls": 3_668}}
    results_after = {"alm-bp/s0-p1": {"digest": "8" * 64, "prox_calls": 2_245},
                     "alm-bp/s0-p2": {"digest": "9" * 64, "prox_calls": 1_766},
                     "alm-bp/s0-p3": {"digest": "b" * 64, "prox_calls": 2_865}}
    assert summary(before, after, results_before, results_after) == [
        "alm-bp: 1/3 equal, 2/3 equal in results, prox calls 8,278 → 6,876",
        "ppa-sym: 1/2 equal",
    ]
    # a file written without results digests gives the digest count alone
    assert summary(before, after, None, results_after)[0] == "alm-bp: 1/3 equal"
