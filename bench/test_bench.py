"""Tests of the benchmark's own machinery: wrapper coverage, self time,
budgets, oracles and the benchmark description.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import child
import oracles
import run
import tracer as tracing
import workloads

from surfmoduli import beauville, bidouble, catalog, groups, moebius, triangles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture
def installed():
    t = tracing.Tracer(tracing.load_table())
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_wrappers_replace_names_imported_elsewhere(installed):
    import surfmoduli

    assert beauville.enumerate_triples is triangles.enumerate_triples
    assert hasattr(triangles.enumerate_triples, "__wrapped__")
    assert beauville.sigma_class_indices is triangles.sigma_class_indices
    assert catalog.close is groups.close
    assert hasattr(groups.close, "__wrapped__")
    assert surfmoduli.search is beauville.search
    assert hasattr(beauville.search, "__wrapped__")


def test_uninstall_restores_the_library():
    original = (triangles.enumerate_triples, groups.PermGroup.generates_pair)
    t = tracing.Tracer(tracing.load_table())
    t.install()
    t.uninstall()
    assert (triangles.enumerate_triples, groups.PermGroup.generates_pair) == original
    assert not hasattr(beauville.enumerate_triples, "__wrapped__")


def test_guard_reports_wrappers_that_never_fired(installed):
    problems = installed.coverage_problems("verdict")
    assert "wrapper groups.generates_pair never fired on workload verdict" in problems
    # the verdict path on a small group fires every wrapper verdict needs
    beauville.search(catalog.builtin("S4"), stop_at_first=True)
    assert installed.coverage_problems("verdict") == []
    assert installed.coverage_problems("braids-branch")


def test_guard_rejects_a_target_that_is_gone():
    table = tracing.load_table()
    table["wrappers"] = {"triangles.enumerate_triples": "surfmoduli.triangles:enumerate_triplets"}
    t = tracing.Tracer(table)
    with pytest.raises(tracing.CoverageError, match="does not exist"):
        t.install()
    t.uninstall()


def test_every_wrapper_must_fire_somewhere():
    table = tracing.load_table()
    for key, on in tracing.must_fire_on(table).items():
        assert on, f"{key} has no workload to fire on"
        assert on <= set(workloads.NAMES)


def test_self_time_excludes_child_spans():
    t = tracing.Tracer({"layers": ["x"], "wrappers": {}, "metrics": []})

    def busy():
        end = time.perf_counter() + 0.01
        while time.perf_counter() < end:
            pass

    inner = t._wrap("x.inner", "x", busy)
    outer = t._wrap("x.outer", "x", lambda: (busy(), inner()))
    outer()
    (i_in, i_out) = (0, 1)  # inner closes first
    assert t.parents[i_in] == t.span_ids[i_out] and t.parents[i_out] == -1
    d_in = t.ends[i_in] - t.starts[i_in]
    d_out = t.ends[i_out] - t.starts[i_out]
    assert t.self_s["x.inner"] == pytest.approx(d_in)
    assert t.self_s["x.outer"] == pytest.approx(d_out - d_in)
    assert t.self_s["x.outer"] >= 0.009


def test_table_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = tracing.load_table()
    assert bench["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in table["metrics"]
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_tracer_reports_every_per_layer_metric(installed):
    names = {m["name"] for m in tracing.load_table()["metrics"]}
    assert names - set(installed.metrics()) == {"trace.overhead_frac"}


def test_over_budget_query_is_stopped_and_counted():
    def forever():
        while True:
            pass

    q = workloads.Query("spin", 0.2, forever, lambda answer: None)
    records, times = child.run_queries([q], sampler=child.Sampler())
    assert records[0]["error"] == "over its 0.2 s budget"
    assert times["wall_s"] < 2
    assert times["ref_samples"] > 0


def test_sampler_leaves_the_reference_blocks_out():
    sampler = child.Sampler()
    sampler.samples = [(0.02 * i, 0.01 * i, 0.001) for i in range(50)]
    wall_s, wall_ref = sampler.normalise(0.0, 1.0, 0)
    assert wall_s == pytest.approx(0.95)
    assert wall_ref == pytest.approx(950)
    cpu_s, cpu_ref = sampler.normalise(0.0, 0.5, 1)
    assert cpu_s == pytest.approx(0.45)
    assert cpu_ref == pytest.approx(450)


def test_equivalent_moebius_pairs_put_their_certificate_at_a_fixed_rank():
    key = workloads._proj_key
    for item in workloads.plan("braids-branch", 0)["moebius"]:
        if item["kind"] != "equivalent":
            continue
        b1 = moebius.family_branch_set(workloads.MOEBIUS_GENUS, item["param"])
        b2 = moebius.BranchSet([moebius.ProjPoint(z) for z in item["points2"]])
        m = moebius.moebius_equivalent(b1, b2)
        first = m(moebius.ProjPoint(min(item["points1"], key=key))).value
        assert sorted(item["points2"], key=key).index(first) == workloads.MOEBIUS_FIRST_RANK


def test_wrong_answers_are_counted():
    queries = [
        workloads.Query("right", 1, lambda: 1, lambda a: None if a == 1 else "no"),
        workloads.Query("wrong", 1, lambda: 2, lambda a: None if a == 1 else "not 1"),
    ]
    records, _ = child.run_queries(queries)
    child.check_answers(queries, records)
    assert "error" not in records[0]
    assert records[1]["error"] == "wrong answer: not 1"


def test_plans_follow_the_seed():
    for name in workloads.NAMES:
        assert workloads.plan(name, 5) == workloads.plan(name, 5)
    assert workloads.plan("verdict", 5) != workloads.plan("verdict", 6)
    assert workloads.plan("braids-branch", 5) != workloads.plan("braids-branch", 6)


def test_built_equal_braid_pairs_stay_short():
    pairs = workloads.plan("braids-branch", 1)["pairs"]
    assert len(pairs) == workloads.BRAID_PAIRS
    assert max(max(len(w1), len(w2)) for _, w1, w2, _ in pairs) <= 8


def test_abelian_names_match_the_catalog():
    names = oracles.abelian_names(60)
    assert len(names) == 102
    assert names == [G.name for G in catalog.abelian_catalog(60)]
    assert oracles.abelian_beauville_names(60) == {"C5xC5", "C7xC7"}


def test_structure_oracle_rejects_a_non_structure():
    G = catalog.builtin("EA5x5")
    s = beauville.search(G, stop_at_first=True)[0]
    elements = oracles.closure([g.images for g in G.generators])
    t1 = (s.t1.a.images, s.t1.b.images, s.t1.c.images)
    t2 = (s.t2.a.images, s.t2.b.images, s.t2.c.images)
    assert oracles.structure_problem(elements, t1, t2) is None
    assert "share" in oracles.structure_problem(elements, t1, t1)
    assert "identity" in oracles.triple_problem(elements, (t1[0], t1[1], t1[1]))


def test_moebius_oracle():
    fixed = [Fraction(-6)] + [Fraction(i) for i in range(6)]
    p1 = [Fraction(7)] + fixed
    image = [oracles.apply_moebius((1, 2, 3, -1), z) for z in p1]
    assert oracles.moebius_equivalent(p1, image)
    assert not oracles.moebius_equivalent(p1, [Fraction(17, 3)] + fixed)


def test_bidouble_oracle_matches_the_library_on_a_small_bound():
    chi, ksq = oracles.bidouble_chi(3, 4, 5, 4), 8 * (3 + 5 - 2) * (4 + 4 - 2)
    got = bidouble.enumerate_types(chi, ksq, 12)
    assert [(t.a, t.b, t.c, t.d) for t in got.types] == oracles.bidouble_types(chi, ksq, 12)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
