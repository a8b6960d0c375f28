"""Quick checks of the benchmark itself, on tiny populations.

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import multiprocessing.context
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = replace(
    workloads.FULL,
    census_size=5, census_counts={1: 1, 2: 1, 3: 2, 4: 5, 5: 16},
    hom_size=3, hom_chainmails=7, hom_lattices=3, hom_total=39,
    suite_size=3,
    suite_checked={"connectivity-conditions": 3, "local-connectivity": 3,
                   "unit-counit": 10, "adjunction": 35,
                   "pairwise-criterion": 8},
    posets_size=4, poset_counts={1: 1, 2: 2, 3: 5, 4: 16},
    catalog_size=4, catalog_files=9,
    catalog_sha256=("260baa8d222f942bc90cb4939e6154db"
                    "32239dff0250ba4b3eacfd75a813822c"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, pops=TINY, seed=3):
    out = io.StringIO()
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)], pops, out)
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metric_names_match_benchmark_json(workload):
    code, result = bench(workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0

    code, result = bench(workload, 1)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_traced_self_times_sum_to_traced_wall():
    code, result = bench("hom-bijection", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    gap = m["tracing.wall_s"] - m["tracing.layers_self_s"]
    assert gap == pytest.approx(m["tracing.harness_self_s"], abs=1e-6)
    assert m["category.hom_keep_ratio"] > 0
    assert m["verify.check_p98_ms"] >= m["verify.check_p50_ms"] > 0


@pytest.mark.parametrize("workload,field,corrupt", [
    ("census8", "census_counts", {1: 1, 2: 1, 3: 2, 4: 5, 5: 17}),
    ("hom-bijection", "hom_total", 40),
    ("verify-catalog", "catalog_sha256", "0" * 64),
])
def test_gate_fails_on_a_corrupted_invariant(workload, field, corrupt):
    code, result = bench(workload, 0, replace(TINY, **{field: corrupt}))
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def test_parallel_census_never_exceeds_cpu_count(monkeypatch):
    started = []
    real_pool = multiprocessing.context.ForkContext.Pool

    def recording_pool(self, processes=None, *args, **kwargs):
        started.append(processes)
        return real_pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.ForkContext, "Pool",
                        recording_pool)
    code, _ = bench("census8-jobs2", 0)
    assert code == 0
    assert all(n <= os.cpu_count() for n in started)
    assert started or os.cpu_count() == 1
    assert workloads.census_jobs(10 ** 6) == os.cpu_count()
    assert workloads.census_jobs(2) <= 2


def test_seed_only_permutes_the_visit_order():
    wl = workloads.WORKLOADS["hom-bijection"]
    a = wl.setup(TINY, random.Random(1), None)["pairs"]
    b = wl.setup(TINY, random.Random(2), None)["pairs"]
    assert a != b
    key = sorted((g.poset.above, lat.poset.above) for g, lat in a)
    assert key == sorted((g.poset.above, lat.poset.above) for g, lat in b)


def test_missing_source_exits_without_a_result(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "census8"]) == 2
    assert capsys.readouterr().out == ""


def test_unknown_workload_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        run.main(["--workload", "nope"])
    assert e.value.code == 3
