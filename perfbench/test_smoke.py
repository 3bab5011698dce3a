"""Smoke test of the benchmark on a one-job list per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Asserts that every metric in BENCHMARK.json is printed by name with its
unit, that the outputs check out (traced stdout included), and that the
benchmark refuses to report without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--limit", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(ln.startswith(f"{m['name']} = ") and f" {m['unit']}" in ln
                   for ln in lines), m["name"]
    assert any(ln.startswith("fail_frac = 0.0 ratio") for ln in lines)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def test_every_catalog_variant_has_a_reference():
    refs = catalog.load()
    for slots in catalog.SLOTS.values():
        for _, variants in slots:
            for argv in variants:
                assert catalog.key(argv) in refs


def test_job_list_is_seeded():
    for workload in catalog.WORKLOADS:
        assert catalog.job_list(workload, 7) == catalog.job_list(workload, 7)
        assert len(catalog.job_list(workload, 7)) == len(catalog.SLOTS[workload])


def test_self_time_subtracts_the_union_of_children():
    totals = layers.LayerTotals()
    totals.add_job({
        "spans": [
            [1, 0, "saddle.solve_saddle", 0.0, 4.0, False],
            [2, 1, "saddle.F_partial", 1.0, 2.0, False],
            [3, 0, "saddle.F_partial", 2.5, 3.5, True],
            [4, 0, "saddle.F_partial", 3.0, 3.6, False],
            [0, -1, "cli.main", 0.0, 10.0, False],
        ],
        "counts": {"packed_adds": 0, "coeff_bits": 0},
    })
    assert totals.self_s["cli.main"] == pytest.approx(10.0 - 4.0)
    assert totals.self_s["saddle.solve_saddle"] == pytest.approx(3.0)
    values = totals.values()
    assert values["saddle.F_partial.calls_per_solve"] == 1.0
    assert values["saddle.raised"] == 1


def test_tail_percentile_leaves_ten_jobs_beyond():
    q, value, beyond = run.tail([float(i) for i in range(100)])
    assert (q, beyond) == (90, 10)
    assert value == pytest.approx(89.5, abs=1e-6)


def test_quantile_is_harrell_davis():
    assert run.quantile([5.0], 0.5) == pytest.approx(5.0)
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    # symmetric weights for the median; the estimate moves smoothly with p
    assert run.quantile([1.0, 2.0], 0.5) == pytest.approx(1.5)
    xs = [1.0, 1.1, 1.2, 3.0, 3.1, 3.2]
    assert 1.2 < run.quantile(xs, 0.5) < 3.0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "asymptotic", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
