"""Self-tests of the benchmark at tiny scale.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_workload_definitions():
    import workloads

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _, _ in workloads.LAYER_METRICS
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["wide_vocab", "many_docs", "trials"])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_termflow_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("trials", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run

    return run


def test_swapped_donor_in_migrate_artifact_raises_error_rate(bench, monkeypatch):
    from termflow import cli

    real_main = cli.main

    def swap_donor(argv):
        code = real_main(argv)
        if argv[0] == "migrate":
            out = argv[argv.index("--out") + 1]
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
            report["donor"], report["borrowers"][0] = report["borrowers"][0], report["donor"]
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(report, handle)
        return code

    monkeypatch.setattr(cli, "main", swap_donor)
    out = bench.run("many_docs", 3, 0, trace=False, tiny=True)
    assert out["result"]["failed"] == 1 and not out["result"]["correct"]
    assert out["report"]["error_rate"] == pytest.approx(1 / 7)
    assert "donor" in out["report"]["errors"][0]


def test_swapped_donor_in_trial_raises_error_rate(bench, monkeypatch):
    from termflow import migration

    real_classify = migration.classify_roles

    def swap_donor(series, **kwargs):
        report = real_classify(series, **kwargs)
        return dataclasses.replace(report, donor=report.borrowers[0][0])

    monkeypatch.setattr(migration, "classify_roles", swap_donor)
    out = bench.run("trials", 3, 0, trace=False, tiny=True)
    assert out["result"]["failed"] == out["result"]["attempted"] >= 1
    assert out["report"]["error_rate"] == 1.0


def test_pass_times_scale_by_the_mean_probe_of_their_pass(bench):
    import hostspeed
    import sessions

    ref = hostspeed.REFERENCE_S
    fast, slow = (ref / 2, ref / 2), (ref, ref)  # probe parts summing to ref and 2 * ref
    ops = [sessions.Op("a", 1.0, probes=(fast, slow)), sessions.Op("b", 1.0, probes=(slow, slow))]
    # Probes taken in the pass: ref, 2 ref, 2 ref; mean 5/3 ref.
    assert bench._pass_scale(ops) == pytest.approx(3 / 5)
