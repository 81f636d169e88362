"""Self-test of the benchmark harness at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_runs_and_passes_its_checks(name, tmp_path):
    result, report = run.timed_run(WORKLOADS[name], SEED, 0, tmp_path, "tiny", min_passes=1)
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(report["passes"][0]["commands"])
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def one_pass(name, tmp_path):
    workload = WORKLOADS[name]
    inputs, _ = run.setup_inputs(workload, SEED, tmp_path / "inputs", "tiny")
    out = tmp_path / "pass0"
    return workload, inputs, run.run_pass(workload, inputs, out), out


def test_a_perturbed_metric_value_is_counted_as_failed(tmp_path):
    workload, inputs, pas, out = one_pass("stream-metrics", tmp_path)
    report = out / "stream1.json"
    data = json.loads(report.read_text(encoding="utf-8"))
    data["slope"] *= 1 + 1e-7
    report.write_text(json.dumps(data), encoding="utf-8")
    checker = run.Checker(workload, inputs)
    checker.check(0, pas, out)
    assert len(checker.failures) == 1 and "slope" in checker.failures[0]


def test_a_corrupted_token_line_is_counted_as_failed(tmp_path):
    workload, inputs, pas, out = one_pass("bpe-encode", tmp_path)
    tokens = out / "corpus0.tok"
    lines = tokens.read_text(encoding="utf-8").split("\n")
    ids = lines[5].split()
    lines[5] = " ".join(ids[1:] + ids[:1])
    tokens.write_text("\n".join(lines), encoding="utf-8")
    checker = run.Checker(workload, inputs)
    checker.check(0, pas, out)
    assert checker.failures == ["pass 0 encode corpus0: line 5: decodes to a different text than document 5"]
    # A later pass that differs from the first pass is also a failure.
    again = run.run_pass(workload, inputs, tmp_path / "pass1")
    (tmp_path / "pass1" / "corpus1.tok").write_text("# header\n", encoding="utf-8")
    checker.check(1, again, tmp_path / "pass1")
    assert len(checker.failures) == 3


def test_a_failing_command_is_counted_as_failed(tmp_path):
    workload, inputs, _, out = one_pass("stream-metrics", tmp_path)
    inputs.items[0].path.write_text("1 2 -3\n", encoding="utf-8")
    pas = run.run_pass(workload, inputs, out)
    checker = run.Checker(workload, inputs)
    checker.check(0, pas, out)
    assert len(checker.failures) == 1 and "exit code 1" in checker.failures[0]
    checker.check(1, run.run_pass(workload, inputs, out), out)
    assert len(checker.failures) == 2 and checker.failures[1].startswith("pass 1 metrics stream0: exit code 1")


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    result, report = run.traced_run(WORKLOADS["stream-metrics"], SEED, tmp_path / "work", "tiny",
                                    tmp_path, "selftest")
    assert report["failures"] == []
    assert result["correct"]
    assert list(result["metrics"]) == list(run.PER_LAYER)
    assert result["metrics"]["bpe.memo_hit_ratio"]["value"] > 0.5
    assert result["metrics"]["predictor.examples"]["value"] == 60
    for name in WORKLOADS:
        tree = report["trace"][name]["tree"]
        assert tree and all(node["self_s"] <= node["total_s"] + 1e-9 for node in tree)
        assert (tmp_path / f"selftest-spans-{name}.jsonl.gz").is_file()
