"""Smoke test of the benchmark: deterministic facts only, no timing verdicts.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    PYTHONPATH=src python -m pytest bench/tests -q

The whole module takes about a minute and a half.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
import spec  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two ``--quick --seed 7`` runs: (stdout, metrics, trace records)."""
    runs = []
    for label in ("first", "second"):
        out = tmp_path_factory.mktemp(label)
        proc = subprocess.run(
            RUN + ["--seed", "7", "--quick", "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        with open(out / "metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        with open(out / "trace.jsonl", encoding="utf-8") as fh:
            trace = [json.loads(line) for line in fh]
        runs.append((proc.stdout, metrics, trace))
    return runs


def test_every_metric_is_printed_with_its_unit(quick_runs):
    stdout, metrics, _ = quick_runs[0]
    document = _benchmark_json()
    lines = stdout.splitlines()
    for workload in spec.ALL_WORKLOADS:
        entry = metrics["workloads"][workload]
        for metric in document["end_to_end"]:
            assert entry["e2e"][metric["name"]]["unit"] == metric["unit"]
        for metric in document["per_layer"]:
            assert metric["name"] in entry["layers"]
    for metric in document["end_to_end"] + document["per_layer"]:
        printed = [
            line for line in lines
            if line.split()[:1] == [metric["name"]]
        ]
        assert len(printed) == len(spec.ALL_WORKLOADS), metric["name"]
        assert all(metric["unit"] in line.split() for line in printed)
    for metric in spec.SERVE_E2E:
        serve = metrics["workloads"]["serve-loopback"]["e2e"]
        assert serve[metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] for line in lines)


def test_no_operation_fails(quick_runs):
    for _, metrics, _ in quick_runs:
        for entry in metrics["workloads"].values():
            assert entry["failed"] == 0
            assert entry["error_rate"] == 0
            assert entry["attempted"] > 0


def test_spans_nest_with_non_negative_self_time(quick_runs):
    _, _, trace = quick_runs[0]
    by_id = {record["id"]: record for record in trace}
    children = {}
    for record in trace:
        parent = record["parent"]
        assert parent is None or parent in by_id, record
        assert record["end_ns"] >= record["start_ns"]
        if parent is not None:
            children.setdefault(parent, []).append(record)
    for span_id, kids in children.items():
        parent = by_id[span_id]
        covered = sum(kid["end_ns"] - kid["start_ns"] for kid in kids)
        assert parent["end_ns"] - parent["start_ns"] - covered >= 0
        for kid in kids:
            assert parent["start_ns"] <= kid["start_ns"]
            assert kid["end_ns"] <= parent["end_ns"]


def test_same_seed_repeats_examined_counts(quick_runs):
    first, second = (run[1]["workloads"] for run in quick_runs)
    for workload, entry in first.items():
        for name, value in entry["layers"].items():
            if name.startswith(("examined.", "cache_hit_rate", "cuckoo.",
                                "intern.hit_ratio", "batch.")):
                assert second[workload]["layers"][name] == value, name


def test_one_workload_prints_one_result_line():
    document = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            RUN + ["--workload", "tpca-hot", "--seed", "3",
                   "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in document[key]}


def test_refused_connections_are_reported_as_failed(monkeypatch, capsys):
    spec.use_checkout_src()
    import harness
    import run

    closed = socket.socket()
    closed.bind(("127.0.0.1", 0))
    port = closed.getsockname()[1]
    closed.close()
    prepare = harness.ServeWorkload.prepare

    def prepare_then_misdirect(self):
        prepare(self)
        self.server.ports = {config: port for config in self.server.ports}

    monkeypatch.setattr(harness.ServeWorkload, "prepare", prepare_then_misdirect)
    code = run.main(["--workload", "serve-loopback", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_throughput_is_corrected_by_the_host_factor():
    spec.use_checkout_src()
    import harness
    from workloads import CellResult

    unit = harness.REFERENCE_NS
    reference = [
        CellResult(2, 0.0, [unit, 3 * unit], 0),
        CellResult(2, 0.0, [2 * unit, 2 * unit], 0),
    ]
    assert harness.host_factor(reference) == 1.5
    assert harness.round_factors(reference) == [2.0, 2.0]
    cells = {
        config: [CellResult(4, 4e-6, [1000, 1000, 1000, 1000], 0)] * 2
        for config in spec.CONFIGS
    }
    e2e = harness.e2e_metrics(cells, [1.0, 3.0], 0, 1, reference)
    assert e2e["pps.sequent"]["raw"] == pytest.approx(1e6)
    assert e2e["pps.sequent"]["value"] == pytest.approx(1.5e6)
    assert e2e["setup_s"]["raw"] == 2.0
    assert e2e["setup_s"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tpca-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- compare.py verdicts on synthetic runs ------------------------------


def _run(pps: float, host: str = "h") -> dict:
    return {
        "host": {"cpu": host},
        "workloads": {
            "w": {
                "params": {},
                "failed": 0,
                "e2e": {"pps": {"value": pps}},
            }
        },
    }


METRIC = [{"name": "pps", "unit": "ops/s", "better": "higher", "bound": 0.1}]


def _verdict(parent, change):
    table = compare.compare(
        [_run(v) for v in parent], [_run(v) for v in change], METRIC
    )
    return table["w"]["pps"]["verdict"]


def test_compare_verdicts():
    steady = [100.0 + i % 3 for i in range(10)]
    assert _verdict(steady, [v * 1.2 for v in steady]) == "improved"
    assert _verdict(steady, [v * 0.8 for v in steady]) == "regressed"
    assert _verdict(steady, [v * 0.97 for v in steady]) == "within-bound"
    noisy = [60.0, 140.0] * 5
    assert _verdict(noisy, noisy) == "unresolved"
    assert _verdict(steady[:3], [v * 1.2 for v in steady[:3]]) == "within-bound"


def test_compare_refuses_mixed_hosts():
    assert compare.refusal([_run(1.0, "a")], [_run(1.0, "b")])
    assert not compare.refusal([_run(1.0)], [_run(1.0)])
