"""Tests for the repro-demux command-line interface."""

import functools
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            ["tables"],
            ["figures"],
            ["validate"],
            ["simulate"],
            ["hash-balance"],
            ["run-all"],
            ["canary", "fast-cuckoo"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Text-3.1" in out and "MISMATCH" not in out

    def test_figures_single(self, capsys):
        assert main(["figures", "--figure", "4", "--points", "11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_figures_all(self, capsys):
        assert main(["figures", "--points", "7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out and "Figure 14" in out

    def test_validate_small(self, capsys):
        # ~2,400 lookups; much shorter runs leave sampling noise larger
        # than the validation tolerance.
        code = main(
            ["validate", "--users", "100", "--duration", "120",
             "--algorithms", "bsd", "linear"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "bsd" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "--algorithm", "sequent:h=7", "--users", "50",
             "--duration", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tpca/sequent" in out
        assert "H=7" in out

    def test_simulate_think_model(self, capsys):
        code = main(
            ["simulate", "--algorithm", "mtf", "--users", "30",
             "--duration", "20", "--think-model", "deterministic"]
        )
        assert code == 0

    def test_compare_tpca(self, capsys):
        code = main(
            ["compare", "--workload", "tpca", "--users", "100",
             "--algorithms", "bsd", "sequent:h=7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bsd" in out and "sequent:h=7" in out

    @pytest.mark.parametrize(
        "workload", ["trains", "polling", "mixed", "churn"]
    )
    def test_compare_other_workloads(self, workload, capsys):
        code = main(
            ["compare", "--workload", workload, "--users", "60",
             "--algorithms", "sequent:h=7"]
        )
        assert code == 0
        assert "PCBs/pkt" in capsys.readouterr().out

    def test_hash_balance(self, capsys):
        assert main(["hash-balance", "--users", "200", "--chains", "7"]) == 0
        out = capsys.readouterr().out
        assert "crc32" in out and "xor_fold" in out

    def test_run_all(self, tmp_path, capsys):
        code = main(
            ["run-all", "--out", str(tmp_path / "out"), "--no-simulation"]
        )
        assert code == 0
        assert (tmp_path / "out" / "report.md").exists()

    def test_report_no_simulation(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run-all", "--out", str(out), "--no-simulation"]) == 0
        report = (out / "report.md").read_text()
        assert report.startswith("# Reproduction report")

    def test_bad_algorithm_spec_raises(self):
        with pytest.raises(ValueError):
            main(["simulate", "--algorithm", "nonsense"])

    def test_pcap_summary(self, tmp_path, capsys):
        from repro.packet.addresses import FourTuple
        from repro.packet.builder import make_ack, make_data
        from repro.sim.pcap import PcapWriter

        tup = FourTuple.create("10.0.0.1", 80, "10.0.0.2", 40000)
        path = tmp_path / "c.pcap"
        with PcapWriter(path) as writer:
            writer.write(0.0, make_data(tup, b"abc"))
            writer.write(0.1, make_ack(tup.reversed))
        assert main(["pcap", str(path), "--flows"]) == 0
        out = capsys.readouterr().out
        assert "2 packets" in out
        assert "pure acks: 1" in out
        assert "1 flows" in out
        assert "3 payload bytes" in out

    def test_pcap_empty_file(self, tmp_path, capsys):
        from repro.sim.pcap import PcapWriter

        path = tmp_path / "empty.pcap"
        PcapWriter(path).close()
        assert main(["pcap", str(path)]) == 0
        assert "empty capture" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_simulate_trace_out(self, tmp_path, capsys):
        from repro.obs.trace import read_jsonl

        path = tmp_path / "trace.jsonl"
        code = main(
            ["simulate", "--algorithm", "sequent:h=7", "--users", "20",
             "--duration", "10", "--trace-out", str(path)]
        )
        assert code == 0
        assert f"trace written to {path}" in capsys.readouterr().out
        records = read_jsonl(path)
        kinds = {record["kind"] for record in records}
        assert "insert" in kinds and "lookup" in kinds
        assert "sim.event" in kinds
        lookups = [r for r in records if r["kind"] == "lookup"]
        assert all("examined" in r and "time" in r for r in lookups)

    def test_simulate_metrics_out_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "20",
             "--duration", "10", "--metrics-out", str(path)]
        )
        assert code == 0
        snapshot = json.loads(path.read_text())
        assert "demux_lookups_total" in snapshot
        assert "sim_run" in snapshot
        samples = snapshot["demux_lookups_total"]["samples"]
        assert any(s["value"] > 0 for s in samples)

    def test_simulate_metrics_out_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "20",
             "--duration", "10", "--metrics-out", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert "# TYPE demux_lookups_total counter" in text
        assert 'demux_lookups_total{algorithm="bsd",kind="data"}' in text
        assert "demux_examined_bucket" in text
        # Every series renders on the twelve fixed export edges.
        les = [
            line.split('le="')[1].split('"')[0]
            for line in text.splitlines()
            if line.startswith("demux_examined_bucket")
        ]
        twelve = ["1", "2", "4", "8", "16", "32", "64", "128", "256",
                  "512", "1024", "+Inf"]
        assert les and les == twelve * (len(les) // len(twelve))

    def test_simulate_profile(self, capsys):
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "20",
             "--duration", "10", "--profile", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "(1/8)" in out

    def test_trace_does_not_change_results(self, tmp_path, capsys):
        base_args = ["simulate", "--algorithm", "sequent:h=7",
                     "--users", "30", "--duration", "15", "--seed", "3"]
        assert main(base_args) == 0
        bare = capsys.readouterr().out.splitlines()[0]
        assert main(
            base_args + ["--trace-out", str(tmp_path / "t.jsonl"),
                         "--profile"]
        ) == 0
        instrumented = capsys.readouterr().out.splitlines()[0]
        assert instrumented == bare

    def test_seeded_span_and_trace_dumps_are_byte_identical(self, tmp_path):
        dumps = []
        for run in ("a", "b"):
            spans, trace = tmp_path / f"{run}.spans", tmp_path / f"{run}.trace"
            assert main(
                ["simulate", "--algorithm", "fast-sequent:h=19",
                 "--users", "30", "--duration", "15", "--seed", "5",
                 "--idle-timeout", "10", "--sketch",
                 "--spans-out", str(spans), "--trace-out", str(trace)]
            ) == 0
            dumps.append((spans.read_bytes(), trace.read_bytes()))
        assert dumps[0][0] and dumps[0][1]
        assert b'"reap"' in dumps[0][0]
        assert dumps[0] == dumps[1]

    def test_simulate_fast_spec_exports_fastpath_metrics(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["simulate", "--algorithm", "fast-sequent:h=7", "--users", "20",
             "--duration", "10", "--metrics-out", str(path)]
        )
        assert code == 0
        snapshot = json.loads(path.read_text())
        assert "fastpath_counters" in snapshot
        samples = snapshot["fastpath_counters"]["samples"]
        interned = [
            s for s in samples if s["labels"]["counter"] == "interned_keys"
        ]
        assert interned and interned[0]["value"] > 0

    def test_simulate_fast_matches_reference_output(self, capsys):
        base = ["simulate", "--users", "30", "--duration", "15",
                "--seed", "3"]
        assert main(base + ["--algorithm", "sequent:h=7"]) == 0
        reference = capsys.readouterr().out
        assert main(base + ["--algorithm", "fast-sequent:h=7"]) == 0
        fast = capsys.readouterr().out
        # Identical decisions => identical simulation report, modulo
        # the algorithm's display name.
        assert fast.replace("fast-sequent", "sequent") == reference


class TestLifecycleFlags:
    def test_simulate_with_idle_timeout_prints_reaper_line(self, capsys):
        code = main(
            ["simulate", "--algorithm", "fast-sequent:h=7", "--users", "20",
             "--duration", "30", "--idle-timeout", "60",
             "--time-wait", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "reaped:" in out
        assert "leak-audit" in out

    def test_reaper_flow_output_is_pinned(self, capsys):
        """The reaper's timer decisions, end to end: reordering or early
        expiries would move these counts."""
        code = main(
            ["simulate", "--algorithm", "fast-sequent:h=19", "--users", "80",
             "--duration", "40", "--seed", "3", "--idle-timeout", "20",
             "--time-wait", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert (
            "  reaped: idle=53 time-wait=0 spurious-wakeups=140 timers=220\n"
            in out
        )
        assert "  transactions: 163," in out

    def test_idle_timeout_implies_full_stack(self):
        parser = build_parser()
        args = parser.parse_args(
            ["simulate", "--idle-timeout", "60"]
        )
        assert args.idle_timeout == 60.0
        assert args.time_wait is None

    def test_simulate_metrics_include_lifecycle_gauges(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["simulate", "--algorithm", "fast-mtf", "--users", "20",
             "--duration", "30", "--idle-timeout", "120",
             "--metrics-out", str(path)]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert "lifecycle_reaper" in data
        assert "lifecycle_retention" in data

    @pytest.mark.parametrize(
        "bound",
        [["--max-connections", "5"],
         ["--max-connections", "5", "--overflow-policy", "reject-new"]],
    )
    def test_table_bound_implies_full_stack(self, bound, capsys):
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "50",
             "--duration", "10", *bound]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.startswith("tpca-fullstack/bsd")
        drops = out.split("table-full=", 1)[1].split(",", 1)[0]
        assert int(drops) > 0


class TestLeakAuditCommand:
    def test_parser_knows_leak_audit(self):
        args = build_parser().parse_args(["leak-audit"])
        assert args.command == "leak-audit"
        assert args.seeds == [1]
        assert args.grace == 0

    def test_leak_audit_runs_clean(self, capsys):
        code = main(
            ["leak-audit", "--algorithms", "fast-sequent:h=7",
             "--steps", "600", "--seeds", "3", "--skip-flood"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "OK" in out
        assert "FAIL" not in out

    def test_leak_audit_with_flood(self, capsys):
        code = main(
            ["leak-audit", "--algorithms", "fast-mtf",
             "--steps", "400", "--seeds", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "syn-flood" in out


class TestRecoveryFlags:
    def test_parser_knows_recovery_drill(self):
        args = build_parser().parse_args(["recovery-drill"])
        assert args.command == "recovery-drill"
        assert args.out == "results"
        # Options not given stay unset, so DrillConfig's defaults apply.
        assert not {"algorithms", "seeds"} & set(vars(args))

    def test_simulate_seeded_crashes_recover(self, capsys):
        code = main(
            ["simulate", "--algorithm", "sharded-fast-mtf:shards=4",
             "--users", "120", "--duration", "20",
             "--checkpoint-every", "200", "--faults", "crash=2:300"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "recovery: crashes=2" in out
        assert "recoveries=2" in out
        assert "shards still dead" not in out

    def test_supervised_fast_run_exports_shard_counters(
        self, tmp_path, capsys
    ):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["simulate", "--algorithm", "sharded-fast-sequent:shards=4,h=19",
             "--users", "50", "--duration", "10", "--seed", "5",
             "--checkpoint-every", "500", "--idle-timeout", "30",
             "--metrics-out", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "interned=n/a" not in out
        data = json.loads(path.read_text())
        shards = {
            sample["labels"]["shard"]
            for sample in data["fastpath_shard_counters"]["samples"]
        }
        assert shards == {"0", "1", "2", "3"}
        populations = {
            sample["labels"]["population"]
            for sample in data["lifecycle_retention"]["samples"]
        }
        assert populations == {"live_pcbs", "interned_keys"}

    def test_simulate_crashes_without_checkpoints_rebuild_cold(self, capsys):
        # No checkpoints: both recoveries must fall to a cold rebuild.
        code = main(
            ["simulate", "--algorithm", "sharded-mtf:shards=4",
             "--users", "120", "--duration", "20",
             "--faults", "crash=2:300"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "crashes=2" in out and "cold=2" in out

    def test_crash_shards_requires_sharded_algorithm(self, capsys):
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "20",
             "--duration", "10", "--faults", "crash=1:100"]
        )
        assert code == 2
        assert "sharded" in capsys.readouterr().err

    def test_rr_steering_with_crashes_is_a_clean_error(self, capsys):
        # Round-robin has no home shard per flow, so supervision is
        # refused -- as a friendly exit-2 error, not a traceback.
        code = main(
            ["simulate", "--algorithm", "sharded-mtf:shards=4,steer=rr",
             "--users", "20", "--duration", "10",
             "--faults", "crash=1:100"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "flow-stable" in err

    def test_detect_after_without_supervisor_warns(self, capsys):
        code = main(
            ["simulate", "--algorithm", "sharded-mtf:shards=2",
             "--users", "20", "--duration", "10",
             "--detect-after", "5"]
        )
        assert code == 0
        assert "--detect-after" in capsys.readouterr().err

    def test_infra_fault_term_in_faults_spec(self, capsys):
        code = main(
            ["simulate", "--algorithm", "sharded-fast-mtf:shards=4",
             "--users", "120", "--duration", "20",
             "--checkpoint-every", "200", "--faults", "crash=1:300"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "recovery: crashes=1" in out

    def test_slo_flag_tightens_health_verdict(self, capsys):
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "50",
             "--duration", "15", "--slo", "p99=1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "health=failing" in out

    def test_slo_flag_default_budgets_healthy(self, capsys):
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "50",
             "--duration", "15", "--slo", "p99=500,drop=0.9"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "health=ok" in out

    def test_bad_slo_spec_is_a_clean_error(self, capsys):
        code = main(
            ["simulate", "--algorithm", "bsd", "--users", "20",
             "--duration", "10", "--slo", "latency=5"]
        )
        assert code == 2
        assert "--slo" in capsys.readouterr().err

    def test_recovery_drill_writes_artifacts(self, tmp_path, capsys):
        import json

        code = main(
            ["recovery-drill", "--algorithms", "sharded-fast-mtf:shards=4",
             "--seeds", "1", "--users", "120", "--packets", "3000",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out
        text = (tmp_path / "recovery_drill.txt").read_text()
        assert "warm restore vs cold rebuild" in text
        report = json.loads((tmp_path / "recovery_drill.json").read_text())
        assert report["ok"] is True
        assert report["mttr_ms_max"] > 0
        cell = report["cells"][0]
        assert cell["warm_divergence"] == 0
        assert cell["cold_penalty"] > 1.0


class TestLibraryDefaults:
    """A bare invocation passes the library's own defaults: the CLI
    restates none of them, so the two cannot drift apart."""

    def test_smp_sweep(self, monkeypatch, capsys):
        from repro.smp import sweep

        seen = []

        def fake_sweep(config, progress=None):
            seen.append(config)
            return SimpleNamespace(render_text=str, ok=True)

        monkeypatch.setattr(sweep, "run_smp_sweep", fake_sweep)
        assert main(["smp-sweep"]) == 0
        assert seen == [sweep.SMPSweepConfig()]

    def test_recovery_drill(self, monkeypatch, tmp_path, capsys):
        import repro.recovery as recovery

        seen = []

        def fake_drill(config):
            seen.append(config)
            return SimpleNamespace(render_text=str, to_json=dict, ok=True)

        monkeypatch.setattr(recovery, "run_recovery_drill", fake_drill)
        assert main(["recovery-drill", "--out", str(tmp_path)]) == 0
        assert seen == [recovery.DrillConfig()]

    def test_canary(self, monkeypatch, capsys):
        from repro.fastpath import gate
        from repro.workload import record

        seen = []

        def fake_canary(stream, config, progress=None):
            seen.append(config)
            return SimpleNamespace(render_text=str, promoted=True)

        monkeypatch.setattr(record, "record_tpca_stream", dict)
        monkeypatch.setattr(gate, "run_canary", fake_canary)
        assert main(["canary", "fast-cuckoo"]) == 0
        assert seen == [gate.CanaryConfig(candidate="fast-cuckoo")]

    def test_serve(self, monkeypatch, capsys):
        import repro.serve as serve

        seen = []

        async def fake_drive(config, load, **kwargs):
            seen.append((config, load))
            return SimpleNamespace(render_text=str, ok=True)

        monkeypatch.setattr(serve, "run_self_drive", fake_drive)
        assert main(["serve"]) == 0
        assert seen == [(serve.ServeConfig(), serve.LoadConfig())]

    def test_fault_matrix(self, monkeypatch, capsys):
        from repro.faults import matrix

        seen = []

        # wraps() keeps run_fault_matrix's signature, which the CLI
        # reads to decide which options to pass.
        @functools.wraps(matrix.run_fault_matrix)
        def fake_matrix(**kwargs):
            seen.append(sorted(kwargs))
            return SimpleNamespace(render_text=str, cells=[], ok=True)

        monkeypatch.setattr(matrix, "run_fault_matrix", fake_matrix)
        assert main(["fault-matrix"]) == 0
        assert seen == [["progress"]]
