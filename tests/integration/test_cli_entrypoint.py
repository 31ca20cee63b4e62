"""Integration: the installed ``repro-demux`` console script.

Runs the CLI as a subprocess (the way a user will), covering the
argument wiring, exit codes, and that stdout carries the goods.
"""

import subprocess
import sys

import pytest


def run_cli(*args, timeout=180):
    """Invoke the CLI via ``python -m repro.cli`` (same entry point)."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestConsoleScript:
    def test_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for command in ("tables", "figures", "validate", "simulate",
                        "compare", "hash-balance", "run-all"):
            assert command in proc.stdout

    def test_entry_points_import_no_scipy(self):
        # scipy is for the analytic quadratures alone; loading it at
        # import would slow every CLI call and every serve start.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.fastpath, repro.cli, repro.serve;"
             " print(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_tables_exit_zero_and_clean(self):
        proc = run_cli("tables")
        assert proc.returncode == 0
        assert "MISMATCH" not in proc.stdout
        assert "Text-3.4" in proc.stdout

    def test_figures_single(self):
        proc = run_cli("figures", "--figure", "14", "--points", "11")
        assert proc.returncode == 0
        assert "Figure 14" in proc.stdout

    def test_simulate_roundtrip(self):
        proc = run_cli(
            "simulate", "--algorithm", "bsd", "--users", "50",
            "--duration", "20",
        )
        assert proc.returncode == 0
        assert "tpca/bsd" in proc.stdout

    def test_unknown_command_fails(self):
        proc = run_cli("frobnicate")
        assert proc.returncode != 0

    def test_run_all_writes_artifacts(self, tmp_path):
        outdir = tmp_path / "artifacts"
        proc = run_cli(
            "run-all", "--out", str(outdir), "--no-simulation",
        )
        assert proc.returncode == 0
        assert (outdir / "report.md").exists()
        assert (outdir / "figure13.csv").exists()

    @pytest.mark.skipif(
        subprocess.run(
            ["which", "repro-demux"], capture_output=True
        ).returncode != 0,
        reason="console script not on PATH (not installed)",
    )
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["repro-demux", "figures", "--figure", "4", "--points", "5"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "Figure 4" in proc.stdout
