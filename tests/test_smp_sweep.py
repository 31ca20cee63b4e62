"""Tests for the smp-sweep experiment and its CLI front-end."""

import json

import pytest

from repro.cli import main
from repro.smp import SMPSweepConfig, run_smp_sweep, write_sweep_artifacts
from repro.smp.sweep import _cell_grid, _cell_name

SMALL = SMPSweepConfig(
    algorithms=("sequent:h=7",),
    n_connections=40,
    duration=6.0,
    shard_counts=(1, 2),
    steerings=("hash", "rr"),
    batch_sizes=(1, 16),
    seeds=(3,),
)


@pytest.fixture(scope="module")
def small_result():
    return run_smp_sweep(SMALL)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithms": ()},
            {"n_connections": 0},
            {"duration": 0.0},
            {"shard_counts": ()},
            {"shard_counts": (0,)},
            {"batch_sizes": (0,)},
            {"seeds": ()},
            {"jobs": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SMPSweepConfig(**kwargs)

    def test_grid_covers_baselines_and_cells(self):
        grid = _cell_grid(SMALL)
        # 2 baselines + 2 shards * 2 steerings * 2 batches per (seed, algo).
        assert len(grid) == 10
        baselines = [cell for cell in grid if cell["nshards"] == 0]
        assert len(baselines) == 2
        names = [_cell_name(cell) for cell in grid]
        assert len(set(names)) == len(names)


class TestSweepResult:
    def test_every_cell_ran(self, small_result):
        assert len(small_result.cells) == 10
        assert all(cell["packets"] > 0 for cell in small_result.cells)

    def test_cell_selector(self, small_result):
        cell = small_result.cell(nshards=0, batch_size=1)
        assert cell["steering"] == "none"
        with pytest.raises(KeyError):
            small_result.cell(nshards=99)
        with pytest.raises(KeyError):
            small_result.cell(batch_size=1)  # ambiguous

    def test_sharding_reduces_examined(self, small_result):
        base = small_result.cell(nshards=0, batch_size=1)
        two = small_result.cell(nshards=2, steering="hash", batch_size=1)
        assert two["mean_examined"] < base["mean_examined"]

    def test_migrations_only_under_rr(self, small_result):
        for cell in small_result.cells:
            if cell["steering"] == "rr" and cell["nshards"] > 1:
                assert cell["migrations"] > 0
            else:
                assert cell["migrations"] == 0

    def test_criteria_structure(self, small_result):
        criteria = small_result.criteria()
        assert set(criteria) == {
            "imbalance_hash_top_shards",
            "cost_monotone_in_shards_hash",
            "coalescing_strictly_reduces_examined",
        }
        assert all(
            "ok" in check for checks in criteria.values() for check in checks
        )
        assert small_result.ok

    def test_render_text(self, small_result):
        text = small_result.render_text()
        assert "SMP sweep" in text
        assert "criterion imbalance_hash_top_shards: ok" in text

    def test_to_json_parses(self, small_result):
        payload = json.loads(small_result.to_json())
        assert payload["benchmark"] == "smp_sweep"
        assert payload["ok"] is True
        assert len(payload["cells"]) == 10
        assert payload["config"]["n_connections"] == 40

    def test_jobs_do_not_change_artifacts(self, small_result):
        """--jobs 1 and --jobs 4 serialize byte-identically (fixed seed)."""
        parallel = run_smp_sweep(
            SMPSweepConfig(
                **{**SMALL.__dict__, "jobs": 4}
            )
        )
        assert parallel.to_json() == small_result.to_json()
        assert parallel.render_text() == small_result.render_text()

    def test_artifacts_written(self, small_result, tmp_path):
        outdir = write_sweep_artifacts(small_result, tmp_path / "results")
        assert sorted(path.name for path in outdir.iterdir()) == [
            "smp_sweep.json", "smp_sweep.txt"
        ]
        assert (outdir / "smp_sweep.txt").read_text().startswith("SMP sweep")
        sweep = json.loads((outdir / "smp_sweep.json").read_text())
        assert sweep == json.loads(small_result.to_json())


class TestCLI:
    ARGS = [
        "smp-sweep",
        "--algorithms", "sequent:h=7",
        "--users", "40",
        "--duration", "6",
        "--shards", "1", "2",
        "--steerings", "hash",
        "--batch-sizes", "1", "16",
        "--seeds", "3",
    ]

    def test_smp_sweep_stdout(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "SMP sweep" in out
        assert "criterion" in out

    def test_smp_sweep_writes_artifacts(self, tmp_path, capsys):
        code = main(self.ARGS + ["--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "smp_sweep.txt").exists()
        payload = json.loads((tmp_path / "r" / "smp_sweep.json").read_text())
        assert payload["ok"] is True
