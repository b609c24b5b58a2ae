"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/selftest.py

Not named test_*.py, so the repository's own `pytest` run leaves it out.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import tail  # noqa: E402
from tracing import _union_seconds  # noqa: E402
from workloads import TAIL_BEYOND, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SECONDS = "0.2"

# every metric the benchmark promises to print, with its unit
PRINTED_END_TO_END = {
    "setup_s": "s", "trials_per_s": "1/s", "estimate_p50_ms": "ms",
    "estimate_tail_ms": "ms", "failed_frac": "ratio", "recovery_ratio": "ratio",
    "mean_rmse": "p.u.", "peak_rss_mb": "MB",
}
PRINTED_PER_LAYER = {
    "cli.import_s": "s",
    "network.load_network_ms": "ms",
    "network.build_impedance_model_ms": "ms",
    "sensing.greedy_place_sensors_s": "s",
    "sensing.greedy_round_ms": "ms",
    "sensing.plan_coherence": "ratio",
    "sensing.random_place_sensors_calls": "count",
    "sensing.random_place_sensors_ms": "ms",
    "recon.solve_bpdn.eps0_calls": "count",
    "recon.solve_bpdn.eps0_ms": "ms",
    "recon.solve_bpdn.epspos_calls": "count",
    "recon.solve_bpdn.epspos_ms": "ms",
    "recon.solve_bpdn.iterations_sum": "count",
    "recon.solve_bpdn.iterations_max": "count",
    "recon.nonconverged": "count",
    "recon.min_energy_calls": "count",
    "recon.min_energy_ms": "ms",
    "harness.sample_sparse_state_ms": "ms",
    "harness.simulate_measurements_ms": "ms",
    "harness.add_noise_ms": "ms",
    "harness.run_trial.self_ms": "ms",
    "harness.run_benchmark.self_s": "s",
    "harness.trials": "count",
    "trace.overhead_frac": "ratio",
}


def _bench(workload, trace, out, bench_dir=BENCH, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", TINY_SECONDS, "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=900, cwd=cwd,
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    """Both modes of one workload: {trace: (completed process, --out result)}."""
    tmp = tmp_path_factory.mktemp(request.param)
    out = {}
    for trace in (0, 1):
        proc = _bench(request.param, trace, tmp / f"trace{trace}.json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads((tmp / f"trace{trace}.json").read_text(encoding="utf-8"))
        out[trace] = (proc, result[request.param])
    return out


def test_last_line_has_the_benchmark_json_metrics(runs):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        last = json.loads(runs[trace][0].stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert last["attempted"] >= 1 and last["failed"] >= 0
        assert [m["name"] for m in SPEC[section]] == list(last["metrics"])
        for m in SPEC[section]:
            got = last["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


def test_every_metric_is_printed_with_its_unit(runs):
    for trace, names in ((0, PRINTED_END_TO_END), (1, PRINTED_PER_LAYER)):
        stdout = runs[trace][0].stdout
        for name, unit in names.items():
            pattern = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)"
            assert re.search(pattern, stdout, re.M), f"{name} [{unit}] not printed"


def test_tail_leaves_ten_samples_beyond(runs):
    result = runs[0][1]
    samples = result["tail"]["samples"]
    at_or_below = round(result["tail"]["percentile"] * samples / 100.0)
    assert samples - at_or_below >= TAIL_BEYOND
    assert samples > TAIL_BEYOND


def test_tracing_leaves_the_campaign_unchanged(runs):
    assert runs[0][1]["campaign"]["report_sha256"] == runs[1][1]["campaign"]["report_sha256"]
    assert runs[1][1]["problems"] == []


def test_tail_picks_the_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 101))) == (90, 90.0)
    assert tail(list(range(11, 0, -1))) == (1, 100.0 / 11)


def test_union_of_overlapping_spans():
    assert _union_seconds([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert _union_seconds([]) == 0.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("ieee9-sparsity", 0, tmp_path / "out.json",
                  bench_dir=tmp_path / "bench", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
