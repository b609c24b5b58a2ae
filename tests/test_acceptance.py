"""End-to-end acceptance suite.

Each test class covers one contract: solver-oracle equivalence, Jacobian
correctness, benchmark trends on the bundled 9-bus model, noise-robustness
trends, placement quality, the min-energy contract, the scalar constant-power
case, and CLI reproducibility across thread counts.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import null_space

import gridsense
from gridsense import (
    MeasurementSet,
    SolverConfig,
    bundled_case_path,
    build_impedance_model,
    constant_power_newton,
    gram_coherence,
    greedy_place_sensors,
    invert_to_impedance,
    jacobian_power_rows,
    load_network,
    min_energy,
    random_place_sensors,
    run_benchmark,
    solve_bpdn,
)
from gridsense.cli import run_cli
from gridsense.recon import SparseEstimate

from conftest import (
    IEEE9_CONVERGING_POWER,
    ieee9_power_snapshot,
    random_connected_network,
    solve_l0_oracle,
)


# A 6x12 unit-column frame with mutual coherence 0.3162, precomputed offline by
# alternating projections (clip the Gram off-diagonals, project back to rank 6).
# Raw 6x12 Gaussian draws essentially never fall below coherence 0.6, and
# below 1/3 every 2-sparse vector is the unique l1 minimizer, which is the
# regime the oracle-equivalence contract describes. Random instances are made
# from this frame by rotation, column permutation, and column sign flips, all
# of which leave the coherence unchanged.
LOW_COHERENCE_FRAME = np.array([
    [-0.019863189163, -0.071834051854, 0.772876458616, 0.287230733417,
     0.114434469156, 0.048401345109, 0.811308998447, 0.331954465844,
     0.527278693615, 0.292833226521, -0.408250518264, -0.017584281466],
    [0.460666034426, -0.633710806524, -0.565740162898, -0.465904424742,
     0.554283680095, 0.321020855418, 0.557173929431, 0.027215187094,
     -0.168063170577, 0.133806175167, -0.096426201498, -0.268613063121],
    [0.171376018368, -0.430700119723, -0.110530844837, 0.441936760656,
     0.21543098431, -0.21234901556, -0.125019739737, -0.508526255048,
     -0.041153822756, -0.205355530131, -0.693747472473, 0.828686256593],
    [0.671491469839, -0.03779649307, -0.173910416474, 0.58712239153,
     -0.402863306943, 0.473702427375, 0.088233252332, 0.218336664678,
     0.307391064393, -0.76006580197, 0.210843512507, -0.117982961272],
    [-0.512681482786, 0.114105951654, -0.198201111308, 0.03394138036,
     0.682852691484, 0.477780358894, -0.041517975769, -0.177203499831,
     0.730741351025, -0.129263821333, 0.509618765026, 0.381591136735],
    [0.210426761399, 0.627135668312, -0.029231261668, 0.399072364905,
     0.068390078961, 0.629954565602, 0.078715544513, -0.742559515883,
     -0.25212323229, 0.509671027572, -0.196422183083, -0.285105469457],
])


class TestOracleEquivalence:
    """BPDN must reproduce the exhaustive l0 oracle on easy noiseless instances."""

    N_INSTANCES = 200

    def test_frame_coherence_precondition(self):
        mu = gram_coherence(LOW_COHERENCE_FRAME).mutual_coherence
        assert mu < 1.0 / 3.0

    @staticmethod
    def _instance(index):
        """Deterministic 6x12 instance with coherence < 0.6 and S <= 2."""
        rng = np.random.default_rng((1000, index))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        cols = rng.permutation(12)
        signs = rng.choice([-1.0, 1.0], 12)
        a = q @ LOW_COHERENCE_FRAME[:, cols] * signs
        s = int(rng.integers(1, 3))
        x = np.zeros(12)
        support = rng.choice(12, size=s, replace=False)
        x[support] = rng.uniform(0.5, 1.5, s) * rng.choice([-1.0, 1.0], s)
        return a, x

    def test_support_and_value_agreement(self):
        start = time.monotonic()
        matches = 0
        cfg = SolverConfig(epsilon=0.0)
        for i in range(self.N_INSTANCES):
            a, x = self._instance(i)
            y = a @ x
            oracle = solve_l0_oracle(a, y, s_max=2, tol=1e-8)
            assert oracle is not None
            est = solve_bpdn(a, y, cfg)
            if est.support == oracle.support:
                matches += 1
                assert np.abs(est.injections - oracle.injections).max() < 1e-4
        elapsed = time.monotonic() - start
        assert matches >= 0.99 * self.N_INSTANCES
        assert elapsed < 30.0


class TestJacobianCorrectness:
    """Analytic power-Jacobian rows vs central finite differences."""

    def test_fifty_random_models(self):
        start = time.monotonic()
        step = 1e-6
        for seed in range(50):
            rng = np.random.default_rng((2000, seed))
            model = build_impedance_model(random_connected_network(rng, 5))
            currents = rng.uniform(0.5, 1.5, 5) * rng.choice([-1.0, 1.0], 5)
            buses = list(range(1, 6))
            rows = jacobian_power_rows(model, currents, buses)

            def power(ivec, bus):
                return (model.impedance @ ivec)[bus - 1] * ivec[bus - 1]

            for r, b in enumerate(buses):
                for j in range(5):
                    up, dn = currents.copy(), currents.copy()
                    up[j] += step
                    dn[j] -= step
                    fd = (power(up, b) - power(dn, b)) / (2 * step)
                    assert abs(rows[r, j] - fd) / max(1.0, abs(fd)) < 1e-6
        assert time.monotonic() - start < 5.0


@pytest.fixture(scope="module")
def sparsity_grid_report(ieee9_network, ieee9_model):
    """S in {1,2,3} x meters in {7,8} x {greedy, random}, noiseless, 1000 trials."""
    cells = [
        (s, k, placement, "cs", 0.0)
        for s in (1, 2, 3)
        for k in (7, 8)
        for placement in ("greedy", "random")
    ]
    start = time.monotonic()
    report = run_benchmark(
        ieee9_network, ieee9_model, cells, trials=1000, seed=42, threads=8,
        model_id="ieee9.case",
    )
    elapsed = time.monotonic() - start
    ratios = {
        (c.sparsity, c.meters, c.placement): c.reconstruction_ratio
        for c in report.cells
    }
    return ratios, elapsed


class TestSparsityGridTrends:
    """Reconstruction-ratio trends over sparsity, meter count, and placement."""

    def test_runtime_budget(self, sparsity_grid_report):
        _, elapsed = sparsity_grid_report
        assert elapsed < 300.0

    def test_greedy_beats_random_by_ten_points(self, sparsity_grid_report):
        ratios, _ = sparsity_grid_report
        for s in (1, 2, 3):
            for k in (7, 8):
                greedy = ratios[(s, k, "greedy")]
                random_mean = ratios[(s, k, "random")]
                assert greedy >= random_mean + 0.10, (
                    f"S={s}, meters={k}: greedy {greedy:.3f} vs random {random_mean:.3f}"
                )

    def test_greedy_beats_random_everywhere(self, sparsity_grid_report):
        ratios, _ = sparsity_grid_report
        for s in (1, 2, 3):
            for k in (7, 8):
                assert ratios[(s, k, "greedy")] > ratios[(s, k, "random")]

    def test_single_source_near_perfect(self, sparsity_grid_report):
        ratios, _ = sparsity_grid_report
        assert ratios[(1, 7, "greedy")] >= 0.99
        assert ratios[(1, 8, "greedy")] >= 0.99

    def test_monotone_in_sparsity(self, sparsity_grid_report):
        ratios, _ = sparsity_grid_report
        for placement in ("greedy", "random"):
            for k in (7, 8):
                for s in (1, 2):
                    assert ratios[(s + 1, k, placement)] <= ratios[(s, k, placement)] + 0.02

    def test_monotone_in_meters(self, sparsity_grid_report):
        ratios, _ = sparsity_grid_report
        for placement in ("greedy", "random"):
            for s in (1, 2, 3):
                assert ratios[(s, 8, placement)] >= ratios[(s, 7, placement)] - 0.02


@pytest.fixture(scope="module")
def noise_grid_report(ieee9_network, ieee9_model):
    """S=1, 7 greedy meters, noise sweep, both estimators, 1000 trials."""
    noise_levels = (0.0, 0.002, 0.01, 0.05)
    cells = [
        (1, 7, "greedy", estimator, noise)
        for estimator in ("cs", "min_energy")
        for noise in noise_levels
    ]
    start = time.monotonic()
    report = run_benchmark(
        ieee9_network, ieee9_model, cells, trials=1000, seed=42, threads=8,
        model_id="ieee9.case",
    )
    elapsed = time.monotonic() - start
    rmse = {(c.estimator, c.noise_std): c.mean_rmse for c in report.cells}
    return rmse, noise_levels, elapsed


class TestNoiseRobustnessTrends:
    """RMSE ordering and scaling of the sparse estimator vs the min-energy baseline."""

    def test_runtime_budget(self, noise_grid_report):
        _, _, elapsed = noise_grid_report
        assert elapsed < 300.0

    def test_sparse_beats_min_energy_every_level(self, noise_grid_report):
        rmse, noise_levels, _ = noise_grid_report
        for noise in noise_levels:
            assert rmse[("cs", noise)] < rmse[("min_energy", noise)]

    def test_near_linear_noise_scaling(self, noise_grid_report):
        rmse, _, _ = noise_grid_report
        ratio = rmse[("cs", 0.05)] / rmse[("cs", 0.01)]
        assert 3.0 <= ratio <= 7.0

    def test_noiseless_rmse_floor(self, noise_grid_report):
        rmse, _, _ = noise_grid_report
        # below 0.5% of the largest possible injection magnitude (1.5 p.u.)
        assert rmse[("cs", 0.0)] < 0.005 * 1.5


class TestPlacementQuality:
    def _median_random(self, model, k):
        cohs = [
            random_place_sensors(model, k, seed=s).final_coherence for s in range(100)
        ]
        return float(np.median(cohs))

    def test_greedy_at_most_random_median_ieee9(self, ieee9_model):
        greedy = greedy_place_sensors(ieee9_model, 7).final_coherence
        assert greedy <= self._median_random(ieee9_model, 7)

    def test_greedy_at_most_random_median_ieee118(self, ieee118_model):
        greedy = greedy_place_sensors(ieee118_model, 90).final_coherence
        assert greedy <= self._median_random(ieee118_model, 90)

    def test_identity_model_zero_coherence_all_k(self):
        model = invert_to_impedance(np.eye(12))
        for k in range(1, 13):
            assert greedy_place_sensors(model, k).final_coherence == 0.0


class TestMinEnergyContract:
    def test_feasibility_and_norm_minimality(self):
        for seed in range(100):
            rng = np.random.default_rng((3000, seed))
            n = int(rng.integers(3, 8))
            m = n + int(rng.integers(2, 7))
            a = rng.standard_normal((n, m))
            y = a @ rng.standard_normal(m)
            x = min_energy(a, y)
            assert np.abs(a @ x - y).max() < 1e-10
            basis = null_space(a)
            coeffs = rng.standard_normal((basis.shape[1], 1000))
            perturbed = x[:, None] + basis @ coeffs
            norms = np.linalg.norm(perturbed, axis=0)
            assert np.all(np.linalg.norm(x) <= norms + 1e-10)


class TestConstantPowerScalarCase:
    def test_converges_to_analytic_root(self):
        model = invert_to_impedance(np.array([[0.5]]))  # Z = [2]
        meas = MeasurementSet(power_constraints={1: 8.0})
        initial = SparseEstimate(
            injections=np.array([0.1]), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        est = constant_power_newton(model, meas, SolverConfig(), initial)
        assert est.converged
        assert est.iterations_used <= 30
        assert abs(est.injections[0] - 2.0) < 1e-8


class TestThreadReproducibility:
    def test_bench_byte_identical_across_thread_counts(self, tmp_path, capsys):
        case = str(bundled_case_path("ieee9.case"))
        outputs = {}
        for threads in ("1", "8"):
            target = tmp_path / f"report-{threads}.csv"
            code = run_cli([
                "bench", "--case", case, "--meters", "7,8", "--sparsity", "1,2",
                "--noise", "0,0.01", "--estimator", "both", "--trials", "50",
                "--seed", "13", "--threads", threads, "--out", str(target),
            ])
            capsys.readouterr()
            assert code == 0
            outputs[threads] = (
                target.read_bytes(),
                (tmp_path / f"report-{threads}.csv.plot").read_bytes(),
            )
        assert outputs["1"] == outputs["8"]

    @staticmethod
    def report_digests_across_blas_threads(tmp_path, *argv):
        """sha256 of the report of `gridsense argv --out ...` run with one and
        with two OpenBLAS threads. The thread count is fixed when an
        interpreter starts, hence the subprocesses."""
        src = os.path.dirname(os.path.dirname(gridsense.__file__))
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            target = tmp_path / f"r{threads}.json"
            cmd = [sys.executable, "-m", "gridsense.cli", *argv, "--out", str(target)]
            runs[target] = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        assert [proc.wait(timeout=300) for proc in runs.values()] == [0, 0]
        return {hashlib.sha256(t.read_bytes()).hexdigest() for t in runs}

    def test_ieee118_campaign_byte_identical_across_blas_threads(self, tmp_path):
        # Z and the LP answers take no BLAS reduction, so the 118-bus reports
        # have the same bytes with one or two OpenBLAS threads
        digests = self.report_digests_across_blas_threads(
            tmp_path, "bench",
            "--case", str(bundled_case_path("ieee118.case")), "--meters", "30,60",
            "--sparsity", "2,5", "--noise", "0,0.01", "--trials", "40", "--seed", "3",
            "--estimator", "both", "--placement", "greedy,random",
        )
        assert len(digests) == 1

    def test_constant_power_estimate_byte_identical_across_blas_threads(self, tmp_path):
        # the Newton refinement's products and least-squares steps give the
        # same bits with one or two OpenBLAS threads
        model = build_impedance_model(load_network(bundled_case_path("ieee9.case")))
        buses, currents, sources = IEEE9_CONVERGING_POWER
        (tmp_path / "plan.txt").write_text(greedy_place_sensors(model, len(buses)).to_text())
        snapshot = ieee9_power_snapshot(model, buses, currents, sources)
        (tmp_path / "snap.meas").write_text(snapshot.to_text())
        digests = self.report_digests_across_blas_threads(
            tmp_path, "estimate", "--case", str(bundled_case_path("ieee9.case")),
            "--plan", str(tmp_path / "plan.txt"), "--snapshot", str(tmp_path / "snap.meas"),
        )
        assert len(digests) == 1
