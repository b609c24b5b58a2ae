"""One fresh interpreter of a benchmark run; started by run.py, not by hand.

    python3 bench/child.py --workload NAME --seed N --seconds S --part I --parts K \
        --trace 0|1 --launched UNIX_TIME

Imports gridsense, loads the workload's case, builds Z and places the greedy
plans; set-up time runs from --launched, the parent's wall clock just before
it started this interpreter. It then runs its share of the run: the
sub-campaigns and snapshot passes whose index is I modulo K, on the same
inputs every part derives from --seed. With --trace 1 it also replays its
sub-campaigns traced. It prints one JSON line with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import resource
import sys
import time

from workloads import WORKLOADS


def _seed(*entropy) -> int:
    import numpy as np

    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _blas() -> dict:
    """BLAS library and thread count as the loaded numpy build reports them."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None, "config": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                info["threads"] = get_threads()
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode()
    return info


def _setup(workload):
    from gridsense import bundled_case_path, network, sensing

    net = network.load_network(str(bundled_case_path(workload.case)))
    model = network.build_impedance_model(net)
    plans = {k: sensing.greedy_place_sensors(model, k) for k in workload.greedy_meters}
    return net, model, plans


def _cells(workload, plans):
    return [
        (s, k, plans[k] if pl == "greedy" else pl, est, nz)
        for s, k, pl, est, nz in workload.cells
    ]


def _campaign(workload, net, model, cells, seeds, trials):
    """Run one run_benchmark per seed; returns [(wall seconds, report)]."""
    from gridsense import harness

    out = []
    for seed in seeds:
        start = time.perf_counter()
        report = harness.run_benchmark(
            net, model, cells, trials=trials, seed=seed,
            threads=workload.threads, model_id=workload.case,
        )
        out.append((time.perf_counter() - start, report))
    return out


def _report_problems(workload, report, trials) -> list[str]:
    """Shape and range checks on one campaign report."""
    problems = []
    if len(report.cells) != len(workload.cells):
        problems.append(f"report has {len(report.cells)} cells, expected {len(workload.cells)}")
    for cell, spec in zip(report.cells, workload.cells):
        expected = trials
        if spec[2] == "random":
            plans = min(100, trials)
            expected = plans * (trials // plans)
        if cell.trials != expected:
            problems.append(f"cell {spec}: {cell.trials} trials, expected {expected}")
        if not 0.0 <= cell.reconstruction_ratio <= 1.0:
            problems.append(f"cell {spec}: ratio {cell.reconstruction_ratio} out of [0, 1]")
        if not (math.isfinite(cell.mean_rmse) and cell.mean_rmse >= 0.0):
            problems.append(f"cell {spec}: mean_rmse {cell.mean_rmse} not finite and >= 0")
    return problems


def _snapshots(workload, net, model, plans, seed, count):
    """Generated before any timing: (plan, MeasurementSet, SolverConfig, readings)."""
    import numpy as np
    from gridsense import harness, recon

    combos = sorted({(s, k, nz) for s, k, pl, est, nz in workload.cells
                     if pl == "greedy" and est == "cs"})
    fixed = {d.bus: d.value for d in net.devices if d.kind == "current_source"}
    out = []
    for i in range(count):
        sparsity, meters, noise = combos[i % len(combos)]
        plan = plans[meters]
        spec = harness.ScenarioSpec(
            network=net, model=model, placement=plan, sparsity=sparsity,
            noise_std=noise, seed=seed,
        )
        x = harness.sample_sparse_state(model.size, spec, i)
        for bus, value in fixed.items():
            x[bus - 1] = value
        y = harness.add_noise(harness.simulate_measurements(model, plan, x), noise, seed, i)
        meas = recon.MeasurementSet(
            voltage_readings=dict(zip(plan.chosen, y)), known_injections=fixed,
        )
        cfg = recon.SolverConfig(epsilon=harness.default_epsilon(noise, len(y)))
        out.append((plan, meas, cfg, np.asarray(y)))
    return out


def _snapshot_failure(model, plan, meas, cfg, y, est) -> str | None:
    """Why an estimate is not a valid BPDN answer, or None when it is."""
    import numpy as np
    from gridsense import recon

    if not est.converged:
        return "converged=False"
    if not np.isfinite(est.injections).all():
        return "non-finite injections"
    rows = model.impedance[np.array(plan.chosen) - 1]
    residual = float(np.linalg.norm(y - rows @ est.injections))
    y_off = recon.apply_current_offsets(y, model, plan.chosen, meas.known_injections)
    tol = max(cfg.convergence_tol, 1e-12) * max(1.0, float(np.linalg.norm(y_off)))
    if residual > cfg.epsilon + tol:
        return f"residual {residual:.3e} > epsilon {cfg.epsilon:.3e} + tolerance {tol:.1e}"
    return None


def _estimate(model, snap) -> tuple[float, str | None]:
    """Time one estimate_state call; returns (ms, why it failed or None)."""
    from gridsense import recon

    plan, meas, cfg, y = snap
    start = time.perf_counter()
    try:
        est = recon.estimate_state(model, meas, plan, cfg)
    except Exception as exc:  # a raise is a failed snapshot, counted by the caller
        return 1e3 * (time.perf_counter() - start), f"raised {exc!r}"
    ms = 1e3 * (time.perf_counter() - start)
    return ms, _snapshot_failure(model, plan, meas, cfg, y, est)


def _measure(workload, net, model, cells, seeds, trials, snaps, n_passes):
    """This part's sub-campaigns and snapshot passes, interleaved evenly.

    Returns ([(wall seconds, report)] per sub-campaign, [[ms per pass]] per
    snapshot, {snapshot index: why it failed}).
    """
    n_runs = len(seeds)
    order = sorted([((r + 0.5) / n_runs, 0, r) for r in range(n_runs)]
                   + [((p + 0.5) / n_passes, 1, p) for p in range(n_passes)])
    timed, times, failures = [], [[] for _ in snaps], {}
    for _, kind, index in order:
        if kind == 0:
            timed += _campaign(workload, net, model, cells, [seeds[index]], trials)
            continue
        for i, snap in enumerate(snaps):
            ms, why = _estimate(model, snap)
            times[i].append(ms)
            if why is not None:
                failures.setdefault(i, why)
    return timed, times, failures


def main(args) -> int:
    import_start = time.perf_counter()
    import gridsense  # noqa: F401  (cold import is part of set-up)
    import_s = time.perf_counter() - import_start

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        net, model, plans = _setup(workload)
    setup_s = time.time() - args.launched

    import numpy as np
    import scipy

    def mine(n):
        return [i for i in range(n) if i % args.parts == args.part]

    cells = _cells(workload, plans)
    trials = workload.trials_per_cell(args.seconds)
    indices = mine(workload.sub_campaigns(args.seconds))
    seeds = [_seed(args.seed, 0, r) for r in indices]
    count, passes = workload.snapshots(args.seconds)
    snaps = _snapshots(workload, net, model, plans, _seed(args.seed, 1), count)

    timed, snapshot_ms, failures = _measure(
        workload, net, model, cells, seeds, trials, snaps, len(mine(passes)))

    problems = [p for _, rep in timed for p in _report_problems(workload, rep, trials)]
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "campaign": [
            {"index": r, "seconds": s, "trials": sum(c.trials for c in rep.cells),
             "recovered": sum(c.reconstruction_ratio * c.trials for c in rep.cells),
             "rmse_sum": sum(c.mean_rmse * c.trials for c in rep.cells),
             "sha256": hashlib.sha256(rep.to_json_text().encode()).hexdigest()}
            for r, (s, rep) in zip(indices, timed)
        ],
        "snapshot_ms": snapshot_ms,
        "failures": {str(i): why for i, why in sorted(failures.items())},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }

    if tracer is not None:
        from tracing import layer_metrics

        setup_spans = list(tracer.spans)
        tracer.spans.clear()
        with tracer:
            replay = _campaign(workload, net, model, cells, seeds, trials)
        for (_, untraced), (_, traced) in zip(timed, replay):
            if traced.to_json_text() != untraced.to_json_text():
                problems.append(
                    f"traced report for seed {untraced.seed} differs from the timed one"
                )
        result["layers"] = layer_metrics(
            setup_spans, tracer.spans, [s for s, _ in timed], import_s,
            list(plans.values()),
        )

    result["problems"] = problems
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--part", type=int, required=True)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True,
                   help="time.time() of the parent just before it started this process")
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main(_parse()))
