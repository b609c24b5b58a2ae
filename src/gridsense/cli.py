"""Command-line frontend: inspect, place, coherence, estimate, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, network, recon, sensing

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 70


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsense",
        description="Sparse state estimation and sensor placement for DC microgrids.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--case", required=True, help="path to a gridsense-case v1 file")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("inspect", help="summarize a network and its conditioning")
    add_common(p)

    p = sub.add_parser("place", help="compute a sensor placement plan")
    add_common(p)
    p.add_argument("--meters", required=True, type=int, help="number of voltage meters to place")
    p.add_argument("--seed", type=int, default=0, help="seed for random placement")
    p.add_argument(
        "--placement", default="greedy", choices=("greedy", "random"),
        help="placement method (default greedy)",
    )

    p = sub.add_parser("coherence", help="mutual-coherence diagnostics for a plan")
    add_common(p)
    p.add_argument("--plan", required=True, help="path to a placement plan file")
    p.add_argument("--sparsity", type=_int_list, default=[1], help="assumed sparsity levels for the advisory recovery bound")

    p = sub.add_parser("estimate", help="estimate injections for one measurement snapshot")
    add_common(p)
    p.add_argument("--plan", required=True, help="path to a placement plan file")
    p.add_argument("--snapshot", required=True, help="path to a gridsense-snapshot v1 file")
    p.add_argument("--epsilon", type=float, default=0.0, help="BPDN residual radius (default 0)")

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark campaign")
    add_common(p)
    p.add_argument("--meters", required=True, type=_int_list, help="comma-separated meter counts")
    p.add_argument("--sparsity", required=True, type=_int_list, help="comma-separated sparsity levels")
    p.add_argument("--noise", type=_float_list, default=[0.0], help="comma-separated meter noise standard deviations in p.u.")
    p.add_argument("--trials", type=int, default=100, help="Monte Carlo trials per cell")
    p.add_argument("--seed", type=int, default=0, help="master seed for the whole campaign")
    p.add_argument(
        "--estimator", default="cs", choices=("cs", "min-energy", "both"),
        help="which estimator(s) to score",
    )
    p.add_argument(
        "--placement", default="greedy",
        help="comma-separated placement methods: greedy, random, or file:PATH",
    )
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility and ignored; trials run serially")
    p.add_argument("--epsilon", type=float, default=None, help="override the noise-derived BPDN radius in every cell")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_model(case_path: str):
    net = network.load_network(case_path)
    return net, network.build_impedance_model(net)


def _cmd_inspect(args) -> int:
    net, model = _load_model(args.case)
    z_diag = np.diag(model.impedance)
    kinds = {}
    for d in net.devices:
        kinds[d.kind] = kinds.get(d.kind, 0) + 1
    lines = [
        f"case: {args.case}",
        f"buses: {net.size}",
        f"branches: {len(net.branches)}",
        f"devices: " + (", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"),
        f"folded loads: {len(model.folded_loads)}",
        f"condition estimate: {model.condition_estimate:.6g} "
        f"(ceiling {network.CONDITION_CEILING:.6g})",
        f"Z diagonal range: [{z_diag.min():.6g}, {z_diag.max():.6g}]",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_place(args) -> int:
    _, model = _load_model(args.case)
    if args.placement == "greedy":
        plan = sensing.greedy_place_sensors(model, args.meters)
    else:
        plan = sensing.random_place_sensors(model, args.meters, seed=args.seed)
    _emit(plan.to_text(), args.out)
    return EXIT_OK


def _cmd_coherence(args) -> int:
    _, model = _load_model(args.case)
    plan = sensing.PlacementPlan.from_text(Path(args.plan).read_text(encoding="utf-8"))
    matrix = sensing.assemble_measurement_matrix(model, plan.chosen)
    report = sensing.gram_coherence(matrix)
    lines = [
        f"sensors: {' '.join(str(b) for b in plan.chosen)}",
        f"mutual coherence: {report.mutual_coherence:.10g}",
        f"zero columns: {' '.join(str(b) for b in report.zero_columns) or 'none'}",
    ]
    for s in args.sparsity:
        lines.append(
            f"advisory bound factor (S={s}): mu^2*S*ln(M) = "
            f"{sensing.recovery_bound_factor(report, s):.6g} "
            f"with {len(plan.chosen)} sensors for {report.columns} unknowns"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    _, model = _load_model(args.case)
    plan = sensing.PlacementPlan.from_text(Path(args.plan).read_text(encoding="utf-8"))
    meas = recon.MeasurementSet.from_text(Path(args.snapshot).read_text(encoding="utf-8"))
    cfg = recon.SolverConfig(epsilon=args.epsilon)
    est = recon.estimate_state(model, meas, plan, cfg)
    if args.out and args.out.endswith(".json"):
        payload = {
            "injections": {str(b + 1): float(v) for b, v in enumerate(est.injections)},
            "support": list(est.support),
            "residual_norm": est.residual_norm,
            "iterations_used": est.iterations_used,
            "converged": est.converged,
            "route": est.route,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    elif args.out and args.out.endswith(".csv"):
        rows = ["bus,current"]
        rows += [f"{b + 1},{v:.10g}" for b, v in enumerate(est.injections)]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        lines = [f"{'bus':>4} {'current (p.u.)':>16}"]
        lines += [f"{b + 1:>4} {v:>16.6g}" for b, v in enumerate(est.injections)]
        lines.append(f"support: {' '.join(str(b) for b in est.support) or 'empty'}")
        lines.append(f"residual: {est.residual_norm:.6g}")
        lines.append(f"converged: {'yes' if est.converged else 'no'} ({est.iterations_used} iterations)")
        lines.append(f"route: {est.route or 'none'}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parse_placements(text: str):
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item in ("greedy", "random"):
            out.append(item)
        elif item.startswith("file:"):
            out.append(
                sensing.PlacementPlan.from_text(
                    Path(item[5:]).read_text(encoding="utf-8")
                )
            )
        else:
            raise network.ValidationError(
                f"placement must be greedy, random, or file:PATH, got {item!r}"
            )
    if not out:
        raise network.ValidationError("no placement methods given")
    return out


def _cmd_bench(args) -> int:
    net, model = _load_model(args.case)
    estimators = {"cs": ["cs"], "min-energy": ["min_energy"], "both": ["cs", "min_energy"]}[
        args.estimator
    ]
    placements = _parse_placements(args.placement)
    cells = [
        (s, k, pl, est, nz)
        for s in args.sparsity
        for k in args.meters
        for pl in placements
        for est in estimators
        for nz in args.noise
    ]
    report = harness.run_benchmark(
        net, model, cells,
        trials=args.trials, seed=args.seed, threads=args.threads,
        model_id=Path(args.case).name, epsilon=args.epsilon,
    )
    if args.out and args.out.endswith(".json"):
        _emit(report.to_json_text(), args.out)
    elif args.out and args.out.endswith(".csv"):
        _emit(report.to_csv_text(), args.out)
    else:
        _emit(report.to_table_text(), args.out)
    if args.out:
        plot_path = str(Path(args.out).with_suffix(Path(args.out).suffix + ".plot"))
        Path(plot_path).write_text(report.to_plot_text(), encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "inspect": _cmd_inspect,
    "place": _cmd_place,
    "coherence": _cmd_coherence,
    "estimate": _cmd_estimate,
    "bench": _cmd_bench,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.subcommand](args)
    except (recon.NewtonDivergenceError, OSError, ValueError) as exc:
        print(f"gridsense: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"gridsense: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
