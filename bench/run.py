"""gridsense benchmark: one workload per call, metrics as one JSON line.

    python3 bench/run.py --workload ieee9-sparsity --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from any directory of a source checkout; gridsense is imported from the
checkout's `src/`. Each run starts fresh interpreters (bench/child.py), one
after another, that each set up and then measure a share of the run. With
--trace 0 the last line of stdout holds the end-to-end metrics, with
--trace 1 the per-layer ones (BENCHMARK.json names both lists). Exit code 0
means every correctness check passed; 1 means a check failed; 2 means the
checkout or the arguments are unusable. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TAIL_BEYOND, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "estimate_p50_ms": "ms",
    "estimate_tail_ms": "ms",
    "recovery_ratio": "ratio",
    "mean_rmse": "p.u.",
    "peak_rss_mb": "MB",
}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child(args, part: int, parts: int) -> dict:
    """Run one fresh interpreter to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one BLAS thread: with two, the first multi-threaded BLAS call of a
    # fresh interpreter waits on an idle second core, 0.5-0.9 s on a shared
    # VM depending on the host, which swamps setup_s on the 118-bus case
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--part", str(part),
        "--parts", str(parts), "--trace", str(args.trace), "--launched", repr(time.time()),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload}: child {part} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / len(ordered)


def _provenance(args, raw) -> dict:
    commit = None  # a source export without .git; src_sha256 still identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridsense").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "threads": WORKLOADS[args.workload].threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "scipy": raw["scipy"],
        "blas": raw["blas"],
    }


def run_workload(args) -> dict:
    # untraced, the run is split over fresh interpreters, one after
    # another, so each contributes a set-up time and per-process effects on
    # speed average out; traced, one interpreter replays everything
    parts = 1 if args.trace else WORKLOADS[args.workload].interpreters
    children = [_child(args, part, parts) for part in range(parts)]

    campaign = sorted((c for ch in children for c in ch["campaign"]), key=lambda c: c["index"])
    trials = sum(c["trials"] for c in campaign)
    # a snapshot's latency is the median of its passes, which are spread over
    # the run and its interpreters; the fastest pass depends on whether one
    # of them caught a brief quiet stretch of the machine (see bench/README.md)
    latencies = [statistics.median(sum((ch["snapshot_ms"][i] for ch in children), []))
                 for i in range(len(children[0]["snapshot_ms"]))]
    failures = {}
    for ch in children:
        for i, why in ch["failures"].items():
            failures.setdefault(i, why)
    failures = dict(sorted(failures.items(), key=lambda kv: int(kv[0])))
    setup = [ch["setup_s"] for ch in children]
    tail_ms, tail_pct = tail(latencies)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "trials_per_s": statistics.median(c["trials"] / c["seconds"] for c in campaign),
        "estimate_p50_ms": statistics.median(latencies),
        "estimate_tail_ms": tail_ms,
        "recovery_ratio": sum(c["recovered"] for c in campaign) / trials,
        "mean_rmse": sum(c["rmse_sum"] for c in campaign) / trials,
        "peak_rss_mb": max(ch["peak_rss_mb"] for ch in children),
    }
    digest = hashlib.sha256("".join(c["sha256"] for c in campaign).encode()).hexdigest()
    return {
        "provenance": _provenance(args, children[-1]),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
        "failed_frac": len(failures) / len(latencies),
        "tail": {"percentile": tail_pct, "samples": len(latencies)},
        "setup_samples_s": setup,
        "campaign": {"sub_campaigns": len(campaign), "trials": trials, "report_sha256": digest},
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in children[-1].get("layers", {}).items()},
        "failures": failures,
        "sub_campaign_s": [c["seconds"] for c in campaign],
        "latencies_ms": latencies,
        "problems": [p for ch in children for p in ch["problems"]],
        "attempted": len(latencies),
        "failed": len(failures),
    }


def _print_human(name, res, trace) -> None:
    prov = res["provenance"]
    blas = prov["blas"]
    print(f"== {name} seed={prov['seed']} threads={prov['threads']} seconds={prov['seconds']}")
    print(f"   commit={prov['commit']} src_sha256={prov['src_sha256'][:16]} nproc={prov['nproc']} "
          f"python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} "
          f"blas={blas['name']} {blas['version']} threads={blas['threads']}")
    camp = res["campaign"]
    print(f"   campaign: {camp['sub_campaigns']} sub-campaigns, {camp['trials']} trials, "
          f"report sha256 {camp['report_sha256'][:16]}")
    tail_info = res["tail"]
    metrics = res["per_layer"] if trace else res["end_to_end"]
    for key, m in metrics.items():
        note = ""
        if key == "estimate_tail_ms":
            note = f"  (p{tail_info['percentile']:.4g} of {tail_info['samples']} snapshots)"
        print(f"   {key:<40} {m['value']:>14.6g} {m['unit']}{note}")
    if not trace:
        print(f"   {'failed_frac':<40} {res['failed_frac']:>14.6g} ratio  "
              f"({res['failed']} of {res['attempted']} snapshots)")
    for i, why in res["failures"].items():
        print(f"   snapshot {i} failed: {why}")
    for problem in res["problems"]:
        print(f"   CHECK FAILED: {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gridsense benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write the full result as JSON here")
    args = p.parse_args(argv)
    if not (SRC / "gridsense" / "__init__.py").is_file():
        print(f"bench: no gridsense sources under {SRC}", file=sys.stderr)
        return 2

    spec = _benchmark_spec()
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    results = {}
    for name in names:
        results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        _print_human(name, results[name], args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")

    correct = all(not r["problems"] for r in results.values())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {n: {k: results[n][section][k] for k in wanted} for n in names}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        # one workload: its metrics; --workload all: metrics keyed by workload
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
