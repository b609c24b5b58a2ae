"""Passive span tracing around gridsense's public functions.

The benchmark never edits the library: inside `with tracer:` each traced
name is swapped, in the module namespace where callers look it up, for a
wrapper that records a span (name, start, end, thread id, parent span); on
exit the originals are put back. Spans stay in memory until
`layer_metrics` reduces them.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field

from gridsense import harness, network, recon, sensing

# (module, attribute, span name). A function imported by name into another
# module is looked up there, so it is listed once per namespace that calls it.
TRACED = (
    (network, "load_network", "network.load_network"),
    (network, "build_impedance_model", "network.build_impedance_model"),
    (sensing, "greedy_place_sensors", "sensing.greedy_place_sensors"),
    (harness, "greedy_place_sensors", "sensing.greedy_place_sensors"),
    (harness, "random_place_sensors", "sensing.random_place_sensors"),
    (harness, "run_benchmark", "harness.run_benchmark"),
    (harness, "run_trial", "harness.run_trial"),
    (harness, "sample_sparse_state", "harness.sample_sparse_state"),
    (harness, "simulate_measurements", "harness.simulate_measurements"),
    (harness, "add_noise", "harness.add_noise"),
    (harness, "estimate_state", "recon.estimate_state"),
    (harness, "min_energy", "recon.min_energy"),
    (recon, "solve_bpdn", "recon.solve_bpdn"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    parent: "Span | None"
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solve_info(args, result) -> dict:
    cfg = args[2]
    return {
        "route": "eps0" if cfg.epsilon == 0.0 else "epspos",
        "iterations": result.iterations_used,
        "converged": result.converged,
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        info_of = _solve_info if name == "recon.solve_bpdn" else None
        local = self._local
        spans = self.spans

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, 0.0, 0.0, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if info_of is not None:
                span.info = info_of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def _union_seconds(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(setup_spans, campaign_spans, untraced_s, import_s, plans):
    """Reduce recorded spans to the per-layer metrics, as {name: (value, unit)}.

    `setup_spans` cover model build and greedy placement, `campaign_spans` the
    traced replay of the timed sub-campaigns, whose untraced wall times are
    `untraced_s`, in order. Busy times add up across threads.
    """
    def named(spans, name):
        return [s for s in spans if s.name == name]

    def busy(spans):
        return sum(s.seconds for s in spans)

    campaigns = named(campaign_spans, "harness.run_benchmark")
    wall = busy(campaigns)
    trials = named(campaign_spans, "harness.run_trial")
    solves = named(campaign_spans, "recon.solve_bpdn")
    greedy_s = busy(named(setup_spans, "sensing.greedy_place_sensors"))

    def work(prefix, spans):
        return {
            f"{prefix}_calls": (len(spans), "count"),
            f"{prefix}_ms": (1e3 * busy(spans), "ms"),
            f"{prefix}_share": (busy(spans) / wall, "ratio"),
        }

    children: dict[int, float] = {}
    for s in campaign_spans:
        if s.parent is not None and s.parent.name == "harness.run_trial":
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.seconds
    covered = _union_seconds(
        (s.start, s.end) for s in campaign_spans
        if s.name in ("harness.run_trial", "sensing.random_place_sensors",
                      "sensing.greedy_place_sensors")
    )
    iterations = [s.info["iterations"] for s in solves]

    def setup_ms(name):
        return (1e3 * busy(named(setup_spans, name)), "ms")

    def campaign_ms(name):
        return (1e3 * busy(named(campaign_spans, name)), "ms")

    return {
        "cli.import_s": (import_s, "s"),
        "network.load_network_ms": setup_ms("network.load_network"),
        "network.build_impedance_model_ms": setup_ms("network.build_impedance_model"),
        "sensing.greedy_place_sensors_s": (greedy_s, "s"),
        "sensing.greedy_round_ms": (1e3 * greedy_s / sum(len(p.chosen) for p in plans), "ms"),
        "sensing.plan_coherence": (max(p.final_coherence for p in plans), "ratio"),
        **work("sensing.random_place_sensors",
               named(campaign_spans, "sensing.random_place_sensors")),
        **work("recon.solve_bpdn.eps0", [s for s in solves if s.info["route"] == "eps0"]),
        **work("recon.solve_bpdn.epspos", [s for s in solves if s.info["route"] == "epspos"]),
        "recon.solve_bpdn.iterations_sum": (sum(iterations), "count"),
        "recon.solve_bpdn.iterations_max": (max(iterations, default=0), "count"),
        "recon.nonconverged": (sum(1 for s in solves if not s.info["converged"]), "count"),
        **work("recon.min_energy", named(campaign_spans, "recon.min_energy")),
        "harness.sample_sparse_state_ms": campaign_ms("harness.sample_sparse_state"),
        "harness.simulate_measurements_ms": campaign_ms("harness.simulate_measurements"),
        "harness.add_noise_ms": campaign_ms("harness.add_noise"),
        "harness.run_trial.self_ms": (
            1e3 * sum(t.seconds - children.get(id(t), 0.0) for t in trials), "ms"),
        "harness.run_benchmark.self_s": (wall - covered, "s"),
        "harness.trials": (len(trials), "count"),
        "trace.overhead_frac": (statistics.median(
            s.seconds / u for s, u in zip(campaigns, untraced_s)) - 1.0, "ratio"),
    }
