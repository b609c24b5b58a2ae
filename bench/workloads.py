"""The benchmark's named workloads and how a run is sized from its budget.

Plain data: this module imports nothing from gridsense, so `run.py` can
validate arguments before any child interpreter starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# share of --seconds spent in the campaign and snapshot phases
CAMPAIGN_SHARE = 0.65
SNAPSHOT_SHARE = 0.3
# each snapshot is estimated once per pass, passes spread over the run; more
# passes give a steadier median per snapshot, more snapshots a wider input sample
SNAPSHOT_PASSES = 32
SNAPSHOTS_BEFORE_PASSES = 50
# the tail percentile needs this many samples beyond it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    greedy_meters: tuple[int, ...]
    # (sparsity, meters, "greedy" | "random", estimator, noise_std); greedy
    # cells run on the plan placed at setup, as `bench --placement file:PATH` does
    cells: tuple[tuple[int, int, str, str, float], ...]
    threads: int
    trials: int  # trials per cell in one sub-campaign
    campaign_cost_s: float  # measured wall of one sub-campaign, used for sizing only
    estimate_cost_s: float  # measured wall of one estimate_state call, for sizing only
    interpreters: int  # a --trace 0 run is split over this many, one after another

    def trials_per_cell(self, seconds: float) -> int:
        """Full size unless --seconds cannot afford one sub-campaign."""
        fit = self.trials * CAMPAIGN_SHARE * seconds / self.campaign_cost_s
        return max(1, min(self.trials, math.floor(fit)))

    def sub_campaigns(self, seconds: float) -> int:
        return max(1, round(CAMPAIGN_SHARE * seconds / self.campaign_cost_s))

    def snapshots(self, seconds: float) -> tuple[int, int]:
        """(snapshot count, passes): up to SNAPSHOT_PASSES passes once the
        budget affords SNAPSHOTS_BEFORE_PASSES snapshots, and never so few
        snapshots that the tail percentile falls below the median."""
        budget = SNAPSHOT_SHARE * seconds / self.estimate_cost_s
        passes = max(1, min(SNAPSHOT_PASSES, math.floor(budget / SNAPSHOTS_BEFORE_PASSES)))
        return max(2 * TAIL_BEYOND + 1, math.ceil(budget / passes)), passes


def _grid(sparsity, meters, placements, estimators, noise):
    return tuple(
        (s, k, pl, est, nz)
        for s in sparsity
        for k in meters
        for pl in placements
        for est in estimators
        for nz in noise
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ieee9-sparsity",
            case="ieee9.case",
            greedy_meters=(7, 8),
            cells=_grid((1, 2, 3), (7, 8), ("greedy", "random"), ("cs",), (0.0,)),
            threads=1,
            trials=100,
            campaign_cost_s=2.9,
            estimate_cost_s=0.002,
            interpreters=5,
        ),
        Workload(
            name="ieee9-noise",
            case="ieee9.case",
            greedy_meters=(7,),
            cells=_grid((1,), (7,), ("greedy",), ("cs", "min_energy"),
                        (0.0, 0.002, 0.01, 0.05)),
            threads=2,
            trials=100,
            campaign_cost_s=0.83,
            estimate_cost_s=0.0009,
            interpreters=5,
        ),
        Workload(
            name="ieee9-noise-serial",
            case="ieee9.case",
            greedy_meters=(7,),
            cells=_grid((1,), (7,), ("greedy",), ("cs", "min_energy"),
                        (0.0, 0.002, 0.01, 0.05)),
            threads=1,
            trials=100,
            campaign_cost_s=0.7,
            estimate_cost_s=0.0009,
            interpreters=5,
        ),
        Workload(
            name="ieee118-noiseless",
            case="ieee118.case",
            greedy_meters=(60,),
            cells=_grid((2,), (60,), ("greedy",), ("cs",), (0.0,)),
            threads=1,
            trials=50,
            campaign_cost_s=0.67,
            estimate_cost_s=0.0135,
            interpreters=5,
        ),
        Workload(
            name="ieee118-noisy",
            case="ieee118.case",
            greedy_meters=(90,),
            cells=_grid((5,), (90,), ("greedy",), ("cs",), (0.01,)),
            threads=1,
            trials=10,
            campaign_cost_s=8.0,
            estimate_cost_s=0.8,
            interpreters=3,
        ),
    )
}
