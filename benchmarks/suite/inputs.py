"""Frozen workload inputs and sizes for the benchmark suite.

Everything a workload runs is decided here and derives from ``--seed``;
nothing is imported from the legacy ``benchmarks/bench_*.py`` files,
which sit outside the suite and may change or disappear.
"""

from __future__ import annotations

import random

#: Names are fixed: later issues cite them.
WORKLOADS = ("matrix-serial", "smallcells-pool", "service-hit", "service-miss")

KERNELS = ("bfs", "sssp", "cc", "pr", "bc", "tc")

#: Client threads / connections of the closed-loop load generator: the
#: sandbox has two cores, and the server under test needs one of them.
CLIENTS = 2

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Operation counts per round.  A run repeats whole rounds until
#: ``--seconds`` is used up and reports medians over rounds, so these fix
#: *what* one round does, never how long a run lasts.  ``quick`` is the
#: smoke-test size: same code paths, seconds instead of minutes.
SIZES = {
    "full": {
        # 360 cells per round, small enough for four or five rounds per run.
        "matrix_scale": 10,
        # Scale of the two graphs the repro.la primitives are timed on.
        "la_scale": 12,
        # smallcells-pool: campaigns per round, each 360 cells at scale 6.
        "pool_campaigns": 8,
        # service-hit: submissions per client per round.
        "hit_submissions": 500,
        # service-miss: submissions per client per round (12 misses each);
        # even a run slowed to seven rounds keeps ten samples beyond p95.
        "miss_submissions": 16,
        # In-process hot-path samples for service.server.inproc_p50_ms.
        "inproc_samples": 2000,
        # Minimum loop time behind every directly timed primitive.
        "calibrate_s": 0.2,
        # Campaigns per backend behind the smallcells-pool backend walls.
        "backend_repeats": 3,
    },
    "quick": {
        "matrix_scale": 6,
        "la_scale": 8,
        "pool_campaigns": 2,
        "hit_submissions": 120,
        "miss_submissions": 3,
        "inproc_samples": 200,
        "calibrate_s": 0.01,
        "backend_repeats": 1,
    },
}

#: Eight distinct small campaigns (21 distinct cells, scale 6): different
#: kernel subsets and frameworks over a shared cell population, so hits
#: exercise whole-campaign and per-cell memoization alike.
HIT_CAMPAIGNS = (
    {"graphs": "urand", "kernels": "bfs,cc", "frameworks": "gap", "modes": "baseline"},
    {"graphs": "urand", "kernels": "pr", "frameworks": "gap,suitesparse", "modes": "baseline"},
    {"graphs": "urand", "kernels": "bfs,pr", "frameworks": "suitesparse", "modes": "baseline,optimized"},
    {"graphs": "kron", "kernels": "bfs,cc", "frameworks": "gap", "modes": "baseline"},
    {"graphs": "kron", "kernels": "cc,pr", "frameworks": "gap,suitesparse", "modes": "optimized"},
    {"graphs": "road", "kernels": "bfs,sssp", "frameworks": "gap", "modes": "baseline"},
    {"graphs": "road", "kernels": "sssp", "frameworks": "gap,suitesparse", "modes": "baseline,optimized"},
    {"graphs": "web", "kernels": "bfs,cc,pr", "frameworks": "gap", "modes": "baseline"},
)
HIT_SCALE = 6

#: One miss submission: 2 graphs x 3 kernels x 2 frameworks x 1 mode.
MISS_CAMPAIGN = {
    "graphs": "kron,road",
    "kernels": "bfs,cc,pr",
    "frameworks": "gap,gkc",
    "modes": "baseline",
}
MISS_SCALE = 8
MISS_CELLS = 12

POOL_SCALE = 6


def hit_payloads(seed: int) -> list[dict[str, object]]:
    """The eight frozen campaigns as wire payloads, keyed to ``seed``."""
    return [
        {**campaign, "scale": HIT_SCALE, "seed": seed} for campaign in HIT_CAMPAIGNS
    ]


def hit_order(seed: int, round_index: int, slot: int, count: int) -> list[int]:
    """Campaign indices one client re-submits in one round."""
    rng = random.Random(f"hit:{seed}:{round_index}:{slot}")
    return [rng.randrange(len(HIT_CAMPAIGNS)) for _ in range(count)]


def miss_payload(seed: int, serial: int) -> dict[str, object]:
    """A miss submission no other submission of this run shares cells with.

    ``serial`` numbers the submissions of one run (0 is the throwaway that
    spawns the server's pool during set-up); the campaign seed is part of
    every cell digest, so distinct serials can never hit or coalesce.
    """
    return {**MISS_CAMPAIGN, "scale": MISS_SCALE, "seed": seed * 1_000_000 + serial}


def pool_campaign_seed(seed: int, serial: int) -> int:
    """Graph/source seed of the ``serial``-th small campaign of a run."""
    return seed * 1000 + serial
