"""Theorems 3/7 — polynomial-time computation, measured.

Times the computational kernels against instance size:

* the Hungarian solve (offline winning-bid determination, O((n+γ)^3)),
* the full offline VCG run (solve + one repair per winner),
* the full online run (greedy + Algorithm-2 payments),
* the city-scale tier: CSR graph construction and the sparse backend's
  solve + VCG at ``num_slots`` in {200, 500, 1000}, far beyond what the
  dense matrix path is benchmarked at (the 1000-slot cases are marked
  ``slow`` and deselected in CI's perf smoke).

These use pytest-benchmark's statistical timing (several rounds), since
here the time itself — not a reproduction table — is the product.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.experiments.config import MechanismSpec
from repro.experiments.sharding import CityConfig, run_sharded_campaign
from repro.matching.graph import TaskAssignmentGraph
from repro.mechanisms import OfflineVCGMechanism, OnlineGreedyMechanism
from repro.simulation import WorkloadConfig

#: The sparse-tier sizes.  1000 slots ≈ 6000 bids x 3000 tasks — minutes
#: of dense solving, a few seconds sparse — so it only runs on demand.
SPARSE_TIER = [
    200,
    500,
    pytest.param(1000, marks=pytest.mark.slow),
]

#: The streaming-engine city tier: (phones, slots, bench rounds).  The
#: CI smoke runs the 2·10⁴ case; 10⁵ and 10⁶ phones are ``slow``-marked
#: and exist to demonstrate the event-driven engine at city scale (the
#: retired batch engine's means on the same instances are committed
#: under ``before_mean_seconds`` in BENCH_0007.json).
CITY_TIER = [
    pytest.param(20_000, 200, 5, id="20000x200"),
    pytest.param(
        100_000, 1000, 3, id="100000x1000", marks=pytest.mark.slow
    ),
    pytest.param(
        1_000_000, 1000, 1, id="1000000x1000", marks=pytest.mark.slow
    ),
]


def _scenario(num_slots: int):
    return WorkloadConfig.paper_default().replace(
        num_slots=num_slots
    ).generate(seed=1)


def _city_scenario(num_phones: int, num_slots: int):
    return WorkloadConfig(
        num_slots=num_slots, phone_rate=num_phones / num_slots
    ).generate(seed=1)


@pytest.mark.parametrize("num_slots", [30, 50, 80])
def test_hungarian_solve_scaling(benchmark, num_slots):
    scenario = _scenario(num_slots)
    bids = scenario.truthful_bids()

    def solve():
        return TaskAssignmentGraph(scenario.schedule, bids).solve()

    allocation, welfare = benchmark(solve)
    assert welfare > 0.0
    assert allocation


@pytest.mark.parametrize("num_slots", [30, 50, 80])
def test_offline_vcg_scaling(benchmark, num_slots):
    scenario = _scenario(num_slots)
    bids = scenario.truthful_bids()
    mechanism = OfflineVCGMechanism()

    outcome = benchmark(mechanism.run, bids, scenario.schedule)
    assert outcome.total_payment > 0.0


@pytest.mark.parametrize("num_slots", [30, 50, 80])
def test_online_greedy_scaling(benchmark, num_slots):
    scenario = _scenario(num_slots)
    bids = scenario.truthful_bids()
    mechanism = OnlineGreedyMechanism()

    outcome = benchmark(mechanism.run, bids, scenario.schedule)
    assert outcome.total_payment > 0.0


@pytest.mark.parametrize("num_slots", SPARSE_TIER)
def test_graph_build_scaling(benchmark, num_slots):
    """CSR graph construction without the dense matrix."""
    scenario = _scenario(num_slots)
    bids = scenario.truthful_bids()

    def build():
        return TaskAssignmentGraph(
            scenario.schedule, bids, backend="sparse"
        )

    graph = benchmark(build)
    assert graph.num_edges > 0
    assert graph.edge_density < 0.25


@pytest.mark.parametrize("num_slots", SPARSE_TIER)
def test_sparse_solve_scaling(benchmark, num_slots):
    """Winning-bid determination alone on the CSR backend."""
    scenario = _scenario(num_slots)
    bids = scenario.truthful_bids()

    def solve():
        return TaskAssignmentGraph(
            scenario.schedule, bids, backend="sparse"
        ).solve()

    allocation, welfare = benchmark(solve)
    assert welfare > 0.0
    assert allocation


@pytest.mark.parametrize("num_slots", SPARSE_TIER)
def test_offline_vcg_scaling_sparse(benchmark, num_slots):
    """Full offline VCG (solve + per-winner repairs), sparse backend.

    The committed baseline records the dense backend's time on the same
    instances under ``before_mean_seconds`` — the tentpole speedup.
    """
    scenario = _scenario(num_slots)
    bids = scenario.truthful_bids()
    mechanism = OfflineVCGMechanism(backend="sparse")

    outcome = benchmark(mechanism.run, bids, scenario.schedule)
    assert outcome.total_payment > 0.0


@pytest.mark.parametrize("num_phones,num_slots,rounds", CITY_TIER)
def test_online_streaming_scaling(benchmark, num_phones, num_slots, rounds):
    """The full online round on the event-driven streaming engine.

    Allocation plus every Algorithm-2 payment from one pass; the
    retired batch engine on the same instances is the committed
    ``before_mean_seconds`` baseline (≥5× at the 10⁵-phone tier).
    """
    scenario = _city_scenario(num_phones, num_slots)
    bids = scenario.truthful_bids()
    mechanism = OnlineGreedyMechanism()

    outcome = benchmark.pedantic(
        mechanism.run,
        args=(bids, scenario.schedule),
        rounds=rounds,
        iterations=1,
    )
    assert outcome.total_payment > 0.0


#: The sharded-campaign tier: (cities, phones/city, rounds/city, pool
#: workers, bench rounds).  The CI smoke runs the 8-city x 2·10⁴-phone
#: case; the before_mean_seconds committed in BENCH_0008.json is the
#: PR 4-era repetition-level pool (per-city ``run_campaign(workers=4)``
#: with scalar bid generation and pickled Bid lists) on the same
#: campaign.
SHARD_TIER = [
    pytest.param(8, 20_000, 2, 2, 3, id="8cityx20000"),
    pytest.param(
        8, 20_000, 10, 4, 1, id="8cityx20000x10", marks=pytest.mark.slow
    ),
]


def _city_workload(num_phones: int) -> WorkloadConfig:
    return WorkloadConfig(num_slots=50, phone_rate=num_phones / 50)


@pytest.mark.parametrize(
    "num_cities,num_phones,rounds_per_city,workers,bench_rounds", SHARD_TIER
)
def test_sharded_campaign_city_scale(
    benchmark, num_cities, num_phones, rounds_per_city, workers, bench_rounds
):
    """The full sharded campaign: columnar generation, shared-memory
    fan-out, streaming mechanism, blob assembly.

    This is the tentpole speedup: the same campaign through the PR 4
    repetition-level pool ships every round as a pickled Bid list and
    generates bids object-by-object; its mean on this instance is the
    committed ``before_mean_seconds`` in BENCH_0008.json (>=3x).
    """
    workload = _city_workload(num_phones)
    cities = [
        CityConfig(f"city-{index}", workload, num_rounds=rounds_per_city)
        for index in range(num_cities)
    ]
    mechanism = MechanismSpec.of("online-greedy")

    result = benchmark.pedantic(
        run_sharded_campaign,
        args=(mechanism, cities),
        kwargs={"seed": 2014, "workers": workers},
        rounds=bench_rounds,
        iterations=1,
    )
    assert result.num_rounds == num_cities * rounds_per_city
    assert result.total_welfare > 0.0


def test_vectorized_generation_bounds():
    """Pin the batched bid generator's cost at the city tier.

    One 2·10⁴-phone round must stay a handful of numpy draws: measured
    ~4 ms and ~1 MB of column data, asserted here with wide CI headroom
    so a regression back to per-phone scalar draws (~300 ms, millions of
    transient objects) fails loudly.
    """
    workload = _city_workload(20_000)
    workload.generate_columns(seed=0)  # warm numpy + code paths
    tracemalloc.start()
    started = time.perf_counter()
    columns = workload.generate_columns(seed=1)
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert columns.num_phones > 15_000
    assert elapsed < 0.25, f"columnar generation took {elapsed:.3f}s"
    assert peak < 16 * 2**20, f"columnar generation peaked at {peak} bytes"


def test_exact_payment_rule_overhead(benchmark):
    """The binary-search payment rule's cost relative to Algorithm 2."""
    scenario = _scenario(30)
    bids = scenario.truthful_bids()
    mechanism = OnlineGreedyMechanism(
        reserve_price=True, payment_rule="exact"
    )
    outcome = benchmark(mechanism.run, bids, scenario.schedule)
    assert outcome.total_payment > 0.0
