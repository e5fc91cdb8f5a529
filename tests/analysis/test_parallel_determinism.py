"""Schedule-fuzzing determinism: the runtime twin of REP010–REP015.

``check_parallel_determinism`` executes one sweep point under permuted
worker counts and submission (chunk) orders, and asserts every run's
result rows pickle to the same bytes as the serial reference.  The full
acceptance matrix — ≥ 3 worker counts × 3 submission orders, plus the
campaign-round matrix against ``run_campaign`` and the
shard-permutation matrix against ``run_sharded_campaign`` — runs here
unconditionally;
``pytest --schedule-fuzz`` additionally gates the whole suite on a
wider matrix at session start (see ``tests/conftest.py``).
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.sanitizer import check_parallel_determinism
from repro.errors import SanitizationError
from repro.simulation import WorkloadConfig


@pytest.fixture(scope="module")
def fuzz_workload():
    return WorkloadConfig(
        num_slots=5,
        phone_rate=3.0,
        task_rate=1.5,
        mean_cost=10.0,
        mean_active_length=3,
        task_value=18.0,
    )


class TestScheduleFuzz:
    def test_full_matrix_is_byte_identical(self, fuzz_workload):
        """3 worker counts × 3 chunk orders, all identical.

        Plus the campaign-round half (with and without faults: the
        serial reference, ``run_campaign`` at workers 2 and 3, and 3
        worker counts × 3 round orders) and the shard-permutation half
        (the workers=1 reference and five fuzzed (shard workers ×
        submission order) combinations).
        """
        checked = check_parallel_determinism(
            workload=fuzz_workload,
            seeds=(0, 1, 2, 3),
            worker_counts=(1, 2, 3),
            shard_worker_counts=(1, 2),
        )
        assert checked == 9 + 2 * (1 + 2 + 9) + 6

    def test_shard_matrix_alone(self, fuzz_workload):
        """The shard half runs (and passes) with the sweep half minimal."""
        checked = check_parallel_determinism(
            workload=fuzz_workload,
            seeds=(0,),
            worker_counts=(1,),
            shard_worker_counts=(2,),
        )
        assert checked == 3 + 2 * (1 + 3) + 1 + 3

    def test_shard_matrix_skippable(self, fuzz_workload):
        """Empty shard_worker_counts skips the sharded half entirely."""
        checked = check_parallel_determinism(
            workload=fuzz_workload,
            seeds=(0,),
            worker_counts=(1,),
            shard_worker_counts=(),
        )
        assert checked == 3 + 2 * (1 + 3)

    def test_lost_repetition_detected(self, fuzz_workload, monkeypatch):
        """The seed-coverage guard trips before any byte comparison."""
        from repro.utils.pool import WorkerPool

        real = WorkerPool.run

        def dropping(self, worker, units):
            return list(real(self, worker, units))[:-1]

        monkeypatch.setattr(WorkerPool, "run", dropping)
        with pytest.raises(SanitizationError, match="lost repetitions"):
            check_parallel_determinism(
                workload=fuzz_workload,
                seeds=(0, 1),
                worker_counts=(2,),
                )


class TestPaymentByteStability:
    """Regression for the defect the flow analyzer surfaced (REP013).

    The offline payment loops iterated ``set(allocation.values())``
    while filling the payments dict, so the dict's insertion order —
    and therefore the outcome's serialised bytes — depended on set hash
    order, which differs across engines (each inserts winners in its
    own discovery order) and across processes.  The loops now iterate
    ``sorted(...)``; these tests pin the observable consequences.
    """

    @pytest.mark.parametrize("mechanism_name", ["offline-vcg", "offline-greedy-vcg"])
    def test_payment_keys_inserted_in_sorted_order(
        self, fuzz_workload, mechanism_name
    ):
        from repro.mechanisms import create_mechanism
        from repro.simulation import SimulationEngine

        scenario = fuzz_workload.generate(seed=7)
        engine = SimulationEngine()
        result = engine.run(create_mechanism(mechanism_name), scenario)
        keys = list(result.outcome.payments)
        assert keys and keys == sorted(keys)

    def test_outcome_bytes_identical_across_backends(self, fuzz_workload):
        """Payments pickle alike on every matching engine."""
        from tests.matching.engines import ENGINES, offline_vcg

        scenario = fuzz_workload.generate(seed=11)
        bids = scenario.truthful_bids()
        blobs = {
            pickle.dumps(
                offline_vcg(bids, scenario.schedule, engine).payments,
                protocol=4,
            )
            for engine in ENGINES
        }
        assert len(blobs) == 1

    def test_total_overpayment_sums_in_sorted_order(self):
        """Winner-cost corrections sum in sorted, not hash, order.

        ``total_overpayment`` only reads ``outcome.winners`` and
        ``outcome.payments``, so a duck-typed stand-in keeps the fixture
        focused on the float-addition order being pinned.  The costs are
        chosen so the sum is order-sensitive in the last bit.
        """
        from types import SimpleNamespace

        from repro.metrics.overpayment import total_overpayment

        costs = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.7, 5: 0.9}
        # Winners in a deliberately scrambled order, none of them paid:
        # every one goes through the sorted correction loop.
        outcome = SimpleNamespace(winners=(5, 3, 1, 4, 2), payments={})

        class FakeRound:
            real_costs = costs

        expected = 0.0
        for phone_id in sorted(costs):
            expected -= costs[phone_id]
        assert total_overpayment(outcome, FakeRound()) == expected
