"""Unit tests for the simulation engine and its metric bundle."""

from __future__ import annotations

import pytest

from repro.agents import CostScalingStrategy
from repro.mechanisms import OfflineVCGMechanism, OnlineGreedyMechanism
from repro.model import SmartphoneProfile, TaskSchedule
from repro.simulation import Scenario, SimulationEngine, WorkloadConfig


@pytest.fixture
def tiny_scenario():
    profiles = [
        SmartphoneProfile(phone_id=1, arrival=1, departure=1, cost=2.0),
        SmartphoneProfile(phone_id=2, arrival=1, departure=1, cost=4.0),
    ]
    schedule = TaskSchedule.from_counts([1], value=10.0)
    return Scenario(profiles, schedule)


class TestRun:
    def test_bundle_fields(self, tiny_scenario):
        result = SimulationEngine().run(
            OfflineVCGMechanism(), tiny_scenario
        )
        assert result.mechanism_name == "offline-vcg"
        assert result.tasks_served == 1
        # Winner: phone 1 (cost 2), VCG payment 4.
        assert result.true_welfare == pytest.approx(8.0)
        assert result.claimed_welfare == pytest.approx(8.0)
        assert result.total_payment == pytest.approx(4.0)
        assert result.overpayment == pytest.approx(2.0)
        assert result.overpayment_ratio == pytest.approx(1.0)

    def test_utilities(self, tiny_scenario):
        result = SimulationEngine().run(
            OfflineVCGMechanism(), tiny_scenario
        )
        assert result.utilities[1] == pytest.approx(2.0)
        assert result.utilities[2] == pytest.approx(0.0)

    def test_service_rate(self, tiny_scenario):
        result = SimulationEngine().run(
            OnlineGreedyMechanism(), tiny_scenario
        )
        assert result.service_rate == 1.0

    def test_empty_schedule_service_rate(self):
        scenario = Scenario(
            [SmartphoneProfile(phone_id=1, arrival=1, departure=1, cost=1.0)],
            TaskSchedule.from_counts([0], value=1.0),
        )
        result = SimulationEngine().run(OnlineGreedyMechanism(), scenario)
        assert result.service_rate == 1.0
        assert result.overpayment_ratio is None

    def test_strategies_change_bids(self, tiny_scenario):
        engine = SimulationEngine()
        truthful = engine.run(OnlineGreedyMechanism(), tiny_scenario)
        shaded = engine.run(
            OnlineGreedyMechanism(),
            tiny_scenario,
            strategies={1: CostScalingStrategy(3.0)},
        )
        # Phone 1 inflates from 2 to 6 and loses to phone 2.
        assert truthful.outcome.winners == (1,)
        assert shaded.outcome.winners == (2,)
        # Claimed and true welfare now differ (claimed uses the claim).
        assert shaded.claimed_welfare == pytest.approx(6.0)
        assert shaded.true_welfare == pytest.approx(6.0)

    def test_claimed_vs_true_welfare_divergence(self):
        """A lying *winner* makes claimed and true welfare diverge."""
        profiles = [
            SmartphoneProfile(phone_id=1, arrival=1, departure=1, cost=2.0),
        ]
        schedule = TaskSchedule.from_counts([1], value=10.0)
        scenario = Scenario(profiles, schedule)
        result = SimulationEngine().run(
            OnlineGreedyMechanism(),
            scenario,
            strategies={1: CostScalingStrategy(2.0)},
        )
        assert result.claimed_welfare == pytest.approx(6.0)
        assert result.true_welfare == pytest.approx(8.0)

    def test_package_on_existing_outcome(self, tiny_scenario):
        mechanism = OnlineGreedyMechanism()
        outcome = mechanism.run(
            tiny_scenario.truthful_bids(), tiny_scenario.schedule
        )
        result = SimulationEngine.package("custom", outcome, tiny_scenario)
        assert result.mechanism_name == "custom"
        assert result.outcome is outcome


class TestPackageSumsOverpaymentOnce:
    def test_one_total_overpayment_per_result(self, monkeypatch):
        from repro.metrics import overpayment as overpayment_module
        from repro.simulation import engine as engine_module

        real = overpayment_module.total_overpayment
        calls = []

        def counting(outcome, round_costs):
            calls.append(1)
            return real(outcome, round_costs)

        monkeypatch.setattr(overpayment_module, "total_overpayment", counting)
        monkeypatch.setattr(
            engine_module, "total_overpayment", counting, raising=False
        )
        scenario = WorkloadConfig(num_slots=10).generate(seed=4)
        outcome = OfflineVCGMechanism().run(
            scenario.truthful_bids(), scenario.schedule
        )
        SimulationEngine.package("offline-vcg", outcome, scenario)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_same_floats_as_the_metric_functions(self, seed):
        from repro.metrics import overpayment_ratio, total_overpayment

        scenario = WorkloadConfig(num_slots=10).generate(seed=seed)
        for mechanism in (OfflineVCGMechanism(), OnlineGreedyMechanism()):
            outcome = mechanism.run(
                scenario.truthful_bids(), scenario.schedule
            )
            result = SimulationEngine.package("m", outcome, scenario)
            overpayment = total_overpayment(outcome, scenario)
            ratio = overpayment_ratio(outcome, scenario)
            assert result.overpayment.hex() == overpayment.hex()
            assert ratio is not None
            assert result.overpayment_ratio.hex() == ratio.hex()
