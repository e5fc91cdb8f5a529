"""Unit tests for scenario trace persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError, ValidationError
from repro.simulation import WorkloadConfig, load_scenario, save_scenario
from repro.simulation.traces import scenario_from_dict, scenario_to_dict


@pytest.fixture
def scenario():
    return WorkloadConfig(
        num_slots=6,
        phone_rate=2.0,
        task_rate=1.0,
        mean_cost=5.0,
        mean_active_length=2,
        task_value=8.0,
    ).generate(seed=1)


class TestRoundTrip:
    def test_file_round_trip(self, scenario, tmp_path):
        path = tmp_path / "trace.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.profiles == scenario.profiles
        assert loaded.schedule == scenario.schedule
        assert loaded.metadata == scenario.metadata

    def test_dict_round_trip(self, scenario):
        loaded = scenario_from_dict(scenario_to_dict(scenario))
        assert loaded.profiles == scenario.profiles
        assert loaded.schedule == scenario.schedule

    def test_trace_is_stable_json(self, scenario, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scenario, a)
        save_scenario(scenario, b)
        assert a.read_text() == b.read_text()

    def test_replay_produces_identical_outcome(self, scenario, tmp_path):
        from repro.mechanisms import OnlineGreedyMechanism

        path = tmp_path / "trace.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        mechanism = OnlineGreedyMechanism()
        original = mechanism.run(scenario.truthful_bids(), scenario.schedule)
        replayed = mechanism.run(loaded.truthful_bids(), loaded.schedule)
        assert original == replayed


class TestFailureModes:
    def test_unsupported_version(self, scenario):
        payload = scenario_to_dict(scenario)
        payload["format_version"] = 99
        with pytest.raises(SimulationError, match="version"):
            scenario_from_dict(payload)

    def test_missing_fields(self, scenario):
        payload = scenario_to_dict(scenario)
        del payload["profiles"]
        with pytest.raises(SimulationError, match="malformed"):
            scenario_from_dict(payload)

    def test_corrupt_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SimulationError, match="not valid JSON"):
            load_scenario(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(SimulationError, match="JSON object"):
            load_scenario(path)

    def test_corrupt_profile_entry(self, scenario, tmp_path):
        payload = scenario_to_dict(scenario)
        payload["profiles"][0] = {"phone_id": 1}  # missing fields
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(Exception):
            load_scenario(path)


class TestValueTypes:
    """Values are validated as read: nothing is coerced to int or float."""

    @pytest.mark.parametrize("num_slots", ["6", 6.0, 6.5, True])
    def test_num_slots_must_be_an_integer(self, scenario, num_slots):
        payload = scenario_to_dict(scenario)
        payload["num_slots"] = num_slots
        with pytest.raises(ValidationError, match="num_slots"):
            scenario_from_dict(payload)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("phone_id", False),
            ("arrival", "x"),
            ("arrival", 1.9),
            ("departure", 3.0),
            ("cost", "3"),
            ("cost", True),
        ],
    )
    def test_profile_values_are_not_coerced(self, scenario, field, value):
        payload = scenario_to_dict(scenario)
        payload["profiles"][0][field] = value
        with pytest.raises(ValidationError, match=field):
            scenario_from_dict(payload)

    @pytest.mark.parametrize(
        "field,value",
        [("task_id", True), ("slot", 1.0), ("index", "1"), ("value", "8")],
    )
    def test_task_values_are_not_coerced(self, scenario, field, value):
        payload = scenario_to_dict(scenario)
        payload["tasks"][0][field] = value
        with pytest.raises(ValidationError, match=field):
            scenario_from_dict(payload)

    def test_metadata_must_be_an_object(self, scenario):
        payload = scenario_to_dict(scenario)
        payload["metadata"] = ["not", "an", "object"]
        with pytest.raises(SimulationError, match="metadata"):
            scenario_from_dict(payload)
