"""Unit tests for the deterministic retry policy."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.utils import RetryPolicy


class TestRetryPolicy:
    def test_defaults_single_attempt_no_wait(self):
        policy = RetryPolicy()
        assert policy.retries == 0
        assert policy.delays() == ()

    def test_delays_match_exponential_backoff(self):
        policy = RetryPolicy(retries=4, backoff=0.5)
        assert policy.delays() == tuple(
            0.5 * 2.0**attempt for attempt in range(4)
        )

    def test_custom_multiplier(self):
        policy = RetryPolicy(retries=3, backoff=1.0, multiplier=3.0)
        assert policy.delays() == (1.0, 3.0, 9.0)

    def test_max_delay_caps_every_wait(self):
        policy = RetryPolicy(retries=5, backoff=1.0, max_delay=3.0)
        assert policy.delays() == (1.0, 2.0, 3.0, 3.0, 3.0)

    def test_delay_for_negative_attempt_rejected(self):
        with pytest.raises(ValidationError, match="attempt"):
            RetryPolicy(retries=1, backoff=1.0).delay_for(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"backoff": -0.1},
            {"multiplier": 0.0},
            {"max_delay": -1.0},
            {"multiplier": -1.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)

    def test_policy_is_picklable(self):
        import pickle

        policy = RetryPolicy(retries=2, backoff=0.25)
        assert pickle.loads(pickle.dumps(policy)) == policy

