"""The benchmark regression gate: parsing, round-trip, verdicts."""

from __future__ import annotations

import json

import pytest

from repro.obs.regression import (
    BenchStats,
    MissingBenchmarkError,
    RegressionError,
    compare,
    load_baseline,
    load_pytest_benchmark,
    main,
    select_benchmarks,
    write_baseline,
)


def _pytest_benchmark_file(tmp_path, mean=0.05, name="test_bench[80]"):
    path = tmp_path / "bench.json"
    path.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {
                        "name": name,
                        "stats": {
                            "mean": mean,
                            "min": mean * 0.9,
                            "rounds": 11,
                        },
                    }
                ]
            }
        )
    )
    return path


class TestParsing:
    def test_load_pytest_benchmark(self, tmp_path):
        stats = load_pytest_benchmark(_pytest_benchmark_file(tmp_path))
        assert stats["test_bench[80]"].mean_seconds == pytest.approx(0.05)
        assert stats["test_bench[80]"].rounds == 11

    def test_missing_benchmarks_key_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(RegressionError, match="benchmark-json"):
            load_pytest_benchmark(path)

    def test_baseline_round_trip(self, tmp_path):
        stats = {
            "a": BenchStats(
                mean_seconds=0.1, min_seconds=0.09, rounds=5
            )
        }
        out = tmp_path / "BASE.json"
        write_baseline(out, stats, note="n", before={"a": 0.3})
        assert load_baseline(out) == stats
        assert json.loads(out.read_text())["before_mean_seconds"] == {
            "a": 0.3
        }

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "BASE.json"
        path.write_text(json.dumps({"schema": "other", "benchmarks": {}}))
        with pytest.raises(RegressionError, match="schema"):
            load_baseline(path)


class TestCompare:
    def _stats(self, mean):
        return BenchStats(mean_seconds=mean, min_seconds=mean, rounds=3)

    def test_within_tolerance_passes(self):
        [comparison] = compare(
            {"b": self._stats(0.10)}, {"b": self._stats(0.11)}, 0.20
        )
        assert not comparison.regressed
        assert comparison.ratio == pytest.approx(1.1)

    def test_beyond_tolerance_regresses(self):
        [comparison] = compare(
            {"b": self._stats(0.10)}, {"b": self._stats(0.13)}, 0.20
        )
        assert comparison.regressed
        assert "REGRESSED" in comparison.describe()

    def test_missing_fresh_benchmark_is_a_typed_error(self):
        with pytest.raises(MissingBenchmarkError, match="missing") as info:
            compare({"b": self._stats(0.1)}, {}, 0.2)
        # The typed error names the offending benchmark for CI tooling,
        # and stays catchable as a plain RegressionError.
        assert info.value.benchmark == "b"
        assert isinstance(info.value, RegressionError)

    def test_unknown_gated_name_is_an_error(self):
        with pytest.raises(RegressionError, match="matches no baseline"):
            compare({}, {}, 0.2, only=["nope"])

    def test_only_glob_restricts_the_gate(self):
        baseline = {
            "test_vcg[40]": self._stats(0.1),
            "test_vcg[80]": self._stats(0.2),
            "test_greedy[80]": self._stats(0.3),
        }
        current = {name: self._stats(0.1) for name in baseline}
        comparisons = compare(baseline, current, 0.2, only=["test_vcg*"])
        assert [c.name for c in comparisons] == [
            "test_vcg[40]",
            "test_vcg[80]",
        ]

    def test_glob_only_needs_matching_fresh_benchmarks(self):
        baseline = {
            "test_vcg[80]": self._stats(0.1),
            "test_greedy[80]": self._stats(0.1),
        }
        # The fresh run lost the gated benchmark: typed error, even
        # though the other baseline entry is present.
        with pytest.raises(MissingBenchmarkError) as info:
            compare(baseline, {"test_greedy[80]": self._stats(0.1)},
                    0.2, only=["test_vcg*"])
        assert info.value.benchmark == "test_vcg[80]"


class TestSelectBenchmarks:
    NAMES = {"test_vcg[40]", "test_vcg[80]", "test_greedy[80]"}

    def test_no_patterns_selects_everything_sorted(self):
        assert select_benchmarks(self.NAMES) == sorted(self.NAMES)

    def test_glob_expands_sorted(self):
        assert select_benchmarks(self.NAMES, ["test_vcg*"]) == [
            "test_vcg[40]",
            "test_vcg[80]",
        ]

    def test_exact_bracketed_name_beats_the_character_class(self):
        # fnmatch would read "[80]" as a character class matching one
        # of "8"/"0" — an exact baseline name must select itself.
        assert select_benchmarks(self.NAMES, ["test_vcg[80]"]) == [
            "test_vcg[80]"
        ]

    def test_question_mark_and_ranges_still_work(self):
        assert select_benchmarks(self.NAMES, ["test_greedy[[]8?]"]) == [
            "test_greedy[80]"
        ]

    def test_first_pattern_wins_on_duplicates(self):
        selected = select_benchmarks(
            self.NAMES, ["test_vcg[80]", "test_vcg*"]
        )
        assert selected == ["test_vcg[80]", "test_vcg[40]"]

    def test_unmatched_pattern_raises(self):
        with pytest.raises(RegressionError, match="matches no baseline"):
            select_benchmarks(self.NAMES, ["test_hungarian*"])


class TestMain:
    def test_record_then_check(self, tmp_path, capsys):
        results = _pytest_benchmark_file(tmp_path)
        baseline = tmp_path / "BASE.json"
        assert main(
            ["record", str(results), "--out", str(baseline)]
        ) == 0
        assert main(
            ["check", str(results), "--baseline", str(baseline)]
        ) == 0
        assert "passed" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "BASE.json"
        write_baseline(
            baseline,
            {
                "test_bench[80]": BenchStats(
                    mean_seconds=0.01, min_seconds=0.01, rounds=3
                )
            },
        )
        results = _pytest_benchmark_file(tmp_path, mean=0.05)
        assert main(
            ["check", str(results), "--baseline", str(baseline)]
        ) == 1
        assert "FAILED" in capsys.readouterr().err


class TestNonFiniteInputs:
    """A gate fed NaN, zero or infinite numbers must refuse, not pass."""

    def _baseline_file(self, tmp_path, mean):
        path = tmp_path / "BASE.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro-bench/1",
                    "benchmarks": {
                        "test_bench[80]": {
                            "mean_seconds": mean,
                            "min_seconds": 0.01,
                            "rounds": 3,
                        }
                    },
                }
            )
        )
        return path

    @pytest.mark.parametrize(
        "mean", [float("nan"), 0.0, -0.1, float("inf")]
    )
    def test_baseline_mean_must_be_finite_and_positive(self, tmp_path, mean):
        with pytest.raises(RegressionError, match="mean_seconds"):
            load_baseline(self._baseline_file(tmp_path, mean))

    @pytest.mark.parametrize("mean", [float("nan"), 0.0])
    def test_check_exits_2_on_a_bad_baseline(self, tmp_path, capsys, mean):
        results = _pytest_benchmark_file(tmp_path, mean=99.0)
        baseline = self._baseline_file(tmp_path, mean)
        assert main(
            ["check", str(results), "--baseline", str(baseline)]
        ) == 2
        captured = capsys.readouterr()
        assert "[ok]" not in captured.out
        assert "mean_seconds" in captured.err

    @pytest.mark.parametrize("mean", [float("nan"), 0.0, float("inf")])
    def test_fresh_mean_must_be_finite_and_positive(self, tmp_path, mean):
        with pytest.raises(RegressionError, match="test_bench"):
            load_pytest_benchmark(_pytest_benchmark_file(tmp_path, mean))

    def test_fresh_min_must_be_finite_and_non_negative(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {
                            "name": "b",
                            "stats": {"mean": 0.1, "min": -1.0},
                        }
                    ]
                }
            )
        )
        with pytest.raises(RegressionError, match="min_seconds"):
            load_pytest_benchmark(path)

    def test_fresh_entry_without_min_is_a_typed_error(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"benchmarks": [{"name": "b", "stats": {"mean": 1}}]})
        )
        with pytest.raises(RegressionError, match="malformed"):
            load_pytest_benchmark(path)

    @pytest.mark.parametrize(
        "tolerance", [float("nan"), float("inf"), -0.1]
    )
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        stats = BenchStats(mean_seconds=0.1, min_seconds=0.1, rounds=3)
        with pytest.raises(RegressionError, match="tolerance"):
            compare({"b": stats}, {"b": stats}, tolerance)

    def test_check_rejects_a_nan_tolerance(self, tmp_path, capsys):
        results = _pytest_benchmark_file(tmp_path)
        baseline = tmp_path / "BASE.json"
        assert main(["record", str(results), "--out", str(baseline)]) == 0
        assert main(
            [
                "check", str(results), "--baseline", str(baseline),
                "--tolerance", "nan",
            ]
        ) == 2
        captured = capsys.readouterr()
        assert "passed" not in captured.out
        assert "tolerance" in captured.err
