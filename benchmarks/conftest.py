"""Shared helpers for the figure-reproduction benches.

Each bench regenerates one table or figure of the paper's evaluation
(Section VI), prints the measured series next to the paper's qualitative
claim, and asserts the *shape* (who wins, monotonicity, stability) — not
absolute numbers, which depend on the unpublished task value ν and cost
distribution shape (see EXPERIMENTS.md).

Benches run the sweep once inside ``benchmark.pedantic`` so that
``pytest benchmarks/ --benchmark-only`` both times the harness and emits
the reproduction report.
"""

from __future__ import annotations

from typing import List, Sequence

import pytest

from repro import obs
from repro.experiments import figure_spec, render_sweep_table, run_sweep
from repro.experiments.report import render_sweep_chart

#: Repetitions per sweep point in bench runs — enough to average noise,
#: small enough to keep the full bench suite fast.
BENCH_REPETITIONS = 5
BENCH_SEED = 2014


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out",
        default=None,
        help="export every span/event of the bench session as JSONL",
    )


@pytest.fixture(autouse=True, scope="session")
def _bench_telemetry(request):
    """Trace the whole bench session when CI asks for artifacts.

    Without ``--trace-out`` this fixture installs nothing, so plain
    ``pytest benchmarks/`` keeps measuring the untraced fast path.
    """
    trace_out = request.config.getoption("--trace-out")
    if trace_out is None:
        yield None
        return
    sink = obs.JsonlSink(trace_out)
    tracer = obs.Tracer(sink=sink)
    with obs.activate(tracer):
        yield tracer
    sink.close()


@pytest.fixture(scope="session")
def figure_results():
    """Cache: each figure's sweep runs at most once per bench session."""
    cache = {}

    def run(name: str):
        if name not in cache:
            spec = figure_spec(
                name, repetitions=BENCH_REPETITIONS, base_seed=BENCH_SEED
            )
            cache[name] = run_sweep(spec)
        return cache[name]

    return run


def print_figure_report(result, metric: str, paper_claim: str) -> None:
    """Emit the measured table + chart and the paper's expected shape."""
    print()
    print(render_sweep_table(result, metric))
    print()
    print(render_sweep_chart(result, metric))
    print()
    print(f"paper claim: {paper_claim}")


def series_means(result, label: str, metric: str) -> List[float]:
    """Mean series of one mechanism over the sweep values."""
    return [value for _, value in result.series(label, metric)]


def assert_increasing(values: Sequence[float], tolerance: float = 0.0) -> None:
    """Assert a series trends upward end-to-end (noise-tolerant)."""
    assert values[-1] > values[0] * (1.0 - tolerance), values


def assert_decreasing(values: Sequence[float]) -> None:
    """Assert a series trends downward end-to-end."""
    assert values[-1] < values[0], values


def assert_stable(
    values: Sequence[float], low: float, high: float
) -> None:
    """Assert every point of a series stays inside ``[low, high]``."""
    for value in values:
        assert low <= value <= high, (values, low, high)
