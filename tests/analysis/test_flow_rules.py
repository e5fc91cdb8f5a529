"""Positive + negative fixtures for each interprocedural rule.

Every test builds a tiny in-memory module graph (module name → source),
runs the engine, and asserts on the codes that fire.  Module names are
chosen to land inside or outside each rule's package scope.
"""

from __future__ import annotations

import textwrap
from typing import Dict, List

from repro.analysis.flow.engine import FlowEngine
from repro.analysis.flow.modules import ModuleGraph
from repro.analysis.flow.rules import run_flow_rules
from repro.analysis.flow.summaries import summarize_module


def make_engine(sources: Dict[str, str]) -> FlowEngine:
    modules = {
        name: summarize_module(
            name, name.replace(".", "/") + ".py", textwrap.dedent(source)
        )
        for name, source in sources.items()
    }
    return FlowEngine(ModuleGraph(modules))


def codes_of(sources: Dict[str, str]) -> List[str]:
    return [v.code for v in run_flow_rules(make_engine(sources))]


WORKER_POOL = """
    from concurrent.futures import ProcessPoolExecutor
"""


class TestWorkerPickleSafety:
    def test_lambda_callable_flagged(self):
        codes = codes_of(
            {
                "app.fan": """
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(items):
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(lambda x: x + 1, item) for item in items]
                    return [f.result() for f in futures]
                """
            }
        )
        assert "REP010" in codes

    def test_nested_function_callable_flagged(self):
        codes = codes_of(
            {
                "app.fan": """
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(items):
                    def work(item):
                        return item + 1

                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(work, item) for item in items]
                    return [f.result() for f in futures]
                """
            }
        )
        assert "REP010" in codes

    def test_lambda_argument_flagged(self):
        codes = codes_of(
            {
                "app.fan": """
                from concurrent.futures import ProcessPoolExecutor

                def work(item, key):
                    return key(item)

                def fan_out(items):
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(work, item, lambda x: x) for item in items]
                    return [f.result() for f in futures]
                """
            }
        )
        assert "REP010" in codes

    def test_lambda_handed_to_worker_pool_flagged(self):
        codes = codes_of(
            {
                "app.fan": """
                from repro.utils.pool import WorkerPool

                def fan_out(items):
                    with WorkerPool(2) as pool:
                        return list(pool.run(lambda x: x + 1, items))
                """
            }
        )
        assert "REP010" in codes

    def test_worker_pool_parameter_run_is_a_submit_site(self):
        engine = make_engine(
            {
                "app.fan": """
                from repro.utils.pool import WorkerPool

                def work(item):
                    return item + 1

                def fan_out(pool: WorkerPool, items):
                    return list(pool.run(work, items))

                def not_a_pool(engine, items):
                    return engine.run(work, items)
                """
            }
        )
        assert engine.worker_entrypoints() == {"app.fan:work": "app.fan:fan_out"}

    def test_module_level_callable_clean(self):
        codes = codes_of(
            {
                "app.fan": """
                from concurrent.futures import ProcessPoolExecutor

                def work(item):
                    return item + 1

                def fan_out(items):
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(work, item) for item in items]
                    return [f.result() for f in futures]
                """
            }
        )
        assert "REP010" not in codes

    def test_shared_memory_handle_by_value_flagged(self):
        """Submitting the live handle ships a second owner to the worker."""
        violations = run_flow_rules(
            make_engine(
                {
                    "app.fan": """
                    from concurrent.futures import ProcessPoolExecutor
                    from multiprocessing import shared_memory

                    def work(segment):
                        return bytes(segment.buf[:4])

                    def fan_out(payload):
                        segment = shared_memory.SharedMemory(create=True, size=len(payload))
                        with ProcessPoolExecutor() as pool:
                            future = pool.submit(work, segment)
                        return future.result()
                    """
                }
            )
        )
        flagged = [v for v in violations if v.code == "REP010"]
        assert flagged, "live SharedMemory handle crossing submit not flagged"
        assert "segment.name" in flagged[0].message

    def test_shared_memory_by_name_clean(self):
        """Passing segment.name and attaching worker-side is the discipline."""
        codes = codes_of(
            {
                "app.fan": """
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing import shared_memory

                def work(segment_name):
                    segment = shared_memory.SharedMemory(name=segment_name)
                    try:
                        return bytes(segment.buf[:4])
                    finally:
                        segment.close()

                def fan_out(payload):
                    segment = shared_memory.SharedMemory(create=True, size=len(payload))
                    try:
                        with ProcessPoolExecutor() as pool:
                            future = pool.submit(work, segment.name)
                        return future.result()
                    finally:
                        segment.close()
                        segment.unlink()
                """
            }
        )
        assert "REP010" not in codes

    def test_direct_ctor_import_handle_flagged(self):
        """The bare-name ctor spelling resolves through the import map too."""
        codes = codes_of(
            {
                "app.fan": """
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing.shared_memory import SharedMemory

                def work(segment):
                    return segment.size

                def fan_out(n):
                    block = SharedMemory(create=True, size=n)
                    with ProcessPoolExecutor() as pool:
                        future = pool.submit(work, block)
                    return future.result()
                """
            }
        )
        assert "REP010" in codes


class TestWorkerMutableGlobal:
    WORKER = """
        from concurrent.futures import ProcessPoolExecutor
        from app.state import remember

        def work(item):
            remember(item)
            return item

        def fan_out(items):
            with ProcessPoolExecutor() as pool:
                futures = [pool.submit(work, item) for item in items]
            return [f.result() for f in futures]
        """

    def test_cross_module_mutation_flagged(self):
        codes = codes_of(
            {
                "app.worker": self.WORKER,
                "app.state": """
                SEEN = set()

                def remember(item):
                    SEEN.add(item)
                """,
            }
        )
        assert "REP011" in codes

    def test_global_rebind_flagged(self):
        codes = codes_of(
            {
                "app.worker": self.WORKER,
                "app.state": """
                LAST = None

                def remember(item):
                    global LAST
                    LAST = item
                """,
            }
        )
        assert "REP011" in codes

    def test_unreachable_mutation_clean(self):
        codes = codes_of(
            {
                "app.state": """
                SEEN = set()

                def remember(item):
                    SEEN.add(item)
                """
            }
        )
        assert "REP011" not in codes

    def test_local_shadow_clean(self):
        codes = codes_of(
            {
                "app.worker": self.WORKER,
                "app.state": """
                SEEN = set()

                def remember(item):
                    SEEN = set()
                    SEEN.add(item)
                    return SEEN
                """,
            }
        )
        assert "REP011" not in codes


class TestRngStreamDiscipline:
    def test_ambient_rng_in_mechanism_flagged(self):
        codes = codes_of(
            {
                "repro.mechanisms.noisy": """
                import numpy as np

                def jitter(costs):
                    rng = np.random.default_rng()
                    return [cost + rng.normal() for cost in costs]
                """
            }
        )
        assert "REP012" in codes

    def test_global_reseed_in_faults_flagged(self):
        codes = codes_of(
            {
                "repro.faults.chaos": """
                import random

                def reseed(seed):
                    random.seed(seed)
                """
            }
        )
        assert "REP012" in codes

    def test_rng_argument_clean(self):
        codes = codes_of(
            {
                "repro.mechanisms.noisy": """
                def jitter(costs, rng):
                    return [cost + rng.normal() for cost in costs]
                """
            }
        )
        assert "REP012" not in codes

    def test_ambient_rng_outside_seeded_packages_clean(self):
        codes = codes_of(
            {
                "repro.experiments.scratch": """
                import numpy as np

                def jitter(costs):
                    rng = np.random.default_rng()
                    return [cost + rng.normal() for cost in costs]
                """
            }
        )
        assert "REP012" not in codes


class TestUnorderedReduction:
    def test_set_iteration_float_accumulation_flagged(self):
        codes = codes_of(
            {
                "app.metrics": """
                def total(values):
                    winners = set(values)
                    acc = 0.0
                    for value in winners:
                        acc += value
                    return acc
                """
            }
        )
        assert "REP013" in codes

    def test_set_iteration_dict_fill_flagged(self):
        codes = codes_of(
            {
                "app.metrics": """
                def pay(allocation):
                    payments = {}
                    for phone in set(allocation.values()):
                        payments[phone] = 1.0
                    return payments
                """
            }
        )
        assert "REP013" in codes

    def test_sorted_wrap_clean(self):
        codes = codes_of(
            {
                "app.metrics": """
                def pay(allocation):
                    payments = {}
                    for phone in sorted(set(allocation.values())):
                        payments[phone] = 1.0
                    return payments
                """
            }
        )
        assert "REP013" not in codes

    def test_membership_and_len_clean(self):
        codes = codes_of(
            {
                "app.metrics": """
                def count(values, winners):
                    chosen = set(winners)
                    total = 0.0
                    for value in values:
                        if value in chosen:
                            total += value
                    return total, len(chosen)
                """
            }
        )
        assert "REP013" not in codes


class TestTelemetryInInnerLoop:
    def test_counter_in_loop_on_hot_path_flagged(self):
        codes = codes_of(
            {
                "repro.mechanisms.hot": """
                from repro import obs

                def score(bids):
                    for bid in bids:
                        obs.counter("mechanism.bid.scored")
                """
            }
        )
        assert "REP014" in codes

    def test_span_outside_loop_clean(self):
        codes = codes_of(
            {
                "repro.mechanisms.hot": """
                from repro import obs

                def score(bids):
                    with obs.span("mechanism.score"):
                        for bid in bids:
                            pass
                """
            }
        )
        assert "REP014" not in codes

    def test_loop_telemetry_off_hot_path_clean(self):
        codes = codes_of(
            {
                "repro.experiments.loop": """
                from repro import obs

                def sweep(points):
                    for point in points:
                        obs.counter("sweep.point.done")
                """
            }
        )
        assert "REP014" not in codes


class TestUnguardedTimeRead:
    WORKER = """
        from concurrent.futures import ProcessPoolExecutor
        from app.clocked import measure

        def work(item):
            return measure(item)

        def fan_out(items):
            with ProcessPoolExecutor() as pool:
                futures = [pool.submit(work, item) for item in items]
            return [f.result() for f in futures]
        """

    def test_worker_reachable_time_read_flagged(self):
        codes = codes_of(
            {
                "app.worker": self.WORKER,
                "app.clocked": """
                import time

                def measure(item):
                    return item, time.perf_counter()
                """,
            }
        )
        assert "REP015" in codes

    def test_environ_read_flagged(self):
        codes = codes_of(
            {
                "app.worker": self.WORKER,
                "app.clocked": """
                import os

                def measure(item):
                    return item, os.environ["HOME"]
                """,
            }
        )
        assert "REP015" in codes

    def test_unreachable_time_read_clean(self):
        codes = codes_of(
            {
                "app.clocked": """
                import time

                def measure(item):
                    return item, time.perf_counter()
                """
            }
        )
        assert "REP015" not in codes

    def test_clock_module_exempt(self):
        codes = codes_of(
            {
                "app.worker": """
                from concurrent.futures import ProcessPoolExecutor
                from repro.obs.clock import measure

                def work(item):
                    return measure(item)

                def fan_out(items):
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(work, item) for item in items]
                    return [f.result() for f in futures]
                """,
                "repro.obs.clock": """
                import time

                def measure(item):
                    return item, time.perf_counter()
                """,
            }
        )
        assert "REP015" not in codes


class TestEngineResolution:
    def test_method_dispatch_through_annotation(self):
        """A base-annotated call reaches subclass overrides."""
        engine = make_engine(
            {
                "app.base": """
                class Runner:
                    def run(self, item):
                        raise NotImplementedError
                """,
                "app.impl": """
                import time
                from app.base import Runner

                class TimedRunner(Runner):
                    def run(self, item):
                        return item, time.perf_counter()
                """,
                "app.worker": """
                from concurrent.futures import ProcessPoolExecutor
                from app.base import Runner

                def work(runner: Runner, item):
                    return runner.run(item)

                def fan_out(runner, items):
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(work, runner, item) for item in items]
                    return [f.result() for f in futures]
                """,
            }
        )
        reachable = engine.worker_reachable()
        assert "app.impl:TimedRunner.run" in reachable
        codes = [v.code for v in run_flow_rules(engine)]
        assert "REP015" in codes

    def test_symbol_names_findings(self):
        violations = run_flow_rules(
            make_engine(
                {
                    "app.metrics": """
                    def total(values):
                        acc = 0.0
                        for value in set(values):
                            acc += value
                        return acc
                    """
                }
            )
        )
        assert violations
        assert violations[0].symbol == "app.metrics:total"
