"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Run one auction round with chosen workload parameters and mechanism;
    print the paper's metrics and a settlement summary.  Scenarios can
    be saved to / replayed from JSON traces.
``figures``
    Regenerate the paper's evaluation figures (Figs. 6-11) as tables and
    ASCII charts, optionally exporting CSV.
``audit``
    Run the truthfulness / individual-rationality audit against a
    mechanism.
``campaign``
    Run a multi-round campaign (round-by-round operation, Section
    III-B) with optional loser re-entry and fault injection.
``chaos``
    Run one round under injected faults (dropouts, delivery failures,
    bid delays/losses) paired against the fault-free run of the same
    bids; print the reliability report.
``replay``
    Deterministically re-execute a write-ahead journal written by a
    journaled round (``campaign --journal-dir`` / the durability API)
    and print the reconstructed outcome.
``verify-log``
    Integrity-check a journal without executing it: hash chain,
    sequence numbers, and torn-tail status.
``example``
    Walk through the paper's Fig. 4 / Fig. 5 worked example.
``trace``
    Run an instrumented scenario suite with telemetry enabled; export
    the span/event stream as JSONL, print the span tree and per-phase
    timings (plus ``--top`` self-time hotspots), and write a
    ``BENCH_*.json`` perf snapshot.
``trends``
    Render the bench-trend dashboard over every committed
    ``BENCH_*.json`` (and, optionally, the local run ledger): per-
    benchmark sparkline series with slope-based drift detection.
``profile``
    cProfile one mechanism run alongside the telemetry span report.
``lint``
    Run the repo-specific AST invariant linter
    (:mod:`repro.analysis`) over source trees.

Long-running commands additionally accept ``--ledger PATH`` (append a
structured run record to a durable ``RUNS.jsonl``) and, for
``campaign``, ``--heartbeat PATH`` (periodic live progress pulses).

Every command accepts ``--quiet`` (suppress progress chatter) and
``--json`` (emit one machine-readable JSON document instead of human
rendering); output is routed through :class:`repro.obs.Console`, and
default output is byte-identical to the historical plain prints.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.auction.multi_round import RETRY_LOSERS, RETRY_NONE, run_campaign
from repro.errors import ReproError
from repro.obs.ledger import LedgerSession, RunLedger
from repro.obs.live import HeartbeatConfig
from repro.experiments import (
    CityConfig,
    MechanismSpec,
    figure_spec,
    list_figures,
    render_sweep_csv,
    render_sweep_table,
    run_sharded_campaign,
    run_sweep,
)
from repro.experiments.figures import FIGURE_METRIC
from repro.experiments.report import render_sweep_chart
from repro.mechanisms import available_mechanisms, create_mechanism
from repro.metrics import audit_individual_rationality, audit_truthfulness
from repro.obs import Console
from repro.simulation import (
    SimulationEngine,
    WorkloadConfig,
    load_scenario,
    save_scenario,
)
from repro.utils.tables import format_table


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = WorkloadConfig.paper_default()
    parser.add_argument(
        "--slots", type=int, default=defaults.num_slots,
        help=f"slots per round m (default {defaults.num_slots})",
    )
    parser.add_argument(
        "--phone-rate", type=float, default=defaults.phone_rate,
        help=f"smartphone arrival rate λ (default {defaults.phone_rate})",
    )
    parser.add_argument(
        "--task-rate", type=float, default=defaults.task_rate,
        help=f"task arrival rate λ_t (default {defaults.task_rate})",
    )
    parser.add_argument(
        "--mean-cost", type=float, default=defaults.mean_cost,
        help=f"average real cost c̄ (default {defaults.mean_cost})",
    )
    parser.add_argument(
        "--active-length", type=int, default=defaults.mean_active_length,
        help="mean active-time length "
        f"(default {defaults.mean_active_length})",
    )
    parser.add_argument(
        "--task-value", type=float, default=defaults.task_value,
        help=f"task value ν (default {defaults.task_value})",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _workload_from_args(args: argparse.Namespace) -> WorkloadConfig:
    return WorkloadConfig(
        num_slots=args.slots,
        phone_rate=args.phone_rate,
        task_rate=args.task_rate,
        mean_cost=args.mean_cost,
        mean_active_length=args.active_length,
        task_value=args.task_value,
    )


def _add_mechanism_argument(
    parser: argparse.ArgumentParser, default: str = "online-greedy"
) -> None:
    parser.add_argument(
        "--mechanism",
        default=default,
        choices=sorted(available_mechanisms()),
        help=f"mechanism to run (default {default})",
    )
    parser.add_argument(
        "--reserve-price",
        action="store_true",
        help="online-greedy only: refuse bids above the task value",
    )
    parser.add_argument(
        "--payment-rule",
        choices=("paper", "exact"),
        default="paper",
        help="online-greedy only: Algorithm 2 or exact critical value",
    )
    # Accepted and ignored: the streaming engine is the only online
    # engine, but documented benchmark commands still pass the flag.
    parser.add_argument(
        "--engine",
        choices=("batch", "streaming"),
        default="batch",
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--price",
        type=float,
        default=None,
        help="fixed-price only: the posted price",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dropout-prob", type=float, default=0.0,
        help="probability a phone departs early without notice",
    )
    parser.add_argument(
        "--failure-prob", type=float, default=0.0,
        help="probability a winner fails to deliver its task",
    )
    parser.add_argument(
        "--bid-delay-prob", type=float, default=0.0,
        help="probability a bid reaches the platform late",
    )
    parser.add_argument(
        "--bid-loss-prob", type=float, default=0.0,
        help="probability a bid never reaches the platform",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of the fault draw (default: the workload seed)",
    )
    parser.add_argument(
        "--max-reassign", type=int, default=3,
        help="recovery attempts per failed task (default 3)",
    )


def _fault_config_from_args(args: argparse.Namespace):
    from repro.faults import FaultConfig

    return FaultConfig(
        dropout_prob=args.dropout_prob,
        task_failure_prob=args.failure_prob,
        bid_delay_prob=args.bid_delay_prob,
        bid_loss_prob=args.bid_loss_prob,
        max_reassignments=args.max_reassign,
    )


def _mechanism_kwargs_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    if args.mechanism == "online-greedy":
        return {
            "reserve_price": args.reserve_price,
            "payment_rule": args.payment_rule,
        }
    if args.mechanism == "fixed-price":
        if args.price is None:
            raise ReproError("--price is required for fixed-price")
        return {"price": args.price}
    return {}


def _mechanism_from_args(args: argparse.Namespace):
    return create_mechanism(args.mechanism, **_mechanism_kwargs_from_args(args))


def _mechanism_spec_from_args(args: argparse.Namespace) -> MechanismSpec:
    """The picklable spec of the same mechanism (shard workers rebuild)."""
    return MechanismSpec.of(args.mechanism, **_mechanism_kwargs_from_args(args))


def _ledger_session(
    args: argparse.Namespace,
    command: str,
    label: str,
    config: Dict[str, Any],
) -> Optional[LedgerSession]:
    """Open a run-ledger session when ``--ledger`` was given."""
    ledger_path = getattr(args, "ledger", None)
    if ledger_path is None:
        return None
    return LedgerSession.start(
        command, label=label, config=config, ledger=RunLedger(ledger_path)
    )


def _finish_ledger(
    session: Optional[LedgerSession], console: Console
) -> None:
    """Append the pending run record (no-op without ``--ledger``)."""
    if session is None:
        return
    record = session.finish()
    assert record is not None
    console.note(
        f"ledger: run {record.run_id} "
        f"({record.wall_seconds:.2f}s) appended"
    )
    console.result({"run_id": record.run_id})


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_simulate(args: argparse.Namespace, console: Console) -> int:
    if args.from_trace:
        scenario = load_scenario(args.from_trace)
        console.note(f"loaded scenario from {args.from_trace}")
    else:
        scenario = _workload_from_args(args).generate(seed=args.seed)
    if args.save_trace:
        save_scenario(scenario, args.save_trace)
        console.note(f"scenario saved to {args.save_trace}")

    mechanism = _mechanism_from_args(args)
    result = SimulationEngine().run(mechanism, scenario)
    console.out(
        f"\n{scenario.num_phones} phones, {scenario.num_tasks} tasks, "
        f"{scenario.num_slots} slots; mechanism: {mechanism.name}\n"
    )
    ratio = result.overpayment_ratio
    console.out(
        format_table(
            ["metric", "value"],
            [
                ["social welfare ω (Def. 3)", result.true_welfare],
                ["claimed welfare", result.claimed_welfare],
                ["total payment", result.total_payment],
                [
                    "overpayment ratio σ (Def. 11)",
                    ratio if ratio is not None else "n/a",
                ],
                ["tasks served", result.tasks_served],
                ["service rate", result.service_rate],
            ],
            title="Round metrics",
        )
    )
    console.result(
        {
            "mechanism": mechanism.name,
            "phones": scenario.num_phones,
            "tasks": scenario.num_tasks,
            "slots": scenario.num_slots,
            "welfare": result.true_welfare,
            "claimed_welfare": result.claimed_welfare,
            "total_payment": result.total_payment,
            "overpayment_ratio": ratio,
            "tasks_served": result.tasks_served,
            "service_rate": result.service_rate,
        }
    )
    return 0


def _cmd_figures(args: argparse.Namespace, console: Console) -> int:
    names = args.names or list(list_figures())
    unknown = [n for n in names if n not in list_figures()]
    if unknown:
        raise ReproError(
            f"unknown figure(s) {unknown}; available: {list(list_figures())}"
        )
    session = _ledger_session(
        args,
        "figures",
        label=",".join(names),
        config={
            "figures": names,
            "repetitions": args.repetitions,
            "seed": args.seed,
            "workers": args.workers,
            "retries": args.retries,
        },
    )
    checkpoint = None
    if args.checkpoint_dir is not None:
        from repro.experiments import CheckpointStore

        checkpoint = CheckpointStore(args.checkpoint_dir)
    cache = {}
    rendered = []
    for name in names:
        spec = figure_spec(
            name, repetitions=args.repetitions, base_seed=args.seed
        )
        key = (spec.param, spec.values)
        if key not in cache:
            cache[key] = run_sweep(
                spec,
                checkpoint=checkpoint,
                retries=args.retries,
                backoff=args.backoff,
                workers=args.workers,
            )
        result = cache[key]
        metric = FIGURE_METRIC[name]
        console.out()
        console.out(render_sweep_table(result, metric, title=spec.title))
        console.out()
        console.out(render_sweep_chart(result, metric))
        rendered.append(name)
        if args.csv_dir:
            out = pathlib.Path(args.csv_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.csv").write_text(
                render_sweep_csv(result, metric)
            )
            console.note(f"(csv written to {out / (name + '.csv')})")
    console.result({"figures": rendered})
    if session is not None:
        session.add_counters(
            figures=len(rendered), sweeps=len(cache)
        )
        if args.csv_dir is not None:
            session.add_artifact("csv_dir", str(args.csv_dir))
        _finish_ledger(session, console)
    return 0


def _cmd_audit(args: argparse.Namespace, console: Console) -> int:
    scenario = _workload_from_args(args).generate(seed=args.seed)
    mechanism = _mechanism_from_args(args)
    rng = np.random.default_rng(args.seed)
    report = audit_truthfulness(
        mechanism, scenario, rng, max_phones=args.max_phones
    )
    ir = audit_individual_rationality(mechanism, scenario)
    console.out(
        f"\nmechanism: {mechanism.name}  "
        f"({scenario.num_phones} phones, {scenario.num_tasks} tasks)\n"
    )
    console.out(
        format_table(
            ["check", "result"],
            [
                ["deviations tested", report.deviations_tested],
                ["profitable deviations", len(report.violations)],
                ["IR violations", len(ir)],
                ["truthfulness audit", "PASS" if report.passed else "FAIL"],
                ["individual rationality", "PASS" if not ir else "FAIL"],
            ],
            title="Audit",
        )
    )
    for violation in report.violations[:10]:
        console.out(
            f"  phone {violation.phone_id} gains {violation.gain:.3f} "
            f"via {violation.strategy}: {violation.deviant_bid}"
        )
    console.result(
        {
            "mechanism": mechanism.name,
            "deviations_tested": report.deviations_tested,
            "profitable_deviations": len(report.violations),
            "ir_violations": len(ir),
            "truthful": report.passed,
            "individually_rational": not ir,
        }
    )
    return 0 if report.passed and not ir else 1


def _cmd_chaos(args: argparse.Namespace, console: Console) -> int:
    from repro.faults import run_with_faults

    scenario = _workload_from_args(args).generate(seed=args.seed)
    config = _fault_config_from_args(args)
    run = run_with_faults(
        scenario,
        config,
        seed=args.fault_seed if args.fault_seed is not None else args.seed,
        reserve_price=args.reserve_price,
        payment_rule=args.payment_rule,
        paired=True,
    )
    report, reliability = run.report, run.reliability
    console.out(
        f"\n{scenario.num_phones} phones, {scenario.num_tasks} tasks, "
        f"{scenario.num_slots} slots; faults: dropout={config.dropout_prob} "
        f"failure={config.task_failure_prob} "
        f"delay={config.bid_delay_prob} loss={config.bid_loss_prob}\n"
    )
    console.out(
        format_table(
            ["fault", "count"],
            [
                ["bids lost in transit", len(report.lost_bids)],
                ["bids delayed", len(report.delayed_bids)],
                ["phones dropped out", len(report.dropped)],
                ["deliveries failed", len(report.failed_deliverers)],
                ["payments withheld", len(report.withheld)],
                ["tasks recovered", len(report.recovered_tasks)],
                ["tasks abandoned", len(report.abandoned_tasks)],
            ],
            title="Injected faults & recovery",
        )
    )
    console.out()
    console.out(
        format_table(
            ["metric", "value"],
            [
                ["tasks delivered", reliability.tasks_delivered],
                ["completion rate", reliability.completion_rate],
                ["recovered fraction", reliability.recovered_fraction],
                ["welfare (faulty)", reliability.welfare_faulty],
                ["welfare (fault-free)", reliability.welfare_fault_free],
                ["welfare degradation", reliability.welfare_degradation],
            ],
            title="Reliability vs. paired fault-free run",
        )
    )
    console.out("\nrecovered outcome passed all fault-aware invariant checks")
    console.result(
        {
            "dropped": len(report.dropped),
            "failed_deliveries": len(report.failed_deliverers),
            "recovered_tasks": len(report.recovered_tasks),
            "abandoned_tasks": len(report.abandoned_tasks),
            "completion_rate": reliability.completion_rate,
            "welfare_faulty": reliability.welfare_faulty,
            "welfare_fault_free": reliability.welfare_fault_free,
        }
    )
    return 0


def _cmd_campaign(args: argparse.Namespace, console: Console) -> int:
    if (
        args.cities is not None
        or args.shards > 1
        or args.checkpoint_dir is not None
    ):
        return _cmd_campaign_sharded(args, console)
    mechanism = _mechanism_from_args(args)
    fault_config = None
    if (
        args.dropout_prob or args.failure_prob
        or args.bid_delay_prob or args.bid_loss_prob
    ):
        fault_config = _fault_config_from_args(args)
    session = _ledger_session(
        args,
        "campaign",
        label=mechanism.name,
        config={
            "rounds": args.rounds,
            "seed": args.seed,
            "retry_losers": args.retry_losers,
            "workers": args.workers,
            "mechanism": mechanism.name,
            "slots": args.slots,
            "phone_rate": args.phone_rate,
            "task_rate": args.task_rate,
        },
    )
    heartbeat = None
    if args.heartbeat is not None:
        heartbeat = HeartbeatConfig(
            path=args.heartbeat,
            every=args.heartbeat_every,
            label="round",
            console=console,
        )
    # Heartbeats snapshot the ambient metrics registry; give them one
    # to read when the command isn't already traced.  Activation is
    # outcome-transparent (the trace-transparency invariant).
    vitals = (
        obs.activate(obs.Tracer())
        if heartbeat is not None and obs.current_tracer() is None
        else contextlib.nullcontext()
    )
    with vitals:
        result = run_campaign(
            mechanism,
            _workload_from_args(args),
            num_rounds=args.rounds,
            seed=args.seed,
            retry_policy=RETRY_LOSERS if args.retry_losers else RETRY_NONE,
            fault_config=fault_config,
            fault_seed=args.fault_seed,
            workers=args.workers,
            journal_dir=args.journal_dir,
            heartbeat=heartbeat,
        )
    if args.journal_dir is not None:
        console.note(f"per-round journals written under {args.journal_dir}")
    if args.heartbeat is not None:
        console.note(f"heartbeat log written to {args.heartbeat}")
    console.out(
        f"\ncampaign: {result.num_rounds} rounds, mechanism "
        f"{mechanism.name}, retry="
        f"{'losers' if args.retry_losers else 'none'}\n"
    )
    rows = [
        [
            index + 1,
            r.true_welfare,
            r.total_payment,
            r.overpayment_ratio if r.overpayment_ratio is not None else "n/a",
            r.tasks_served,
        ]
        for index, r in enumerate(result.rounds)
    ]
    console.out(
        format_table(
            ["round", "welfare", "payment", "σ", "tasks served"],
            rows,
            title="Per-round results",
        )
    )
    console.out()
    console.out(f"total welfare:    {result.total_welfare:.1f}")
    console.out(f"total payment:    {result.total_payment:.1f}")
    console.out(f"welfare/round:    {result.welfare_per_round}")
    console.out(f"returning phones: {result.returning_phones}")
    if fault_config is not None:
        console.out(f"phones dropped:   {result.dropped_phones}")
        console.out(f"failed deliveries:{result.delivery_failures}")
        console.out(f"tasks recovered:  {result.recovered_tasks}")
    console.result(
        {
            "mechanism": mechanism.name,
            "rounds": result.num_rounds,
            "total_welfare": result.total_welfare,
            "total_payment": result.total_payment,
            "returning_phones": result.returning_phones,
            "dropped_phones": result.dropped_phones,
            "delivery_failures": result.delivery_failures,
            "recovered_tasks": result.recovered_tasks,
        }
    )
    if session is not None:
        session.add_counters(
            rounds=result.num_rounds,
            total_welfare=result.total_welfare,
            total_payment=result.total_payment,
            returning_phones=result.returning_phones,
        )
        if args.journal_dir is not None:
            session.add_artifact("journal_dir", str(args.journal_dir))
        if args.heartbeat is not None:
            session.add_artifact("heartbeat", str(args.heartbeat))
        _finish_ledger(session, console)
    return 0


def _cmd_campaign_sharded(args: argparse.Namespace, console: Console) -> int:
    """``campaign --cities/--shards``: the shared-memory sharded runner."""
    if args.retry_losers:
        raise ReproError(
            "--cities/--shards is incompatible with --retry-losers "
            "(sharded rounds are independent by construction)"
        )
    if args.journal_dir is not None:
        raise ReproError(
            "--cities/--shards is incompatible with --journal-dir; use "
            "--checkpoint-dir for per-round shard checkpoints"
        )
    if (
        args.dropout_prob or args.failure_prob
        or args.bid_delay_prob or args.bid_loss_prob
    ):
        raise ReproError(
            "--cities/--shards does not support fault injection "
            "(fault-aware campaigns run the serial path)"
        )
    num_cities = args.cities if args.cities is not None else 1
    if num_cities < 1:
        raise ReproError(f"--cities must be >= 1, got {num_cities}")
    workload = _workload_from_args(args)
    cities = [
        CityConfig(f"city-{index}", workload, num_rounds=args.rounds)
        for index in range(num_cities)
    ]
    spec = _mechanism_spec_from_args(args)
    session = _ledger_session(
        args,
        "campaign",
        label=spec.display_label,
        config={
            "rounds": args.rounds,
            "seed": args.seed,
            "cities": num_cities,
            "shards_per_city": args.shards,
            "workers": args.workers,
            "mechanism": spec.name,
            "slots": args.slots,
            "phone_rate": args.phone_rate,
            "task_rate": args.task_rate,
        },
    )
    heartbeat = None
    if args.heartbeat is not None:
        heartbeat = HeartbeatConfig(
            path=args.heartbeat,
            every=args.heartbeat_every,
            label="shard",
            console=console,
        )
    # The shard counters (campaign.shard.*) are parent-side; give them a
    # registry to land on when the command is not already traced.
    vitals = (
        obs.activate(obs.Tracer())
        if obs.current_tracer() is None
        else contextlib.nullcontext()
    )
    with vitals:
        result = run_sharded_campaign(
            spec,
            cities,
            seed=args.seed,
            workers=args.workers,
            shards_per_city=args.shards,
            checkpoint_dir=args.checkpoint_dir,
            heartbeat=heartbeat,
        )
    if args.checkpoint_dir is not None:
        console.note(
            f"shard checkpoints streamed under {args.checkpoint_dir}"
        )
    if args.heartbeat is not None:
        console.note(f"heartbeat log written to {args.heartbeat}")
    console.out(
        f"\nsharded campaign: {num_cities} cities x {args.rounds} rounds, "
        f"{args.shards} shard(s)/city, {args.workers} worker(s), "
        f"mechanism {spec.display_label}\n"
    )
    rows = [
        [
            name,
            city_result.num_rounds,
            city_result.total_welfare,
            city_result.total_payment,
            str(city_result.welfare_per_round),
        ]
        for name, city_result in result.cities
    ]
    console.out(
        format_table(
            ["city", "rounds", "welfare", "payment", "welfare/round"],
            rows,
            title="Per-city results",
        )
    )
    console.out()
    console.out(f"total welfare: {result.total_welfare:.1f}")
    console.out(f"total payment: {result.total_payment:.1f}")
    console.result(
        {
            "mechanism": spec.name,
            "cities": num_cities,
            "rounds": result.num_rounds,
            "shards_per_city": args.shards,
            "workers": args.workers,
            "total_welfare": result.total_welfare,
            "total_payment": result.total_payment,
        }
    )
    if session is not None:
        session.add_counters(
            rounds=result.num_rounds,
            cities=num_cities,
            total_welfare=result.total_welfare,
            total_payment=result.total_payment,
        )
        if args.checkpoint_dir is not None:
            session.add_artifact(
                "checkpoint_dir", str(args.checkpoint_dir)
            )
        if args.heartbeat is not None:
            session.add_artifact("heartbeat", str(args.heartbeat))
        _finish_ledger(session, console)
    return 0


def _cmd_replay(args: argparse.Namespace, console: Console) -> int:
    from repro.durability import replay_journal

    result = replay_journal(args.journal)
    outcome = result.outcome
    console.out(
        f"\nreplayed {len(result.records)} records from {args.journal}: "
        f"{result.commands_applied} commands applied, "
        f"{result.events_verified} derived events verified\n"
    )
    if outcome is None:
        console.out(
            "journal ends before finalize (crashed round); partial state "
            f"reconstructed through slot {result.platform.current_slot}"
        )
        console.result(
            {
                "journal": str(args.journal),
                "records": len(result.records),
                "commands_applied": result.commands_applied,
                "events_verified": result.events_verified,
                "finalized": False,
            }
        )
        return 0
    console.out(
        format_table(
            ["metric", "value"],
            [
                ["winners", len(outcome.winners)],
                ["tasks served", len(outcome.allocation)],
                ["total payment", outcome.total_payment],
            ],
            title="Replayed outcome",
        )
    )
    console.result(
        {
            "journal": str(args.journal),
            "records": len(result.records),
            "commands_applied": result.commands_applied,
            "events_verified": result.events_verified,
            "finalized": True,
            "winners": sorted(outcome.winners),
            "total_payment": outcome.total_payment,
            "tasks_served": len(outcome.allocation),
        }
    )
    return 0


def _cmd_verify_log(args: argparse.Namespace, console: Console) -> int:
    from repro.durability import scan_journal

    scan = scan_journal(args.journal)
    if scan.torn and args.strict:
        raise ReproError(
            f"journal has a torn tail: {scan.torn_reason} "
            f"(segment {scan.torn_segment}, offset {scan.torn_offset})"
        )
    status = "TORN TAIL" if scan.torn else "OK"
    console.out(
        f"\n{args.journal}: {len(scan.records)} valid records across "
        f"{len(scan.segments)} segment(s) — {status}"
    )
    if scan.torn:
        console.out(
            f"  torn tail in {scan.torn_segment} at offset "
            f"{scan.torn_offset} ({scan.truncated_bytes} bytes): "
            f"{scan.torn_reason}"
        )
        console.out(
            "  (recoverable: opening the journal for append truncates "
            "the tail)"
        )
    console.result(
        {
            "journal": str(args.journal),
            "records": len(scan.records),
            "segments": [p.name for p in scan.segments],
            "last_seq": scan.last_seq,
            "torn": scan.torn,
            "torn_reason": scan.torn_reason,
            "truncated_bytes": scan.truncated_bytes,
        }
    )
    return 0 if not scan.torn else 1


def _cmd_example(args: argparse.Namespace, console: Console) -> int:
    from repro.mechanisms import OnlineGreedyMechanism
    from repro.mechanisms.baselines import SecondPriceSlotMechanism
    from repro.simulation.paper_example import (
        paper_example_bids,
        paper_example_profiles,
        paper_example_schedule,
    )

    schedule = paper_example_schedule()
    bids = paper_example_bids()
    outcome = OnlineGreedyMechanism().run(bids, schedule)
    console.out(
        format_table(
            ["phone", "window", "cost"],
            [
                [p.phone_id, f"[{p.arrival}, {p.departure}]", p.cost]
                for p in paper_example_profiles()
            ],
            title="Fig. 4: the 7 smartphones",
        )
    )
    console.out()
    console.out(
        format_table(
            ["slot", "winner", "payment"],
            [
                [
                    schedule.task(task_id).slot,
                    phone_id,
                    outcome.payment(phone_id),
                ]
                for task_id, phone_id in sorted(outcome.allocation.items())
            ],
            title="Online allocation + Algorithm-2 payments",
        )
    )
    second_price = SecondPriceSlotMechanism()
    truthful = second_price.run(bids, schedule)
    deviated = second_price.run(
        [b.with_window(4, 5) if b.phone_id == 1 else b for b in bids],
        schedule,
    )
    console.out(
        f"\nFig. 5: under second-price, phone 1 is paid "
        f"{truthful.payment(1):g} truthfully and "
        f"{deviated.payment(1):g} after delaying its arrival — a gain "
        f"of {deviated.payment(1) - truthful.payment(1):g}."
    )
    console.result(
        {
            "allocation": {
                str(task_id): phone_id
                for task_id, phone_id in sorted(outcome.allocation.items())
            },
            "payments": {
                str(pid): outcome.payment(pid)
                for pid in sorted(outcome.winners)
            },
        }
    )
    return 0


def _traced_scenario_suite(args: argparse.Namespace) -> None:
    """The workload ``repro-crowd trace`` instruments.

    Covers every span family of the taxonomy in one short run: an
    offline VCG solve on the paper example (matching spans), a
    platform-driven online round (platform-slot, payment, and event
    spans), and a two-point experiment sweep (sweep spans).
    """
    from repro.auction.round_driver import replay_scenario
    from repro.experiments.config import ExperimentConfig, MechanismSpec
    from repro.experiments.sweeps import SweepSpec
    from repro.simulation.paper_example import (
        paper_example_bids,
        paper_example_profiles,
        paper_example_schedule,
    )
    from repro.simulation.scenario import Scenario

    schedule = paper_example_schedule()
    bids = paper_example_bids()
    offline = create_mechanism("offline-vcg")
    with obs.span("mechanism.run", mechanism=offline.name, bids=len(bids)):
        offline.run(bids, schedule)

    scenario = Scenario(
        paper_example_profiles(),
        schedule,
        metadata={"source": "paper-example"},
    )
    replay_scenario(scenario)

    sweep_config = ExperimentConfig(
        workload=WorkloadConfig(
            num_slots=6,
            phone_rate=2.0,
            task_rate=1.0,
            mean_cost=5.0,
            mean_active_length=3,
            task_value=10.0,
        ),
        mechanisms=(MechanismSpec.of("online-greedy"),),
        repetitions=args.repetitions,
        base_seed=args.seed,
    )
    run_sweep(
        SweepSpec(
            name="trace-demo",
            title="trace demo sweep",
            param="phone_rate",
            values=(1.0, 2.0),
            config=sweep_config,
        )
    )


def _cmd_trace(args: argparse.Namespace, console: Console) -> int:
    session = _ledger_session(
        args,
        "trace",
        label=args.label,
        config={
            "seed": args.seed,
            "repetitions": args.repetitions,
            "label": args.label,
        },
    )
    sink = obs.JsonlSink(args.out)
    tracer = obs.Tracer(sink=sink)
    with obs.activate(tracer):
        _traced_scenario_suite(args)
    sink.close()

    console.out(obs.render_span_tree(tracer.spans, max_spans=args.max_spans))
    console.out()
    console.out(obs.render_phase_table(obs.aggregate_spans(tracer.spans)))
    if args.top:
        console.out()
        console.out(
            obs.render_hotspot_table(
                obs.top_hotspots(tracer.spans, args.top),
                title=f"Hotspots (top {args.top} by self time)",
            )
        )

    snapshot = obs.build_snapshot(
        tracer,
        label=args.label,
        meta={"command": "trace", "seed": args.seed},
    )
    snap_file = obs.write_snapshot(
        obs.snapshot_path(args.snapshot_dir, args.label), snapshot
    )
    console.note(
        f"\ntrace written to {args.out} ({len(tracer.spans)} spans, "
        f"{len(tracer.metrics.counters)} counters)"
    )
    console.note(f"perf snapshot written to {snap_file}")
    console.result(
        {
            "trace_path": str(args.out),
            "snapshot_path": str(snap_file),
            "span_count": len(tracer.spans),
            "phases": sorted({span.name for span in tracer.spans}),
            "counters": tracer.metrics.counters,
        }
    )
    if args.top:
        console.result(
            {
                "hotspots": [
                    {
                        "name": h.name,
                        "self_seconds": h.self_seconds,
                        "share": h.share,
                    }
                    for h in obs.top_hotspots(tracer.spans, args.top)
                ]
            }
        )
    if session is not None:
        session.add_counters(
            spans=len(tracer.spans),
            counters=len(tracer.metrics.counters),
        )
        session.add_artifact("trace", str(args.out))
        session.add_artifact("snapshot", str(snap_file))
        _finish_ledger(session, console)
    return 0


def _cmd_trends(args: argparse.Namespace, console: Console) -> int:
    from repro.obs.trends import collect_trends, render_trend_dashboard

    ledger = RunLedger(args.ledger) if args.ledger is not None else None
    report = collect_trends(
        args.bench_dir, ledger=ledger, threshold=args.threshold
    )
    dashboard = render_trend_dashboard(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(dashboard, encoding="utf-8")
        console.note(f"trend dashboard written to {args.out}")
    else:
        console.out(dashboard)
    drifting = report.drifting()
    console.result(
        {
            "sources": list(report.sources),
            "skipped": list(report.skipped),
            "verdicts": report.verdicts(),
            "drifting": drifting,
        }
    )
    if drifting and args.fail_on_drift:
        console.error(
            f"trend drift detected in: {', '.join(drifting)}"
        )
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace, console: Console) -> int:
    import cProfile
    import io
    import pstats

    scenario = _workload_from_args(args).generate(seed=args.seed)
    mechanism = _mechanism_from_args(args)
    engine = SimulationEngine()
    tracer = obs.Tracer()
    profiler = cProfile.Profile()
    with obs.activate(tracer):
        profiler.enable()
        for _ in range(args.repeat):
            engine.run(mechanism, scenario)
        profiler.disable()

    console.out(
        f"\nprofiled {args.repeat} run(s) of {mechanism.name} on "
        f"{scenario.num_phones} phones / {scenario.num_tasks} tasks\n"
    )
    console.out(obs.render_phase_table(obs.aggregate_spans(tracer.spans)))
    console.out()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(args.top)
    console.out(buffer.getvalue().rstrip())
    console.result(
        {
            "mechanism": mechanism.name,
            "repeats": args.repeat,
            "span_count": len(tracer.spans),
            "phases": [
                phase.to_dict()
                for phase in obs.aggregate_spans(tracer.spans)
            ],
        }
    )
    return 0


def _cmd_lint(args: argparse.Namespace, console: Console) -> int:
    from repro.analysis import default_rules, lint_paths, render_json, render_text

    if args.flow or args.write_baseline:
        return _cmd_lint_flow(args, console)
    try:
        rules = default_rules(args.rules)
    except KeyError as exc:
        raise ReproError(str(exc.args[0])) from exc
    try:
        violations = lint_paths(args.paths or None, rules=rules)
    except FileNotFoundError as exc:
        raise ReproError(str(exc)) from exc
    renderer = render_json if args.format == "json" else render_text
    console.out(renderer(violations))
    console.result(
        {"violations": [violation.to_dict() for violation in violations]}
    )
    return 1 if violations else 0


def _cmd_lint_flow(args: argparse.Namespace, console: Console) -> int:
    """``repro-crowd lint --flow``: the interprocedural analyzer."""
    from repro.analysis import render_json
    from repro.analysis.flow import BaselineError, run_flow, write_baseline
    from repro.analysis.reporters import render_flow_text

    baseline = pathlib.Path(args.baseline)
    cache_dir = (
        pathlib.Path(args.cache_dir) if args.cache_dir is not None else None
    )
    try:
        if args.write_baseline:
            report = run_flow(cache_dir=cache_dir)
            found = sorted(report.violations + report.suppressed)
            write_baseline(baseline, found)
            console.note(f"wrote {len(found)} entries to {baseline}")
            console.result({"baseline": str(baseline), "entries": len(found)})
            return 0
        report = run_flow(baseline_path=baseline, cache_dir=cache_dir)
    except (BaselineError, FileNotFoundError) as exc:
        raise ReproError(str(exc)) from exc
    if args.format == "json":
        console.out(
            render_json(
                list(report.violations), suppressed=list(report.suppressed)
            )
        )
    else:
        console.out(render_flow_text(report))
    console.result(
        {
            "violations": [v.to_dict() for v in report.violations],
            "suppressed": len(report.suppressed),
            "modules": report.modules,
            "functions": report.functions,
        }
    )
    return 0 if report.clean else 1


def _cmd_report(args: argparse.Namespace, console: Console) -> int:
    from repro.experiments.markdown_report import build_reproduction_report

    report = build_reproduction_report(
        repetitions=args.repetitions, base_seed=args.seed
    )
    if args.out is not None:
        args.out.write_text(report)
        console.note(f"report written to {args.out}")
    else:
        console.out(report)
    console.result({"out": str(args.out) if args.out is not None else None})
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Truthful mechanisms for mobile crowdsourcing with dynamic "
            "smartphones (ICDCS 2014 reproduction)."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress/confirmation chatter",
    )
    common.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="emit one JSON document instead of human-readable output",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run one auction round", parents=[common]
    )
    _add_workload_arguments(simulate)
    _add_mechanism_argument(simulate)
    simulate.add_argument(
        "--save-trace", type=pathlib.Path, default=None,
        help="save the generated scenario to this JSON file",
    )
    simulate.add_argument(
        "--from-trace", type=pathlib.Path, default=None,
        help="replay a scenario from a JSON trace instead of generating",
    )
    simulate.set_defaults(func=_cmd_simulate)

    figures = subparsers.add_parser(
        "figures",
        help="regenerate the paper's evaluation figures",
        parents=[common],
    )
    figures.add_argument(
        "names", nargs="*",
        help=f"figures to run (default: all of {list(list_figures())})",
    )
    figures.add_argument("--repetitions", type=int, default=5)
    figures.add_argument("--seed", type=int, default=2014)
    figures.add_argument(
        "--csv-dir", type=pathlib.Path, default=None,
        help="also write each figure's CSV into this directory",
    )
    figures.add_argument(
        "--checkpoint-dir", type=pathlib.Path, default=None,
        help="checkpoint each sweep point here; a rerun resumes past "
        "completed points",
    )
    figures.add_argument(
        "--retries", type=int, default=0,
        help="retry a failing repetition this many times (default 0)",
    )
    figures.add_argument(
        "--backoff", type=float, default=0.0,
        help="base seconds between retry attempts (default 0)",
    )
    figures.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per sweep point (default 1: serial); "
        "results are identical for any worker count",
    )
    figures.add_argument(
        "--ledger", type=pathlib.Path, default=None,
        help="append a structured run record to this RUNS.jsonl ledger",
    )
    figures.set_defaults(func=_cmd_figures)

    audit = subparsers.add_parser(
        "audit",
        help="truthfulness / IR audit of a mechanism",
        parents=[common],
    )
    _add_workload_arguments(audit)
    _add_mechanism_argument(audit)
    audit.add_argument(
        "--max-phones", type=int, default=15,
        help="audit at most this many phones (default 15)",
    )
    audit.set_defaults(func=_cmd_audit)

    campaign = subparsers.add_parser(
        "campaign", help="run a multi-round campaign", parents=[common]
    )
    _add_workload_arguments(campaign)
    _add_mechanism_argument(campaign)
    campaign.add_argument("--rounds", type=int, default=5)
    campaign.add_argument(
        "--retry-losers", action="store_true",
        help="losers of one round re-enter the next",
    )
    _add_fault_arguments(campaign)
    campaign.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the rounds (default 1: serial); "
        "requires the default no-retry policy",
    )
    campaign.add_argument(
        "--cities", type=int, default=None, metavar="N",
        help="run the sharded multi-city campaign over N identically "
        "configured cities (city-0..city-(N-1)) through the "
        "shared-memory engine; incompatible with --retry-losers, "
        "--journal-dir, and fault injection",
    )
    campaign.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="contiguous round-range shards per city (default 1); "
        "implies the sharded engine when K > 1, even single-city",
    )
    campaign.add_argument(
        "--checkpoint-dir", type=pathlib.Path, default=None,
        help="sharded engine only: stream one durable checkpoint record "
        "per round into this directory concurrently with compute; a "
        "rerun resumes mid-shard byte-identically",
    )
    campaign.add_argument(
        "--journal-dir", type=pathlib.Path, default=None,
        help="write a crash-consistent per-round write-ahead journal "
        "under this directory (online-greedy, workers=1 only); inspect "
        "with 'replay' / 'verify-log'",
    )
    campaign.add_argument(
        "--heartbeat", type=pathlib.Path, default=None,
        help="emit periodic live-progress pulses (rounds/s, ETA, fsync "
        "latency, reassignments) to this JSONL file and the console",
    )
    campaign.add_argument(
        "--heartbeat-every", type=int, default=10, metavar="N",
        help="pulse every N completed rounds (default 10; the final "
        "round always pulses)",
    )
    campaign.add_argument(
        "--ledger", type=pathlib.Path, default=None,
        help="append a structured run record to this RUNS.jsonl ledger",
    )
    campaign.set_defaults(func=_cmd_campaign)

    replay = subparsers.add_parser(
        "replay",
        help="re-execute a write-ahead journal and print the outcome",
        parents=[common],
    )
    replay.add_argument(
        "journal", type=pathlib.Path,
        help="journal directory written by a journaled round",
    )
    replay.set_defaults(func=_cmd_replay)

    verify_log = subparsers.add_parser(
        "verify-log",
        help="integrity-check a journal (hash chain, torn tail) without "
        "executing it",
        parents=[common],
    )
    verify_log.add_argument(
        "journal", type=pathlib.Path,
        help="journal directory to verify",
    )
    verify_log.add_argument(
        "--strict", action="store_true",
        help="treat a (recoverable) torn tail as an error (exit 2)",
    )
    verify_log.set_defaults(func=_cmd_verify_log)

    chaos = subparsers.add_parser(
        "chaos",
        help="run one round under injected faults, paired fault-free",
        parents=[common],
    )
    _add_workload_arguments(chaos)
    _add_fault_arguments(chaos)
    chaos.add_argument(
        "--reserve-price", action="store_true",
        help="refuse bids above the task value",
    )
    chaos.add_argument(
        "--payment-rule",
        choices=("paper", "exact"),
        default="paper",
        help="Algorithm 2 or exact critical value",
    )
    chaos.set_defaults(func=_cmd_chaos)

    example = subparsers.add_parser(
        "example",
        help="walk through the paper's worked example",
        parents=[common],
    )
    example.set_defaults(func=_cmd_example)

    trace = subparsers.add_parser(
        "trace",
        help="run an instrumented scenario suite; export JSONL + snapshot",
        parents=[common],
    )
    trace.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("trace.jsonl"),
        help="JSONL trace output path (default trace.jsonl)",
    )
    trace.add_argument(
        "--snapshot-dir", type=pathlib.Path, default=pathlib.Path("."),
        help="directory for the BENCH_<label>.json perf snapshot",
    )
    trace.add_argument(
        "--label", default="trace",
        help="snapshot label (default 'trace')",
    )
    trace.add_argument(
        "--max-spans", type=int, default=60,
        help="truncate the printed span tree after this many spans",
    )
    trace.add_argument("--seed", type=int, default=0, help="sweep seed")
    trace.add_argument(
        "--repetitions", type=int, default=2,
        help="repetitions per sweep point in the demo sweep (default 2)",
    )
    trace.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="also print the top-N phases by self time (hotspots)",
    )
    trace.add_argument(
        "--ledger", type=pathlib.Path, default=None,
        help="append a structured run record to this RUNS.jsonl ledger",
    )
    trace.set_defaults(func=_cmd_trace)

    trends = subparsers.add_parser(
        "trends",
        help="render the bench-trend dashboard with drift detection",
        parents=[common],
    )
    trends.add_argument(
        "--bench-dir", type=pathlib.Path, default=pathlib.Path("."),
        help="directory holding the BENCH_*.json series (default .)",
    )
    trends.add_argument(
        "--ledger", type=pathlib.Path, default=None,
        help="also chart per-command wall times from this RUNS.jsonl",
    )
    trends.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative per-step slope that flags drift (default 0.05)",
    )
    trends.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the markdown dashboard here instead of stdout",
    )
    trends.add_argument(
        "--fail-on-drift", action="store_true",
        help="exit 1 when any series is flagged as drifting",
    )
    trends.set_defaults(func=_cmd_trends)

    profile = subparsers.add_parser(
        "profile",
        help="cProfile one mechanism run with the span report",
        parents=[common],
    )
    _add_workload_arguments(profile)
    _add_mechanism_argument(profile)
    profile.add_argument(
        "--repeat", type=int, default=3,
        help="number of profiled runs (default 3)",
    )
    profile.add_argument(
        "--top", type=int, default=15,
        help="profile rows to print (default 15)",
    )
    profile.set_defaults(func=_cmd_profile)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo-specific AST invariant linter",
        parents=[common],
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="NAME",
        help="run only this rule (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--flow",
        action="store_true",
        help=(
            "run the interprocedural concurrency/determinism analysis "
            "(REP010-REP015) over src instead of the single-file rules"
        ),
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default="lint-flow-baseline.json",
        help=(
            "baseline suppression file for --flow "
            "(default lint-flow-baseline.json; a missing file is empty)"
        ),
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current --flow findings to the baseline file and exit",
    )
    lint.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-hash cache for --flow module summaries",
    )
    lint.set_defaults(func=_cmd_lint)

    report = subparsers.add_parser(
        "report",
        help="generate the full Markdown reproduction report",
        parents=[common],
    )
    report.add_argument("--repetitions", type=int, default=5)
    report.add_argument("--seed", type=int, default=2014)
    report.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the report to this file (default: stdout)",
    )
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    console = Console(
        quiet=getattr(args, "quiet", False),
        json_mode=getattr(args, "json_output", False),
    )
    try:
        code = args.func(args, console)
    except ReproError as exc:
        console.error(f"error: {exc}")
        return 2
    console.finish()
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
