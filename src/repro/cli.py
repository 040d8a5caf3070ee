"""Command-line interface: the ecosystem from a shell.

Subcommands:

- ``repro-ice demo`` — stand the simulated ICE up, run the paper's
  workflow, print the analysis (the quickstart, scriptable);
- ``repro-ice serve`` — run the control agents over real TCP and print
  their URIs, then serve until interrupted: the two-machine mode (point
  a remote client at the printed URIs);
- ``repro-ice scan-rate`` — the Randles-Sevcik campaign, printing D;
- ``repro-ice analyze FILE.mpt`` — offline analysis of a measurement
  file (peaks, E1/2, dEp, optional Nicholson k0);
- ``repro-ice health`` — stand the ICE up, run one probe workflow, and
  print the per-subsystem health verdict table (exit code encodes the
  overall status: 0 healthy, 1 degraded, 2 unhealthy);
- ``repro-ice jobs`` — submit, inspect, cancel and poll campaign jobs
  on a multi-tenant facility gateway (``ACL_Gateway``) as one tenant;
- ``repro-ice top`` — the operator's per-tenant ops view: call/error
  rates merged from both facility halves (``Obs_Scrape``), gateway
  queue depth, SLO burn rates and firing alerts (``--json`` for the
  machine-readable view);
- ``repro-ice explain`` — critical-path blame table for one trace (or
  one gateway job, resolved through the journal's ``job-trace``
  records): which op was blocking the run, for how long, per facility;
- ``repro-ice watch`` — run the workflow while tailing the live
  telemetry feed (``session.stream()``): span completions, health
  flips and event-log lines as they happen, a ``top``-style view of
  the run; ``--profile`` appends the hot-operation profile.

Run as ``python -m repro.cli <subcommand>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _report_session_telemetry(session, args: argparse.Namespace) -> None:
    """Metrics table, machine-readable metrics, health verdict, trace.

    Called from a ``finally``: a failed run is exactly when the operator
    needs the telemetry, so none of this is gated on success, and no
    single reporter failing may mask the run's own outcome.
    """
    import json
    from pathlib import Path

    if args.metrics:
        print(session.metrics.format_table())
    if args.metrics_json:
        path = Path(args.metrics_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(session.metrics.summarize(), indent=2, default=str)
        )
        print(f"metrics: -> {path}")
    try:
        report = session.health_engine.evaluate()
    except Exception as exc:  # noqa: BLE001
        print(f"health: evaluation failed ({exc})", file=sys.stderr)
    else:
        line = f"health: {report.status}"
        reasons = report.reasons()
        if reasons:
            line += " (" + "; ".join(reasons) + ")"
        print(line)
    if args.trace_jsonl:
        count = session.export_trace(args.trace_jsonl)
        print(f"trace: {count} spans -> {args.trace_jsonl}")


def _cmd_demo(args: argparse.Namespace) -> int:
    import repro
    from repro.core.cv_workflow import CVWorkflowSettings

    settings = CVWorkflowSettings(
        scan_rate_v_s=args.scan_rate,
        fill_volume_ml=args.volume,
        e_step_v=args.e_step,
    )
    with repro.connect(flight_dir=args.flight_dir) as session:
        print(f"control: {session.ice.control_uri}")
        print(f"data:    {session.ice.share_uri}")
        try:
            result = session.run_workflow(settings=settings)
            for name, task in result.workflow.tasks.items():
                print(f"  {name:<28} {task.state.value}")
            print(result.summary())
            if not result.succeeded:
                print(f"flight recorder dir: {session.flight_dir}")
            return 0 if result.succeeded else 1
        finally:
            _report_session_telemetry(session, args)


def _cmd_health(args: argparse.Namespace) -> int:
    """One-shot verdict: stand the ICE up, probe it, print the table."""
    import repro
    from repro.core.cv_workflow import CVWorkflowSettings

    with repro.connect(flight_dir=args.flight_dir) as session:
        if not args.no_probe:
            # a coarse but representative probe workflow: exercises RPC,
            # the data channel, and the workflow engine so every
            # subsystem has fresh telemetry inside the health window
            settings = CVWorkflowSettings(e_step_v=args.e_step)
            try:
                session.run_workflow(settings=settings)
            except Exception as exc:  # noqa: BLE001 - verdict still wanted
                print(f"probe workflow failed: {exc}", file=sys.stderr)
        report = session.health_engine.evaluate()
        print(report.format_table())
        if report.status == "healthy":
            return 0
        return 1 if report.status == "degraded" else 2


def _format_stream_event(event) -> str | None:
    """One display line per telemetry event; None for tallied kinds."""
    if event.kind == "metric":
        return None  # too chatty line-by-line; drained into a counter
    stamp = f"{event.timestamp:10.3f}"
    if event.kind == "span":
        duration = event.data.get("duration_s")
        extra = (
            f" {duration * 1e3:9.2f} ms"
            if isinstance(duration, (int, float))
            else ""
        )
        status = event.data.get("status", "")
        flag = "" if status in ("ok", "") else f"  [{status}]"
        return f"{stamp}  span    {event.service:<11} {event.name}{extra}{flag}"
    if event.kind == "health":
        return (
            f"{stamp}  health  {event.service:<11} "
            f"{event.data.get('previous', '?')} -> {event.data.get('status', '?')}"
        )
    if event.kind == "stream":
        detail = ""
        if "missed" in event.data:
            detail = f" missed={event.data['missed']}"
        return f"{stamp}  stream  {event.service:<11} {event.name}{detail}"
    if event.kind == "slo":
        tenant = event.data.get("tenant") or "-"
        return (
            f"{stamp}  slo     {event.service:<11} {event.name} "
            f"{event.data.get('objective', '?')}[{tenant}] "
            f"burn={event.data.get('burn_fast', 0.0):.1f}x/"
            f"{event.data.get('burn_slow', 0.0):.1f}x"
        )
    return f"{stamp}  {event.kind:<7} {event.service:<11} {event.name}"


def _print_profile(profile: dict, top: int = 10) -> None:
    operations = profile.get("operations", {})
    ranked = sorted(
        operations.items(), key=lambda kv: -kv[1].get("self_s", 0.0)
    )[:top]
    print(f"profile: {profile.get('samples_total', 0)} samples, "
          f"{profile.get('wall_s', 0.0):.3f} s wall")
    print(f"  {'operation':<32} {'count':>6} {'self_s':>9} {'total_s':>9}")
    for name, stats in ranked:
        print(
            f"  {name:<32} {stats.get('count', 0):>6} "
            f"{stats.get('self_s', 0.0):>9.3f} {stats.get('total_s', 0.0):>9.3f}"
        )


def _cmd_watch(args: argparse.Namespace) -> int:
    """Run the workflow with the live feed scrolling: ``top`` for the ICE."""
    import threading

    import repro
    from repro.core.cv_workflow import CVWorkflowSettings

    settings = CVWorkflowSettings(
        scan_rate_v_s=args.scan_rate, e_step_v=args.e_step
    )
    with repro.connect() as session:
        outcome: dict = {}

        def _run() -> None:
            try:
                outcome["result"] = session.run_workflow(
                    settings=settings, profile=args.profile
                )
            except Exception as exc:  # noqa: BLE001 - reported after the tail
                outcome["error"] = exc

        worker = threading.Thread(target=_run, name="watch-workflow")
        metric_updates = 0
        with session.stream() as stream:
            worker.start()
            try:
                while worker.is_alive():
                    worker.join(args.interval)
                    for event in stream.drain():
                        line = _format_stream_event(event)
                        if line is None:
                            metric_updates += 1
                        else:
                            print(line, flush=True)
            finally:
                worker.join()
                # final drain: events raced in while we were printing
                for event in stream.drain():
                    line = _format_stream_event(event)
                    if line is None:
                        metric_updates += 1
                    else:
                        print(line, flush=True)
            print(
                f"stream: {metric_updates} metric updates, "
                f"{stream.dropped} dropped"
            )
        if "error" in outcome:
            print(f"workflow failed: {outcome['error']}", file=sys.stderr)
            return 1
        result = outcome["result"]
        print(result.summary())
        if args.profile and result.profile is not None:
            _print_profile(result.profile)
        return 0 if result.succeeded else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.facility.ice import ElectrochemistryICE, ICEConfig

    secret = args.secret.encode() if args.secret else None
    config = ICEConfig(transport="tcp", control_secret=secret)
    ice = ElectrochemistryICE.build(config)
    print(f"workstation:       {ice.control_uri}")
    print(f"measurement share: {ice.share_uri}")
    print(f"characterization:  {ice.characterization_uri}")
    print("serving; Ctrl-C to stop", flush=True)
    try:
        import time

        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        ice.shutdown()
    return 0


def _cmd_scan_rate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import (
        Campaign,
        CVWorkflowSettings,
        ElectrochemistryICE,
        scan_rate_strategy,
    )
    from repro.analysis import estimate_diffusion_coefficient
    from repro.chemistry.species import FERROCENE

    rates = tuple(args.rates)
    with ElectrochemistryICE.build() as ice:
        campaign = Campaign(
            ice,
            scan_rate_strategy(rates, base=CVWorkflowSettings(e_step_v=args.e_step)),
        )
        rounds = campaign.run()
        peaks = []
        for record in rounds:
            metrics = record.result.metrics
            if metrics is None:
                print(f"round {record.index}: no wave found", file=sys.stderr)
                return 1
            peaks.append(metrics.anodic_peak_a)
            print(
                f"v={record.settings.scan_rate_v_s:6.3f} V/s  "
                f"ip={metrics.anodic_peak_a:.3e} A  "
                f"dEp={metrics.peak_separation_v*1e3:5.1f} mV"
            )
        diffusion, r_squared = estimate_diffusion_coefficient(
            np.asarray(rates), np.asarray(peaks), 1, 0.0707, 2e-6
        )
        print(
            f"D = {diffusion:.2e} cm^2/s (R^2={r_squared:.4f}; "
            f"literature {FERROCENE.diffusion_cm2_s:.2e})"
        )
    return 0


def _scan_campaign_journals(root):
    """``(directory, status)`` for every campaign journal under ``root``.

    ``root`` may itself be a journal directory (contains
    ``campaign.jsonl``) or a parent holding one journal directory per
    campaign.
    """
    from pathlib import Path

    from repro.core.campaign import campaign_journal_status

    root = Path(root)
    status = campaign_journal_status(root)
    if status is not None:
        return [(root, status)]
    found = []
    if root.is_dir():
        for child in sorted(p for p in root.iterdir() if p.is_dir()):
            status = campaign_journal_status(child)
            if status is not None:
                found.append((child, status))
    return found


def _cmd_resume(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import Campaign, ElectrochemistryICE
    from repro.core.campaign import strategy_from_spec
    from repro.facility.ice import ICEConfig

    root = Path(args.journal_dir)
    if not root.exists():
        print(f"no such directory: {root}", file=sys.stderr)
        return 1
    found = _scan_campaign_journals(root)
    if not found:
        print(f"no campaign journals under {root}", file=sys.stderr)
        return 1

    print(f"{'campaign':<32} {'completed':>9} {'in-flight':>9} {'state':<12}")
    for directory, status in found:
        state = (
            "finished"
            if status["finished"]
            else ("resumable" if status["resumable"] else "empty")
        )
        if status["torn_tail"]:
            state += "+torn"
        print(
            f"{directory.name:<32} {len(status['completed_rounds']):>9} "
            f"{len(status['in_flight_rounds']):>9} {state:<12}"
        )
    if args.list:
        return 0

    resumable = [(d, s) for d, s in found if s["resumable"]]
    if args.name:
        resumable = [(d, s) for d, s in resumable if d.name == args.name]
    if not resumable:
        print("nothing resumable", file=sys.stderr)
        return 1
    target, status = resumable[0]
    spec = status.get("strategy_spec")
    if spec is None:
        print(
            f"{target.name}: no strategy spec journaled; resume it "
            "programmatically with the original strategy",
            file=sys.stderr,
        )
        return 1

    config = None
    if args.durability_dir:
        # point the fresh daemon at the crashed ICE's durable state so
        # re-issued calls replay from its dedup journal
        config = ICEConfig(durability_dir=Path(args.durability_dir))
    print(f"resuming {target.name} ...")
    with ElectrochemistryICE.build(config) as ice:
        campaign = Campaign(
            ice,
            strategy_from_spec(spec),
            journal_dir=target,
            max_rounds=status.get("max_rounds") or 10,
        )
        rounds = campaign.resume()
        report = campaign.resume_report or {}
        rerun = set(report.get("rerun_rounds", []))
        for record in rounds:
            if record.resumed:
                disposition = "skipped (restored from checkpoint)"
            elif record.index in rerun:
                disposition = "re-run (idempotent re-issue)"
            else:
                disposition = "new"
            print(f"round {record.index}: {disposition}")
        print(
            f"resume complete: {len(report.get('skipped_rounds', []))} skipped, "
            f"{len(rerun)} re-run, {len(rounds)} total"
            + (" (journal tail was torn)" if report.get("torn_tail") else "")
        )
    return 0


def _format_job_line(view: dict) -> str:
    line = f"job {view['job_id']}  {view['state']:<9} tenant={view['tenant']}"
    if view.get("cell"):
        line += f" cell={view['cell']}"
    if view.get("rounds"):
        line += f" rounds={view['rounds']}"
    if view.get("error"):
        line += f" error={view['error']}"
    if view.get("trace_id"):
        line += f" trace={view['trace_id']}"
    return line


def _cmd_top(args: argparse.Namespace) -> int:
    """Per-tenant ops view over both ICE halves (the operator's ``top``).

    Stands a fresh ICE up, drives tenant-attributed control traffic
    (every RPC made while a tenant is bound on the context is labelled
    automatically), optionally injects an error burst for one tenant,
    then renders the merged two-facility scrape with live SLO burn
    rates. Exit code 1 while any burn-rate alert is firing.
    """
    import repro
    from repro.rpc.context import reset_current_tenant, set_current_tenant

    with repro.connect() as session:
        for _ in range(args.rounds):
            for tenant in args.tenants:
                token = set_current_tenant(tenant)
                try:
                    for _ in range(args.calls):
                        session.client.call_Status_JKem()
                    if tenant == args.burst_tenant:
                        # a misbehaving tenant: unknown verbs come back
                        # as dispatch errors and burn its error budget
                        for _ in range(args.burst_calls):
                            try:
                                session.client.call_No_Such_Verb()
                            except Exception:  # noqa: BLE001 - burst is the point
                                pass
                finally:
                    reset_current_tenant(token)
        if args.json:
            import json

            agg = session.aggregator()
            agg.refresh()
            print(
                json.dumps(
                    {
                        "view": agg.view(),
                        "slo": session.slo_engine.evaluate(),
                    },
                    indent=2,
                    default=str,
                )
            )
        else:
            print(session.top())
        return 1 if session.slo_engine.active_alerts() else 0


def _resolve_trace_id(token: str, state_dir: str | None) -> str:
    """Map a gateway job id to its trace id via the journal's
    ``job-trace`` records (last one wins, matching replay); unknown
    tokens pass through as (possibly partial) trace ids."""
    if state_dir:
        from pathlib import Path

        from repro.durability.journal import Journal

        path = Path(state_dir) / "gateway.jsonl"
        if path.exists():
            latest = None
            for rec in Journal.replay_file(path).records:
                if (
                    rec.kind == "job-trace"
                    and rec.data.get("job_id") == token
                ):
                    latest = rec.data.get("trace_id")
            if latest:
                return latest
    return token


def _cmd_explain(args: argparse.Namespace) -> int:
    """Blame table for one trace: who was blocking, for how long.

    Reads spans from a JSONL export (``demo --trace-jsonl``,
    ``session.export_trace``) — both facility halves land in one file
    because an in-process ICE shares the session tracer. The id may be
    a unique trace-id prefix, or a gateway job id when ``--state-dir``
    points at the gateway's journal.
    """
    from repro.obs.analysis import critical_path, format_blame
    from repro.obs.exporters import read_jsonl_spans

    trace_id = _resolve_trace_id(args.id, args.state_dir)
    try:
        spans = read_jsonl_spans(args.trace_jsonl)
    except OSError as exc:
        print(f"cannot read {args.trace_jsonl}: {exc}", file=sys.stderr)
        return 1
    matches = [
        s for s in spans if str(s.get("trace_id", "")).startswith(trace_id)
    ]
    ids = {s.get("trace_id") for s in matches}
    if not matches:
        print(
            f"no spans for trace {trace_id} in {args.trace_jsonl}",
            file=sys.stderr,
        )
        return 1
    if len(ids) > 1:
        print(
            f"ambiguous trace prefix {trace_id!r}: matches {len(ids)} traces",
            file=sys.stderr,
        )
        return 2
    result = critical_path(matches)
    if result is None:
        print(f"trace {trace_id}: no ended root span", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(result, indent=2, default=str))
    else:
        print(format_blame(result, top=args.top))
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """Talk to a facility gateway (``ACL_Gateway``) as one tenant."""
    import json

    from repro.errors import GatewayError
    from repro.gateway.client import GatewayClient

    secret = args.secret.encode() if args.secret else None
    try:
        return _run_jobs_action(args, json, GatewayClient, secret)
    except GatewayError as exc:
        # rejections are expected outcomes, not crashes: surface the
        # stable code so scripts can branch on it
        print(f"gateway: [{exc.code}] {exc}", file=sys.stderr)
        return 1


def _run_jobs_action(args, json, GatewayClient, secret) -> int:
    with GatewayClient(
        args.uri, args.tenant, args.api_key, timeout=args.timeout, secret=secret
    ) as gateway:
        if args.action == "submit":
            spec = {
                "strategy": {
                    "kind": "scan-rate",
                    "scan_rates_v_s": list(args.rates),
                    "base": {"e_step_v": args.e_step},
                },
                "max_rounds": args.max_rounds,
            }
            view = gateway.submit(spec, priority=args.priority)
            print(_format_job_line(view))
            return 0
        if args.action == "status":
            if not args.job_id:
                print("status needs a JOB_ID", file=sys.stderr)
                return 2
            print(_format_job_line(gateway.status(args.job_id)))
            return 0
        if args.action == "cancel":
            if not args.job_id:
                print("cancel needs a JOB_ID", file=sys.stderr)
                return 2
            print(_format_job_line(gateway.cancel(args.job_id)))
            return 0
        # poll
        reply = gateway.poll(cursor=args.cursor, max_events=args.max_events)
        if args.json:
            print(json.dumps(reply, indent=2, default=str))
        else:
            for event in reply["events"]:
                print(
                    f"{event['seq']:>6}  {event['timestamp']:10.3f}  "
                    f"{event['name']:<13} {event['job_id']}"
                )
            print(f"cursor={reply['cursor']} gap={reply['gap']}")
        return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import characterize, estimate_k0_from_trace, find_peaks
    from repro.datachannel.formats import read_mpt

    trace = read_mpt(args.file)
    print(f"{args.file}: {len(trace)} samples, "
          f"technique {trace.metadata.get('technique', '?')}")
    pair = find_peaks(trace)
    if not pair.complete:
        print("no complete redox wave found")
        return 1
    metrics = characterize(trace, peaks=pair)
    print(metrics.format_summary())
    if args.diffusion:
        estimate = estimate_k0_from_trace(trace, diffusion_cm2_s=args.diffusion)
        bound = ">=" if estimate.reversible else "~"
        print(
            f"Nicholson: psi={estimate.psi:.3f}, k0 {bound} "
            f"{estimate.k0_cm_s:.3e} cm/s"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ice",
        description="Cross-facility electrochemistry ICE (SC-W 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the paper's workflow on a fresh ICE")
    demo.add_argument("--scan-rate", type=float, default=0.1, metavar="V_S")
    demo.add_argument("--volume", type=float, default=5.0, metavar="ML")
    demo.add_argument("--e-step", type=float, default=0.001, metavar="V")
    demo.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="export the run's spans as JSONL",
    )
    demo.add_argument(
        "--metrics",
        action="store_true",
        help="print the session metrics table after the run (even on failure)",
    )
    demo.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write the metrics summary as JSON (even on failure)",
    )
    demo.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="directory for flight-recorder black-box dumps",
    )
    demo.set_defaults(fn=_cmd_demo)

    health = sub.add_parser(
        "health",
        help="run a probe workflow and print the health verdict table",
    )
    health.add_argument("--e-step", type=float, default=0.01, metavar="V")
    health.add_argument(
        "--no-probe",
        action="store_true",
        help="evaluate the rules without running the probe workflow",
    )
    health.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="directory for flight-recorder black-box dumps",
    )
    health.set_defaults(fn=_cmd_health)

    watch = sub.add_parser(
        "watch",
        help="run the workflow while tailing the live telemetry feed",
    )
    watch.add_argument("--scan-rate", type=float, default=0.1, metavar="V_S")
    watch.add_argument("--e-step", type=float, default=0.005, metavar="V")
    watch.add_argument(
        "--interval",
        type=float,
        default=0.2,
        metavar="S",
        help="feed drain cadence in seconds",
    )
    watch.add_argument(
        "--profile",
        action="store_true",
        help="profile the run and print the hot-operation table",
    )
    watch.set_defaults(fn=_cmd_watch)

    serve = sub.add_parser("serve", help="serve the control agents over TCP")
    serve.add_argument("--secret", default=None, help="require HMAC auth")
    serve.set_defaults(fn=_cmd_serve)

    scan = sub.add_parser("scan-rate", help="Randles-Sevcik campaign")
    scan.add_argument(
        "rates", nargs="*", type=float, default=[0.05, 0.1, 0.2, 0.4]
    )
    scan.add_argument("--e-step", type=float, default=0.002, metavar="V")
    scan.set_defaults(fn=_cmd_scan_rate)

    resume = sub.add_parser(
        "resume", help="list and continue crash-interrupted campaigns"
    )
    resume.add_argument(
        "journal_dir",
        help="a campaign journal directory, or a parent holding several",
    )
    resume.add_argument(
        "--list", action="store_true", help="list resumable campaigns and exit"
    )
    resume.add_argument(
        "--name", default=None, help="which campaign directory to resume"
    )
    resume.add_argument(
        "--durability-dir",
        default=None,
        metavar="DIR",
        help="crashed ICE's durable state (dedup journal, lease epochs) "
        "so re-issued calls replay instead of re-executing",
    )
    resume.set_defaults(fn=_cmd_resume)

    jobs = sub.add_parser(
        "jobs", help="submit/inspect campaign jobs on a facility gateway"
    )
    jobs.add_argument(
        "action", choices=["submit", "status", "cancel", "poll"]
    )
    jobs.add_argument("job_id", nargs="?", default=None)
    jobs.add_argument(
        "--uri",
        required=True,
        metavar="PYRO_URI",
        help="the gateway's PYRO:ACL_Gateway@host:port URI",
    )
    jobs.add_argument("--tenant", required=True, help="tenant id")
    jobs.add_argument("--api-key", required=True, help="tenant API key")
    jobs.add_argument("--secret", default=None, help="channel HMAC secret")
    jobs.add_argument("--timeout", type=float, default=30.0, metavar="S")
    jobs.add_argument(
        "--rates",
        nargs="*",
        type=float,
        default=[0.05, 0.1, 0.2],
        metavar="V_S",
        help="scan rates for a submitted scan-rate campaign",
    )
    jobs.add_argument("--e-step", type=float, default=0.002, metavar="V")
    jobs.add_argument("--max-rounds", type=int, default=10)
    jobs.add_argument("--priority", type=int, default=0)
    jobs.add_argument("--cursor", type=int, default=0, help="poll cursor")
    jobs.add_argument("--max-events", type=int, default=256)
    jobs.add_argument(
        "--json", action="store_true", help="print the raw poll reply"
    )
    jobs.set_defaults(fn=_cmd_jobs)

    top = sub.add_parser(
        "top",
        help="per-tenant ops view: rates, queue depth, SLO burn, alerts",
    )
    top.add_argument(
        "--tenants",
        nargs="*",
        default=["lab-a", "lab-b"],
        help="tenant ids to drive demo traffic for",
    )
    top.add_argument(
        "--calls", type=int, default=20, help="healthy RPCs per tenant per round"
    )
    top.add_argument("--rounds", type=int, default=2, help="traffic rounds")
    top.add_argument(
        "--burst-tenant",
        default=None,
        help="tenant to hit with an error burst (fires its SLO alert)",
    )
    top.add_argument(
        "--burst-calls",
        type=int,
        default=15,
        help="failing RPCs in the burst",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable view (tenant rows + SLO statuses)",
    )
    top.set_defaults(fn=_cmd_top)

    explain = sub.add_parser(
        "explain",
        help="critical-path blame table for one trace (or gateway job)",
    )
    explain.add_argument(
        "id", help="trace id (unique prefix ok) or, with --state-dir, a job id"
    )
    explain.add_argument(
        "--trace-jsonl",
        required=True,
        metavar="PATH",
        help="JSONL span export to read (demo --trace-jsonl / export_trace)",
    )
    explain.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="gateway state dir: resolve a job id via journal job-trace records",
    )
    explain.add_argument(
        "--top", type=int, default=15, help="blame rows to print"
    )
    explain.add_argument(
        "--json", action="store_true", help="print the raw repro-traceidx-1 doc"
    )
    explain.set_defaults(fn=_cmd_explain)

    analyze = sub.add_parser("analyze", help="analyse an .mpt measurement file")
    analyze.add_argument("file")
    analyze.add_argument(
        "--diffusion",
        type=float,
        default=None,
        metavar="CM2_S",
        help="analyte D for Nicholson k0 estimation",
    )
    analyze.set_defaults(fn=_cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
