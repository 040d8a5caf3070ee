"""The paper's electrochemical workflow, tasks A-E (paper §4.2).

    (A) establish Pyro communications across the ICE between the control
        agent at ACL and the DGX at K200;
    (B) remotely configure and connect to the J-Kem setup;
    (C) fill the electrochemical cell with the ferrocene solution;
    (D) run the CV technique on the SP200 and collect I-V measurements
        (8 sub-steps, Fig 6a), the file arriving over the data channel;
    (E) shut the cross-facility connections down.

Post-run, the trace is characterised (peaks, dEp, E1/2) and screened by
the ML normality method — the "real-time analysis" of §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.clock import WALL
from repro.errors import WorkflowError
from repro.logging_utils import EventLog
from repro.obs.profiler import profiled
from repro.obs.recorder import pull_remote_snapshots
from repro.obs.trace import Tracer, child_span
from repro.resilience import RetryPolicy
from repro.chemistry.voltammogram import Voltammogram
from repro.analysis.metrics import CVMetrics, characterize
from repro.analysis.peaks import find_peaks
from repro.ml.normality import NormalityClassifier, NormalityReport
from repro.facility.ice import ElectrochemistryICE
from repro.facility.workstation import PORT_CELL, PORT_COLLECTOR
from repro.core.workflow import Context, Workflow, WorkflowResult


@dataclass(frozen=True)
class CVWorkflowSettings:
    """Knobs of the demonstration workflow.

    Defaults reproduce the paper's run: 5 mL of 2 mM ferrocene pumped at
    5 mL/min from the fraction collector's BOTTOM vial into the cell,
    swept 0.2 -> 0.8 V at 100 mV/s.

    Resilience knobs:
        resilient_client: open the control channel through a
            :class:`~repro.resilience.ResilientProxy` — calls reconnect
            and retry across link flaps/resets, with idempotency keys so
            retried instrument commands never execute twice.
        client_retry_policy: override the resilient client's policy.
        task_policy: per-task retry policy (backoff-driven) applied to
            the instrument tasks B-D instead of their fixed defaults.
        task_timeout_s: per-attempt deadline for tasks B-D.
        safe_state_teardown: register safe-state teardowns (halt pumps,
            shut off purge gas, park the potentiostat, drop the mount)
            that fire when a run ends with a failed or skipped task.
    """

    fill_volume_ml: float = 5.0
    pump_rate_ml_min: float = 5.0
    vial_position: str = "BOTTOM"
    purge_sccm: float = 50.0
    e_begin_v: float = 0.2
    e_vertex_v: float = 0.8
    scan_rate_v_s: float = 0.1
    n_cycles: int = 1
    e_step_v: float = 0.001
    channel: int = 1
    measurement_stem: str | None = None
    acquisition_timeout_s: float = 300.0
    resilient_client: bool = False
    client_retry_policy: RetryPolicy | None = None
    task_policy: RetryPolicy | None = None
    task_timeout_s: float | None = None
    safe_state_teardown: bool = True


@dataclass
class CVWorkflowResult:
    """What the workflow hands back to the scientist."""

    workflow: WorkflowResult
    voltammogram: Voltammogram | None = None
    metrics: CVMetrics | None = None
    normality: NormalityReport | None = None
    measurement_file: str | None = None
    #: ``repro-profile-1`` document when the run was profiled
    #: (``profile=True``), None otherwise.
    profile: dict[str, Any] | None = None

    @property
    def succeeded(self) -> bool:
        return self.workflow.succeeded

    def summary(self) -> str:
        """One-paragraph human summary."""
        if not self.succeeded:
            failed = ", ".join(t.name for t in self.workflow.failed_tasks())
            return f"workflow FAILED at: {failed}"
        parts = []
        if self.voltammogram is not None:
            parts.append(f"{len(self.voltammogram)} I-V samples collected")
        if self.metrics is not None:
            parts.append(self.metrics.format_summary())
        if self.normality is not None:
            parts.append(str(self.normality))
        return "; ".join(parts) if parts else "workflow succeeded"


def build_cv_workflow(
    ice: ElectrochemistryICE,
    settings: CVWorkflowSettings | None = None,
    classifier: NormalityClassifier | None = None,
    event_log: EventLog | None = None,
    tracer: Any = None,
    metrics: Any = None,
    flight_recorder: Any = None,
    flight_dir: str | Path | None = None,
    resume_from: str | None = None,
) -> Workflow:
    """Assemble the five-task workflow against a running ICE.

    The returned workflow is re-runnable; handles opened by task A are
    closed by task E (or leak detection in tests will flag it).

    ``tracer``/``metrics`` default to whatever the ICE carries (see
    :meth:`~repro.facility.ice.ElectrochemistryICE.attach_observability`),
    so a session-wired ecosystem traces the workflow without extra knobs.

    When a ``flight_recorder`` (the client half) is supplied along with
    ``safe_state_teardown``, an extra teardown — registered last, after
    the control channel is already closed — pulls the daemon half over a
    fresh short-timeout proxy and writes the merged black box into
    ``flight_dir`` (default ``<measurement_dir>/flight-recorder``).

    ``resume_from`` pins the control client's idempotency-key prefix
    (implies a resilient client). A fresh run under a journaled campaign
    passes the prefix it just journaled; a *resumed* run passes the
    prefix recorded by its crashed predecessor, so every instrument call
    the predecessor completed replays from the daemon's dedup journal
    instead of executing again — the round continues from where the
    crash cut it.
    """
    settings = settings or CVWorkflowSettings()
    tracer = tracer if tracer is not None else ice.tracer
    metrics = metrics if metrics is not None else ice.metrics
    flow = Workflow(
        "cv-workflow",
        event_log=event_log if event_log is not None else ice.event_log,
        tracer=tracer,
        metrics=metrics,
    )
    # knobs shared by the instrument tasks B-D; A keeps its historical
    # fixed retry so connection-establishment failures stay cheap to spot
    instrument_opts = {
        "policy": settings.task_policy,
        "timeout_s": settings.task_timeout_s,
    }

    @flow.task(
        "A_establish_communications",
        retries=1,
        description="Pyro channel + data mount between ACL and K200",
    )
    def task_a(ctx: Context) -> str:
        ctx.client = ice.client(
            resilient=settings.resilient_client or resume_from is not None,
            retry_policy=settings.client_retry_policy,
            tracer=tracer,
            metrics=metrics,
            idem_prefix=resume_from,
        )
        ctx.client.ping()
        ctx.mount = ice.mount(tracer=tracer, metrics=metrics)
        ctx.mount.info()  # data-channel liveness probe
        return "control + data channels up"

    @flow.task(
        "B_configure_jkem",
        depends=("A_establish_communications",),
        description="configure/connect syringe pump + fraction collector",
        **instrument_opts,
    )
    def task_b(ctx: Context) -> str:
        client = ctx.client
        client.call_Connect_JKem_API()
        client.call_Status_JKem()
        client.call_Set_Rate_SyringePump(1, settings.pump_rate_ml_min)
        client.call_Set_Vial_FractionCollector(1, settings.vial_position)
        if settings.purge_sccm > 0:
            client.call_Set_Flow_MFC(1, settings.purge_sccm)
        return "J-Kem setup configured"

    @flow.task(
        "C_fill_cell",
        depends=("B_configure_jkem",),
        description="pump ferrocene solution into the electrochemical cell",
        **instrument_opts,
    )
    def task_c(ctx: Context) -> dict[str, Any]:
        client = ctx.client
        if settings.fill_volume_ml > 0:
            client.call_Set_Port_SyringePump(1, PORT_COLLECTOR)
            client.call_Withdraw_SyringePump(1, settings.fill_volume_ml)
            client.call_Set_Port_SyringePump(1, PORT_CELL)
            client.call_Dispense_SyringePump(1, settings.fill_volume_ml)
        status = client.call_Cell_Status()
        required = settings.fill_volume_ml if settings.fill_volume_ml > 0 else 1e-6
        if status["volume_ml"] + 1e-9 < required:
            raise WorkflowError(
                f"cell reports {status['volume_ml']} mL after dispensing "
                f"{settings.fill_volume_ml} mL"
            )
        return status

    @flow.task(
        "D_run_cv",
        depends=("C_fill_cell",),
        description="SP200 8-step pipeline + data-channel collection",
        **instrument_opts,
    )
    def task_d(ctx: Context) -> dict[str, Any]:
        client = ctx.client
        clock = tracer.clock if tracer is not None else WALL
        client.call_Initialize_SP200_API({"channel": settings.channel})      # (1)
        client.call_Connect_SP200()                                          # (2)
        client.call_Load_Firmware_SP200()                                    # (3)
        client.call_Initialize_CV_Tech_SP200(                                # (4)
            {
                "e_begin_v": settings.e_begin_v,
                "e_vertex_v": settings.e_vertex_v,
                "scan_rate_v_s": settings.scan_rate_v_s,
                "n_cycles": settings.n_cycles,
                "e_step_v": settings.e_step_v,
            }
        )
        client.call_Load_Technique_SP200()                                   # (5)
        issued_at = clock.now()
        client.call_Start_Channel_SP200()                                    # (6)
        result = client.call_Get_Tech_Path_Rslt(                             # (7)
            wait=True, save_as=settings.measurement_stem
        )                                                                     # (8) auto
        file_name = result["file"]
        if file_name is None:
            raise WorkflowError("potentiostat reported no measurement file")
        # the acquisition command has been issued; the measurement is
        # "arrived" once its file is readable over the *data* channel
        with child_span("datachannel.file_arrival", file=file_name) as span:
            trace = ctx.mount.read_voltammogram(file_name)
            arrival_s = clock.now() - issued_at
            if span is not None:
                span.set_attribute("latency_s", arrival_s)
        if metrics is not None:
            metrics.histogram(
                "datachannel.file_arrival_latency_s",
                "acquisition command issue -> file readable on the mount",
            ).observe(arrival_s)
        ctx.measurement_file = file_name
        ctx.voltammogram = trace
        return {"file": file_name, "n_samples": len(trace)}

    @flow.task(
        "E_shutdown",
        depends=("D_run_cv",),
        description="disconnect Pyro communication and unmount",
    )
    def task_e(ctx: Context) -> str:
        ctx.client.call_Exit_JKem_API()
        ctx.client.call_Disconnect_SP200()
        ctx.mount.unmount()
        ctx.client.close()
        return "cross-facility connections closed"

    # analysis runs on the "DGX" after the instrument tasks
    @flow.task(
        "analyze",
        depends=("D_run_cv",),
        description="peak analysis + ML normality check on the DGX",
    )
    def task_analyze(ctx: Context) -> dict[str, Any]:
        trace: Voltammogram = ctx.voltammogram
        pair = find_peaks(trace)
        ctx.metrics = characterize(trace, peaks=pair) if pair.complete else None
        if classifier is not None:
            ctx.normality = classifier.classify(trace)
        else:
            ctx.normality = None
        return {
            "has_peaks": pair.complete,
            "normality": ctx.normality.label if ctx.normality else "unchecked",
        }

    if settings.safe_state_teardown:
        # Registered as separate teardowns so the engine guards each
        # independently: a dead control channel must not stop the local
        # cleanup of the mount.
        def safe_state_instruments(ctx: Context) -> None:
            client = ctx.get("client")
            if client is not None:
                outcome = client.call_Safe_State()
                flow.log.emit(
                    flow.name,
                    "teardown",
                    f"safe state: done={outcome['done']} "
                    f"errors={outcome['errors']}",
                )

        def unmount_data_channel(ctx: Context) -> None:
            mount = ctx.get("mount")
            if mount is not None:
                mount.unmount()

        def close_control_channel(ctx: Context) -> None:
            client = ctx.get("client")
            if client is not None:
                client.close()

        flow.add_teardown(safe_state_instruments)
        flow.add_teardown(unmount_data_channel)
        flow.add_teardown(close_control_channel)

        if flight_recorder is not None:

            def dump_flight_recording(ctx: Context) -> None:
                # runs after close_control_channel, so it opens its own
                # proxy; a partitioned channel yields a client-half-only
                # dump rather than no dump at all
                remote = pull_remote_snapshots(ice.recorder_client)
                target = (
                    Path(flight_dir)
                    if flight_dir is not None
                    else ice.measurement_dir / "flight-recorder"
                )
                path = flight_recorder.dump(
                    target, trigger="safe-state-teardown", remote_snapshots=remote
                )
                flow.log.emit(
                    flow.name,
                    "teardown",
                    f"flight recording dumped to {path}",
                    halves=1 + len(remote),
                )

            flow.add_teardown(dump_flight_recording)

    return flow


def run_cv_workflow(
    ice: ElectrochemistryICE,
    settings: CVWorkflowSettings | None = None,
    classifier: NormalityClassifier | None = None,
    tracer: Any = None,
    metrics: Any = None,
    flight_recorder: Any = None,
    flight_dir: str | Path | None = None,
    profile: bool = False,
    resume_from: str | None = None,
) -> CVWorkflowResult:
    """Build, run, and package the paper's workflow in one call.

    ``profile=True`` opens a :func:`~repro.obs.profiler.profiled` block
    on the run's tracer (a private one when the ICE carries none) and
    attaches the ``repro-profile-1`` document of the spans the run
    finishes as ``result.profile``. Blocks nest, so a campaign profiling
    all its rounds still gets one document per round.

    ``resume_from`` pins the control client's idempotency-key prefix for
    durable at-most-once across daemon restarts (see
    :func:`build_cv_workflow`).
    """
    flow = build_cv_workflow(
        ice,
        settings=settings,
        classifier=classifier,
        tracer=tracer,
        metrics=metrics,
        flight_recorder=flight_recorder,
        flight_dir=flight_dir,
        resume_from=resume_from,
    )
    profile_doc = None
    if profile:
        if flow.tracer is None:
            # profile=True without any tracer: trace the run privately so
            # there is something to profile
            flow.tracer = Tracer("cv-workflow")
        with profiled(flow.tracer) as block:
            outcome = flow.run()
        profile_doc = block.profile()
    else:
        outcome = flow.run()
    ctx = outcome.context
    return CVWorkflowResult(
        workflow=outcome,
        voltammogram=ctx.get("voltammogram"),
        metrics=ctx.get("metrics"),
        normality=ctx.get("normality"),
        measurement_file=ctx.get("measurement_file"),
        profile=profile_doc,
    )
