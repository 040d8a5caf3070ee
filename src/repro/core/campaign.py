"""Multi-round adaptive campaigns (paper §1: workflows that "adapt system
and instrument settings in real-time during multiple rounds of
experiments").

A :class:`Campaign` repeatedly runs the CV workflow against one ICE,
letting a *strategy* look at everything measured so far and either
propose the next round's settings or stop. Three strategies ship:

- :func:`scan_rate_strategy` — sweep a list of scan rates (feeding the
  Randles-Sevcik analysis);
- :func:`window_centering_strategy` — start with a guessed potential
  window, then re-centre it on the measured E1/2 each round until the
  window converges: a minimal but genuinely closed-loop experiment;
- :func:`kinetics_targeting_strategy` — steer the scan rate until the
  peak separation lands in Nicholson's informative window, then measure
  k0 from it.
"""

from __future__ import annotations

import uuid
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.analysis.metrics import CVMetrics
from repro.durability import CheckpointStore, Journal
from repro.errors import WorkflowError
from repro.ml.normality import NormalityClassifier, NormalityReport
from repro.facility.ice import ElectrochemistryICE
from repro.resilience import RetryPolicy
from repro.obs.health import HealthEngine
from repro.obs.health import require_healthy as _gate_healthy
from repro.obs.profiler import profiled
from repro.obs.recorder import pull_remote_snapshots
from repro.obs.trace import child_span, use_span
from repro.core.cv_workflow import (
    CVWorkflowResult,
    CVWorkflowSettings,
    run_cv_workflow,
)
from repro.core.provenance import capture_provenance, write_provenance


@dataclass
class CampaignRound:
    """One completed round.

    ``retry_of`` is the index of the abnormal round this one re-ran
    (None for first attempts) — see :class:`Campaign` retry semantics.
    ``resumed`` marks rounds restored from a durability checkpoint by
    :meth:`Campaign.resume` rather than executed in this process.
    """

    index: int
    settings: CVWorkflowSettings
    result: CVWorkflowResult
    retry_of: int | None = None
    resumed: bool = False


def _settings_to_json(settings: CVWorkflowSettings) -> dict[str, Any]:
    """JSON-safe dict for journaling (exception types are dropped)."""
    doc = asdict(settings)
    for key in ("client_retry_policy", "task_policy"):
        policy = doc.get(key)
        if policy is not None:
            # retry_on holds exception *types*; rebuilt policies fall
            # back to the default transient set
            policy.pop("retry_on", None)
    return doc


def _settings_from_json(doc: dict[str, Any]) -> CVWorkflowSettings:
    """Inverse of :func:`_settings_to_json`."""
    doc = dict(doc)
    for key in ("client_retry_policy", "task_policy"):
        if doc.get(key) is not None:
            doc[key] = RetryPolicy(**doc[key])
    return CVWorkflowSettings(**doc)


class _ResumedWorkflowShim:
    """Stands in for a WorkflowResult on rounds restored from checkpoint.

    Carries just enough surface (``tasks``, ``succeeded``) for campaign
    bookkeeping and :func:`capture_provenance`; the real task graph died
    with the process that ran the round.
    """

    def __init__(self) -> None:
        self.tasks: dict[str, Any] = {}
        self.succeeded = True


def _round_from_checkpoint(payload: dict[str, Any]) -> CampaignRound:
    """Rebuild a completed round from its durability checkpoint."""
    metrics = payload.get("metrics")
    normality = payload.get("normality")
    result = CVWorkflowResult(
        workflow=_ResumedWorkflowShim(),
        metrics=CVMetrics(**metrics) if metrics else None,
        normality=NormalityReport(**normality) if normality else None,
        measurement_file=payload.get("measurement_file"),
    )
    return CampaignRound(
        index=int(payload["index"]),
        settings=_settings_from_json(payload["settings"]),
        result=result,
        retry_of=payload.get("retry_of"),
        resumed=True,
    )


#: A strategy inspects history and returns the next settings, or None to stop.
Strategy = Callable[[list[CampaignRound]], CVWorkflowSettings | None]


@dataclass
class Campaign:
    """Closed-loop experiment runner.

    Args:
        ice: the running ecosystem.
        strategy: proposes each round's settings (None = stop).
        classifier: optional ML screen; abnormal rounds either stop the
            campaign or are retried once with a refilled cell, depending
            on ``abort_on_abnormal``.
        max_rounds: hard bound regardless of strategy.
        require_healthy: evaluate the health rules before the first
            round and refuse to start (:class:`~repro.errors.HealthGateError`)
            when the ecosystem is ``unhealthy``. Uses ``health_engine``,
            or builds one over the ICE's metrics registry that reads no
            counter window (only gauges and histograms can fail it).
        health_engine: the :class:`~repro.obs.health.HealthEngine` the
            gate consults (share the session's to judge its window).
        flight_recorder: client-half flight recorder; abnormal rounds
            dump a black box, and each round's workflow dumps on
            safe-state teardown.
        flight_dir: dump directory (default
            ``<measurement_dir>/flight-recorder``).
        profile: profile the ICE's tracer for the whole campaign; the
            ``repro-profile-1`` document of every round lands on
            ``profile_doc``, and each round's result carries the
            document of that round only.
        journal_dir: enable durable execution. Every round transition
            is appended to a crash-consistent write-ahead journal
            (``<journal_dir>/campaign.jsonl``) and each completed
            round's payload lands in a checkpoint store, so a campaign
            killed mid-round can be continued with :meth:`resume` —
            completed rounds are restored from disk and the torn round
            is re-issued under its journaled idempotency-key prefix,
            replaying from the daemon's dedup journal instead of
            re-executing instrument actions.
    """

    ice: ElectrochemistryICE
    strategy: Strategy
    classifier: NormalityClassifier | None = None
    max_rounds: int = 10
    abort_on_abnormal: bool = True
    require_healthy: bool = False
    health_engine: Any = None
    flight_recorder: Any = None
    flight_dir: str | Path | None = None
    profile: bool = False
    profile_doc: dict[str, Any] | None = None
    journal_dir: str | Path | None = None
    #: skipped-vs-rerun accounting from the last :meth:`resume` call.
    resume_report: dict[str, Any] | None = None
    rounds: list[CampaignRound] = field(default_factory=list)
    _journal: Journal | None = field(default=None, init=False, repr=False)
    _checkpoints: CheckpointStore | None = field(
        default=None, init=False, repr=False
    )

    def run(self) -> list[CampaignRound]:
        """Run until the strategy stops, a round fails, or max_rounds.

        Abnormal rounds: with ``abort_on_abnormal=True`` the campaign
        stops at the first abnormal measurement. With it False, the
        abnormal round is retried once with a refilled cell (fresh
        liquid often clears a fouled electrode or a bubble); the retry
        is recorded as its own round with ``retry_of`` set, and the
        campaign continues only if the retry comes back normal.
        """
        if self.max_rounds < 1:
            raise WorkflowError("max_rounds must be >= 1")
        if self.require_healthy:
            if self.health_engine is None and self.ice.metrics is not None:
                self.health_engine = HealthEngine(self.ice.metrics, stores=())
            _gate_healthy(self.health_engine, what="campaign")
        self.rounds.clear()
        self._open_journal(fresh=True)
        block = self._profiled()
        try:
            with block or nullcontext():
                self._journal_append(
                    "campaign-started",
                    campaign_id=uuid.uuid4().hex,
                    max_rounds=self.max_rounds,
                    abort_on_abnormal=self.abort_on_abnormal,
                    strategy_spec=getattr(self.strategy, "spec", None),
                )
                self._run_rounds()
                self._journal_finished()
        finally:
            if block is not None:
                self.profile_doc = block.profile()
            self._close_journal()
        return self.rounds

    def _journal_finished(self) -> None:
        """Mark the campaign done — unless a round died, in which case the
        journal must stay resumable (the failed round is re-issued)."""
        if all(r.result.succeeded for r in self.rounds):
            self._journal_append("campaign-finished", rounds=len(self.rounds))

    def resume(self) -> list[CampaignRound]:
        """Continue a journaled campaign after a crash.

        Replays ``<journal_dir>/campaign.jsonl`` (tolerating a torn
        tail — a record half-written at the instant of death), restores
        every completed round from its checkpoint, re-runs the single
        in-flight (or failed) round under its journaled idempotency-key
        prefix so calls the dead process already made replay from the
        daemon's dedup journal rather than re-executing, then hands
        control back to the strategy loop for the remaining rounds.

        Populates :attr:`resume_report` with the skipped-vs-rerun
        accounting and returns the full round list.
        """
        if self.journal_dir is None:
            raise WorkflowError("resume() requires journal_dir")
        if self.max_rounds < 1:
            raise WorkflowError("max_rounds must be >= 1")
        path = Path(self.journal_dir) / "campaign.jsonl"
        if not path.exists():
            raise WorkflowError(f"no campaign journal at {path}")
        replay = Journal.replay_file(path)
        started: dict[int, dict[str, Any]] = {}
        completed: dict[int, str] = {}
        finished = False
        for rec in replay.records:
            if rec.kind in ("round-started", "round-resumed"):
                started[int(rec.data["index"])] = rec.data
            elif rec.kind == "round-completed":
                completed[int(rec.data["index"])] = str(rec.data["checkpoint"])
            elif rec.kind == "campaign-finished":
                finished = True
        if self.require_healthy:
            if self.health_engine is None and self.ice.metrics is not None:
                self.health_engine = HealthEngine(self.ice.metrics, stores=())
            _gate_healthy(self.health_engine, what="campaign")
        metrics = self.ice.metrics
        if metrics is not None:
            metrics.counter(
                "recovery.resumes_total", "campaign resume attempts"
            ).inc()
            if replay.torn_tail:
                metrics.counter(
                    "durability.torn_tails_total",
                    "journal tails torn by a crash",
                ).inc()
        self.rounds.clear()
        self.resume_report = None
        skipped: list[int] = []
        rerun: list[int] = []
        self._open_journal(fresh=False)
        block = self._profiled()
        try:
            with block or nullcontext():
                for index in sorted(started):
                    if index in completed:
                        store = self._checkpoints
                        payload = (
                            store.load(completed[index])
                            if store is not None
                            else None
                        )
                        if payload is None:
                            raise WorkflowError(
                                f"checkpoint {completed[index]!r} missing for "
                                f"completed round {index}"
                            )
                        self.rounds.append(_round_from_checkpoint(payload))
                        skipped.append(index)
                        continue
                    # the torn round: re-issue under the journaled prefix
                    data = started[index]
                    record = self._run_round(
                        _settings_from_json(data["settings"]),
                        retry_of=data.get("retry_of"),
                        idem_prefix=data.get("idem_prefix"),
                        resumed_start=True,
                    )
                    rerun.append(index)
                    if not record.result.succeeded:
                        break
                    if self._abnormal(record) and self.abort_on_abnormal:
                        self.dump_flight("abnormal-round")
                        break
                else:
                    if not finished:
                        self._run_rounds()
                self._journal_finished()
        finally:
            if block is not None:
                self.profile_doc = block.profile()
            self._close_journal()
        if metrics is not None:
            if skipped:
                metrics.counter(
                    "recovery.rounds_skipped_total",
                    "rounds restored from checkpoint on resume",
                ).inc(len(skipped))
            if rerun:
                metrics.counter(
                    "recovery.rounds_rerun_total",
                    "rounds re-issued on resume",
                ).inc(len(rerun))
        self.resume_report = {
            "journal": str(path),
            "torn_tail": replay.torn_tail,
            "already_finished": finished,
            "skipped_rounds": skipped,
            "rerun_rounds": rerun,
            "total_rounds": len(self.rounds),
        }
        return self.rounds

    # -- durability plumbing ------------------------------------------------
    def _open_journal(self, fresh: bool) -> None:
        if self.journal_dir is None:
            return
        directory = Path(self.journal_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "campaign.jsonl"
        if fresh and path.exists():
            path.unlink()
        self._journal = Journal(path)
        self._checkpoints = CheckpointStore(directory / "checkpoints")

    def _close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
        self._journal = None
        self._checkpoints = None

    def _journal_append(self, kind: str, **data: Any) -> None:
        if self._journal is None:
            return
        self._journal.append(kind, **data)
        if self.ice.metrics is not None:
            self.ice.metrics.counter(
                "durability.journal_appends_total",
                "campaign journal records written",
            ).inc(kind=kind)

    def _profiled(self) -> profiled | None:
        """A block on the ICE tracer covering every round, when
        ``profile=True``. Without an ICE tracer, rounds still profile
        individually via their private workflow tracers."""
        if not self.profile or self.ice.tracer is None:
            return None
        return profiled(self.ice.tracer)

    def _run_rounds(self) -> None:
        while len(self.rounds) < self.max_rounds:
            # the strategy sees effective history: a retry supersedes the
            # abnormal round it re-ran, so sweep strategies keyed on
            # round count are not thrown off by retries
            proposed = self.strategy(self.effective_rounds)
            if proposed is None:
                break
            # rounds after the first reuse the liquid already in the cell
            settings = (
                replace(proposed, fill_volume_ml=0.0) if self.rounds else proposed
            )
            record = self._run_round(settings)
            if not record.result.succeeded:
                break
            if self._abnormal(record):
                self.dump_flight("abnormal-round")
                if self.abort_on_abnormal:
                    break
                if len(self.rounds) >= self.max_rounds:
                    break
                retry = self._run_round(
                    replace(
                        settings,
                        fill_volume_ml=proposed.fill_volume_ml,
                        measurement_stem=f"{settings.measurement_stem}_retry",
                    ),
                    retry_of=record.index,
                )
                if not retry.result.succeeded or self._abnormal(retry):
                    if self._abnormal(retry):
                        self.dump_flight("abnormal-round")
                    break

    def dump_flight(self, trigger: str) -> Path | None:
        """Write a black box now (no-op without a flight recorder).

        The daemon half is pulled over the control channel best-effort;
        a partitioned channel still yields the client half.
        """
        if self.flight_recorder is None:
            return None
        remote = pull_remote_snapshots(self.ice.obs_client)
        target = (
            Path(self.flight_dir)
            if self.flight_dir is not None
            else self.ice.measurement_dir / "flight-recorder"
        )
        try:
            return self.flight_recorder.dump(
                target, trigger=trigger, remote_snapshots=remote
            )
        except Exception:  # noqa: BLE001 - never fail a campaign over a dump
            return None

    def _run_round(
        self,
        settings: CVWorkflowSettings,
        retry_of: int | None = None,
        idem_prefix: str | None = None,
        resumed_start: bool = False,
    ) -> CampaignRound:
        index = len(self.rounds)
        prefix = idem_prefix
        if self._journal is not None:
            # write-ahead: the start record (with the idempotency-key
            # prefix this round's client will stamp on every call) hits
            # disk before any instrument action, so a crash mid-round
            # leaves enough on disk to re-issue the round idempotently
            if prefix is None:
                prefix = uuid.uuid4().hex
            self._journal_append(
                "round-resumed" if resumed_start else "round-started",
                index=index,
                retry_of=retry_of,
                idem_prefix=prefix,
                settings=_settings_to_json(settings),
            )
        result = run_cv_workflow(
            self.ice,
            settings=settings,
            classifier=self.classifier,
            flight_recorder=self.flight_recorder,
            flight_dir=self.flight_dir,
            profile=self.profile,
            resume_from=prefix,
        )
        record = CampaignRound(
            index=index,
            settings=settings,
            result=result,
            retry_of=retry_of,
        )
        self.rounds.append(record)
        if self._journal is not None:
            if result.succeeded:
                name = f"round-{index:03d}"
                if self._checkpoints is not None:
                    self._checkpoints.save(name, self._round_payload(record))
                self._journal_append("round-completed", index=index, checkpoint=name)
            else:
                self._journal_append("round-failed", index=index)
        return record

    @staticmethod
    def _round_payload(record: CampaignRound) -> dict[str, Any]:
        result = record.result
        return {
            "index": record.index,
            "retry_of": record.retry_of,
            "settings": _settings_to_json(record.settings),
            "metrics": asdict(result.metrics) if result.metrics else None,
            "normality": (
                asdict(result.normality) if result.normality else None
            ),
            "measurement_file": result.measurement_file,
        }

    @staticmethod
    def _abnormal(record: CampaignRound) -> bool:
        report = record.result.normality
        return report is not None and not report.normal

    @property
    def effective_rounds(self) -> list[CampaignRound]:
        """Rounds minus any abnormal round superseded by its retry."""
        superseded = {
            r.retry_of for r in self.rounds if r.retry_of is not None
        }
        return [r for r in self.rounds if r.index not in superseded]

    @property
    def all_normal(self) -> bool:
        return all(
            r.result.normality is None or r.result.normality.normal
            for r in self.rounds
        )


@dataclass
class FleetCellResult:
    """Outcome of one cell's campaign inside a :class:`FleetCampaign`."""

    cell: str
    rounds: list[CampaignRound]
    error: Exception | None = None
    safe_stated: bool = False

    @property
    def succeeded(self) -> bool:
        """True when the campaign ran to completion without crashing."""
        return self.error is None


class FleetCampaign:
    """Independent campaigns against multiple ICE cells, concurrently.

    The paper runs one cell per workflow; fleets of ICEs (the follow-on
    "self-driving labs" scaling) run many. Each cell's campaign executes
    in its own worker thread against its own ICE, so one slow or broken
    cell never stalls the others:

    - **failure isolation** — an exception in one cell's campaign is
      captured in that cell's :class:`FleetCellResult`; every other cell
      runs to completion;
    - **safe state** — a crashed cell's workstation is sent
      ``Safe_State`` (syringe/peri pumps halted, cell drained) before
      its result is recorded, so no hardware is left pumping;
    - **merged provenance** — :meth:`merged_provenance` folds each
      cell's per-round provenance records into one fleet-level document.

    Args:
        campaigns: cell name -> ready-to-run :class:`Campaign` (each
            with its *own* ICE).
        tracer: optional tracer; cells run under ``fleet.cell`` spans
            parented to one ``fleet.run`` root.
        metrics: optional registry; receives the ``fleet.cells_total``
            counter labelled by outcome.
        require_healthy: propagate the pre-flight health gate to every
            cell's campaign — a cell whose ecosystem is ``unhealthy``
            records :class:`~repro.errors.HealthGateError` as its result
            instead of running (the other cells are unaffected).
    """

    def __init__(
        self,
        campaigns: dict[str, Campaign],
        tracer: Any = None,
        metrics: Any = None,
        require_healthy: bool = False,
    ):
        if not campaigns:
            raise WorkflowError("a fleet needs at least one campaign")
        self.campaigns = dict(campaigns)
        self.tracer = tracer
        self.metrics = metrics
        self.require_healthy = require_healthy
        self.results: dict[str, FleetCellResult] = {}

    def run(self) -> dict[str, FleetCellResult]:
        """Run every cell's campaign; returns cell name -> result."""
        self.results.clear()
        if self.require_healthy:
            for campaign in self.campaigns.values():
                campaign.require_healthy = True
        root = (
            self.tracer.start_span(
                "fleet.run", attributes={"cells": len(self.campaigns)}
            )
            if self.tracer is not None
            else None
        )
        try:
            with ThreadPoolExecutor(
                max_workers=len(self.campaigns), thread_name_prefix="fleet"
            ) as pool:
                futures = {
                    name: pool.submit(self._run_cell, name, campaign, root)
                    for name, campaign in self.campaigns.items()
                }
                for name, future in futures.items():
                    self.results[name] = future.result()
        finally:
            if root is not None:
                failed = [r.cell for r in self.results.values() if not r.succeeded]
                root.set_attribute("cells_failed", len(failed))
                root.end("ERROR" if failed else None)
        if self.metrics is not None:
            counter = self.metrics.counter(
                "fleet.cells_total", "fleet campaign cells by outcome"
            )
            for result in self.results.values():
                counter.inc(status="ok" if result.succeeded else "error")
        return self.results

    def _run_cell(
        self, name: str, campaign: Campaign, parent: Any
    ) -> FleetCellResult:
        with use_span(parent):
            with child_span("fleet.cell", cell=name) as span:
                try:
                    rounds = campaign.run()
                except Exception as exc:  # noqa: BLE001 - isolate the cell
                    if span is not None:
                        span.record_exception(exc)
                    safe = self._safe_state(campaign)
                    campaign.dump_flight("fleet-cell-failure")
                    return FleetCellResult(
                        cell=name,
                        rounds=list(campaign.rounds),
                        error=exc,
                        safe_stated=safe,
                    )
                return FleetCellResult(cell=name, rounds=rounds)

    @staticmethod
    def _safe_state(campaign: Campaign) -> bool:
        """Best-effort hardware quiesce after a cell's campaign crashed."""
        try:
            client = campaign.ice.client()
            try:
                client.call_Safe_State()
            finally:
                client.close()
            return True
        except Exception:  # noqa: BLE001 - teardown must never re-raise
            return False

    @property
    def succeeded(self) -> bool:
        return bool(self.results) and all(
            r.succeeded for r in self.results.values()
        )

    def merged_provenance(self) -> dict[str, Any]:
        """One fleet-level provenance document spanning every cell.

        Each completed round contributes its full
        :func:`capture_provenance` record (task states, timings,
        SHA-256'd measurement artifact); crashed cells record the error
        and whether safe state was reached.
        """
        cells: dict[str, Any] = {}
        for name, result in self.results.items():
            campaign = self.campaigns[name]
            round_records = []
            for round_ in result.rounds:
                artifacts: list[Path] = []
                measurement = round_.result.measurement_file
                if measurement:
                    local = campaign.ice.measurement_dir / measurement
                    if local.exists():
                        artifacts.append(local)
                record = capture_provenance(
                    round_.result.workflow,
                    workflow_name=f"cv-campaign[{name}]#{round_.index}",
                    settings=round_.settings,
                    artifacts=artifacts,
                )
                record["round"] = round_.index
                record["retry_of"] = round_.retry_of
                record["resumed"] = round_.resumed
                round_records.append(record)
            cells[name] = {
                "rounds": round_records,
                "error": str(result.error) if result.error else None,
                "safe_stated": result.safe_stated,
            }
        return {
            "schema": "repro-fleet-provenance-1",
            "cells": cells,
            "succeeded": self.succeeded,
        }

    def write_merged_provenance(
        self, directory: str | Path, stem: str = "fleet-provenance"
    ) -> Path:
        """Write :meth:`merged_provenance` as ``<stem>.json``."""
        return write_provenance(self.merged_provenance(), directory, stem)


def scan_rate_strategy(
    scan_rates_v_s: tuple[float, ...],
    base: CVWorkflowSettings | None = None,
) -> Strategy:
    """Sweep fixed scan rates, one round each."""
    base = base or CVWorkflowSettings()

    def propose(history: list[CampaignRound]) -> CVWorkflowSettings | None:
        if len(history) >= len(scan_rates_v_s):
            return None
        return replace(
            base,
            scan_rate_v_s=scan_rates_v_s[len(history)],
            measurement_stem=f"scanrate_{len(history):02d}",
        )

    # journaled so `repro-ice resume` can rebuild the strategy from disk
    propose.spec = {  # type: ignore[attr-defined]
        "kind": "scan-rate",
        "scan_rates_v_s": list(scan_rates_v_s),
        "base": _settings_to_json(base),
    }
    return propose


def strategy_from_spec(spec: dict[str, Any]) -> Strategy:
    """Rebuild a strategy from the ``strategy_spec`` a campaign journaled.

    Only strategies that attach a ``spec`` attribute (currently
    :func:`scan_rate_strategy`) can be rebuilt; campaigns run with
    bespoke closures must be resumed programmatically by constructing
    the same strategy again.
    """
    kind = spec.get("kind")
    if kind == "scan-rate":
        return scan_rate_strategy(
            tuple(spec["scan_rates_v_s"]),
            base=_settings_from_json(spec["base"]),
        )
    raise WorkflowError(f"cannot rebuild strategy from spec kind {kind!r}")


def campaign_journal_status(journal_dir: str | Path) -> dict[str, Any] | None:
    """Summarise a campaign journal for tooling (``repro-ice resume``).

    Returns None when no journal exists. Otherwise a dict with the
    per-round disposition a resume would apply: completed round indexes
    (restorable from checkpoint), the in-flight round (started but never
    completed — re-issued idempotently), whether the campaign already
    finished, the journaled strategy spec, and whether the journal tail
    was torn by the crash.
    """
    path = Path(journal_dir) / "campaign.jsonl"
    if not path.exists():
        return None
    replay = Journal.replay_file(path)
    started: set[int] = set()
    completed: set[int] = set()
    spec: dict[str, Any] | None = None
    max_rounds: int | None = None
    finished = False
    for rec in replay.records:
        if rec.kind == "campaign-started":
            spec = rec.data.get("strategy_spec")
            max_rounds = rec.data.get("max_rounds")
        elif rec.kind in ("round-started", "round-resumed"):
            started.add(int(rec.data["index"]))
        elif rec.kind == "round-completed":
            completed.add(int(rec.data["index"]))
        elif rec.kind == "campaign-finished":
            finished = True
    return {
        "journal": str(path),
        "completed_rounds": sorted(completed),
        "in_flight_rounds": sorted(started - completed),
        "finished": finished,
        "torn_tail": replay.torn_tail,
        "strategy_spec": spec,
        "max_rounds": max_rounds,
        "resumable": not finished and bool(started),
    }


def window_centering_strategy(
    base: CVWorkflowSettings | None = None,
    half_window_v: float = 0.25,
    tolerance_v: float = 0.01,
    max_adjustments: int = 5,
) -> Strategy:
    """Re-centre the sweep window on the measured E1/2 each round.

    Stops when the window centre moves by less than ``tolerance_v`` —
    i.e. the experiment has *found* the couple and framed it.
    """
    base = base or CVWorkflowSettings()

    def propose(history: list[CampaignRound]) -> CVWorkflowSettings | None:
        if len(history) >= max_adjustments:
            return None
        if not history:
            return replace(base, measurement_stem="window_00")
        last = history[-1]
        metrics = last.result.metrics
        if metrics is None:
            # no wave in window: widen and retry
            previous = last.settings
            centre = 0.5 * (previous.e_begin_v + previous.e_vertex_v)
            span = abs(previous.e_vertex_v - previous.e_begin_v) * 1.5
            return replace(
                previous,
                e_begin_v=centre - span / 2,
                e_vertex_v=centre + span / 2,
                measurement_stem=f"window_{len(history):02d}",
            )
        centre_now = 0.5 * (last.settings.e_begin_v + last.settings.e_vertex_v)
        target = metrics.e_half_v
        if abs(target - centre_now) < tolerance_v:
            return None  # converged
        return replace(
            last.settings,
            e_begin_v=target - half_window_v,
            e_vertex_v=target + half_window_v,
            measurement_stem=f"window_{len(history):02d}",
        )

    return propose


def kinetics_targeting_strategy(
    base: CVWorkflowSettings | None = None,
    target_separation_v: tuple[float, float] = (0.080, 0.160),
    max_rounds: int = 6,
    rate_bounds_v_s: tuple[float, float] = (0.01, 50.0),
) -> Strategy:
    """Steer the scan rate into the kinetically informative window.

    Nicholson's working curve is steep (insensitive) near the reversible
    limit and flat (noisy) deep in the irreversible tail; k0 is best
    measured where dEp sits in roughly 80-160 mV. This strategy measures
    dEp each round and multiplies the scan rate up (dEp too reversible)
    or down (too irreversible) until a round lands in the window — a
    small but genuine example of the "AI-driven" real-time steering the
    ICE exists for: the next instrument setting depends on analysis of
    the previous measurement.
    """
    base = base or CVWorkflowSettings()
    low, high = target_separation_v

    def propose(history: list[CampaignRound]) -> CVWorkflowSettings | None:
        from dataclasses import replace as _replace

        if len(history) >= max_rounds:
            return None
        if not history:
            return _replace(base, measurement_stem="kinetics_00")
        last = history[-1]
        metrics = last.result.metrics
        rate = last.settings.scan_rate_v_s
        if metrics is None:
            proposal = rate * 0.25  # no wave: ease off
        else:
            separation = metrics.peak_separation_v
            if low <= separation <= high:
                return None  # informative measurement achieved
            if separation < low:
                # too reversible: outrun the kinetics
                proposal = rate * 4.0
            else:
                proposal = rate * 0.5
        proposal = min(max(proposal, rate_bounds_v_s[0]), rate_bounds_v_s[1])
        if proposal == rate:
            return None  # pinned at a bound; cannot improve
        return _replace(
            base,
            scan_rate_v_s=proposal,
            measurement_stem=f"kinetics_{len(history):02d}",
        )

    return propose
