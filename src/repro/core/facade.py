"""The unified entry point: ``repro.connect()``.

One call stands up (or attaches to) the cross-facility ecosystem and
hands back a :class:`Session` that exposes every surface a scientist on
the analysis host needs::

    import repro

    with repro.connect() as session:           # build a simulated ICE
        session.fill_cell(5.0)
        trace = session.run_cv()
        print(session.analyze(trace).format_summary())
        print(session.metrics.format_table())  # observability built in

    with repro.connect(ice) as session:        # attach to a running ICE
        result = session.run_workflow()        # paper tasks A-E, traced

Observability is on by default: unless a ``tracer``/``metrics`` pair is
injected, the session creates its own and wires them through the client,
the data-channel mount, the workflow engine and — when the ecosystem is
in-process — the daemons and simulated network, so a single run yields
one connected trace from workflow task down to instrument command.

``connect`` accepts three targets:

- ``None``: build a fresh simulated :class:`ElectrochemistryICE` (the
  session owns it and shuts it down on :meth:`Session.close`);
- a running :class:`ElectrochemistryICE` (caller keeps ownership);
- a ``PYRO:`` URI string for a real TCP control agent (two-machine
  mode); the data channel needs ``data_uri`` in that case.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any

from repro.core.config import (
    SessionConfig,
    TransportConfig,
    merge_legacy_kwargs,
)
from repro.errors import WorkflowError
from repro.obs import JsonlSpanExporter, MetricsRegistry, Tracer
from repro.obs.analysis import TraceIndex, TraceSampler
from repro.obs.health import HealthEngine, HealthReport
from repro.obs.health import require_healthy as _gate_healthy
from repro.obs.baseline import BaselineStore
from repro.obs.recorder import (
    FlightRecorder,
    FlightRecorderServer,
    is_daemon_side_span,
    pull_remote_snapshots,
)
from repro.obs.scrape import ObsAggregator, ObservabilityServer, format_top
from repro.obs.slo import SLOEngine, default_objectives
from repro.obs.stream import SessionStream, TelemetryBus, TelemetryServer
from repro.obs.timeseries import (
    SCHEMA as TSDB_SCHEMA,
    TimeSeriesStore,
    is_daemon_side_metric,
)
from repro.chemistry.voltammogram import Voltammogram
from repro.analysis.metrics import CVMetrics, characterize
from repro.ml.normality import NormalityClassifier, NormalityReport
from repro.facility.client import ACLPyroClient
from repro.facility.ice import ElectrochemistryICE
from repro.facility.workstation import PORT_CELL, PORT_COLLECTOR


class Session:
    """Everything the remote scientist holds: client, data channel,
    workflow builder, metrics, and the notebook verbs.

    Build via :func:`connect`; attributes of note:

    Attributes:
        client: control-channel :class:`ACLPyroClient` (resilient by
            default — reconnect/retry with idempotent replay).
        datachannel: mounted measurement share
            (:class:`~repro.datachannel.mount.Mount`); ``None`` when
            connected by URI without a ``data_uri``.
        tracer: the session :class:`~repro.obs.Tracer`.
        metrics: the session :class:`~repro.obs.MetricsRegistry`.
        recorder: the client-half :class:`~repro.obs.FlightRecorder`.
        bus: the client-half :class:`~repro.obs.TelemetryBus` feeding
            :meth:`stream` (DGX-side spans, metric deltas, health
            transitions; the ACL half streams through ``Telemetry_Poll``).
        health_engine: the session :class:`~repro.obs.HealthEngine`
            behind :meth:`health`.
        trace_index: the bounded :class:`~repro.obs.analysis.TraceIndex`
            behind :meth:`traces` / :meth:`explain` (always on).
        sampler: the tail-based
            :class:`~repro.obs.analysis.TraceSampler`, or ``None``
            unless ``SessionConfig(trace_sample_budget=...)`` is set.
        flight_dir: where black-box dumps land (override per call or via
            the ``flight_dir=`` connect argument).
        ice: the in-process ecosystem, when there is one.
        lease_epoch: fencing epoch held after :meth:`reattach`; None
            until a lease is taken.
        transport_config: the :class:`~repro.core.config.TransportConfig`
            this session dialled with.
        session_config: the :class:`~repro.core.config.SessionConfig`
            governing resilience, gating, profiling and journaling
            defaults.
    """

    def __init__(
        self,
        target: ElectrochemistryICE | str | None = None,
        *,
        transport: TransportConfig | None = None,
        session: SessionConfig | None = None,
        resilient: bool | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        classifier: NormalityClassifier | None = None,
        config: Any = None,
        data_uri: str | None = None,
        cache_dir: str | Path | None = None,
        flight_dir: str | Path | None = None,
        health_window_s: float | None = None,
        breaker: Any = None,
    ):
        self.transport_config = (
            transport if transport is not None else TransportConfig()
        )
        self.session_config = merge_legacy_kwargs(
            session, resilient=resilient, health_window_s=health_window_s
        )
        self._owns_ice = False
        self.ice: ElectrochemistryICE | None = None
        self.tracer = tracer if tracer is not None else Tracer("dgx-session")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._classifier = classifier
        self._sp200_ready = False
        self._jkem_ready = False
        self._characterization = None
        self._gateway_client = None
        self.lease_epoch: int | None = None
        # client-half black box: DGX-side spans (the daemon half records
        # its own via the ICE) plus the session's metric snapshots
        self.recorder = FlightRecorder("dgx-session", clock=self.tracer.clock)
        self.recorder.observe_metrics(self.metrics)
        # client-half live feed: DGX-side span completions plus every
        # metric write; the daemon half streams its own spans/events and
        # session.stream() merges the two (the split mirrors the
        # recorder's, so no event ever appears on both halves)
        self.bus = TelemetryBus(
            "dgx-session", clock=self.tracer.clock, metrics=self.metrics
        )
        self.bus.observe_metrics(self.metrics)
        # session-half time-series rollups: the DGX slice of the shared
        # registry (an in-process ICE's store takes the daemon slice),
        # scrapeable via Session.scrape() and merged by Session.top()
        self.timeseries = TimeSeriesStore(clock=self.tracer.clock)
        self.timeseries.attach(
            self.metrics, only=lambda name: not is_daemon_side_metric(name)
        )
        self.slo_engine = SLOEngine(
            self.timeseries,
            clock=self.tracer.clock,
            bus=self.bus,
            metrics=self.metrics,
        )
        for objective in default_objectives():
            self.slo_engine.add(objective)
        # tail sampling + per-trace analytics: the recorder and bus take
        # the sampler's kept traces when there is a sampler (dropped
        # traces never reach the black box or live feed), while the
        # TraceIndex takes every finished span from the tracer itself —
        # explain() must never miss a trace. close() removes all of them.
        self.sampler: TraceSampler | None = None
        self.trace_index = TraceIndex(
            clock=self.tracer.clock, metrics=self.metrics
        )
        self._sink_removers = [self.trace_index.attach(self.tracer)]
        kept = self.tracer
        if self.session_config.trace_sample_budget is not None:
            self.sampler = TraceSampler(
                budget=self.session_config.trace_sample_budget,
                slow_threshold_s=self.session_config.trace_slow_threshold_s,
                breach=lambda root: bool(self.slo_engine.active_alerts()),
                metrics=self.metrics,
            )
            self._sink_removers.append(self.sampler.attach(self.tracer))
            self.slo_engine.attach_sampler(self.sampler)
            kept = self.sampler
        dgx_side = lambda s: not is_daemon_side_span(s)  # noqa: E731
        self._sink_removers += [
            self.recorder.attach_tracer(kept, only=dgx_side),
            self.bus.attach_tracer(kept, only=dgx_side),
        ]
        self._aggregator: ObsAggregator | None = None

        self._control_uri: str | None = None
        if target is None:
            self.ice = ElectrochemistryICE.build(config)
            self._owns_ice = True
        elif isinstance(target, ElectrochemistryICE):
            self.ice = target
        elif isinstance(target, str):
            self._control_uri = target
            if config is not None:
                raise WorkflowError("config is only valid when building an ICE")
        else:
            raise WorkflowError(
                f"connect() target must be an ICE, a PYRO: URI or None, "
                f"not {target!r}"
            )

        if self.ice is not None:
            # one tracer on both "facilities": daemon dispatch spans land
            # in the same store as the client's call spans
            self.ice.attach_observability(self.tracer, self.metrics)
            self.client = self.ice.client(
                timeout=self.transport_config.timeout,
                resilient=self.session_config.resilient,
                breaker=breaker,
                tracer=self.tracer,
                metrics=self.metrics,
                max_inflight=self.transport_config.max_inflight,
                binary=self.transport_config.binary,
            )
            self._cache = Path(
                cache_dir
                if cache_dir is not None
                else tempfile.mkdtemp(prefix="session-cache-")
            )
            self.datachannel = self.ice.mount(
                cache_dir=self._cache,
                tracer=self.tracer,
                metrics=self.metrics,
                pipeline_depth=self.transport_config.pipeline_depth,
                binary=self.transport_config.binary,
            )
        else:
            from repro.resilience import RetryPolicy

            self.client = ACLPyroClient.from_uri(
                target,
                timeout=self.transport_config.timeout,
                secret=self.transport_config.secret,
                retry_policy=(
                    RetryPolicy() if self.session_config.resilient else None
                ),
                breaker=breaker,
                tracer=self.tracer,
                metrics=self.metrics,
                max_inflight=self.transport_config.max_inflight,
                binary=self.transport_config.binary,
            )
            self.datachannel = None
            if data_uri is not None:
                from repro.rpc.proxy import Proxy
                from repro.datachannel.mount import Mount

                self._cache = Path(
                    cache_dir
                    if cache_dir is not None
                    else tempfile.mkdtemp(prefix="session-cache-")
                )
                self.datachannel = Mount(
                    Proxy(
                        data_uri,
                        timeout=self.transport_config.timeout,
                        tracer=self.tracer,
                        metrics=self.metrics,
                        max_inflight=self.transport_config.pipeline_depth,
                        binary=self.transport_config.binary,
                    ),
                    cache_dir=self._cache,
                    metrics=self.metrics,
                )

        if flight_dir is not None:
            self.flight_dir = Path(flight_dir)
        elif getattr(self, "_cache", None) is not None:
            self.flight_dir = Path(self._cache) / "flight-recorder"
        else:
            self.flight_dir = Path(
                tempfile.mkdtemp(prefix="session-flightrec-")
            )
        # a breaker trip is one of the automatic black-box triggers:
        # hook on_open of whichever breaker guards the control channel
        self._hook_breaker_dump()
        # baseline the health window only after the channels are up, so
        # connection-time traffic does not count against the first verdict
        self.health_engine = HealthEngine(
            self.metrics,
            clock=self.tracer.clock,
            window_s=self.session_config.health_window_s,
            bus=self.bus,
        )
        # burn-rate alerts surface as the "slo" subsystem, so
        # require_healthy= gates and flight-recorder dumps see them
        self.slo_engine.attach_health(self.health_engine)

    def _hook_breaker_dump(self) -> None:
        from repro.resilience import ResilientProxy

        proxy = getattr(self.client, "_proxy", None)
        guard = proxy.breaker if isinstance(proxy, ResilientProxy) else None
        if guard is not None and getattr(guard, "on_open", None) is None:
            guard.on_open = lambda b: self.dump_flight(
                f"breaker-open-{b.name}"
            )

    # -- back-compat alias (RemoteSession called it ``mount``) -------------
    @property
    def mount(self):
        return self.datachannel

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Tear down both channels; shut the ICE down if this session
        built it."""
        try:
            if self._sp200_ready:
                self.client.call_Disconnect_SP200()
        finally:
            for remove in self._sink_removers:
                remove()
            if self.sampler is not None:
                self.sampler.flush()
            self.bus.detach()
            self.timeseries.close()
            if self.datachannel is not None:
                self.datachannel.unmount()
            self.client.close()
            if self._gateway_client is not None:
                self._gateway_client.close()
            if self._characterization is not None:
                self._characterization.close()
            if self._owns_ice and self.ice is not None:
                self.ice.shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reattach(
        self,
        resource: str = "acl-workstation",
        holder: str = "dgx-session",
    ) -> int:
        """Take over the control channel under a fresh fencing epoch.

        Acquires (bumps) the lease epoch for ``resource`` on the control
        daemon's durable :class:`~repro.durability.LeaseRegistry` and
        stamps the new token on every subsequent call this session makes.
        Any *older* session still holding the previous epoch is fenced:
        its next call fails with ``LEASE_FENCED`` before touching an
        instrument — the split-brain guard for a client that restarts
        after a crash while its predecessor might still be alive.

        Returns the epoch now held (also on :attr:`lease_epoch`).
        """
        epoch = self._acquire_lease_epoch(resource, holder)
        self.client.set_lease(resource, epoch)
        self.lease_epoch = epoch
        # instrument init state is unknown after a takeover; re-init lazily
        self._sp200_ready = False
        self._jkem_ready = False
        self.metrics.counter(
            "recovery.reattaches_total", "session lease takeovers"
        ).inc(resource=resource)
        return epoch

    def _acquire_lease_epoch(self, resource: str, holder: str) -> int:
        if self.ice is not None:
            proxy = self.ice.lease_client()
        else:
            from repro.durability import LeaseServer
            from repro.rpc.proxy import Proxy

            uri = self._remote_uri(LeaseServer.OBJECT_ID)
            if uri is None:
                raise WorkflowError(
                    "reattach() needs an in-process ICE or a control URI"
                )
            proxy = Proxy(uri, timeout=10.0)
        try:
            return int(proxy.Lease_Acquire(resource, holder))
        finally:
            proxy.close()

    def _remote_uri(self, object_id: str) -> str | None:
        """URI of ``object_id`` next to the control object (URI mode only)."""
        uri = self._control_uri
        if not uri or "@" not in uri:
            return None
        return f"PYRO:{object_id}@{uri.split('@', 1)[1]}"

    # -- workflows -----------------------------------------------------------
    def workflow(
        self,
        settings: Any = None,
        classifier: NormalityClassifier | None = None,
        require_healthy: bool | None = None,
        flight_dir: str | Path | None = None,
    ):
        """Build the paper's five-task CV workflow, observability wired.

        ``require_healthy=True`` evaluates :meth:`health` first and
        raises :class:`~repro.errors.HealthGateError` on ``unhealthy``
        (the pre-flight gate); None defers to the session's
        :class:`~repro.core.config.SessionConfig`. A safe-state teardown
        of the built workflow dumps the session's flight recorder
        automatically.
        """
        from repro.core.cv_workflow import build_cv_workflow

        if self.ice is None:
            raise WorkflowError(
                "workflow() needs an in-process ICE; connect() was given a URI"
            )
        if require_healthy is None:
            require_healthy = self.session_config.require_healthy
        if require_healthy:
            _gate_healthy(self.health_engine, what="workflow")
        return build_cv_workflow(
            self.ice,
            settings=settings,
            classifier=classifier if classifier is not None else self._classifier,
            tracer=self.tracer,
            metrics=self.metrics,
            flight_recorder=self.recorder,
            flight_dir=flight_dir if flight_dir is not None else self.flight_dir,
        )

    def run_workflow(
        self,
        settings: Any = None,
        classifier=None,
        require_healthy: bool | None = None,
        flight_dir: str | Path | None = None,
        profile: bool | None = None,
    ):
        """Build + run + package the CV workflow (tasks A-E).

        ``profile=True`` profiles the spans the run finishes (see
        :func:`~repro.obs.profiler.profiled`); the ``repro-profile-1``
        document lands on ``result.profile``. Both
        ``require_healthy`` and ``profile`` default (None) to the
        session's :class:`~repro.core.config.SessionConfig`.
        """
        from repro.core.cv_workflow import run_cv_workflow

        if self.ice is None:
            raise WorkflowError(
                "run_workflow() needs an in-process ICE; connect() was given a URI"
            )
        if require_healthy is None:
            require_healthy = self.session_config.require_healthy
        if profile is None:
            profile = self.session_config.profile
        if require_healthy:
            _gate_healthy(self.health_engine, what="workflow")
        return run_cv_workflow(
            self.ice,
            settings=settings,
            classifier=classifier if classifier is not None else self._classifier,
            tracer=self.tracer,
            metrics=self.metrics,
            flight_recorder=self.recorder,
            flight_dir=flight_dir if flight_dir is not None else self.flight_dir,
            profile=profile,
        )

    def campaign(self, strategy, **kwargs: Any):
        """Build a closed-loop :class:`~repro.core.campaign.Campaign`.

        The campaign inherits this session's wiring — ICE, classifier,
        health engine, flight recorder and dump directory — plus the
        :class:`~repro.core.config.SessionConfig` defaults for
        ``require_healthy``, ``profile`` and ``journal_dir``. Any
        keyword argument overrides the inherited value::

            session = repro.connect(
                session=SessionConfig(journal_dir="runs/c1")
            )
            rounds = session.campaign(scan_rate_strategy(...)).run()
        """
        from repro.core.campaign import Campaign

        if self.ice is None:
            raise WorkflowError(
                "campaign() needs an in-process ICE; connect() was given a URI"
            )
        build = dict(
            classifier=self._classifier,
            require_healthy=self.session_config.require_healthy,
            health_engine=self.health_engine,
            flight_recorder=self.recorder,
            flight_dir=self.flight_dir,
            profile=self.session_config.profile,
            journal_dir=self.session_config.journal_dir,
        )
        build.update(kwargs)
        return Campaign(ice=self.ice, strategy=strategy, **build)

    # -- multi-tenant gateway --------------------------------------------------
    def use_gateway(
        self,
        target: Any,
        tenant: str,
        api_key: str,
        *,
        timeout: float | None = None,
        secret: bytes | None = None,
    ):
        """Attach this session to a facility gateway as one tenant.

        ``target`` is a :class:`~repro.gateway.Gateway` object
        (in-process) or a ``PYRO:ACL_Gateway@host:port`` URI. After
        this, :meth:`submit_job` / :meth:`job_status` /
        :meth:`cancel_job` / :meth:`poll_jobs` go through the gateway's
        queue under this tenant's identity, quota and fair share.
        Returns the underlying :class:`~repro.gateway.GatewayClient`.
        """
        from repro.gateway.client import GatewayClient

        if self._gateway_client is not None:
            self._gateway_client.close()
        self._gateway_client = GatewayClient(
            target,
            tenant,
            api_key,
            timeout=(
                timeout if timeout is not None else self.transport_config.timeout
            ),
            secret=(
                secret if secret is not None else self.transport_config.secret
            ),
        )
        return self._gateway_client

    def _require_gateway(self):
        if self._gateway_client is None:
            raise WorkflowError(
                "no gateway attached; call session.use_gateway(...) first"
            )
        return self._gateway_client

    def submit_job(
        self,
        strategy: Any,
        max_rounds: int = 10,
        priority: int = 0,
    ) -> dict[str, Any]:
        """Queue a campaign on the attached gateway; returns the job view.

        ``strategy`` is either a strategy carrying a journalable
        ``spec`` attribute (e.g. :func:`~repro.core.campaign.
        scan_rate_strategy`) or the raw spec dict itself — the gateway
        journals the spec and rebuilds the strategy cell-side, so only
        rebuildable strategies can ride through the queue.
        """
        spec = getattr(strategy, "spec", strategy)
        if not isinstance(spec, dict):
            raise WorkflowError(
                "submit_job needs a strategy with a .spec attribute or a "
                f"spec dict, not {strategy!r}"
            )
        return self._require_gateway().submit(
            {"strategy": spec, "max_rounds": max_rounds}, priority=priority
        )

    def job_status(self, job_id: str) -> dict[str, Any]:
        """Current gateway view of one of this tenant's jobs."""
        return self._require_gateway().status(job_id)

    def cancel_job(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued job now, or a running one at its next round."""
        return self._require_gateway().cancel(job_id)

    def poll_jobs(
        self, cursor: int = 0, max_events: int = 256
    ) -> dict[str, Any]:
        """Cursor-poll this tenant's job lifecycle events
        (``repro-jobs-1``; same cursor/gap contract as telemetry)."""
        return self._require_gateway().poll(cursor=cursor, max_events=max_events)

    # -- observability ---------------------------------------------------------
    def summarize(self) -> dict[str, Any]:
        """Session-wide rollup: span timings and metric values."""
        return {"spans": self.tracer.summarize(), "metrics": self.metrics.summarize()}

    def stream(
        self, capacity: int = 1024, max_remote_events: int = 256
    ) -> SessionStream:
        """Open the merged live telemetry feed (both facility halves).

        Each :meth:`~repro.obs.stream.SessionStream.drain` call returns
        everything new since the last one — DGX-side span completions
        and metric updates from the session bus, ACL-side spans and
        instrument events cursor-polled over the control channel — in
        one time-ordered list. Pull-based: call ``drain()`` at whatever
        cadence the steering loop runs. Remote trouble degrades the feed
        (synthetic ``stream.*`` events, ``obs.stream.dropped_total``)
        instead of hanging it. Close when done (context manager).
        """
        if self.ice is not None:
            remote_fn = self.ice.telemetry_client
        else:
            uri = self._remote_uri(TelemetryServer.OBJECT_ID)
            if uri is None:
                remote_fn = None
            else:

                def remote_fn():
                    from repro.rpc.proxy import Proxy

                    return Proxy(uri, timeout=10.0)

        return SessionStream(
            self.bus,
            remote_client_fn=remote_fn,
            capacity=capacity,
            max_remote_events=max_remote_events,
        )

    def slo(self) -> list[dict[str, Any]]:
        """Evaluate every objective now; one status per (objective, tenant).

        Each status carries the SLI and burn rate over the fast and slow
        windows plus the firing alert windows (empty list when healthy).
        Alert *transitions* also land on the telemetry bus as ``slo``
        events and in :meth:`health` as the ``slo`` subsystem.
        """
        return self.slo_engine.evaluate()

    def scrape(
        self,
        cursor: int = 0,
        selectors: dict[str, Any] | None = None,
        max_rows: int = 512,
    ) -> dict[str, Any]:
        """Page rollup rows out of the session-half time-series store.

        Same ``repro-tsdb-1`` reply shape as the daemon's ``Obs_Scrape``
        verb (PROTOCOLS §1.9), so callers can treat the local half
        exactly like a remote facility.
        """
        rows, next_cursor, gap = self.timeseries.scrape(
            cursor, selectors, max_rows
        )
        return {
            "schema": TSDB_SCHEMA,
            "service": "dgx-session",
            "cursor": next_cursor,
            "gap": gap,
            "rows": rows,
        }

    def aggregator(self) -> ObsAggregator:
        """The session's cross-facility scrape aggregator (lazy, cached).

        Sources: the local session-half store, plus the in-process ICE's
        daemon-half store (or the remote ``ACL_Observability`` object in
        URI mode). Cursors persist across :meth:`top` calls, so each
        refresh pulls only what is new.
        """
        if self._aggregator is None:
            agg = ObsAggregator()
            agg.add_store("dgx-session", self.timeseries)
            if self.ice is not None:
                agg.add_remote("acl-daemon", self.ice.obs_client())
            else:
                uri = self._remote_uri(ObservabilityServer.OBJECT_ID)
                if uri is not None:
                    from repro.rpc.proxy import Proxy

                    agg.add_remote("acl-daemon", Proxy(uri, timeout=10.0))
            self._aggregator = agg
        return self._aggregator

    def top(self) -> str:
        """One refresh of the tenant-keyed ops view, rendered as a table.

        Per tenant: call/error rates merged across both facility halves,
        gateway queue depth, worst burn-rate pair and firing SLO alerts.
        The string the ``repro-ice top`` subcommand prints.
        """
        agg = self.aggregator()
        agg.refresh()
        return format_top(agg.view(), self.slo_engine.evaluate())

    def record_baseline(
        self, path: str | Path | None = None, store: BaselineStore | None = None
    ) -> BaselineStore:
        """Freeze this session's span timings as a perf baseline.

        Records :meth:`tracer.summarize` into ``store`` (a fresh one by
        default), optionally saving it to ``path`` as a
        ``repro-baseline-1`` JSON document. Returns the store.
        """
        if store is None:
            store = BaselineStore(clock=self.tracer.clock)
        store.record_baseline(self.tracer.summarize())
        if path is not None:
            store.save(path)
        return store

    def track_baseline(self, store: "BaselineStore | str | Path") -> BaselineStore:
        """Judge future :meth:`health` calls against a perf baseline.

        Accepts a :class:`~repro.obs.baseline.BaselineStore` or a path
        to a saved one; registers the ``perf`` probe on the session's
        health engine and returns the store.
        """
        if not isinstance(store, BaselineStore):
            store = BaselineStore.load(store, clock=self.tracer.clock)
        self.health_engine.track_baseline(store, self.tracer)
        return store

    def health(self) -> HealthReport:
        """Evaluate the health rules now; returns the verdict report."""
        return self.health_engine.evaluate()

    def pull_remote_recorder(self) -> list[dict[str, Any]]:
        """Fetch the daemon half of the black box over the control channel.

        Best-effort (see :func:`~repro.obs.recorder.pull_remote_snapshots`):
        failures return an empty list instead of raising.
        """
        if self.ice is not None:
            return pull_remote_snapshots(self.ice.recorder_client)
        uri = self._remote_uri(FlightRecorderServer.OBJECT_ID)
        if uri is None:
            return []
        from repro.rpc.proxy import Proxy

        return pull_remote_snapshots(lambda: Proxy(uri, timeout=10.0))

    def dump_flight(
        self, trigger: str, directory: str | Path | None = None
    ) -> Path:
        """Write the merged client+daemon black box; returns its path."""
        return self.recorder.dump(
            directory if directory is not None else self.flight_dir,
            trigger=trigger,
            remote_snapshots=self.pull_remote_recorder(),
        )

    def export_trace(self, path: str | Path) -> int:
        """Write every finished span to ``path`` as JSONL; returns count."""
        spans = self.tracer.finished_spans()
        with JsonlSpanExporter(path) as export:
            for span in spans:
                export(span)
        return len(spans)

    def traces(self, **filters: Any) -> list[dict[str, Any]]:
        """Query the session trace index (see :meth:`TraceIndex.query`).

        Filters: ``op=`` (span-name prefix anywhere in the trace),
        ``tenant=``, ``min_duration_s=``, ``error=``, ``limit=``.
        Summaries come back newest first.
        """
        return self.trace_index.query(**filters)

    def explain(self, trace_id: str) -> dict[str, Any] | None:
        """Critical-path blame table for one indexed trace.

        Answers "why was *this* run slow": wall time attributed to the
        innermost blocking span across both facility halves (one shared
        tracer in-process, so daemon dispatch and instrument spans land
        in the same tree). Returns the :func:`~repro.obs.analysis.
        critical_path` document, or None for an unknown trace — render
        with :func:`~repro.obs.analysis.format_blame`.
        """
        return self.trace_index.explain(trace_id)

    # -- liquid handling -------------------------------------------------------
    def _ensure_jkem(self) -> None:
        if not self._jkem_ready:
            self.client.call_Connect_JKem_API()
            self._jkem_ready = True

    def fill_cell(
        self,
        volume_ml: float = 5.0,
        rate_ml_min: float = 5.0,
        vial: str = "BOTTOM",
        purge_sccm: float = 0.0,
    ) -> dict[str, Any]:
        """Tasks B+C: pump solution from the collector vial into the cell."""
        self._ensure_jkem()
        client = self.client
        client.call_Set_Rate_SyringePump(1, rate_ml_min)
        client.call_Set_Vial_FractionCollector(1, vial)
        client.call_Set_Port_SyringePump(1, PORT_COLLECTOR)
        client.call_Withdraw_SyringePump(1, volume_ml)
        client.call_Set_Port_SyringePump(1, PORT_CELL)
        client.call_Dispense_SyringePump(1, volume_ml)
        if purge_sccm > 0:
            client.call_Set_Flow_MFC(1, purge_sccm)
        return client.call_Cell_Status()

    def cell_status(self) -> dict[str, Any]:
        return self.client.call_Cell_Status()

    # -- measurement ----------------------------------------------------------
    def _ensure_sp200(self, channel: int) -> None:
        if not self._sp200_ready:
            self.client.call_Initialize_SP200_API({"channel": channel})
            self.client.call_Connect_SP200()
            self.client.call_Load_Firmware_SP200()
            self._sp200_ready = True

    def _collect(self, save_as: str | None) -> Voltammogram:
        self.client.call_Load_Technique_SP200()
        self.client.call_Start_Channel_SP200()
        result = self.client.call_Get_Tech_Path_Rslt(wait=True, save_as=save_as)
        if result["file"] is None:
            raise WorkflowError("no measurement file produced")
        if self.datachannel is None:
            raise WorkflowError(
                "no data channel mounted; pass data_uri= to connect()"
            )
        return self.datachannel.read_voltammogram(result["file"])

    def run_cv(
        self,
        e_begin_v: float = 0.2,
        e_vertex_v: float = 0.8,
        scan_rate_v_s: float = 0.1,
        n_cycles: int = 1,
        e_step_v: float = 0.001,
        channel: int = 1,
        save_as: str | None = None,
    ) -> Voltammogram:
        """Task D: the full 8-step pipeline; returns the fetched trace."""
        self._ensure_sp200(channel)
        self.client.call_Initialize_CV_Tech_SP200(
            {
                "e_begin_v": e_begin_v,
                "e_vertex_v": e_vertex_v,
                "scan_rate_v_s": scan_rate_v_s,
                "n_cycles": n_cycles,
                "e_step_v": e_step_v,
            }
        )
        return self._collect(save_as)

    def run_lsv(
        self,
        e_begin_v: float = 0.2,
        e_end_v: float = 0.8,
        scan_rate_v_s: float = 0.1,
        e_step_v: float = 0.001,
        channel: int = 1,
        save_as: str | None = None,
    ) -> Voltammogram:
        """A single linear sweep through the same remote pipeline."""
        self._ensure_sp200(channel)
        self.client.call_Initialize_LSV_Tech_SP200(
            {
                "e_begin_v": e_begin_v,
                "e_end_v": e_end_v,
                "scan_rate_v_s": scan_rate_v_s,
                "e_step_v": e_step_v,
            }
        )
        return self._collect(save_as)

    def run_dpv(
        self,
        e_begin_v: float = 0.2,
        e_end_v: float = 0.8,
        step_e_v: float = 0.005,
        pulse_amplitude_v: float = 0.05,
        channel: int = 1,
        save_as: str | None = None,
    ) -> Voltammogram:
        """Differential pulse voltammetry through the remote pipeline."""
        self._ensure_sp200(channel)
        self.client.call_Initialize_DPV_Tech_SP200(
            {
                "e_begin_v": e_begin_v,
                "e_end_v": e_end_v,
                "step_e_v": step_e_v,
                "pulse_amplitude_v": pulse_amplitude_v,
            }
        )
        return self._collect(save_as)

    # -- characterization station (fraction -> robot -> HPLC-MS) -----------
    @property
    def characterization(self):
        """Lazy client to the characterization control agent."""
        if self._characterization is None:
            if self.ice is None:
                raise WorkflowError(
                    "characterization needs an in-process ICE"
                )
            self._characterization = self.ice.characterization_client()
        return self._characterization

    def collect_fraction(
        self,
        volume_ml: float = 1.0,
        vial_position: str = "TOP",
    ) -> str:
        """Pull a fraction from the cell into a fresh collector vial."""
        self._ensure_jkem()
        reply = self.characterization.call_Load_Fraction_Vial(vial_position)
        self.client.call_Set_Vial_FractionCollector(1, vial_position)
        self.client.call_Set_Port_SyringePump(1, PORT_CELL)
        self.client.call_Withdraw_SyringePump(1, volume_ml)
        self.client.call_Set_Port_SyringePump(1, PORT_COLLECTOR)
        self.client.call_Dispense_SyringePump(1, volume_ml)
        return reply  # "OK <vial-name>"

    def analyze_fraction(
        self,
        vial_position: str = "TOP",
        injection_volume_ml: float = 0.5,
    ):
        """Robot-transfer the fraction to the HPLC-MS and inject it."""
        from repro.facility.characterization import (
            STATION_ELECTROCHEM,
            STATION_HPLC,
        )
        from repro.instruments.characterization.chromatogram import Chromatogram

        station = self.characterization
        station.call_Handoff_Fraction_To_Robot(vial_position)
        station.call_Robot_Transfer(STATION_ELECTROCHEM, STATION_HPLC)
        payload = station.call_Inject_HPLC(injection_volume_ml)
        return Chromatogram.from_dict(payload)

    # -- analysis ------------------------------------------------------------
    def analyze(self, trace: Voltammogram) -> CVMetrics:
        """Peak analysis of a fetched trace."""
        return characterize(trace)

    def check_normality(self, trace: Voltammogram) -> NormalityReport:
        """ML screen; trains the default classifier on first use."""
        if self._classifier is None:
            self._classifier = NormalityClassifier.train_default()
        return self._classifier.classify(trace)


def connect(
    target: ElectrochemistryICE | str | None = None,
    *,
    transport: TransportConfig | None = None,
    session: SessionConfig | None = None,
    resilient: bool | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    classifier: NormalityClassifier | None = None,
    config: Any = None,
    data_uri: str | None = None,
    cache_dir: str | Path | None = None,
    flight_dir: str | Path | None = None,
    health_window_s: float | None = None,
    breaker: Any = None,
) -> Session:
    """Open a :class:`Session` against an ICE, a URI, or a fresh build.

    Args:
        target: ``None`` (build a simulated ecosystem, owned by the
            session), a running :class:`ElectrochemistryICE`, or a
            ``PYRO:`` control-channel URI.
        transport: :class:`~repro.core.config.TransportConfig` — call
            timeout, control-channel pipelining window, data-channel
            read-ahead depth, binary wire negotiation policy. Defaults
            to ``TransportConfig()``.
        session: :class:`~repro.core.config.SessionConfig` — resilience,
            the pre-flight health gate, profiling, durable campaign
            journaling, the health window. Defaults to
            ``SessionConfig()``.
        resilient: deprecated; pass
            ``session=SessionConfig(resilient=...)`` instead.
        tracer: share an existing :class:`~repro.obs.Tracer`; a fresh
            one is created otherwise.
        metrics: share an existing :class:`~repro.obs.MetricsRegistry`;
            a fresh one is created otherwise.
        classifier: pre-trained normality classifier for
            :meth:`Session.check_normality` and workflows.
        config: :class:`~repro.facility.ice.ICEConfig` for the
            ``target=None`` build.
        data_uri: share URI for the data channel in URI mode.
        cache_dir: local cache for fetched measurement files.
        flight_dir: where flight-recorder black boxes are written
            (defaults to ``<cache_dir>/flight-recorder``).
        health_window_s: deprecated; pass
            ``session=SessionConfig(health_window_s=...)`` instead.
        breaker: share a :class:`~repro.resilience.CircuitBreaker` for
            the control channel; its trips dump a flight recording.
    """
    return Session(
        target,
        transport=transport,
        session=session,
        resilient=resilient,
        tracer=tracer,
        metrics=metrics,
        classifier=classifier,
        config=config,
        data_uri=data_uri,
        cache_dir=cache_dir,
        flight_dir=flight_dir,
        health_window_s=health_window_s,
        breaker=breaker,
    )
