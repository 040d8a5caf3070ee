"""The unified entry point: ``repro.connect()``.

One call stands up (or attaches to) the cross-facility ecosystem and
hands back a :class:`Session` that exposes every surface a scientist on
the analysis host needs::

    import repro
    from repro.analysis import characterize

    with repro.connect() as session:           # build a simulated ICE
        session.fill_cell(5.0)
        trace = session.run_cv()
        print(characterize(trace).format_summary())
        print(session.metrics.format_table())  # observability built in

    with repro.connect(ice) as session:        # attach to a running ICE
        result = session.run_workflow()        # paper tasks A-E, traced

Observability is on by default: unless a ``tracer``/``metrics`` pair is
injected, the session creates its own and wires them through the client,
the data-channel mount, the workflow engine and — when the ecosystem is
in-process — the daemons and simulated network, so a single run yields
one connected trace from workflow task down to instrument command.

``connect(target, **options)`` is ``Session(target, **options)``; the
targets and options are documented once, on :class:`Session`.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.core.config import SessionConfig, TransportConfig
from repro.errors import WorkflowError
from repro.obs import JsonlSpanExporter, MetricsRegistry, Tracer
from repro.obs.analysis import TraceIndex, TraceSampler
from repro.obs.health import HealthEngine
from repro.obs.health import require_healthy as _gate_healthy
from repro.obs.baseline import BaselineStore
from repro.obs.primitives import Fanout
from repro.obs.recorder import FlightRecorder, pull_remote_snapshots
from repro.obs.scrape import ObsAggregator, ObservabilityServer, format_top
from repro.obs.slo import SLOEngine, default_objectives
from repro.obs.stream import SessionStream, TelemetryBus
from repro.obs.timeseries import (
    SCHEMA as TSDB_SCHEMA,
    TimeSeriesStore,
    is_daemon_side_metric,
)
from repro.chemistry.voltammogram import Voltammogram
from repro.durability.lease import LeaseServer
from repro.ml.normality import NormalityClassifier, NormalityReport
from repro.facility.client import ACLPyroClient
from repro.facility.ice import ElectrochemistryICE
from repro.facility.workstation import PORT_CELL, PORT_COLLECTOR
from repro.rpc.naming import PyroURI, make_uri, parse_uri
from repro.rpc.proxy import Proxy


class Session:
    """Everything the remote scientist holds: client, data channel,
    workflow builder, metrics, and the notebook verbs.

    Open one with :func:`connect` (same arguments) or directly.

    Args:
        target: ``None`` builds a fresh simulated
            :class:`ElectrochemistryICE` that the session owns and shuts
            down on :meth:`close`; a running :class:`ElectrochemistryICE`
            stays the caller's; a ``PYRO:`` control-channel URI attaches
            to a real TCP control agent (two-machine mode).
        transport: :class:`~repro.core.config.TransportConfig` — call
            timeout, control-channel pipelining window, data-channel
            read-ahead depth, the HMAC secret. Defaults to ``TransportConfig()``.
        session: :class:`~repro.core.config.SessionConfig` — resilience,
            the pre-flight health gate, profiling, durable campaign
            journaling, tail sampling. Defaults to ``SessionConfig()``.
        tracer: share an existing :class:`~repro.obs.Tracer`; a fresh
            one is created otherwise.
        metrics: share an existing :class:`~repro.obs.MetricsRegistry`;
            a fresh one is created otherwise.
        classifier: pre-trained normality classifier for
            :meth:`check_normality`, workflows and campaigns.
        config: :class:`~repro.facility.ice.ICEConfig` for the
            ``target=None`` build; rejected with any other target.
        data_uri: share URI for the data channel in URI mode.
        cache_dir: local cache for fetched measurement files; without
            one the session makes a temp dir and removes it on
            :meth:`close` (a black box dumped into its default
            ``flight-recorder`` subdir stays).
        flight_dir: where flight-recorder black boxes are written
            (defaults to ``<cache_dir>/flight-recorder``; a URI-mode
            session with no ``data_uri`` has no cache and makes a temp
            dir instead, removed on :meth:`close` unless a black box
            was dumped into it).
        breaker: share a :class:`~repro.resilience.CircuitBreaker` for
            the control channel; its trips dump a flight recording.

    Attributes:
        client: control-channel :class:`ACLPyroClient` (resilient by
            default — reconnect/retry with idempotent replay).
        datachannel: mounted measurement share
            (:class:`~repro.datachannel.mount.Mount`); ``None`` when
            connected by URI without a ``data_uri``.
        tracer: the session :class:`~repro.obs.Tracer`.
        metrics: the session :class:`~repro.obs.MetricsRegistry`.
        recorder: the client-half
            :class:`~repro.obs.recorder.FlightRecorder`.
        bus: the client-half :class:`~repro.obs.stream.TelemetryBus`
            feeding :meth:`stream` (DGX-side spans, metric deltas, health
            transitions; the ACL half streams through ``Telemetry_Poll``).
        health_engine: the session
            :class:`~repro.obs.health.HealthEngine`; ``evaluate()``
            returns the per-subsystem verdict report.
        slo_engine: the session :class:`~repro.obs.slo.SLOEngine`;
            ``evaluate()`` returns one status per (objective, tenant).
        trace_index: the bounded :class:`~repro.obs.analysis.TraceIndex`
            (always on): ``query(**filters)`` lists trace summaries and
            ``explain(trace_id)`` gives one trace's critical-path blame.
        sampler: the tail-based
            :class:`~repro.obs.analysis.TraceSampler`, or ``None``
            unless ``SessionConfig(trace_sample_budget=...)`` is set.
        flight_dir: where black-box dumps land (override per call or via
            the ``flight_dir=`` argument).
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
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        classifier: NormalityClassifier | None = None,
        config: Any = None,
        data_uri: str | None = None,
        cache_dir: str | Path | None = None,
        flight_dir: str | Path | None = None,
        breaker: Any = None,
    ):
        # resolve the target before wiring observability, so a target
        # that is rejected leaves nothing on the caller's tracer/registry
        self.ice: ElectrochemistryICE | None = None
        self._control_uri: PyroURI | None = None
        if isinstance(target, ElectrochemistryICE):
            self.ice = target
        elif isinstance(target, str):
            self._control_uri = parse_uri(target)
        elif target is not None:
            raise WorkflowError(
                f"connect() target must be an ICE, a PYRO: URI or None, "
                f"not {target!r}"
            )
        if target is not None and config is not None:
            raise WorkflowError("config is only valid when building an ICE")
        self._owns_ice = target is None
        if self._owns_ice:
            self.ice = ElectrochemistryICE.build(config)

        self.transport_config = (
            transport if transport is not None else TransportConfig()
        )
        self.session_config = session if session is not None else SessionConfig()
        self.tracer = tracer if tracer is not None else Tracer("dgx-session")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._classifier = classifier
        self._sp200_ready = False
        self._jkem_ready = False
        self._characterization = None
        self._gateway_client = None
        self._aggregator: ObsAggregator | None = None
        self._scrape_proxy: Proxy | None = None
        self._temp_dirs: list[Path] = []
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
        halves = self.metrics.halves
        self._sink_removers = [
            halves.dgx.add(self.bus.publish_metric),
            halves.acl.add(self.bus.publish_metric),
        ]
        # session-half time-series rollups: the DGX half of the shared
        # registry (an in-process ICE's store takes the daemon half),
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
        # the tracer's DGX half — through the sampler's kept traces when
        # there is a sampler (dropped traces never reach the black box or
        # live feed) — while the TraceIndex takes every finished span
        # from the tracer itself: its explain() must never miss a trace.
        # close() removes all of them, and the bus's metric feed.
        self.sampler: TraceSampler | None = None
        self.trace_index = TraceIndex(
            clock=self.tracer.clock, metrics=self.metrics
        )
        self._sink_removers.append(self.trace_index.attach(self.tracer))
        if self.session_config.trace_sample_budget is None:
            dgx_half = self.tracer.halves.dgx
        else:
            dgx_half = Fanout()
            self.sampler = TraceSampler(
                budget=self.session_config.trace_sample_budget,
                breach=lambda root: bool(self.slo_engine.active_alerts()),
                metrics=self.metrics,
            )
            self._sink_removers.append(self.sampler.attach(self.tracer))
            self.slo_engine.attach_sampler(self.sampler)
            daemon_side = self.tracer.halves.daemon_side

            def kept_dgx_half(span: Any) -> None:
                if not daemon_side(span.name):
                    dgx_half(span)

            self._sink_removers.append(self.sampler.add_sink(kept_dgx_half))
        self._sink_removers += [
            dgx_half.add(self.recorder.record_span),
            dgx_half.add(self.bus.publish_span),
        ]

        if self.ice is not None:
            # one tracer on both "facilities": daemon dispatch spans land
            # in the same store as the client's call spans
            self.ice.attach_observability(self.tracer, self.metrics)
            # stream(), aggregator() and dump_flight() each dial their
            # own proxy to the daemon half's one observability object
            self._dial_obs = self.ice.obs_client
            self.client = self.ice.client(
                timeout=self.transport_config.timeout,
                resilient=self.session_config.resilient,
                breaker=breaker,
                tracer=self.tracer,
                metrics=self.metrics,
                max_inflight=self.transport_config.max_inflight,
            )
            self._cache = self._own_dir(cache_dir, "session-cache-")
            self.datachannel = self.ice.mount(
                cache_dir=self._cache,
                tracer=self.tracer,
                metrics=self.metrics,
                pipeline_depth=self.transport_config.pipeline_depth,
            )
        else:
            from repro.resilience import RetryPolicy

            self._dial_obs = self._sibling(ObservabilityServer.OBJECT_ID)
            self.client = ACLPyroClient.from_uri(
                self._control_uri,
                timeout=self.transport_config.timeout,
                secret=self.transport_config.secret,
                retry_policy=(
                    RetryPolicy() if self.session_config.resilient else None
                ),
                breaker=breaker,
                tracer=self.tracer,
                metrics=self.metrics,
                max_inflight=self.transport_config.max_inflight,
            )
            self.datachannel = None
            if data_uri is not None:
                from repro.datachannel.mount import Mount

                self._cache = self._own_dir(cache_dir, "session-cache-")
                self.datachannel = Mount(
                    Proxy(
                        data_uri,
                        timeout=self.transport_config.timeout,
                        tracer=self.tracer,
                        metrics=self.metrics,
                        max_inflight=self.transport_config.pipeline_depth,
                            ),
                    cache_dir=self._cache,
                    metrics=self.metrics,
                )

        if flight_dir is not None:
            self.flight_dir = Path(flight_dir)
        elif getattr(self, "_cache", None) is not None:
            self.flight_dir = Path(self._cache) / "flight-recorder"
        else:
            self.flight_dir = self._own_dir(None, "session-flightrec-")
        # a breaker trip is one of the automatic black-box triggers:
        # hook on_open of whichever breaker guards the control channel
        self._hook_breaker_dump()
        # baseline the health window only after the channels are up, so
        # connection-time traffic does not count against the first verdict
        self.health_engine = HealthEngine(
            self.metrics, clock=self.tracer.clock, bus=self.bus
        )
        # burn-rate alerts surface as the "slo" subsystem, so
        # require_healthy= gates and flight-recorder dumps see them
        self.slo_engine.attach_health(self.health_engine)

    def _own_dir(self, given: str | Path | None, prefix: str) -> Path:
        """``given``, or a temp dir this session makes and removes on
        :meth:`close`."""
        if given is not None:
            return Path(given)
        made = Path(tempfile.mkdtemp(prefix=prefix))
        self._temp_dirs.append(made)
        return made

    def _remove_temp_dirs(self) -> None:
        """Delete the temp dirs :meth:`_own_dir` made. A black box
        dumped into the default flight dir stays: a flight dir of its
        own is left whole, and a cache dir keeps only its
        ``flight-recorder`` subdir."""
        dumped = any(self.flight_dir.glob("*"))
        for root in self._temp_dirs:
            if not dumped:
                shutil.rmtree(root, ignore_errors=True)
            elif root == self.flight_dir.parent:
                for child in root.iterdir():
                    if child == self.flight_dir:
                        continue
                    if child.is_dir():
                        shutil.rmtree(child, ignore_errors=True)
                    else:
                        child.unlink(missing_ok=True)
            elif root != self.flight_dir:
                shutil.rmtree(root, ignore_errors=True)
        self._temp_dirs = []

    def _hook_breaker_dump(self) -> None:
        from repro.resilience import ResilientProxy

        proxy = getattr(self.client, "_proxy", None)
        guard = proxy.breaker if isinstance(proxy, ResilientProxy) else None
        if guard is not None and getattr(guard, "on_open", None) is None:
            guard.on_open = lambda b: self.dump_flight(
                f"breaker-open-{b.name}"
            )

    def _sibling(self, object_id: str) -> Callable[[], Proxy]:
        """Dialler of the daemon-half service ``object_id`` beside the
        control object (URI mode). It dials with the control channel's
        secret and a 10 s timeout: side channels run inside teardowns
        and polling loops and must fail fast."""
        uri = make_uri(object_id, self._control_uri.host, self._control_uri.port)
        secret = self.transport_config.secret
        return lambda: Proxy(uri, timeout=10.0, secret=secret)

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
            self.timeseries.close()
            if self.datachannel is not None:
                self.datachannel.unmount()
            self.client.close()
            if self._scrape_proxy is not None:
                self._scrape_proxy.close()
            if self._gateway_client is not None:
                self._gateway_client.close()
            if self._characterization is not None:
                self._characterization.close()
            if self._owns_ice and self.ice is not None:
                self.ice.shutdown()
            self._remove_temp_dirs()

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
        dial = (
            self.ice.lease_client
            if self.ice is not None
            else self._sibling(LeaseServer.OBJECT_ID)
        )
        with dial() as proxy:
            epoch = int(proxy.Lease_Acquire(resource, holder))
        self.client.set_lease(resource, epoch)
        self.lease_epoch = epoch
        # instrument init state is unknown after a takeover; re-init lazily
        self._sp200_ready = False
        self._jkem_ready = False
        self.metrics.counter(
            "recovery.reattaches_total", "session lease takeovers"
        ).inc(resource=resource)
        return epoch

    # -- workflows -----------------------------------------------------------
    def _inherited(self, what: str, **given: Any) -> dict[str, Any]:
        """``given`` with each None replaced by what this session passes
        on: its classifier and dump directory, and the
        :class:`~repro.core.config.SessionConfig` defaults. Workflows and
        campaigns run on the in-process ICE only."""
        if self.ice is None:
            raise WorkflowError(
                f"{what}() needs an in-process ICE; connect() was given a URI"
            )
        config = self.session_config
        inherited = dict(
            classifier=self._classifier,
            flight_dir=self.flight_dir,
            require_healthy=config.require_healthy,
            profile=config.profile,
            journal_dir=config.journal_dir,
        )
        return {k: inherited[k] if v is None else v for k, v in given.items()}

    def _cv_workflow(self, what: str, assemble, settings: Any, **given: Any):
        """Gate on health, then build or run one CV workflow."""
        options = self._inherited(what, **given)
        if options.pop("require_healthy"):
            _gate_healthy(self.health_engine, what="workflow")
        return assemble(
            self.ice,
            settings=settings,
            tracer=self.tracer,
            metrics=self.metrics,
            flight_recorder=self.recorder,
            **options,
        )

    def workflow(
        self,
        settings: Any = None,
        classifier: NormalityClassifier | None = None,
        require_healthy: bool | None = None,
        flight_dir: str | Path | None = None,
    ):
        """Build the paper's five-task CV workflow, observability wired.

        ``require_healthy=True`` evaluates the health engine first and
        raises :class:`~repro.errors.HealthGateError` on ``unhealthy``
        (the pre-flight gate); None defers to the session's
        :class:`~repro.core.config.SessionConfig`. A safe-state teardown
        of the built workflow dumps the session's flight recorder
        automatically.
        """
        from repro.core.cv_workflow import build_cv_workflow

        return self._cv_workflow(
            "workflow",
            build_cv_workflow,
            settings,
            classifier=classifier,
            require_healthy=require_healthy,
            flight_dir=flight_dir,
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

        return self._cv_workflow(
            "run_workflow",
            run_cv_workflow,
            settings,
            classifier=classifier,
            require_healthy=require_healthy,
            flight_dir=flight_dir,
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

        build = self._inherited(
            "campaign",
            classifier=None,
            flight_dir=None,
            require_healthy=None,
            profile=None,
            journal_dir=None,
        )
        build.update(
            health_engine=self.health_engine, flight_recorder=self.recorder
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
        (in-process) or a ``PYRO:ACL_Gateway@host:port`` URI. Returns
        the :class:`~repro.gateway.GatewayClient`: its ``status``,
        ``cancel`` and ``poll`` go through the gateway's queue under
        this tenant's identity, quota and fair share, as does
        :meth:`submit_job`.
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
        if self._gateway_client is None:
            raise WorkflowError(
                "no gateway attached; call session.use_gateway(...) first"
            )
        return self._gateway_client.submit(
            {"strategy": spec, "max_rounds": max_rounds}, priority=priority
        )

    # -- observability ---------------------------------------------------------
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
        return SessionStream(
            self.bus,
            remote_client_fn=self._dial_obs,
            capacity=capacity,
            max_remote_events=max_remote_events,
        )

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

        Sources: the local session-half store, plus the daemon-half
        ``ACL_Observability`` object of the in-process ICE or, in URI
        mode, beside the control object. Cursors persist across
        :meth:`top` calls, so each refresh pulls only what is new;
        :meth:`close` closes the daemon-half proxy.
        """
        if self._aggregator is None:
            agg = ObsAggregator()
            agg.add_store("dgx-session", self.timeseries)
            self._scrape_proxy = self._dial_obs()
            agg.add_remote("acl-daemon", self._scrape_proxy)
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
        """Judge future health evaluations against a perf baseline.

        Accepts a :class:`~repro.obs.baseline.BaselineStore` or a path
        to a saved one; registers the ``perf`` probe on the session's
        health engine and returns the store.
        """
        if not isinstance(store, BaselineStore):
            store = BaselineStore.load(store, clock=self.tracer.clock)
        self.health_engine.track_baseline(store, self.tracer)
        return store

    def pull_remote_recorder(self) -> list[dict[str, Any]]:
        """Fetch the daemon half of the black box over the control channel.

        Best-effort (see :func:`~repro.obs.recorder.pull_remote_snapshots`):
        failures return an empty list instead of raising.
        """
        return pull_remote_snapshots(self._dial_obs)

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
    def check_normality(self, trace: Voltammogram) -> NormalityReport:
        """ML screen; trains the default classifier on first use."""
        if self._classifier is None:
            self._classifier = NormalityClassifier.train_default()
        return self._classifier.classify(trace)


def connect(
    target: ElectrochemistryICE | str | None = None, **options: Any
) -> Session:
    """Open a :class:`Session` on ``target``; ``options`` are its keywords."""
    return Session(target, **options)
