"""The full instrument-computing ecosystem (paper Figs 1 and 4).

``ElectrochemistryICE.build()`` stands up, in one process, everything the
paper deployed across two ORNL buildings:

- the **ACL facility**: the workstation on its control agent (Windows in
  the paper), an instrument hub network, and a gateway computer;
- the **K200 facility**: the DGX analysis host on the site WAN;
- the **control channel**: a daemon on the control agent serving the
  :class:`~repro.facility.servers.ACLWorkstationServer` at port 9690
  (the port visible in Fig 6b);
- the **data channel**: a second daemon at port 9700 exporting the
  measurement directory through the file share, routed over dedicated
  hub networks in the default ``"separate"`` channel mode;
- **firewall rules**: ingress ports opened exactly for the K200 facility,
  mirroring §4.1's "open ingress TCP ports on workstation firewalls";
- an optional **name server** on the gateway, so remote code can resolve
  ``acl.workstation``/``acl.share`` instead of hard-coding ports.

Two transports: ``"sim"`` (default) routes every byte through the
modelled topology with latency/bandwidth/contention; ``"tcp"`` uses real
loopback sockets (no topology, same software stack).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.clock import Clock, WALL
from repro.durability.dedup_journal import DedupJournal
from repro.durability.lease import LeaseRegistry, LeaseServer
from repro.errors import NetworkError
from repro.logging_utils import EventLog
from repro.net.links import (
    CROSS_FACILITY,
    LAN_HUB,
    LinkSpec,
)
from repro.net.simtransport import SimNetwork
from repro.net.topology import Topology
from repro.obs.recorder import FlightRecorder
from repro.obs.scrape import ObservabilityServer
from repro.obs.stream import TelemetryBus
from repro.obs.timeseries import TimeSeriesStore, is_daemon_side_metric
from repro.rpc.daemon import Daemon
from repro.rpc.naming import NameServer
from repro.rpc.proxy import Proxy
from repro.rpc.transport import connect_tcp
from repro.datachannel.mount import Mount
from repro.datachannel.share import FileShareService
from repro.facility.characterization import (
    CharacterizationServer,
    CharacterizationStation,
)
from repro.facility.client import ACLPyroClient
from repro.facility.servers import ACLWorkstationServer
from repro.facility.workstation import (
    ElectrochemistryWorkstation,
    WorkstationConfig,
)

CONTROL_PORT = 9690  # the port in Fig 6b's URI
DATA_PORT = 9700
CHARACTERIZATION_PORT = 9710
NAMESERVER_PORT = 9680

HOST_AGENT = "acl-control-agent"
HOST_GATEWAY = "acl-gateway"
HOST_HPLC_AGENT = "acl-hplc-agent"
HOST_DGX = "k200-dgx"


@dataclass(frozen=True)
class ICEConfig:
    """Ecosystem parameters.

    Attributes:
        workstation: bench configuration (measurement dir is overridden
            with the ICE-owned directory when left None).
        channel_mode: ``"separate"`` (paper design: dedicated hub
            networks for the data channel), ``"shared"`` (data on the
            control path, one FCFS path — the CH1 contention study), or
            ``"priority"`` (one path with preemptive-priority links:
            control frames priority 0, data priority 1 — the QoS
            alternative CH1 ablates).
        transport: ``"sim"`` or ``"tcp"``.
        hub_link: instrument-hub link spec.
        wan_link: cross-facility link spec.
        with_name_server: serve a name server on the gateway.
        control_secret: when set, the control-plane daemons (workstation
            and characterization) require the HMAC challenge-response and
            the ICE's own clients present it — paper §5's "security
            posture" hardening beyond firewall rules.
        durability_dir: where the control daemon's durable state lives
            (dedup journal, lease epochs). None uses a private temp
            directory — never the measurement share, whose listing must
            show measurements only; this state
            deliberately survives :meth:`ElectrochemistryICE.crash_control_daemon`
            with ``keep_disk=True`` and is what a restarted daemon
            replays.
    """

    workstation: WorkstationConfig = field(default_factory=WorkstationConfig)
    transport: str = "sim"
    hub_link: LinkSpec = LAN_HUB
    wan_link: LinkSpec = CROSS_FACILITY
    with_name_server: bool = True
    control_secret: bytes | None = None
    channel_mode: str = "separate"
    durability_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.transport not in ("sim", "tcp"):
            raise NetworkError(f"unknown transport {self.transport!r}")
        if self.channel_mode not in ("separate", "shared", "priority"):
            raise NetworkError(f"unknown channel mode {self.channel_mode!r}")


class ElectrochemistryICE:
    """Handles to the running ecosystem; use :meth:`build`."""

    def __init__(self, **parts):
        self.config: ICEConfig = parts["config"]
        self.workstation: ElectrochemistryWorkstation = parts["workstation"]
        self.topology: Topology | None = parts["topology"]
        self.simnet: SimNetwork | None = parts["simnet"]
        self.control_daemon: Daemon = parts["control_daemon"]
        self.data_daemon: Daemon = parts["data_daemon"]
        self.ns_daemon: Daemon | None = parts["ns_daemon"]
        self.name_server: NameServer | None = parts["name_server"]
        self.characterization: CharacterizationStation = parts["characterization"]
        self.characterization_daemon: Daemon = parts["characterization_daemon"]
        self.characterization_uri: str = parts["characterization_uri"]
        self.share: FileShareService = parts["share"]
        self.control_uri: str = parts["control_uri"]
        self.share_uri: str = parts["share_uri"]
        self.measurement_dir: Path = parts["measurement_dir"]
        self.event_log: EventLog = parts["event_log"]
        self._tempdir = parts["tempdir"]
        self._durability_tempdir = parts["durability_tempdir"]
        self.control_networks: set[str] | None = parts["control_networks"]
        self.data_networks: set[str] | None = parts["data_networks"]
        #: transmission priorities per channel (only meaningful in the
        #: "priority" channel mode; harmless FCFS no-ops otherwise)
        self.control_priority: int = 0
        self.data_priority: int = 1
        #: session observability — wired by :meth:`attach_observability`
        self.tracer = None
        self.metrics = None
        self._sink_removers: list[Callable[[], None]] = []
        #: the daemon half's observability, all three served over the
        #: control channel by one ``ObservabilityServer``
        #: (``ACL_Observability``, dialled by :meth:`obs_client`):
        #: the flight recorder and the live telemetry bus, which
        #: :meth:`attach_observability` feeds daemon-side spans, and the
        #: time-series rollups, which it subscribes to the registry's
        #: daemon-side metric slice
        self.recorder: FlightRecorder = parts["recorder"]
        self.telemetry_bus: TelemetryBus = parts["telemetry_bus"]
        self.obs_store: TimeSeriesStore = parts["obs_store"]
        self.obs_uri: str = parts["obs_uri"]
        #: durable control-daemon state (dedup journal + lease epochs);
        #: survives crash_control_daemon(keep_disk=True) by design
        self.durability_dir: Path = parts["durability_dir"]
        self.lease_registry: LeaseRegistry = parts["lease_registry"]
        self.lease_uri: str = parts["lease_uri"]
        self._ws_server = parts["ws_server"]
        self._obs_server = parts["obs_server"]

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, config: ICEConfig | None = None, clock: Clock | None = None
    ) -> "ElectrochemistryICE":
        """Stand the ecosystem up; callers own :meth:`shutdown`."""
        config = config or ICEConfig()
        clock = clock or WALL
        log = EventLog()

        tempdir = None
        measurement_dir = config.workstation.measurement_dir
        if measurement_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="acl-measurements-")
            measurement_dir = Path(tempdir.name)
        measurement_dir = Path(measurement_dir)
        measurement_dir.mkdir(parents=True, exist_ok=True)

        ws_config = WorkstationConfig(
            ferrocene_mm=config.workstation.ferrocene_mm,
            stock_volume_ml=config.workstation.stock_volume_ml,
            cell_capacity_ml=config.workstation.cell_capacity_ml,
            measurement_dir=measurement_dir,
            time_scale=config.workstation.time_scale,
            noise=config.workstation.noise,
            serial_timeout_s=config.workstation.serial_timeout_s,
        )
        workstation = ElectrochemistryWorkstation.build(
            ws_config, clock=clock, event_log=log
        )

        topology: Topology | None = None
        simnet: SimNetwork | None = None
        control_networks: set[str] | None = None
        data_networks: set[str] | None = None

        if config.transport == "sim":
            topology, control_networks, data_networks = cls._build_topology(
                config, clock
            )
            simnet = SimNetwork(topology, clock=clock)
            control_listener = simnet.listen(HOST_AGENT, CONTROL_PORT)
            data_listener = simnet.listen(HOST_AGENT, DATA_PORT)
            characterization_listener = simnet.listen(
                HOST_HPLC_AGENT, CHARACTERIZATION_PORT
            )
            ns_listener = (
                simnet.listen(HOST_GATEWAY, NAMESERVER_PORT)
                if config.with_name_server
                else None
            )
        else:
            from repro.rpc.transport import TCPListener

            control_listener = TCPListener("127.0.0.1", 0)
            data_listener = TCPListener("127.0.0.1", 0)
            characterization_listener = TCPListener("127.0.0.1", 0)
            ns_listener = (
                TCPListener("127.0.0.1", 0) if config.with_name_server else None
            )

        # durable daemon state must live OUTSIDE the exported share:
        # the data channel lists measurement_dir verbatim, and journals
        # are not measurements
        durability_tempdir = None
        if config.durability_dir is not None:
            durability_dir = Path(config.durability_dir)
        else:
            durability_tempdir = tempfile.TemporaryDirectory(
                prefix="acl-durability-"
            )
            durability_dir = Path(durability_tempdir.name)
        durability_dir.mkdir(parents=True, exist_ok=True)
        lease_registry = LeaseRegistry(durability_dir / "leases.json")
        control_daemon = Daemon(
            listener=control_listener,
            event_log=log,
            secret=config.control_secret,
            dedup_journal=DedupJournal(durability_dir / "control-dedup.jsonl"),
            lease_registry=lease_registry,
        )
        # the daemon half's observability: the black box and the live
        # feed capture ACL-side events from build time and ACL-side spans
        # once attach_observability() wires a tracer; the rollup store
        # stays empty until it wires a registry. The DGX pulls all three
        # over the control channel (Recorder_Dump, Telemetry_Poll,
        # Obs_Scrape) and merges them with its own half
        recorder = FlightRecorder("acl-daemon", clock=clock)
        log.subscribe(recorder.record_event)
        telemetry_bus = TelemetryBus("acl-daemon", clock=clock)
        log.subscribe(telemetry_bus.publish_event)
        obs_store = TimeSeriesStore(clock=clock)
        ws_server = ACLWorkstationServer(workstation)
        obs_server = ObservabilityServer(recorder, telemetry_bus, obs_store)
        control_uri, lease_uri, obs_uri = cls._serve_control_objects(
            control_daemon, ws_server, lease_registry, obs_server
        )
        control_daemon.start_background()

        share = FileShareService(measurement_dir, share_name="acl-measurements")
        data_daemon = Daemon(listener=data_listener, event_log=log)
        share_uri = data_daemon.register(share, object_id="ACL_Share")
        data_daemon.start_background()

        characterization = CharacterizationStation(
            workstation.collector,
            clock=clock,
            event_log=log,
            time_scale=config.workstation.time_scale,
        )
        characterization_daemon = Daemon(
            listener=characterization_listener,
            event_log=log,
            secret=config.control_secret,
        )
        characterization_uri = characterization_daemon.register(
            CharacterizationServer(characterization),
            object_id="ACL_Characterization",
        )
        characterization_daemon.start_background()

        ns_daemon = None
        name_server = None
        if ns_listener is not None:
            name_server = NameServer()
            name_server.register("acl.workstation", control_uri)
            name_server.register("acl.share", share_uri)
            name_server.register("acl.characterization", characterization_uri)
            ns_daemon = Daemon(listener=ns_listener, event_log=log)
            ns_daemon.register(name_server, object_id="NameServer")
            ns_daemon.start_background()

        log.emit(
            "ice",
            "lifecycle",
            f"ICE up: control={control_uri} data={share_uri} "
            f"transport={config.transport} "
            f"channel_mode={config.channel_mode}",
        )
        return cls(
            config=config,
            workstation=workstation,
            topology=topology,
            simnet=simnet,
            control_daemon=control_daemon,
            data_daemon=data_daemon,
            ns_daemon=ns_daemon,
            name_server=name_server,
            share=share,
            control_uri=control_uri,
            share_uri=share_uri,
            characterization=characterization,
            characterization_daemon=characterization_daemon,
            characterization_uri=characterization_uri,
            measurement_dir=measurement_dir,
            event_log=log,
            tempdir=tempdir,
            durability_tempdir=durability_tempdir,
            control_networks=control_networks,
            data_networks=data_networks,
            recorder=recorder,
            telemetry_bus=telemetry_bus,
            obs_store=obs_store,
            obs_uri=obs_uri,
            obs_server=obs_server,
            durability_dir=durability_dir,
            lease_registry=lease_registry,
            lease_uri=lease_uri,
            ws_server=ws_server,
        )

    @staticmethod
    def _serve_control_objects(
        daemon: Daemon,
        ws_server: ACLWorkstationServer,
        lease_registry: LeaseRegistry,
        obs_server: ObservabilityServer,
    ) -> tuple[str, str, str]:
        """Register the control daemon's objects — the workstation, the
        lease service and the daemon half's observability — and return
        their URIs in that order. :meth:`build` and
        :meth:`restart_control_daemon` both serve exactly these."""
        return (
            daemon.register(ws_server, object_id="ACL_Workstation"),
            daemon.register(
                LeaseServer(lease_registry), object_id=LeaseServer.OBJECT_ID
            ),
            daemon.register(obs_server, object_id=ObservabilityServer.OBJECT_ID),
        )

    @staticmethod
    def _build_topology(
        config: ICEConfig, clock: Clock
    ) -> tuple[Topology, set[str], set[str]]:
        """ACL + K200 with hub networks; optionally duplicated for data."""
        topology = Topology(clock=clock)
        topology.add_facility("ACL", "Autonomous Chemistry Laboratory")
        topology.add_facility("K200", "K200 computing and data facility")
        topology.add_host(HOST_AGENT, "ACL", platform="windows")
        topology.add_host(HOST_GATEWAY, "ACL", is_gateway=True)
        topology.add_host(HOST_HPLC_AGENT, "ACL", platform="windows")
        topology.add_host(HOST_DGX, "K200", platform="linux")

        qos = config.channel_mode == "priority"
        topology.add_network("acl-hub", "ACL", "instrument hub network")
        topology.add_network("ornl-wan", "K200", "cross-facility backbone")
        topology.attach(HOST_AGENT, "acl-hub", config.hub_link, priority_queuing=qos)
        topology.attach(HOST_GATEWAY, "acl-hub", config.hub_link, priority_queuing=qos)
        topology.attach(HOST_HPLC_AGENT, "acl-hub", config.hub_link, priority_queuing=qos)
        topology.attach(HOST_GATEWAY, "ornl-wan", config.wan_link, priority_queuing=qos)
        topology.attach(HOST_DGX, "ornl-wan", config.wan_link, priority_queuing=qos)
        control_networks = {"acl-hub", "ornl-wan"}

        if config.channel_mode == "separate":
            topology.add_network("acl-hub-data", "ACL", "data-channel hub")
            topology.add_network("ornl-wan-data", "K200", "data-channel backbone")
            topology.attach(HOST_AGENT, "acl-hub-data", config.hub_link)
            topology.attach(HOST_GATEWAY, "acl-hub-data", config.hub_link)
            topology.attach(HOST_GATEWAY, "ornl-wan-data", config.wan_link)
            topology.attach(HOST_DGX, "ornl-wan-data", config.wan_link)
            data_networks = {"acl-hub-data", "ornl-wan-data"}
        else:
            data_networks = set(control_networks)

        # §4.1: open ingress TCP ports for the remote facility only
        agent_fw = topology.host(HOST_AGENT).firewall
        agent_fw.allow_port(CONTROL_PORT, src_facility="K200", comment="pyro control")
        agent_fw.allow_port(DATA_PORT, src_facility="K200", comment="cifs data")
        topology.host(HOST_HPLC_AGENT).firewall.allow_port(
            CHARACTERIZATION_PORT, src_facility="K200", comment="pyro hplc"
        )
        # the gateway itself accepts name-server lookups
        topology.host(HOST_GATEWAY).firewall.allow_port(
            NAMESERVER_PORT, src_facility="K200", comment="name server"
        )
        return topology, control_networks, data_networks

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Wire a tracer/metrics registry through every in-process part.

        Because the ICE hosts both "facilities" in one process, a single
        tracer sees client-side call spans *and* daemon-side dispatch
        spans — the wire context joins them into one trace. Clients and
        mounts created *after* this call inherit the pair by default.
        Each call replaces the previous one's wiring: the daemon halves
        leave the old tracer and their store follows the new registry.
        """
        self.tracer = tracer
        self.metrics = metrics
        for daemon in (
            self.control_daemon,
            self.data_daemon,
            self.characterization_daemon,
            self.ns_daemon,
        ):
            if daemon is not None:
                daemon.tracer = tracer
                daemon.metrics = metrics
        self.share.metrics = metrics
        if self.simnet is not None:
            self.simnet.metrics = metrics
        for remove in self._sink_removers:
            remove()
        self._sink_removers = []
        # the single in-process tracer sees both facilities' spans; the
        # daemon-half recorder and live feed take only the ACL half, the
        # session's only the DGX half, so the halves of a merged dump and
        # of session.stream() stay disjoint
        if tracer is not None:
            self.recorder.clock = tracer.clock
            self.telemetry_bus.clock = tracer.clock
            acl_half = tracer.halves.acl
            self._sink_removers = [
                acl_half.add(self.recorder.record_span),
                acl_half.add(self.telemetry_bus.publish_span),
            ]
        if metrics is not None:
            self.recorder.observe_metrics(metrics)
            # the shared in-process registry is split the same way: this
            # store rolls up only the daemon half, the session store the
            # other, so a two-source aggregator never counts a write twice
            self.obs_store.close()
            if tracer is not None:
                self.obs_store.clock = tracer.clock
            self.obs_store.attach(metrics, only=is_daemon_side_metric)

    # ------------------------------------------------------------------
    # Remote-side helpers (what runs on the DGX)
    # ------------------------------------------------------------------
    def _factory(self, networks: set[str] | None, priority: int = 0):
        if self.simnet is not None:
            return self.simnet.connection_factory(HOST_DGX, networks, priority)
        return lambda host, port: connect_tcp(host, port, timeout=30.0)

    def client(
        self,
        timeout: float | None = 120.0,
        resilient: bool = False,
        retry_policy: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        tracer=None,
        metrics=None,
        idem_prefix: str | None = None,
        max_inflight: int = 1,
    ) -> ACLPyroClient:
        """A control-channel client dialled from the DGX.

        With ``resilient=True`` (or an explicit ``retry_policy`` /
        ``breaker``) calls reconnect and retry across link flaps and
        connection resets, carrying idempotency keys so the daemon
        replays rather than re-executes anything already done.

        ``idem_prefix`` replays a crashed predecessor's idempotency-key
        sequence (journaled by the campaign layer), so a resumed round's
        already-executed calls come back from the daemon's dedup journal
        instead of touching the instrument again.

        ``max_inflight`` opens the control-channel pipelining window
        (PROTOCOLS §1.4).
        """
        from repro.resilience import RetryPolicy

        if resilient and retry_policy is None:
            retry_policy = RetryPolicy()
        if idem_prefix is not None and retry_policy is None:
            retry_policy = RetryPolicy()
        return ACLPyroClient.from_uri(
            self.control_uri,
            connection_factory=self._factory(self.control_networks),
            timeout=timeout,
            secret=self.config.control_secret,
            retry_policy=retry_policy,
            breaker=breaker,
            event_log=self.event_log,
            tracer=tracer if tracer is not None else self.tracer,
            metrics=metrics if metrics is not None else self.metrics,
            idem_prefix=idem_prefix,
            max_inflight=max_inflight,
        )

    def characterization_client(self, timeout: float | None = 120.0) -> ACLPyroClient:
        """Control-channel client to the characterization station."""
        return ACLPyroClient.from_uri(
            self.characterization_uri,
            connection_factory=self._factory(self.control_networks),
            timeout=timeout,
            secret=self.config.control_secret,
        )

    def mount(
        self,
        cache_dir: str | Path | None = None,
        tracer=None,
        metrics=None,
        pipeline_depth: int = 1,
    ) -> Mount:
        """Mount the measurement share on the DGX over the data channel.

        ``pipeline_depth > 1`` builds the share proxy with that many
        in-flight requests allowed, so multi-chunk reads pipeline their
        ``read_chunk`` calls instead of paying one WAN round trip per
        chunk (PROTOCOLS §1.4).
        """
        proxy = Proxy(
            self.share_uri,
            timeout=120.0,
            connection_factory=self._factory(
                self.data_networks, self.data_priority
            ),
            tracer=tracer if tracer is not None else self.tracer,
            metrics=metrics if metrics is not None else self.metrics,
            max_inflight=pipeline_depth,
        )
        return Mount(
            proxy,
            cache_dir=cache_dir,
            metrics=metrics if metrics is not None else self.metrics,
        )

    def obs_client(self, timeout: float | None = 10.0) -> Proxy:
        """Control-channel proxy to the daemon half's observability
        (``ACL_Observability``: ``Recorder_Dump``, ``Recorder_Note``,
        ``Telemetry_Poll``, ``Obs_Scrape``).

        Deliberately short default timeout: recorder pulls happen inside
        failure-path teardowns, feed and scrape polls inside steering and
        aggregator loops, and a partitioned channel must surface as a
        fast failure, never stall a safe-state sequence or hang a poll.
        """
        return Proxy(
            self.obs_uri,
            timeout=timeout,
            connection_factory=self._factory(self.control_networks),
            secret=self.config.control_secret,
        )

    def lease_client(self, timeout: float | None = 10.0) -> Proxy:
        """Control-channel proxy to the lease (fencing-token) service.

        Short default timeout like :meth:`obs_client`: lease
        acquisition happens during session attach/reattach and must fail
        fast when the control channel is down.
        """
        return Proxy(
            self.lease_uri,
            timeout=timeout,
            connection_factory=self._factory(self.control_networks),
            secret=self.config.control_secret,
        )

    # ------------------------------------------------------------------
    # Process-level fault domain (used by ChaosController)
    # ------------------------------------------------------------------
    def crash_control_daemon(self, keep_disk: bool = True) -> None:
        """Abruptly kill the control daemon (no joins, no flushes).

        ``keep_disk=True`` models ``kill -9``: in-memory state dies, the
        fsync'd dedup journal and lease epochs survive for the next
        incarnation. ``keep_disk=False`` models losing the disk too
        (reprovisioned host) — restart then starts from nothing.
        """
        self.control_daemon.crash()
        if not keep_disk:
            for name in ("control-dedup.jsonl", "leases.json"):
                try:
                    (self.durability_dir / name).unlink()
                except FileNotFoundError:
                    pass
        self.event_log.emit(
            "ice",
            "crash",
            f"control daemon crashed (keep_disk={keep_disk})",
        )

    def restart_control_daemon(self) -> Daemon:
        """Bring a crashed control daemon back on the same address.

        The instrument side (workstation, recorder, telemetry bus) is a
        different "machine" and survives; the daemon process is rebuilt
        from scratch — its dedup cache preloads from the dedup journal
        and its lease registry reloads persisted epochs, which is the
        whole durability contract under test.
        """
        if self.control_daemon._running.is_set():
            raise NetworkError(
                "control daemon is still running; crash or shut it down first"
            )
        host, port = self.control_daemon.address
        if self.simnet is not None:
            listener = self.simnet.listen(host, port)
        else:
            from repro.rpc.transport import TCPListener

            listener = TCPListener(host, port)
        self.lease_registry = LeaseRegistry(self.durability_dir / "leases.json")
        daemon = Daemon(
            listener=listener,
            event_log=self.event_log,
            secret=self.config.control_secret,
            dedup_journal=DedupJournal(self.durability_dir / "control-dedup.jsonl"),
            lease_registry=self.lease_registry,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._serve_control_objects(
            daemon, self._ws_server, self.lease_registry, self._obs_server
        )
        daemon.start_background()
        self.control_daemon = daemon
        if self.metrics is not None:
            self.metrics.counter(
                "recovery.daemon_restarts_total", "control daemon restarts"
            ).inc()
            if daemon.dedup_preloaded:
                self.metrics.counter(
                    "recovery.dedup_preloaded_total",
                    "idempotent outcomes restored from the dedup journal",
                ).inc(daemon.dedup_preloaded)
        self.event_log.emit(
            "ice",
            "restart",
            f"control daemon restarted at {host}:{port} "
            f"({daemon.dedup_preloaded} dedup outcomes preloaded)",
        )
        return daemon

    def lookup(self, name: str) -> str:
        """Resolve a logical name via the gateway's name server."""
        if self.ns_daemon is None:
            raise NetworkError("ICE was built without a name server")
        host, port = self.ns_daemon.address
        ns_proxy = Proxy(
            f"PYRO:NameServer@{host}:{port}",
            connection_factory=self._factory(self.control_networks),
        )
        try:
            return ns_proxy.lookup(name)
        finally:
            ns_proxy.close()

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop daemons, the SBC thread, and remove the temp directory."""
        self.control_daemon.shutdown()
        self.data_daemon.shutdown()
        self.characterization_daemon.shutdown()
        if self.ns_daemon is not None:
            self.ns_daemon.shutdown()
        self.workstation.shutdown()
        if self._tempdir is not None:
            self._tempdir.cleanup()
        if self._durability_tempdir is not None:
            self._durability_tempdir.cleanup()

    def __enter__(self) -> "ElectrochemistryICE":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
