"""Facilities, hosts, hub networks and routing.

The model is a bipartite graph: hosts attach to hub networks through
:class:`SharedLink` attachments. A packet's path host→…→host alternates
host and network nodes; only hosts marked ``is_gateway`` may appear as
intermediates (paper §3.1: "dedicated hub networks ... connected to a
gateway computer which in turn is connected to the site network").

A breadth-first search over the attachments routes a packet; the path's
link objects are what the transport charges for each frame.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.clock import Clock, WALL
from repro.errors import NetworkError, NoRouteError
from repro.net.firewall import Firewall
from repro.net.links import LinkSpec, PriorityLink, SharedLink


@dataclass
class Facility:
    """A named administrative/security domain (e.g. ACL, K200)."""

    name: str
    description: str = ""


@dataclass
class Host:
    """A computer in the ecosystem.

    Attributes:
        name: unique host name, e.g. ``"acl-control-agent"``.
        facility: owning facility name.
        platform: ``"windows"`` or ``"linux"`` (documentation only, but the
            paper makes a point of the cross-platform mix).
        is_gateway: may forward traffic between its attached networks.
        firewall: ingress policy for connections terminating here.
    """

    name: str
    facility: str
    platform: str = "linux"
    is_gateway: bool = False
    firewall: Firewall = field(default_factory=Firewall)


@dataclass
class HubNetwork:
    """A LAN segment (instrument hub, site backbone, WAN)."""

    name: str
    facility: str
    description: str = ""


class Topology:
    """The ecosystem graph with attachment links and route computation."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock or WALL
        # neighbours in attachment order, which settles ties between
        # equal-length routes
        self._neighbours: dict[str, list[str]] = {}
        self._facilities: dict[str, Facility] = {}
        self._hosts: dict[str, Host] = {}
        self._networks: dict[str, HubNetwork] = {}
        self._links: dict[tuple[str, str], SharedLink] = {}
        self._lock = threading.Lock()

    # -- construction -----------------------------------------------------
    def add_facility(self, name: str, description: str = "") -> Facility:
        with self._lock:
            if name in self._facilities:
                raise NetworkError(f"facility already exists: {name!r}")
            facility = Facility(name, description)
            self._facilities[name] = facility
            return facility

    def add_host(
        self,
        name: str,
        facility: str,
        platform: str = "linux",
        is_gateway: bool = False,
    ) -> Host:
        with self._lock:
            if name in self._hosts or name in self._networks:
                raise NetworkError(f"node name already in use: {name!r}")
            if facility not in self._facilities:
                raise NetworkError(f"unknown facility: {facility!r}")
            host = Host(name, facility, platform, is_gateway)
            self._hosts[name] = host
            self._neighbours[name] = []
            return host

    def add_network(
        self, name: str, facility: str, description: str = ""
    ) -> HubNetwork:
        with self._lock:
            if name in self._hosts or name in self._networks:
                raise NetworkError(f"node name already in use: {name!r}")
            if facility not in self._facilities:
                raise NetworkError(f"unknown facility: {facility!r}")
            network = HubNetwork(name, facility, description)
            self._networks[name] = network
            self._neighbours[name] = []
            return network

    def attach(
        self,
        host: str,
        network: str,
        spec: LinkSpec,
        priority_queuing: bool = False,
    ) -> SharedLink:
        """Plug a host NIC into a hub network with the given link spec.

        ``priority_queuing`` swaps the FCFS transmitter for a
        :class:`~repro.net.links.PriorityLink` (control frames preempt
        queued bulk frames — the QoS alternative to physically separate
        channels).
        """
        with self._lock:
            if host not in self._hosts:
                raise NetworkError(f"unknown host: {host!r}")
            if network not in self._networks:
                raise NetworkError(f"unknown network: {network!r}")
            key = (host, network)
            if key in self._links:
                raise NetworkError(f"{host!r} already attached to {network!r}")
            link_class = PriorityLink if priority_queuing else SharedLink
            link = link_class(f"{host}<->{network}", spec, clock=self.clock)
            self._links[key] = link
            self._neighbours[host].append(network)
            self._neighbours[network].append(host)
            return link

    # -- queries ---------------------------------------------------------------
    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host: {name!r}") from None

    def network(self, name: str) -> HubNetwork:
        try:
            return self._networks[name]
        except KeyError:
            raise NetworkError(f"unknown network: {name!r}") from None

    def link(self, host: str, network: str) -> SharedLink:
        try:
            return self._links[(host, network)]
        except KeyError:
            raise NetworkError(f"no attachment {host!r} -> {network!r}") from None

    def hosts(self) -> list[Host]:
        return list(self._hosts.values())

    def networks(self) -> list[HubNetwork]:
        return list(self._networks.values())

    # -- routing ---------------------------------------------------------------
    def _shortest_path(
        self, src: str, dst: str, allowed_networks: set[str] | None
    ) -> list[str]:
        if src not in self._hosts:
            raise NetworkError(f"unknown source host: {src!r}")
        if dst not in self._hosts:
            raise NetworkError(f"unknown destination host: {dst!r}")

        def admissible(node: str) -> bool:
            if node in (src, dst):
                return True
            if node in self._networks:
                return allowed_networks is None or node in allowed_networks
            return self._hosts[node].is_gateway

        previous: dict[str, str | None] = {src: None}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            if node == dst:
                path = []
                while node is not None:
                    path.append(node)
                    node = previous[node]
                return path[::-1]
            for neighbour in self._neighbours[node]:
                if neighbour not in previous and admissible(neighbour):
                    previous[neighbour] = node
                    frontier.append(neighbour)
        constraint = (
            f" via networks {sorted(allowed_networks)}" if allowed_networks else ""
        )
        raise NoRouteError(f"no route from {src!r} to {dst!r}{constraint}")

    def route(
        self,
        src: str,
        dst: str,
        allowed_networks: set[str] | None = None,
    ) -> list[SharedLink]:
        """Links traversed from ``src`` host to ``dst`` host.

        Intermediate hosts must be gateways; the shortest admissible path
        wins. ``allowed_networks`` restricts which hub networks the path
        may cross — this is how the ICE pins data-channel traffic onto its
        dedicated networks. Raises :class:`NoRouteError` when no path
        satisfies the constraints.
        """
        if src == dst:
            return []
        path = self._shortest_path(src, dst, allowed_networks)
        links: list[SharedLink] = []
        for a, b in zip(path, path[1:]):
            host, network = (a, b) if a in self._hosts else (b, a)
            links.append(self._links[(host, network)])
        return links

    def path_hosts(
        self,
        src: str,
        dst: str,
        allowed_networks: set[str] | None = None,
    ) -> list[str]:
        """Host names along the route (gateways included), for audits."""
        if src == dst:
            return [src]
        path = self._shortest_path(src, dst, allowed_networks)
        return [node for node in path if node in self._hosts]
