"""ICE network model: facilities, hub networks, gateways, firewalls, links.

Paper §3.1 describes the ecosystem's network design: instruments sit on
dedicated *hub networks* behind a *gateway computer* with multiple NICs;
facility firewalls must open specific ingress TCP ports; *control* and
*data* traffic travel on separate channels so bulk transfers do not delay
steering commands.

This package models exactly that, concretely enough to measure it:

- :class:`Topology` holds facilities, hosts, hub networks and their
  attachments (a breadth-first search over them routes each packet);
- :class:`Firewall` evaluates ordered ingress rules per host;
- :class:`LinkSpec` gives each attachment latency and bandwidth; shared
  links serialise transmissions, so contention is emergent, not scripted;
- :class:`SimNetwork` is a byte-stream transport over the model, API
  compatible with :mod:`repro.rpc.transport`, so daemons and proxies run
  unmodified over the simulated cross-facility path.
"""

from repro.net.links import LinkSpec, SharedLink
from repro.net.firewall import Firewall, FirewallRule, Action
from repro.net.topology import Topology, Host, HubNetwork, Facility
from repro.net.simtransport import SimNetwork, SimListener, SimConnection
from repro.net.chaos import ChaosController

__all__ = [
    "ChaosController",
    "LinkSpec",
    "SharedLink",
    "Firewall",
    "FirewallRule",
    "Action",
    "Topology",
    "Host",
    "HubNetwork",
    "Facility",
    "SimNetwork",
    "SimListener",
    "SimConnection",
]
