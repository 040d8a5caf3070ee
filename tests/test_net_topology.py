"""Topology construction and routing."""

import itertools
import subprocess
import sys
import textwrap

import pytest

from repro.clock import VirtualClock
from repro.errors import NetworkError, NoRouteError
from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.net.links import LinkSpec
from repro.net.topology import Topology


@pytest.fixture
def ice_topology():
    """The paper's shape: agent -- hub -- gateway -- wan -- dgx."""
    topo = Topology(clock=VirtualClock())
    topo.add_facility("ACL")
    topo.add_facility("K200")
    topo.add_host("agent", "ACL", platform="windows")
    topo.add_host("gw", "ACL", is_gateway=True)
    topo.add_host("dgx", "K200")
    topo.add_network("hub", "ACL")
    topo.add_network("wan", "K200")
    topo.attach("agent", "hub", LinkSpec())
    topo.attach("gw", "hub", LinkSpec())
    topo.attach("gw", "wan", LinkSpec())
    topo.attach("dgx", "wan", LinkSpec())
    return topo


class TestConstruction:
    def test_duplicate_facility(self, ice_topology):
        with pytest.raises(NetworkError):
            ice_topology.add_facility("ACL")

    def test_duplicate_node_name(self, ice_topology):
        with pytest.raises(NetworkError):
            ice_topology.add_host("hub", "ACL")
        with pytest.raises(NetworkError):
            ice_topology.add_network("agent", "ACL")

    def test_unknown_facility(self, ice_topology):
        with pytest.raises(NetworkError):
            ice_topology.add_host("x", "NOPE")

    def test_duplicate_attachment(self, ice_topology):
        with pytest.raises(NetworkError):
            ice_topology.attach("agent", "hub", LinkSpec())

    def test_attach_unknown_nodes(self, ice_topology):
        with pytest.raises(NetworkError):
            ice_topology.attach("ghost", "hub", LinkSpec())
        with pytest.raises(NetworkError):
            ice_topology.attach("agent", "ghost", LinkSpec())

    def test_lookups(self, ice_topology):
        assert ice_topology.host("agent").platform == "windows"
        assert ice_topology.network("hub").facility == "ACL"
        assert ice_topology.link("agent", "hub").name == "agent<->hub"
        with pytest.raises(NetworkError):
            ice_topology.host("ghost")
        with pytest.raises(NetworkError):
            ice_topology.network("ghost")
        with pytest.raises(NetworkError):
            ice_topology.link("dgx", "hub")

    def test_listings(self, ice_topology):
        assert {h.name for h in ice_topology.hosts()} == {"agent", "gw", "dgx"}
        assert {n.name for n in ice_topology.networks()} == {"hub", "wan"}


class TestRouting:
    def test_cross_facility_route(self, ice_topology):
        links = ice_topology.route("dgx", "agent")
        assert [l.name for l in links] == [
            "dgx<->wan",
            "gw<->wan",
            "gw<->hub",
            "agent<->hub",
        ]

    def test_path_hosts_includes_gateway(self, ice_topology):
        assert ice_topology.path_hosts("dgx", "agent") == ["dgx", "gw", "agent"]

    def test_same_host_empty_route(self, ice_topology):
        assert ice_topology.route("dgx", "dgx") == []
        assert ice_topology.path_hosts("dgx", "dgx") == ["dgx"]

    def test_non_gateway_cannot_forward(self, ice_topology):
        # add a host that shares both networks but is NOT a gateway
        ice_topology.add_host("rogue", "ACL")
        ice_topology.attach("rogue", "hub", LinkSpec())
        ice_topology.attach("rogue", "wan", LinkSpec())
        # route must still go through gw (same length), never rogue
        assert "rogue" not in ice_topology.path_hosts("dgx", "agent")

    def test_no_route(self, ice_topology):
        ice_topology.add_host("island", "ACL")
        with pytest.raises(NoRouteError):
            ice_topology.route("island", "dgx")

    def test_unknown_hosts(self, ice_topology):
        with pytest.raises(NetworkError):
            ice_topology.route("ghost", "dgx")
        with pytest.raises(NetworkError):
            ice_topology.route("dgx", "ghost")

    def test_allowed_networks_restriction(self, ice_topology):
        # add a parallel data path
        ice_topology.add_network("hub-data", "ACL")
        ice_topology.add_network("wan-data", "K200")
        ice_topology.attach("agent", "hub-data", LinkSpec())
        ice_topology.attach("gw", "hub-data", LinkSpec())
        ice_topology.attach("gw", "wan-data", LinkSpec())
        ice_topology.attach("dgx", "wan-data", LinkSpec())
        data_links = ice_topology.route(
            "dgx", "agent", allowed_networks={"hub-data", "wan-data"}
        )
        assert all("data" in l.name for l in data_links)
        control_links = ice_topology.route(
            "dgx", "agent", allowed_networks={"hub", "wan"}
        )
        assert all("data" not in l.name for l in control_links)

    def test_allowed_networks_no_route(self, ice_topology):
        with pytest.raises(NoRouteError):
            ice_topology.route("dgx", "agent", allowed_networks={"hub"})


# route() link names and path_hosts() for every ordered pair of the ICE's
# hosts, or the NoRouteError message, as recorded from the networkx router.
# Unrestricted, separate mode often has a control and a data path of equal
# length (k200-dgx to acl-control-agent among them) and takes the control
# one, so every mode routes as on its control networks unless it is held
# to the data networks.
CONTROL_ROUTES = {
    ("acl-control-agent", "acl-control-agent"): ([], ["acl-control-agent"]),
    ("acl-control-agent", "acl-gateway"): (
        ["acl-control-agent<->acl-hub", "acl-gateway<->acl-hub"],
        ["acl-control-agent", "acl-gateway"],
    ),
    ("acl-control-agent", "acl-hplc-agent"): (
        ["acl-control-agent<->acl-hub", "acl-hplc-agent<->acl-hub"],
        ["acl-control-agent", "acl-hplc-agent"],
    ),
    ("acl-control-agent", "k200-dgx"): (
        ["acl-control-agent<->acl-hub", "acl-gateway<->acl-hub",
         "acl-gateway<->ornl-wan", "k200-dgx<->ornl-wan"],
        ["acl-control-agent", "acl-gateway", "k200-dgx"],
    ),
    ("acl-gateway", "acl-control-agent"): (
        ["acl-gateway<->acl-hub", "acl-control-agent<->acl-hub"],
        ["acl-gateway", "acl-control-agent"],
    ),
    ("acl-gateway", "acl-gateway"): ([], ["acl-gateway"]),
    ("acl-gateway", "acl-hplc-agent"): (
        ["acl-gateway<->acl-hub", "acl-hplc-agent<->acl-hub"],
        ["acl-gateway", "acl-hplc-agent"],
    ),
    ("acl-gateway", "k200-dgx"): (
        ["acl-gateway<->ornl-wan", "k200-dgx<->ornl-wan"],
        ["acl-gateway", "k200-dgx"],
    ),
    ("acl-hplc-agent", "acl-control-agent"): (
        ["acl-hplc-agent<->acl-hub", "acl-control-agent<->acl-hub"],
        ["acl-hplc-agent", "acl-control-agent"],
    ),
    ("acl-hplc-agent", "acl-gateway"): (
        ["acl-hplc-agent<->acl-hub", "acl-gateway<->acl-hub"],
        ["acl-hplc-agent", "acl-gateway"],
    ),
    ("acl-hplc-agent", "acl-hplc-agent"): ([], ["acl-hplc-agent"]),
    ("acl-hplc-agent", "k200-dgx"): (
        ["acl-hplc-agent<->acl-hub", "acl-gateway<->acl-hub",
         "acl-gateway<->ornl-wan", "k200-dgx<->ornl-wan"],
        ["acl-hplc-agent", "acl-gateway", "k200-dgx"],
    ),
    ("k200-dgx", "acl-control-agent"): (
        ["k200-dgx<->ornl-wan", "acl-gateway<->ornl-wan",
         "acl-gateway<->acl-hub", "acl-control-agent<->acl-hub"],
        ["k200-dgx", "acl-gateway", "acl-control-agent"],
    ),
    ("k200-dgx", "acl-gateway"): (
        ["k200-dgx<->ornl-wan", "acl-gateway<->ornl-wan"],
        ["k200-dgx", "acl-gateway"],
    ),
    ("k200-dgx", "acl-hplc-agent"): (
        ["k200-dgx<->ornl-wan", "acl-gateway<->ornl-wan",
         "acl-gateway<->acl-hub", "acl-hplc-agent<->acl-hub"],
        ["k200-dgx", "acl-gateway", "acl-hplc-agent"],
    ),
    ("k200-dgx", "k200-dgx"): ([], ["k200-dgx"]),
}

SEPARATE_DATA_ROUTES = {
    ("acl-control-agent", "acl-control-agent"): ([], ["acl-control-agent"]),
    ("acl-control-agent", "acl-gateway"): (
        ["acl-control-agent<->acl-hub-data", "acl-gateway<->acl-hub-data"],
        ["acl-control-agent", "acl-gateway"],
    ),
    ("acl-control-agent", "acl-hplc-agent"): (
        "no route from 'acl-control-agent' to 'acl-hplc-agent'"
        " via networks ['acl-hub-data', 'ornl-wan-data']"
    ),
    ("acl-control-agent", "k200-dgx"): (
        ["acl-control-agent<->acl-hub-data", "acl-gateway<->acl-hub-data",
         "acl-gateway<->ornl-wan-data", "k200-dgx<->ornl-wan-data"],
        ["acl-control-agent", "acl-gateway", "k200-dgx"],
    ),
    ("acl-gateway", "acl-control-agent"): (
        ["acl-gateway<->acl-hub-data", "acl-control-agent<->acl-hub-data"],
        ["acl-gateway", "acl-control-agent"],
    ),
    ("acl-gateway", "acl-gateway"): ([], ["acl-gateway"]),
    ("acl-gateway", "acl-hplc-agent"): (
        "no route from 'acl-gateway' to 'acl-hplc-agent'"
        " via networks ['acl-hub-data', 'ornl-wan-data']"
    ),
    ("acl-gateway", "k200-dgx"): (
        ["acl-gateway<->ornl-wan-data", "k200-dgx<->ornl-wan-data"],
        ["acl-gateway", "k200-dgx"],
    ),
    ("acl-hplc-agent", "acl-control-agent"): (
        "no route from 'acl-hplc-agent' to 'acl-control-agent'"
        " via networks ['acl-hub-data', 'ornl-wan-data']"
    ),
    ("acl-hplc-agent", "acl-gateway"): (
        "no route from 'acl-hplc-agent' to 'acl-gateway'"
        " via networks ['acl-hub-data', 'ornl-wan-data']"
    ),
    ("acl-hplc-agent", "acl-hplc-agent"): ([], ["acl-hplc-agent"]),
    ("acl-hplc-agent", "k200-dgx"): (
        "no route from 'acl-hplc-agent' to 'k200-dgx'"
        " via networks ['acl-hub-data', 'ornl-wan-data']"
    ),
    ("k200-dgx", "acl-control-agent"): (
        ["k200-dgx<->ornl-wan-data", "acl-gateway<->ornl-wan-data",
         "acl-gateway<->acl-hub-data", "acl-control-agent<->acl-hub-data"],
        ["k200-dgx", "acl-gateway", "acl-control-agent"],
    ),
    ("k200-dgx", "acl-gateway"): (
        ["k200-dgx<->ornl-wan-data", "acl-gateway<->ornl-wan-data"],
        ["k200-dgx", "acl-gateway"],
    ),
    ("k200-dgx", "acl-hplc-agent"): (
        "no route from 'k200-dgx' to 'acl-hplc-agent'"
        " via networks ['acl-hub-data', 'ornl-wan-data']"
    ),
    ("k200-dgx", "k200-dgx"): ([], ["k200-dgx"]),
}


class TestICERouteTable:
    @pytest.mark.parametrize("networks", ["any", "control", "data"])
    @pytest.mark.parametrize("mode", ["separate", "shared", "priority"])
    def test_routes_match_the_recorded_table(self, mode, networks):
        topology, control, data = ElectrochemistryICE._build_topology(
            ICEConfig(channel_mode=mode), VirtualClock()
        )
        allowed = {"any": None, "control": control, "data": data}[networks]
        table = (
            SEPARATE_DATA_ROUTES
            if (mode, networks) == ("separate", "data")
            else CONTROL_ROUTES
        )
        hosts = [host.name for host in topology.hosts()]
        assert sorted(table) == sorted(itertools.product(hosts, hosts))
        for (src, dst), expected in table.items():
            if isinstance(expected, str):
                for query in (topology.route, topology.path_hosts):
                    with pytest.raises(NoRouteError) as raised:
                        query(src, dst, allowed)
                    assert str(raised.value) == expected
                continue
            links, path = expected
            assert [link.name for link in topology.route(src, dst, allowed)] == links
            assert topology.path_hosts(src, dst, allowed) == path


@pytest.mark.parametrize("blocked", ["networkx", "scipy"])
def test_a_session_runs_without(blocked):
    # a None entry in sys.modules makes every later import of it raise
    script = textwrap.dedent(
        """
        import sys

        sys.modules[sys.argv[1]] = None
        import numpy as np
        import repro

        with repro.connect() as session:
            assert session.client.call_Status_JKem()
            assert session.fill_cell()["volume_ml"] == 5.0
            trace = session.run_cv(e_step_v=0.01)
            [stat] = session.datachannel.listdir()
            again = session.datachannel.read_voltammogram(stat.path)
            assert np.array_equal(again.current_a, trace.current_a)
        """
    )
    subprocess.run(
        [sys.executable, "-c", script, blocked], timeout=120, check=True
    )
