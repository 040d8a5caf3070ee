"""The full ecosystem: control/data channels, firewall, name server."""

import numpy as np
import pytest

from repro.errors import FirewallDeniedError, NamingError, NetworkError
from repro.facility.ice import (
    CONTROL_PORT,
    DATA_PORT,
    HOST_AGENT,
    HOST_DGX,
    ElectrochemistryICE,
    ICEConfig,
)
from repro.rpc.naming import make_uri
from repro.rpc.proxy import Proxy

#: what the control daemon serves, sorted as ``registered_ids()`` lists it
CONTROL_OBJECTS = ["ACL_Leases", "ACL_Observability", "ACL_Workstation"]


class TestBuild:
    def test_uris_have_paper_port(self, ice):
        assert f":{CONTROL_PORT}" in ice.control_uri
        assert "ACL_Workstation" in ice.control_uri
        assert f":{DATA_PORT}" in ice.share_uri

    def test_topology_shape(self, ice):
        topology = ice.topology
        assert topology.host(HOST_AGENT).platform == "windows"
        assert topology.host("acl-gateway").is_gateway
        hosts = topology.path_hosts(HOST_DGX, HOST_AGENT)
        assert hosts == [HOST_DGX, "acl-gateway", HOST_AGENT]

    def test_separate_channels_have_distinct_networks(self, ice):
        assert ice.control_networks != ice.data_networks
        assert ice.data_networks == {"acl-hub-data", "ornl-wan-data"}

    def test_shared_channel_mode(self):
        ecosystem = ElectrochemistryICE.build(ICEConfig(channel_mode="shared"))
        try:
            assert ecosystem.control_networks == ecosystem.data_networks
        finally:
            ecosystem.shutdown()

    def test_bad_transport_rejected(self):
        with pytest.raises(NetworkError):
            ICEConfig(transport="carrier-pigeon")


class TestControlChannel:
    def test_ping_and_commands(self, ice):
        client = ice.client()
        client.ping()
        assert client.call_Set_Rate_SyringePump(1, 5.0) == "OK"
        assert "Initialize_SP200_API" in client.available_commands()
        client.close()

    def test_firewall_blocks_unopened_port(self, ice):
        # dialing the control port is allowed; any other port is not
        with pytest.raises(FirewallDeniedError):
            ice.simnet.connect(HOST_DGX, HOST_AGENT, 12345)

    def test_cell_status_roundtrip(self, ice):
        client = ice.client()
        status = client.call_Cell_Status()
        assert status["volume_ml"] == 0.0
        assert status["circuit_closed"] is True
        client.close()


class TestControlDaemonObjects:
    def test_build_and_restart_serve_the_same_objects(self, ice):
        assert ice.control_daemon.registered_ids() == CONTROL_OBJECTS
        ice.crash_control_daemon()
        ice.restart_control_daemon()
        assert ice.control_daemon.registered_ids() == CONTROL_OBJECTS

    @pytest.mark.parametrize(
        "config",
        [
            ICEConfig(),
            ICEConfig(transport="tcp"),
            ICEConfig(transport="tcp", control_secret=b"lab-secret"),
        ],
        ids=["sim", "tcp", "tcp-secret"],
    )
    def test_obs_client_answers_every_daemon_half_verb(self, config):
        ecosystem = ElectrochemistryICE.build(config)
        try:
            with ecosystem.obs_client() as proxy:
                assert proxy.Recorder_Note("from the dgx") is True
                dump = proxy.Recorder_Dump()
                poll = proxy.Telemetry_Poll(cursor=0)
                scrape = proxy.Obs_Scrape(cursor=0)
        finally:
            ecosystem.shutdown()
        assert dump["schema"] == "repro-flightrec-1"
        assert [note["message"] for note in dump["notes"]] == ["from the dgx"]
        assert poll["schema"] == "repro-stream-1" and poll["gap"] == 0
        assert scrape["schema"] == "repro-tsdb-1" and scrape["gap"] == 0
        assert {dump["service"], poll["service"], scrape["service"]} == {
            "acl-daemon"
        }

    @pytest.mark.parametrize("retired", ["ACL_FlightRecorder", "ACL_Telemetry"])
    def test_retired_object_ids_raise_naming_error(self, ice_tcp, retired):
        host, port = ice_tcp.control_daemon.address
        proxy = Proxy(make_uri(retired, host, port), timeout=10.0)
        try:
            with pytest.raises(NamingError):
                proxy.Recorder_Dump()
        finally:
            proxy.close()


class TestDataChannel:
    def test_measurement_file_flows_across(self, ice, tmp_path):
        client = ice.client()
        client.call_Set_Vial_FractionCollector(1, "BOTTOM")
        client.call_Set_Port_SyringePump(1, 1)
        client.call_Withdraw_SyringePump(1, 5.0)
        client.call_Set_Port_SyringePump(1, 8)
        client.call_Dispense_SyringePump(1, 5.0)
        client.call_Initialize_SP200_API({"channel": 1})
        client.call_Connect_SP200()
        client.call_Load_Firmware_SP200()
        client.call_Initialize_CV_Tech_SP200({"e_step_v": 0.002})
        client.call_Load_Technique_SP200()
        client.call_Start_Channel_SP200()
        result = client.call_Get_Tech_Path_Rslt()
        mount = ice.mount(cache_dir=tmp_path / "cache")
        trace = mount.read_voltammogram(result["file"])
        assert len(trace) == result["n_samples"]
        assert np.abs(trace.current_a).max() > 1e-5
        mount.unmount()
        client.close()

    def test_mount_listing(self, ice):
        mount = ice.mount()
        assert mount.info()["share_name"] == "acl-measurements"
        assert mount.listdir() == []
        mount.unmount()


class TestNameServer:
    def test_lookup(self, ice):
        assert ice.lookup("acl.workstation") == ice.control_uri
        assert ice.lookup("acl.share") == ice.share_uri

    def test_built_without_ns(self):
        ecosystem = ElectrochemistryICE.build(ICEConfig(with_name_server=False))
        try:
            with pytest.raises(NetworkError):
                ecosystem.lookup("acl.workstation")
        finally:
            ecosystem.shutdown()


class TestTCPTransport:
    def test_same_workflow_over_loopback(self, ice_tcp):
        client = ice_tcp.client()
        client.ping()
        assert client.call_Set_Rate_SyringePump(1, 5.0) == "OK"
        mount = ice_tcp.mount()
        assert mount.listdir() == []
        mount.unmount()
        client.close()


class TestLifecycle:
    def test_context_manager(self):
        with ElectrochemistryICE.build() as ecosystem:
            ecosystem.client().ping()

    def test_shutdown_idempotent_temp_cleanup(self):
        ecosystem = ElectrochemistryICE.build()
        measurement_dir = ecosystem.measurement_dir
        assert measurement_dir.exists()
        ecosystem.shutdown()
        assert not measurement_dir.exists()
