#!/usr/bin/env python3
"""Real-time steering: watch an acquisition live and abort on a guard.

The paper's motivation is workflows with "remote experiment steering and
real-time analytics" — not just collecting a file at the end. This
example slows the instruments down (time_scale) so the acquisition takes
visible wall time, then:

1. watches a healthy CV run to completion, printing progress as samples
   stream in (the Fig 6a step-7 "probing measurements" loop);
2. re-runs with a compliance guard that aborts the moment the measured
   current exceeds a limit — the remote computer steering the experiment
   mid-acquisition.

Run:  python examples/live_steering.py
"""

from repro.core.streaming import LiveMonitor, compliance_guard
from repro.facility.ice import ElectrochemistryICE, ICEConfig
from repro.facility.workstation import WorkstationConfig


def start_cv(client) -> None:
    client.call_Initialize_SP200_API({"channel": 1})
    client.call_Connect_SP200()
    client.call_Load_Firmware_SP200()
    client.call_Initialize_CV_Tech_SP200({"e_step_v": 0.002})
    client.call_Load_Technique_SP200()
    client.call_Start_Channel_SP200()


def main() -> None:
    config = ICEConfig(workstation=WorkstationConfig(time_scale=0.08))
    with ElectrochemistryICE.build(config) as ice:
        client = ice.client()
        client.call_Set_Rate_SyringePump(1, 150.0)  # the pump's top rate
        client.call_Set_Vial_FractionCollector(1, "BOTTOM")
        client.call_Set_Port_SyringePump(1, 1)
        client.call_Withdraw_SyringePump(1, 5.0)
        client.call_Set_Port_SyringePump(1, 8)
        client.call_Dispense_SyringePump(1, 5.0)

        print("run 1: watching a healthy acquisition to completion")
        start_cv(client)
        monitor = LiveMonitor(
            client,
            poll_interval_s=0.1,
            on_progress=lambda s: print(
                f"  t={s.elapsed_s:5.2f}s  {s.samples_acquired:4d}/600 samples "
                f"({s.state})"
            ),
        )
        outcome = monitor.watch(timeout_s=60.0)
        print(f"  -> finished={outcome.finished} after {outcome.polls} polls\n")
        client.call_Disconnect_SP200()  # close run 1's instrument session

        print("run 2: compliance guard at 30 uA (the wave peaks near 58 uA)")
        start_cv(client)
        guarded = LiveMonitor(
            client,
            poll_interval_s=0.1,
            fetch_partial_data=True,
            guard=compliance_guard(30e-6),
            on_progress=lambda s: print(
                f"  t={s.elapsed_s:5.2f}s  |I|max="
                f"{(s.partial_max_abs_current or 0.0)*1e6:6.2f} uA"
            ),
        )
        outcome = guarded.watch(timeout_s=60.0)
        print(f"  -> aborted={outcome.aborted} (guard tripped mid-sweep)")
        # let the instrument finish cleanly before teardown
        ice.workstation.potentiostat.channel(1).wait(timeout=60.0)
        client.call_Disconnect_SP200()
        client.close()


if __name__ == "__main__":
    main()
