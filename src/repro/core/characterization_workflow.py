"""The extended multi-instrument workflow (paper §5, future work).

"More comprehensive electrochemical workflows are planned that involve
most of ACL instruments" — this module runs one: electrochemically
convert part of the analyte, collect a liquid fraction from the cell,
have the mobile robot carry it to the HPLC-MS, and verify the oxidation
product in the chromatogram. Task names continue the paper's lettering:

    (A) establish communications (both control agents + data mount);
    (B) configure/connect J-Kem;
    (C) fill the electrochemical cell;
    (D) run the electrolysis technique (CA at an oxidising potential);
    (F) collect a fraction into a fresh vial;
    (G) robot-transfer the vial to the HPLC and inject;
    (H) verify the product peak and quantify the conversion;
    (E) tear everything down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import WorkflowError
from repro.instruments.characterization.chromatogram import Chromatogram
from repro.facility.characterization import STATION_ELECTROCHEM, STATION_HPLC
from repro.facility.ice import ElectrochemistryICE
from repro.facility.workstation import PORT_CELL, PORT_COLLECTOR
from repro.core.workflow import Context, Workflow, WorkflowResult


@dataclass(frozen=True)
class CharacterizationSettings:
    """Knobs of the electrolysis + characterization run."""

    fill_volume_ml: float = 6.0
    pump_rate_ml_min: float = 10.0
    stock_vial: str = "BOTTOM"
    fraction_vial_position: str = "TOP"
    fraction_volume_ml: float = 1.0
    electrolysis_potential_v: float = 0.8
    electrolysis_duration_s: float = 120.0
    electrolysis_dt_s: float = 0.05
    injection_volume_ml: float = 0.5
    channel: int = 1


@dataclass
class CharacterizationResult:
    """What the extended workflow returns."""

    workflow: WorkflowResult
    chromatogram: Chromatogram | None = None
    conversion_ratio: float | None = None  # product / reactant

    @property
    def succeeded(self) -> bool:
        return self.workflow.succeeded

    def summary(self) -> str:
        if not self.succeeded:
            failed = ", ".join(t.name for t in self.workflow.failed_tasks())
            return f"characterization workflow FAILED at: {failed}"
        peaks = (
            [p.compound or "?" for p in self.chromatogram.peaks]
            if self.chromatogram
            else []
        )
        ratio = (
            f"{self.conversion_ratio:.2e}"
            if self.conversion_ratio is not None
            else "n/a"
        )
        return (
            f"fraction analysed; peaks: {peaks}; "
            f"ferrocenium/ferrocene = {ratio}"
        )


def build_characterization_workflow(
    ice: ElectrochemistryICE,
    settings: CharacterizationSettings | None = None,
) -> Workflow:
    """Assemble the extended workflow against a running ICE."""
    settings = settings or CharacterizationSettings()
    flow = Workflow("characterization-workflow", event_log=ice.event_log)

    @flow.task("A_establish_communications", retries=1)
    def task_a(ctx: Context) -> str:
        ctx.client = ice.client()
        ctx.client.ping()
        ctx.characterization = ice.characterization_client()
        ctx.characterization.ping()
        ctx.mount = ice.mount()
        return "workstation + characterization agents reachable"

    @flow.task("B_configure_jkem", depends=("A_establish_communications",))
    def task_b(ctx: Context) -> str:
        ctx.client.call_Connect_JKem_API()
        ctx.client.call_Set_Rate_SyringePump(1, settings.pump_rate_ml_min)
        return "J-Kem ready"

    @flow.task("C_fill_cell", depends=("B_configure_jkem",))
    def task_c(ctx: Context) -> dict[str, Any]:
        client = ctx.client
        client.call_Set_Vial_FractionCollector(1, settings.stock_vial)
        client.call_Set_Port_SyringePump(1, PORT_COLLECTOR)
        client.call_Withdraw_SyringePump(1, settings.fill_volume_ml)
        client.call_Set_Port_SyringePump(1, PORT_CELL)
        client.call_Dispense_SyringePump(1, settings.fill_volume_ml)
        return client.call_Cell_Status()

    @flow.task("D_electrolyze", depends=("C_fill_cell",))
    def task_d(ctx: Context) -> dict[str, Any]:
        client = ctx.client
        client.call_Initialize_SP200_API({"channel": settings.channel})
        client.call_Connect_SP200()
        client.call_Load_Firmware_SP200()
        client.call_Initialize_CA_Tech_SP200(
            {
                "e_step_to_v": settings.electrolysis_potential_v,
                "duration": settings.electrolysis_duration_s,
                "dt_s": settings.electrolysis_dt_s,
            }
        )
        client.call_Load_Technique_SP200()
        client.call_Start_Channel_SP200()
        return client.call_Get_Tech_Path_Rslt(save_as="electrolysis")

    @flow.task("F_collect_fraction", depends=("D_electrolyze",))
    def task_f(ctx: Context) -> str:
        client = ctx.client
        position = settings.fraction_vial_position
        vial_reply = ctx.characterization.call_Load_Fraction_Vial(position)
        client.call_Set_Vial_FractionCollector(1, position)
        client.call_Set_Port_SyringePump(1, PORT_CELL)
        client.call_Withdraw_SyringePump(1, settings.fraction_volume_ml)
        client.call_Set_Port_SyringePump(1, PORT_COLLECTOR)
        client.call_Dispense_SyringePump(1, settings.fraction_volume_ml)
        return vial_reply

    @flow.task("G_transfer_and_inject", depends=("F_collect_fraction",))
    def task_g(ctx: Context) -> dict[str, Any]:
        characterization = ctx.characterization
        characterization.call_Handoff_Fraction_To_Robot(
            settings.fraction_vial_position
        )
        characterization.call_Robot_Transfer(STATION_ELECTROCHEM, STATION_HPLC)
        payload = characterization.call_Inject_HPLC(settings.injection_volume_ml)
        ctx.chromatogram = Chromatogram.from_dict(payload)
        return {"peaks": [p.compound for p in ctx.chromatogram.peaks]}

    @flow.task("H_verify_product", depends=("G_transfer_and_inject",))
    def task_h(ctx: Context) -> dict[str, Any]:
        chromatogram: Chromatogram = ctx.chromatogram
        if chromatogram.peak_for("ferrocene") is None:
            raise WorkflowError("analyte missing from the fraction")
        if chromatogram.peak_for("ferrocenium") is None:
            raise WorkflowError(
                "no oxidation product detected; electrolysis ineffective?"
            )
        ctx.conversion_ratio = chromatogram.amount_ratio(
            "ferrocenium", "ferrocene"
        )
        return {"conversion_ratio": ctx.conversion_ratio}

    @flow.task("E_shutdown", depends=("H_verify_product",))
    def task_e(ctx: Context) -> str:
        ctx.client.call_Exit_JKem_API()
        ctx.client.call_Disconnect_SP200()
        ctx.mount.unmount()
        ctx.client.close()
        ctx.characterization.close()
        return "all agents disconnected"

    return flow


def run_characterization_workflow(
    ice: ElectrochemistryICE,
    settings: CharacterizationSettings | None = None,
) -> CharacterizationResult:
    """Build, run, package."""
    flow = build_characterization_workflow(ice, settings=settings)
    outcome = flow.run()
    ctx = outcome.context
    return CharacterizationResult(
        workflow=outcome,
        chromatogram=ctx.get("chromatogram"),
        conversion_ratio=ctx.get("conversion_ratio"),
    )
