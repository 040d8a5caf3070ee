"""Adaptive campaigns and the notebook-style session."""

import numpy as np
import pytest

from repro.analysis import characterize, estimate_diffusion_coefficient
from repro.chemistry.species import FERROCENE
from repro.core.campaign import (
    Campaign,
    scan_rate_strategy,
    window_centering_strategy,
)
from repro.core.cv_workflow import CVWorkflowSettings
from repro.errors import WorkflowError

import repro


FAST = CVWorkflowSettings(e_step_v=0.002)


class TestScanRateCampaign:
    def test_sweeps_all_rates(self, ice):
        rates = (0.05, 0.1, 0.2)
        campaign = Campaign(ice, scan_rate_strategy(rates, base=FAST))
        rounds = campaign.run()
        assert len(rounds) == 3
        assert all(r.result.succeeded for r in rounds)
        assert [r.settings.scan_rate_v_s for r in rounds] == list(rates)

    def test_only_first_round_fills(self, ice):
        campaign = Campaign(ice, scan_rate_strategy((0.05, 0.1), base=FAST))
        rounds = campaign.run()
        assert rounds[0].settings.fill_volume_ml > 0
        assert rounds[1].settings.fill_volume_ml == 0.0

    def test_randles_sevcik_from_campaign(self, ice):
        rates = (0.05, 0.1, 0.2, 0.4)
        campaign = Campaign(ice, scan_rate_strategy(rates, base=FAST))
        rounds = campaign.run()
        peaks = np.array([r.result.metrics.anodic_peak_a for r in rounds])
        diffusion, r_squared = estimate_diffusion_coefficient(
            np.array(rates), peaks, 1, 0.0707, 2e-6
        )
        # the simulated bench has Ru and noise; 20% on D is the right bar
        assert diffusion == pytest.approx(FERROCENE.diffusion_cm2_s, rel=0.2)
        assert r_squared > 0.99

    def test_max_rounds_bound(self, ice):
        campaign = Campaign(
            ice, scan_rate_strategy((0.05,) * 10, base=FAST), max_rounds=2
        )
        assert len(campaign.run()) == 2

    def test_bad_max_rounds(self, ice):
        campaign = Campaign(ice, scan_rate_strategy((0.1,)), max_rounds=0)
        with pytest.raises(WorkflowError):
            campaign.run()


class TestWindowCenteringCampaign:
    def test_converges_onto_e_half(self, ice):
        # start with a badly off-centre window
        base = CVWorkflowSettings(
            e_begin_v=0.25, e_vertex_v=0.95, e_step_v=0.002
        )
        campaign = Campaign(
            ice, window_centering_strategy(base=base, half_window_v=0.25)
        )
        rounds = campaign.run()
        assert 2 <= len(rounds) <= 5
        last = rounds[-1]
        centre = 0.5 * (last.settings.e_begin_v + last.settings.e_vertex_v)
        assert centre == pytest.approx(0.40, abs=0.03)

    def test_campaign_stops_on_abnormal(self, ice, trained_classifier):
        ice.workstation.cell.set_electrode_connected("working", False)
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.05, 0.1, 0.2), base=FAST),
            classifier=trained_classifier,
            abort_on_abnormal=True,
        )
        rounds = campaign.run()
        assert len(rounds) == 1  # stopped after the first abnormal verdict
        assert not campaign.all_normal


class TestSessionNotebookFlow:
    def test_notebook_flow(self, ice):
        with repro.connect(ice) as session:
            status = session.fill_cell(5.0, purge_sccm=25.0)
            assert status["volume_ml"] == pytest.approx(5.0)
            assert status["purge_sccm"] == 25.0
            trace = session.run_cv(e_step_v=0.002)
            metrics = characterize(trace)
            assert metrics.e_half_v == pytest.approx(0.40, abs=0.01)

    def test_session_normality_with_injected_classifier(
        self, ice, trained_classifier
    ):
        with repro.connect(ice, classifier=trained_classifier) as session:
            session.fill_cell(5.0)
            trace = session.run_cv(e_step_v=0.002)
            report = session.check_normality(trace)
            assert report.normal

    def test_multiple_runs_reuse_sp200_session(self, ice):
        with repro.connect(ice) as session:
            session.fill_cell(5.0)
            first = session.run_cv(e_step_v=0.002, save_as="one")
            second = session.run_cv(e_step_v=0.002, scan_rate_v_s=0.2, save_as="two")
            assert first.metadata["scan_rate_v_s"] == 0.1
            assert second.metadata["scan_rate_v_s"] == 0.2

    def test_cell_status_passthrough(self, ice):
        with repro.connect(ice) as session:
            assert session.client.call_Cell_Status()["volume_ml"] == 0.0


class TestKineticsTargetingCampaign:
    def _install_sluggish_analyte(self, ice, k0=0.02):
        from repro.chemistry.species import (
            ACETONITRILE,
            RedoxSpecies,
            Solution,
            TBA_TRIFLATE,
        )

        slow = RedoxSpecies(
            name="sluggish",
            formal_potential_v=0.40,
            diffusion_cm2_s=1e-5,
            k0_cm_s=k0,
        )
        ice.workstation.stock.solution = Solution(
            solvent=ACETONITRILE,
            species={slow: 2e-6},
            supporting_electrolyte=TBA_TRIFLATE,
            label="2 mM sluggish / MeCN",
        )
        return slow

    def test_converges_into_informative_window(self, ice):
        from repro.core.campaign import kinetics_targeting_strategy

        self._install_sluggish_analyte(ice)
        base = CVWorkflowSettings(
            e_begin_v=0.0, e_vertex_v=0.8, scan_rate_v_s=0.05, e_step_v=0.002
        )
        campaign = Campaign(ice, kinetics_targeting_strategy(base=base))
        rounds = campaign.run()
        final = rounds[-1].result.metrics
        assert final is not None
        assert 0.080 <= final.peak_separation_v <= 0.160
        # scan rate was actively raised: steering happened
        assert rounds[-1].settings.scan_rate_v_s > base.scan_rate_v_s

    def test_k0_recoverable_from_converged_round(self, ice):
        from repro.analysis import estimate_k0_from_trace
        from repro.core.campaign import kinetics_targeting_strategy

        self._install_sluggish_analyte(ice, k0=0.01)
        base = CVWorkflowSettings(
            e_begin_v=0.0, e_vertex_v=0.8, scan_rate_v_s=0.05, e_step_v=0.002
        )
        rounds = Campaign(ice, kinetics_targeting_strategy(base=base)).run()
        trace = rounds[-1].result.voltammogram
        estimate = estimate_k0_from_trace(trace, diffusion_cm2_s=1e-5)
        assert estimate.k0_cm_s == pytest.approx(0.01, rel=0.35)

    def test_fast_couple_stops_at_rate_bound(self, ice):
        from repro.core.campaign import kinetics_targeting_strategy

        # default ferrocene stock: k0 = 1 cm/s is unreachable within the
        # rate bounds, so the strategy must give up at the upper bound
        base = CVWorkflowSettings(e_step_v=0.002)
        strategy = kinetics_targeting_strategy(
            base=base, rate_bounds_v_s=(0.01, 0.4), max_rounds=8
        )
        rounds = Campaign(ice, strategy).run()
        assert rounds[-1].settings.scan_rate_v_s <= 0.4
        assert len(rounds) <= 8


class TestSessionExtendedTechniques:
    def test_run_lsv(self, ice):
        with repro.connect(ice) as session:
            session.fill_cell(5.0)
            trace = session.run_lsv(e_step_v=0.002)
            assert trace.metadata["technique"] == "LSV"
            _, peak = trace.peak_anodic()
            assert peak > 1e-5

    def test_run_dpv(self, ice):
        import numpy as np

        with repro.connect(ice) as session:
            session.fill_cell(5.0)
            trace = session.run_dpv()
            assert trace.metadata["technique"] == "DPV"
            index = int(np.argmax(trace.current_a))
            assert trace.potential_v[index] == pytest.approx(0.375, abs=0.02)

    def test_mixed_technique_sequence(self, ice):
        with repro.connect(ice) as session:
            session.fill_cell(5.0)
            cv = session.run_cv(e_step_v=0.002)
            lsv = session.run_lsv(e_step_v=0.002)
            dpv = session.run_dpv()
            assert {t.metadata["technique"] for t in (cv, lsv, dpv)} == {
                "CV",
                "LSV",
                "DPV",
            }


class TestSessionCharacterization:
    def test_fraction_to_chromatogram(self, ice):
        with repro.connect(ice) as session:
            session.fill_cell(6.0)
            # electrolyze briefly so the fraction contains product
            session._ensure_sp200(1)
            session.client.call_Initialize_CA_Tech_SP200(
                {"e_step_to_v": 0.8, "duration": 60.0, "dt_s": 0.05}
            )
            session.client.call_Load_Technique_SP200()
            session.client.call_Start_Channel_SP200()
            session.client.call_Get_Tech_Path_Rslt()
            reply = session.collect_fraction(volume_ml=1.0)
            assert reply.startswith("OK fraction-")
            chromatogram = session.analyze_fraction()
            assert chromatogram.peak_for("ferrocene") is not None
            assert chromatogram.peak_for("ferrocenium") is not None

    def test_robot_state_visible(self, ice):
        with repro.connect(ice) as session:
            status = session.characterization.call_Robot_Status()
            assert status["location"] == "electrochemistry"
