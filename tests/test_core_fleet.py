"""Campaign retry-with-refill and :class:`FleetCampaign` (ISSUE 3).

The Campaign docstring always promised that with ``abort_on_abnormal=
False`` an abnormal round is "retried once with a refilled cell"; these
tests pin the now-implemented behaviour on both branches, plus the
fleet layer: concurrent per-cell campaigns with failure isolation,
safe-state teardown, and merged provenance.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    Campaign,
    CVWorkflowSettings,
    FleetCampaign,
    scan_rate_strategy,
)
from repro.errors import WorkflowError
from repro.facility.ice import ElectrochemistryICE
from repro.ml.normality import NormalityReport
from repro.obs import MetricsRegistry, Tracer

FAST = CVWorkflowSettings(e_step_v=0.002)


def _report(normal: bool) -> NormalityReport:
    return NormalityReport(
        label="normal" if normal else "abnormal",
        normal=normal,
        confidence=0.9,
        probabilities={"normal": 0.9 if normal else 0.1},
    )


class FlipFlopClassifier:
    """Abnormal on the first sight of each measurement, normal on retry."""

    def __init__(self):
        self.calls = 0

    def classify(self, trace) -> NormalityReport:
        self.calls += 1
        return _report(self.calls % 2 == 0)


class AlwaysAbnormal:
    def classify(self, trace) -> NormalityReport:
        return _report(False)


class TestCampaignRetryWithRefill:
    def test_abnormal_round_retried_once_with_refill(self, ice):
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.05, 0.1), base=FAST),
            classifier=FlipFlopClassifier(),
            abort_on_abnormal=False,
            max_rounds=8,
        )
        rounds = campaign.run()
        # each sweep point: abnormal attempt + normal retry
        assert len(rounds) == 4
        assert [r.retry_of for r in rounds] == [None, 0, None, 2]
        retry = rounds[1]
        assert retry.settings.fill_volume_ml == FAST.fill_volume_ml
        assert retry.settings.measurement_stem.endswith("_retry")
        assert retry.result.normality.normal
        # second sweep point still skips the initial fill (cell in use)
        assert rounds[2].settings.fill_volume_ml == 0.0
        # effective history hides superseded attempts, so the sweep
        # visited both scan rates exactly once
        effective = campaign.effective_rounds
        assert [r.settings.scan_rate_v_s for r in effective] == [0.05, 0.1]

    def test_abort_branch_stops_without_retry(self, ice):
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.05, 0.1), base=FAST),
            classifier=AlwaysAbnormal(),
            abort_on_abnormal=True,
        )
        rounds = campaign.run()
        assert len(rounds) == 1
        assert rounds[0].retry_of is None
        assert not campaign.all_normal

    def test_retry_still_abnormal_stops_campaign(self, ice):
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.05, 0.1), base=FAST),
            classifier=AlwaysAbnormal(),
            abort_on_abnormal=False,
        )
        rounds = campaign.run()
        assert len(rounds) == 2
        assert rounds[1].retry_of == 0
        assert not rounds[1].result.normality.normal

    def test_retry_respects_max_rounds(self, ice):
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.05, 0.1), base=FAST),
            classifier=AlwaysAbnormal(),
            abort_on_abnormal=False,
            max_rounds=1,
        )
        rounds = campaign.run()
        assert len(rounds) == 1  # no room for the retry

    def test_normal_rounds_never_retry(self, ice):
        campaign = Campaign(
            ice,
            scan_rate_strategy((0.05, 0.1), base=FAST),
            abort_on_abnormal=False,
        )
        rounds = campaign.run()
        assert len(rounds) == 2
        assert all(r.retry_of is None for r in rounds)


def _exploding_strategy(history):
    raise RuntimeError("strategy exploded")


class TestFleetCampaign:
    def test_requires_campaigns(self):
        with pytest.raises(WorkflowError):
            FleetCampaign({})

    def test_cells_run_and_failures_isolate(self, tmp_path):
        tracer = Tracer()
        metrics = MetricsRegistry()
        ices = [ElectrochemistryICE.build() for _ in range(3)]
        try:
            fleet = FleetCampaign(
                {
                    "cell-a": Campaign(
                        ices[0], scan_rate_strategy((0.05,), base=FAST)
                    ),
                    "cell-b": Campaign(
                        ices[1], scan_rate_strategy((0.05, 0.1), base=FAST)
                    ),
                    "cell-broken": Campaign(ices[2], _exploding_strategy),
                },
                tracer=tracer,
                metrics=metrics,
            )
            results = fleet.run()

            # healthy cells completed despite the broken one
            assert results["cell-a"].succeeded
            assert len(results["cell-a"].rounds) == 1
            assert results["cell-b"].succeeded
            assert len(results["cell-b"].rounds) == 2
            # the broken cell is isolated, recorded, and quiesced
            broken = results["cell-broken"]
            assert not broken.succeeded
            assert "strategy exploded" in str(broken.error)
            assert broken.safe_stated
            assert not fleet.succeeded
            assert (
                metrics.counter("fleet.cells_total").value(status="ok") == 2
            )
            assert (
                metrics.counter("fleet.cells_total").value(status="error") == 1
            )

            # spans: three fleet.cell children under one fleet.run root
            roots = tracer.find("fleet.run")
            cells = tracer.find("fleet.cell")
            assert len(roots) == 1 and len(cells) == 3
            assert {span.parent_id for span in cells} == {
                roots[0].context.span_id
            }

            # merged provenance covers every cell and serialises cleanly
            doc = fleet.merged_provenance()
            assert doc["schema"] == "repro-fleet-provenance-1"
            assert set(doc["cells"]) == {"cell-a", "cell-b", "cell-broken"}
            assert doc["succeeded"] is False
            assert doc["cells"]["cell-broken"]["error"]
            assert doc["cells"]["cell-broken"]["safe_stated"] is True
            round_record = doc["cells"]["cell-a"]["rounds"][0]
            assert round_record["succeeded"] is True
            assert round_record["artifacts"], "measurement file hashed"
            path = fleet.write_merged_provenance(tmp_path)
            assert json.loads(path.read_text())["schema"] == doc["schema"]
        finally:
            for ecosystem in ices:
                ecosystem.shutdown()

    def test_single_cell_fleet(self, ice):
        fleet = FleetCampaign(
            {"solo": Campaign(ice, scan_rate_strategy((0.05,), base=FAST))}
        )
        results = fleet.run()
        assert fleet.succeeded
        assert results["solo"].succeeded
        assert len(results["solo"].rounds) == 1
