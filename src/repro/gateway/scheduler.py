"""Weighted fair-share scheduling across tenants and instrument cells.

Two questions per placement, answered separately:

**Who runs next?** Stride scheduling over the tenants that currently
have queued work: each tenant carries a virtual-time ``pass`` value and
every placement advances it by ``1 / weight``. Picking the smallest
pass gives each tenant throughput proportional to its weight and a hard
starvation bound — between two services of tenant *t* with queued work,
each other tenant *u* fits at most ``ceil(w_u / w_t)`` placements into
*t*'s stride interval, no matter how deep *u*'s backlog is (passes
advance in exact rational arithmetic, so the bound holds at ties
too). A tenant that goes idle has its pass
re-based on return so banked idle time cannot be weaponised into a
burst that starves everyone else.

**Where does it run?** Cells are consulted in least-recently-used
order, and a cell whose health verdict is anything but healthy is
skipped entirely (counted in ``gateway.scheduler_skips_total``) — the
gateway never places work on a degraded cell; it waits for recovery
instead. Cells already busy are passed over the same way, so a single
slow job cannot head-of-line block the other cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from repro.errors import GatewayError
from repro.gateway.jobs import Job
from repro.obs.health import HEALTHY


@dataclass
class Cell:
    """One schedulable instrument cell.

    Attributes:
        name: stable cell id (doubles as the metric label).
        ice: the cell's :class:`~repro.facility.ice.ElectrochemistryICE`
            — optional, because benchmark/unit harnesses schedule onto
            synthetic cells with an injected runner.
        health: zero-arg callable returning the cell's current verdict
            (``healthy`` / ``degraded`` / ``unhealthy``). Defaults to a
            :class:`~repro.obs.health.HealthEngine` over the ICE's
            metrics registry when one is attached, else always-healthy.
            That engine attaches its own rollup store to the registry at
            the cell's first verdict; :meth:`close` detaches it.
        busy: a job is currently placed here.
    """

    name: str
    ice: Any = None
    health: Callable[[], str] | None = None
    busy: bool = False
    _engine: Any = field(default=None, repr=False)

    def verdict(self) -> str:
        if self.health is not None:
            return self.health()
        if self.ice is not None and self.ice.metrics is not None:
            if self._engine is None:
                from repro.obs.health import HealthEngine

                self._engine = HealthEngine(self.ice.metrics)
            return self._engine.evaluate().status
        return HEALTHY

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None


@dataclass
class _TenantLane:
    # passes advance in exact arithmetic: accumulating float 1/weight
    # drifts (three thirds != one) and an off-by-ulp comparison breaks
    # the documented starvation bound at exactly the tie that matters
    weight: float
    pass_value: Fraction = Fraction(0)


class FairShareScheduler:
    """Stride scheduler with health-gated cell placement.

    Not thread-safe on its own; the gateway serialises calls under its
    scheduler lock.
    """

    def __init__(self, cells: list[Cell], metrics: Any = None):
        if not cells:
            raise GatewayError("scheduler needs at least one cell")
        names = [c.name for c in cells]
        if len(set(names)) != len(names):
            raise GatewayError(f"duplicate cell names: {names}")
        self.cells = list(cells)
        self.metrics = metrics
        self._lanes: dict[str, _TenantLane] = {}
        self._global_pass = Fraction(0)
        # LRU order for cell probing: rotate so one cell's position in
        # the list never makes it the permanent first choice
        self._probe_order = itertools.cycle(range(len(cells)))

    def _lane(self, tenant: str, weight: float) -> _TenantLane:
        lane = self._lanes.get(tenant)
        if lane is None:
            # joiners (and re-joiners after an idle stretch) start at the
            # current virtual time: no banked credit, no penalty
            lane = _TenantLane(weight=weight, pass_value=self._global_pass)
            self._lanes[tenant] = lane
        lane.weight = weight
        return lane

    def pick_tenant(
        self,
        backlog: dict[str, Job | None],
        weights: dict[str, float],
    ) -> str | None:
        """The tenant whose turn it is, among those with queued work.

        ``backlog`` maps tenant -> its head-of-line job (None entries
        are ignored); ``weights`` supplies fair-share weights.
        """
        eligible = [t for t, job in backlog.items() if job is not None]
        if not eligible:
            return None
        for tenant in eligible:
            self._lane(tenant, weights.get(tenant, 1.0))
        chosen = min(
            eligible,
            key=lambda t: (self._lanes[t].pass_value, t),
        )
        lane = self._lanes[chosen]
        self._global_pass = max(self._global_pass, lane.pass_value)
        lane.pass_value += 1 / Fraction(lane.weight)
        return chosen

    def pick_cell(self) -> Cell | None:
        """A free, healthy cell in LRU probe order — or None.

        Unhealthy/degraded cells are skipped and the skip is counted;
        a busy cell is simply passed over (being occupied is the normal
        case, not a signal).
        """
        for _ in range(len(self.cells)):
            cell = self.cells[next(self._probe_order)]
            if cell.busy:
                continue
            verdict = cell.verdict()
            if verdict != HEALTHY:
                if self.metrics is not None:
                    self.metrics.counter(
                        "gateway.scheduler_skips_total",
                        "placements that skipped an unhealthy cell",
                    ).inc(cell=cell.name, verdict=verdict)
                continue
            return cell
        return None
