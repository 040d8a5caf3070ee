"""Cross-facility scraping: the ``ACL_Observability`` service object and
the tenant-keyed aggregator behind ``repro-ice top``.

One :class:`ObservabilityServer` sits on each facility's control daemon
and serves that daemon half's whole observability state: its flight
recorder (``Recorder_Dump``, ``Recorder_Note``), its live telemetry bus
(``Telemetry_Poll``) and its :class:`TimeSeriesStore` rollup rows
(``Obs_Scrape`` — the same cursor/gap polling contract as
``Telemetry_Poll``, PROTOCOLS.md §1.9). An :class:`ObsAggregator` holds
one cursor per source (in-process stores and remote daemons mix
freely), pulls whatever is new on each :meth:`ObsAggregator.refresh`,
and folds the rows into a single tenant-keyed view: per-tenant rates,
error rates, queue depth and which facilities contributed. The
``repro-ice top`` subcommand and ``Session.top()`` render that view —
optionally joined with live SLO burn rates — via :func:`format_top`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from repro.rpc.expose import expose
from repro.obs.recorder import FlightRecorder
from repro.obs.stream import SCHEMA as STREAM_SCHEMA, TelemetryBus
from repro.obs.timeseries import SCHEMA, TimeSeriesStore

#: Schema tag of the merged aggregator view.
VIEW_SCHEMA = "repro-obsview-1"

#: Tenant key used for rows carrying no tenant label (untagged traffic).
UNTAGGED = "-"


@expose
class ObservabilityServer:
    """Control-channel face of one daemon half's observability.

    Registered on the control daemon (object id ``"ACL_Observability"``)
    next to the workstation and lease servers, so a client holding the
    control URI can pull the daemon half of the black box, tail its live
    feed and scrape its rollups — even when the run itself just failed.
    The two polls are cursor-based, because the control channel is
    request/reply: the caller sends the highest sequence it has seen and
    receives only newer items plus a ``gap`` count when its cursor fell
    off the retention ring.
    """

    OBJECT_ID = "ACL_Observability"

    def __init__(
        self, recorder: FlightRecorder, bus: TelemetryBus, store: TimeSeriesStore
    ):
        self._recorder = recorder
        self._bus = bus
        self._store = store

    def Recorder_Dump(self) -> dict[str, Any]:
        """Return the daemon half's snapshot for client-side merging."""
        return self._recorder.snapshot()

    def Recorder_Note(self, message: str) -> bool:
        """Let the client annotate the daemon-side recording."""
        self._recorder.note(str(message), origin="remote")
        return True

    def Telemetry_Poll(
        self, cursor: int = 0, max_events: int = 256
    ) -> dict[str, Any]:
        """Events newer than ``cursor``, the next cursor, and any gap."""
        events, next_cursor, gap = self._bus.read_since(
            int(cursor), int(max_events)
        )
        return {
            "schema": STREAM_SCHEMA,
            "service": self._bus.service,
            "cursor": next_cursor,
            "gap": gap,
            "events": [e.to_wire() for e in events],
        }

    def Obs_Scrape(
        self,
        cursor: int = 0,
        selectors: dict[str, Any] | None = None,
        max_rows: int = 512,
    ) -> dict[str, Any]:
        """Rollup rows newer than ``cursor``, the next cursor, any gap."""
        rows, next_cursor, gap = self._store.scrape(
            int(cursor), selectors, int(max_rows)
        )
        return {
            "schema": SCHEMA,
            "service": self._bus.service,
            "cursor": next_cursor,
            "gap": gap,
            "rows": rows,
        }


class _Source:
    __slots__ = ("fetch", "cursor", "gap", "failures")

    def __init__(self, fetch: Callable[[int, dict | None, int], dict[str, Any]]):
        self.fetch = fetch
        self.cursor = 0
        self.gap = 0
        self.failures = 0


class ObsAggregator:
    """Merges scrapes from N facilities into one tenant-keyed view.

    Sources are named; each keeps its own cursor so facilities can be
    polled at different cadences and a flapping link only costs that
    source a ``gap``, never a stall of the others. Rows are retained in
    a bounded ring — the view is a sliding recent-history summary, not
    an archive.
    """

    def __init__(self, retain_rows: int = 8192):
        self._lock = threading.Lock()
        self._sources: dict[str, _Source] = {}
        self._rows: deque[dict[str, Any]] = deque(maxlen=retain_rows)

    def add_store(self, name: str, store: TimeSeriesStore) -> None:
        """Scrape an in-process store (the local half of an ICE)."""

        def fetch(cursor: int, selectors: dict | None, max_rows: int) -> dict:
            rows, next_cursor, gap = store.scrape(cursor, selectors, max_rows)
            return {"rows": rows, "cursor": next_cursor, "gap": gap}

        with self._lock:
            self._sources[name] = _Source(fetch)

    def add_remote(self, name: str, client: Any) -> None:
        """Scrape a remote daemon via its ``ACL_Observability`` proxy."""

        def fetch(cursor: int, selectors: dict | None, max_rows: int) -> dict:
            return client.Obs_Scrape(
                cursor=cursor, selectors=selectors, max_rows=max_rows
            )

        with self._lock:
            self._sources[name] = _Source(fetch)

    def sources(self) -> list[str]:
        with self._lock:
            return sorted(self._sources)

    def refresh(
        self,
        selectors: dict[str, Any] | None = None,
        max_rows: int = 512,
    ) -> int:
        """Pull new rows from every source; returns how many arrived.

        A source that raises is skipped (its ``failures`` count grows)
        and retried on the next refresh — one dead facility must never
        hide the others.
        """
        with self._lock:
            sources = list(self._sources.items())
        pulled = 0
        for name, source in sources:
            try:
                reply = source.fetch(source.cursor, selectors, max_rows)
            except Exception:  # noqa: BLE001 - a dead facility is data, not a crash
                source.failures += 1
                continue
            rows = reply.get("rows", [])
            source.cursor = int(reply.get("cursor", source.cursor))
            source.gap += int(reply.get("gap", 0))
            with self._lock:
                for row in rows:
                    row = dict(row)
                    row["facility"] = name
                    self._rows.append(row)
            pulled += len(rows)
        return pulled

    def view(self) -> dict[str, Any]:
        """Tenant-keyed summary of the retained rows.

        ``tenants[tenant][metric]`` carries ``sum``, ``count``,
        ``error_sum`` (rows labelled ``status=error`` or
        ``state=failed``), ``rate_per_s``/``error_rate_per_s`` over the
        rows' covered time span, the latest sample, and the set of
        facilities that contributed.
        """
        with self._lock:
            rows = list(self._rows)
            gaps = {name: s.gap for name, s in self._sources.items()}
            failures = {name: s.failures for name, s in self._sources.items()}
            facilities = sorted(self._sources)
        tenants: dict[str, dict[str, dict[str, Any]]] = {}
        for row in rows:
            labels = row.get("labels", {})
            tenant = labels.get("tenant") or UNTAGGED
            entry = tenants.setdefault(tenant, {}).setdefault(
                row["name"],
                {
                    "sum": 0.0,
                    "count": 0,
                    "error_sum": 0.0,
                    "last": 0.0,
                    "first_start": row["start"],
                    "last_end": row["start"] + row["res"],
                    "facilities": set(),
                },
            )
            entry["sum"] += row["sum"]
            entry["count"] += row["count"]
            if labels.get("status") == "error" or labels.get("state") == "failed":
                entry["error_sum"] += row["sum"]
            entry["last"] = row["last"]
            entry["first_start"] = min(entry["first_start"], row["start"])
            entry["last_end"] = max(entry["last_end"], row["start"] + row["res"])
            entry["facilities"].add(row["facility"])
        for per_metric in tenants.values():
            for entry in per_metric.values():
                span = max(entry["last_end"] - entry["first_start"], 1e-9)
                entry["rate_per_s"] = entry["sum"] / span
                entry["error_rate_per_s"] = entry["error_sum"] / span
                entry["facilities"] = sorted(entry["facilities"])
        return {
            "schema": VIEW_SCHEMA,
            "facilities": facilities,
            "gaps": gaps,
            "failures": failures,
            "tenants": tenants,
        }


def _fmt(value: float) -> str:
    return f"{value:.1f}"


def format_top(
    view: dict[str, Any],
    slo_statuses: list[dict[str, Any]] | None = None,
) -> str:
    """Render an aggregator view (plus SLO statuses) as a console table.

    One row per tenant: RPC call and error rates summed across
    facilities, current gateway queue depth, the worst burn-rate pair
    among that tenant's objectives, and either ``ok`` or the firing
    alert windows. Used by ``repro-ice top`` and ``Session.top()``.
    """
    slo_by_tenant: dict[str, list[dict[str, Any]]] = {}
    for status in slo_statuses or []:
        slo_by_tenant.setdefault(status["tenant"] or UNTAGGED, []).append(status)
    tenants = sorted(set(view["tenants"]) | set(slo_by_tenant))
    header = (
        f"{'TENANT':<14}{'CALLS/S':>9}{'ERR/S':>8}{'QUEUE':>7}"
        f"{'BURN f/s':>12}  SLO"
    )
    lines = [
        "facilities: "
        + (", ".join(view["facilities"]) or "(none)")
        + "".join(
            f"  [{name}: gap={gap}]"
            for name, gap in sorted(view.get("gaps", {}).items())
            if gap
        ),
        header,
        "-" * len(header),
    ]
    for tenant in tenants:
        metrics = view["tenants"].get(tenant, {})
        calls = err = 0.0
        for name, entry in metrics.items():
            if name in ("rpc.client.calls_total", "rpc.daemon.calls_total"):
                calls += entry["rate_per_s"]
                err += entry["error_rate_per_s"]
        queue = metrics.get("gateway.queue_depth", {}).get("last", 0.0)
        statuses = slo_by_tenant.get(tenant, [])
        burn_fast = max((s["burn_fast"] for s in statuses), default=0.0)
        burn_slow = max((s["burn_slow"] for s in statuses), default=0.0)
        alerting = [s for s in statuses if s["alerts"]]
        if alerting:
            windows = sorted({w for s in alerting for w in s["alerts"]})
            names = ",".join(sorted({s["objective"] for s in alerting}))
            slo_cell = f"ALERT[{'+'.join(windows)}] {names}"
        else:
            slo_cell = "ok"
        lines.append(
            f"{tenant:<14}{_fmt(calls):>9}{_fmt(err):>8}{queue:>7.0f}"
            f"{_fmt(burn_fast) + 'x/' + _fmt(burn_slow) + 'x':>12}  {slo_cell}"
        )
    if len(tenants) == 0:
        lines.append("(no tenant-attributed rows yet)")
    return "\n".join(lines)
