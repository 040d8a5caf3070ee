"""The three benchmark workloads, driven through the public API.

Each workload is a closed loop with one load thread: :meth:`unit` runs
one unit of work (a CV workflow, a corpus-to-classifier pass, or one
control-plane operation), times it, checks its outputs and returns a
:class:`Unit`. A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro
from repro.facility.ice import HOST_AGENT, HOST_DGX, ElectrochemistryICE, ICEConfig
from repro.facility.workstation import WorkstationConfig
from repro.ml.datasets import DatasetSpec, generate_dataset, train_test_split
from repro.ml.features import extract_features_batch
from repro.ml.normality import NormalityClassifier
from repro.obs import MetricsRegistry, Tracer

from probes import NetClock, metric_write_cost_us, span_cost_us


class CheckFailed(Exception):
    """An output of the program was wrong."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Unit:
    """One timed unit of work."""

    wall_s: float
    cpu_s: float
    #: modelled network delay as charged, and the wall time it took
    net_s: float = 0.0
    slept_s: float = 0.0
    #: units of one kind do the same work; see :func:`typical`
    kind: str = "unit"
    tasks: dict[str, float] = field(default_factory=dict)


def _timed(fn, *args, **kwargs) -> tuple[Any, float, float]:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def _retries(metrics: MetricsRegistry) -> float:
    counter = metrics.get("resilience.retries_total")
    return counter.total() if counter is not None else 0.0


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    #: tracer/metrics whose per-span and per-write cost is reported
    tracer: Any = None
    metrics: Any = None

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built."""

    def unit(self) -> Unit:
        raise NotImplementedError

    def warm_up(self) -> Unit:
        """One checked unit run before timing, so first-call costs stay out."""
        return self.unit()

    def counters(self) -> dict[str, float]:
        """Program-side counters, read between units."""
        return {}

    def final_checks(self, units: list[Unit]) -> list[str]:
        """Checks over a whole run; returns what failed."""
        return []

    def views(self, units: list[Unit]) -> dict[str, float]:
        """This workload's own end-to-end figures, by their ROADMAP names."""
        return {}

    def obs_costs(self) -> tuple[float, float]:
        tracer = self.tracer if self.tracer is not None else Tracer("perfbench")
        metrics = self.metrics if self.metrics is not None else MetricsRegistry()
        return span_cost_us(tracer), metric_write_cost_us(metrics)


def median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def typical(units: list[Unit], field: str) -> float:
    """``field`` of a unit while the machine's neighbours are quiet.

    It is the lower quartile over each kind of unit, averaged over the
    kinds. Other tenants of a shared host only ever add time to a unit,
    in stretches of milliseconds to tens of seconds, so a per-run median
    or mean follows the neighbours. The lower quartile follows the
    program: a change that makes every unit slower moves it by as much.
    Each kind gets its own quartile, so every operation of a mix weighs
    as much as the mix holds it.
    """
    by_kind: dict[str, list[float]] = {}
    for unit in units:
        by_kind.setdefault(unit.kind, []).append(getattr(unit, field))
    if not by_kind:
        return 0.0
    return float(np.mean([_percentile(values, 25) for values in by_kind.values()]))


# ---------------------------------------------------------------------------
# cv_workflow: the paper's tasks A-E plus analyze, as `repro-ice demo` runs it
# ---------------------------------------------------------------------------
#: classifier training corpus built at set-up (traces per class)
CV_CLASSIFIER_PER_CLASS = 4
#: a workflow cannot finish faster than its modelled network delay
#: (~0.24 s), so this many workflows per second bounds the stock used
CV_MAX_WORKFLOWS_PER_S = 10
#: peak windows of the Fig 7 bench (V): anodic, cathodic
FIG7_ANODIC_V = (0.40, 0.47)
FIG7_CATHODIC_V = (0.33, 0.40)
TASKS = (
    "A_establish_communications",
    "B_configure_jkem",
    "C_fill_cell",
    "D_run_cv",
    "E_shutdown",
    "analyze",
)


class CVWorkflow(Workload):
    name = "cv_workflow"

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.settings = repro.CVWorkflowSettings()
        self.stock_ml = self.settings.fill_volume_ml * (
            CV_MAX_WORKFLOWS_PER_S * seconds + 10
        )
        self.ice: ElectrochemistryICE | None = None
        self.session: repro.Session | None = None

    def setup(self) -> None:
        classifier = NormalityClassifier.train_default(
            DatasetSpec(n_per_class=CV_CLASSIFIER_PER_CLASS, seed=self.seed)
        )
        self.clock = NetClock()
        config = ICEConfig(
            workstation=WorkstationConfig(stock_volume_ml=self.stock_ml)
        )
        self.ice = ElectrochemistryICE.build(config, clock=self.clock)
        self.session = repro.connect(self.ice, classifier=classifier)
        self.tracer, self.metrics = self.session.tracer, self.session.metrics
        # every link the control and data channels cross, each once
        topology = self.ice.topology
        self.links = list(
            {
                id(link): link
                for networks in (self.ice.control_networks, self.ice.data_networks)
                for link in topology.route(HOST_DGX, HOST_AGENT, networks)
            }.values()
        )

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.ice is not None:
            self.ice.shutdown()
        self.session = self.ice = None

    def unit(self) -> Unit:
        # every workflow fills a fresh cell: the stock is sized for the run
        self.ice.workstation.cell.drain()
        net0, slept0 = self.clock.net_ns, self.clock.slept_s
        result, wall, cpu = _timed(self.session.run_workflow, settings=self.settings)
        net_s = (self.clock.net_ns - net0) / 1e9
        slept_s = self.clock.slept_s - slept0
        tasks = result.workflow.tasks
        failed = [n for n in TASKS if n not in tasks or tasks[n].state.value != "succeeded"]
        check(not failed, f"tasks did not succeed: {failed}")
        metrics = result.metrics
        check(metrics is not None, "no CV metrics")
        check(abs(metrics.e_half_v - 0.40) <= 0.01, f"E1/2 = {metrics.e_half_v}")
        check(
            FIG7_ANODIC_V[0] < metrics.anodic_peak_v < FIG7_ANODIC_V[1]
            and FIG7_CATHODIC_V[0] < metrics.cathodic_peak_v < FIG7_CATHODIC_V[1],
            f"peaks at {metrics.anodic_peak_v} / {metrics.cathodic_peak_v} V",
        )
        check(
            0.0 < metrics.peak_separation_v < FIG7_ANODIC_V[1] - FIG7_CATHODIC_V[0],
            f"dEp = {metrics.peak_separation_v}",
        )
        check(result.normality is not None, "no normality verdict")
        return Unit(
            wall,
            cpu,
            net_s,
            slept_s,
            tasks={name: tasks[name].duration_s for name in TASKS},
        )

    def counters(self) -> dict[str, float]:
        return {
            "net.frames": sum(link.transmissions for link in self.links),
            "net.bytes": sum(link.bytes_carried for link in self.links),
            "resilience.retries": _retries(self.metrics),
        }

    def final_checks(self, units: list[Unit]) -> list[str]:
        delays = {unit.net_s for unit in units}
        if len(delays) > 1:
            return [f"modelled network delay differs across workflows: {sorted(delays)}"]
        return []

    def views(self, units: list[Unit]) -> dict[str, float]:
        return {
            "workflow_s": median([u.wall_s for u in units]),
            "workflow_code_s": median([u.wall_s - u.slept_s for u in units]),
            "workflow_cpu_s": median([u.cpu_s for u in units]),
        }


# ---------------------------------------------------------------------------
# ml_corpus: empty corpus -> simulated traces -> features -> fit -> verdicts
# ---------------------------------------------------------------------------
#: traces per class in one pass (three classes): ~2 s, so that a run
#: holds about ten passes for :func:`typical` to take a quartile of
ML_PER_CLASS = 4
ML_TEST_FRACTION = 0.3
#: traces per class of the set-up pass: long enough (~2 s) that one
#: set-up is not held by a single short swing in the machine's speed
ML_SETUP_PER_CLASS = 4
#: the ML1 bench's seeded corpus and its held-out accuracy bound
ML1_SPEC = DatasetSpec(n_per_class=30, seed=11)
ML1_ACCURACY = 0.85


class MLCorpus(Workload):
    name = "ml_corpus"

    def __init__(self, seed: int, seconds: float):
        self.rng = np.random.default_rng(seed)

    def _pass(self, spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
        traces, labels = generate_dataset(spec)
        features = extract_features_batch(traces)
        x_train, y_train, x_test, y_test = train_test_split(
            features, labels, ML_TEST_FRACTION, seed=spec.seed
        )
        classifier = NormalityClassifier().fit_features(x_train, y_train)
        return y_test, classifier.ensemble.predict(x_test)

    def setup(self) -> None:
        # warm every stage once on a small fixed corpus so lazy set-up is not timed
        self._pass(DatasetSpec(n_per_class=ML_SETUP_PER_CLASS, seed=0))

    def unit(self) -> Unit:
        spec = DatasetSpec(
            n_per_class=ML_PER_CLASS, seed=int(self.rng.integers(0, 2**31 - 1))
        )
        (truth, predicted), wall, cpu = _timed(self._pass, spec)
        check(len(predicted) == len(truth) > 0, "no held-out verdicts")
        known = {fault.value for fault in spec.classes}
        check(set(map(str, predicted)) <= known, f"unknown label in {set(predicted)}")
        return Unit(wall, cpu)

    def warm_up(self) -> Unit:
        """The accuracy check, which also warms every stage.

        A pass holds out 4 traces from a classifier trained on 8, so its
        accuracy swings with the corpus drawn. The bound is checked once
        per run on the ML1 bench's own seeded corpus and split, which give
        the same verdicts on every run.
        """
        (truth, predicted), wall, cpu = _timed(self._ml1_verdicts)
        accuracy = float(np.mean(truth == predicted))
        classes = sorted(str(label) for label in set(truth))
        matrix = [
            [int(np.sum((truth == a) & (predicted == p))) for p in classes]
            for a in classes
        ]
        print(
            f"ML1 held-out: accuracy={accuracy:.3f} n={len(truth)} "
            f"classes={classes} confusion(rows=truth)={matrix}"
        )
        check(accuracy >= ML1_ACCURACY, f"ML1 held-out accuracy {accuracy:.3f} < {ML1_ACCURACY}")
        return Unit(wall, cpu)

    def _ml1_verdicts(self) -> tuple[np.ndarray, np.ndarray]:
        traces, labels = generate_dataset(ML1_SPEC)
        features, labels = extract_features_batch(traces), np.asarray(labels)
        order = np.random.default_rng(0).permutation(len(labels))
        train, test = np.split(order, [int(0.7 * len(labels))])
        classifier = NormalityClassifier().fit_features(features[train], labels[train])
        return labels[test], classifier.ensemble.predict(features[test])

    def views(self, units: list[Unit]) -> dict[str, float]:
        return {"time_to_classifier_s": median([u.wall_s for u in units])}


# ---------------------------------------------------------------------------
# control_plane: seeded read/write verb mix plus mount reads over TCP loopback
# ---------------------------------------------------------------------------
READ_VERBS = ("Status_JKem", "Read_Flow_MFC", "Cell_Status", "Probe_Status_SP200")
WRITE_VERBS = ("Set_Flow_MFC", "Set_Rate_SyringePump")
#: one block of the mix, order seeded, each operation once. A session
#: cv_workflow issues Status_JKem, Cell_Status, Set_Flow_MFC,
#: Set_Rate_SyringePump and read_voltammogram once each (counted; see
#: README.md). It never issues Read_Flow_MFC or Probe_Status_SP200, which
#: are kept at the same weight so that every verb is measured.
BLOCK = READ_VERBS + WRITE_VERBS + ("read_bytes", "read_voltammogram")
CELL_FILL_ML = 5.0


class ControlPlane(Workload):
    name = "control_plane"

    def __init__(self, seed: int, seconds: float):
        self.rng = np.random.default_rng(seed)
        self.schedule: list[str] = []
        self.ice: ElectrochemistryICE | None = None
        self.session: repro.Session | None = None

    def setup(self) -> None:
        self.ice = ElectrochemistryICE.build(ICEConfig(transport="tcp"))
        self.session = repro.connect(self.ice)
        self.tracer, self.metrics = self.session.tracer, self.session.metrics
        self.session.fill_cell(CELL_FILL_ML)
        # the measurement file the mount reads back: one CV through the
        # instrument pipeline, which also leaves the SP200 initialised
        self.trace = self.session.run_cv(save_as="perfbench-seed")
        self.file = self.ice.workstation.eclab.last_measurement_path.name
        self.checksum = self.ice.share.checksum(self.file)
        self.flow_sccm = self.session.client.call_Read_Flow_MFC(1)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.ice is not None:
            self.ice.shutdown()
        self.session = self.ice = None

    def unit(self) -> Unit:
        if not self.schedule:
            self.schedule = [str(op) for op in self.rng.permutation(BLOCK)]
        op = self.schedule.pop()
        client, mount = self.session.client, self.session.datachannel
        if op == "read_bytes":
            data, wall, cpu = _timed(mount.read_bytes, self.file)
            check(
                hashlib.sha256(data).hexdigest() == self.checksum,
                "mount bytes do not match the share checksum",
            )
            return Unit(wall, cpu, kind=op)
        if op == "read_voltammogram":
            trace, wall, cpu = _timed(mount.read_voltammogram, self.file)
            check(
                len(trace) == len(self.trace)
                and np.allclose(trace.potential_v, self.trace.potential_v),
                "parsed voltammogram differs from the acquired one",
            )
            return Unit(wall, cpu, kind=op)
        if op == "Set_Flow_MFC":
            sccm = round(float(self.rng.uniform(10.0, 100.0)), 1)
            reply, wall, cpu = _timed(client.call_Set_Flow_MFC, 1, sccm)
            self.flow_sccm = sccm
        elif op == "Set_Rate_SyringePump":
            rate = round(float(self.rng.uniform(0.5, 10.0)), 2)
            reply, wall, cpu = _timed(client.call_Set_Rate_SyringePump, 1, rate)
        else:
            args = (1,) if op == "Read_Flow_MFC" else ()
            reply, wall, cpu = _timed(getattr(client, f"call_{op}"), *args)
        self._check_reply(op, reply)
        return Unit(wall, cpu, kind=op)

    def _check_reply(self, op: str, reply: Any) -> None:
        if op in WRITE_VERBS:
            check(isinstance(reply, str) and reply.startswith("OK"), f"{op} -> {reply!r}")
        elif op == "Status_JKem":
            check(isinstance(reply, str) and reply != "", f"{op} -> {reply!r}")
        elif op == "Read_Flow_MFC":
            check(reply == self.flow_sccm, f"{op} -> {reply!r}, set {self.flow_sccm}")
        elif op == "Cell_Status":
            check(
                isinstance(reply, dict) and reply.get("volume_ml") == CELL_FILL_ML,
                f"{op} -> {reply!r}",
            )
        elif op == "Probe_Status_SP200":
            check(
                isinstance(reply, dict)
                and reply.get("channel") == 1
                and reply.get("samples_acquired") == len(self.trace),
                f"{op} -> {reply!r}",
            )

    def counters(self) -> dict[str, float]:
        return {"resilience.retries": _retries(self.metrics)}

    def views(self, units: list[Unit]) -> dict[str, float]:
        control = [u.wall_s for u in units if u.kind in READ_VERBS + WRITE_VERBS]
        data = [u.wall_s for u in units if u.kind not in READ_VERBS + WRITE_VERBS]
        return {
            "control_call_s.p50": median(control),
            "control_call_s.p99": _percentile(control, 99),
            "control_calls_per_s": len(control) / sum(control) if control else 0.0,
            "data_read_s.p50": median(data),
            "data_read_s.p99": _percentile(data, 99),
        }


WORKLOADS = {w.name: w for w in (CVWorkflow, MLCorpus, ControlPlane)}
