"""Repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload cv_workflow --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` splits the time in two: an untraced half gives each
workload's own end-to-end figures, then a traced half (layer probes from
``probes.py`` installed) gives the per-layer figures and the probes' own
cost. The last line of standard output is one JSON object. See
``README.md`` beside this file for the metric definitions and the map
from each layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"no repro sources under {ROOT / 'src'}")
# one load thread: keep numpy's BLAS from spinning extra threads against
# the program's own daemon threads on a small machine (set before import)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from probes import LayerProbe  # noqa: E402
from workloads import TASKS, WORKLOADS, CheckFailed, median, typical  # noqa: E402

#: set-ups of a ``--trace 0`` run, spread over it; ``setup_s`` is their median
SETUPS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("turnaround_s", "s"),
    ("cpu_s", "s"),
)
VIEWS = (
    ("workflow_s", "s"),
    ("workflow_code_s", "s"),
    ("workflow_cpu_s", "s"),
    ("time_to_classifier_s", "s"),
    ("control_call_s.p50", "s"),
    ("control_call_s.p99", "s"),
    ("control_calls_per_s", "1/s"),
    ("data_read_s.p50", "s"),
    ("data_read_s.p99", "s"),
)
#: (metric, unit, how it is reduced over the traced units)
LAYERS = (
    ("chemistry.solve_s", "s", "mean"),
    ("chemistry.solves", "count", "median"),
    ("chemistry.voltammograms_per_s", "1/s", "derived"),
    ("ml.features_s", "s", "mean"),
    ("ml.ensemble_fit_s", "s", "mean"),
    ("ml.classify_s", "s", "mean"),
    ("analysis.characterize_s", "s", "mean"),
    ("instruments.verb_s", "s", "mean"),
    ("instruments.verbs", "count", "median"),
    ("rpc.call_s", "s", "mean"),
    ("rpc.codec_s", "s", "mean"),
    ("rpc.overhead_s", "s", "derived"),
    ("rpc.frames", "count", "median"),
    ("rpc.bytes", "B", "median"),
    ("net.modelled_s", "s", "median"),
    ("net.slept_s", "s", "derived"),
    ("net.frames", "count", "median"),
    ("net.bytes", "B", "median"),
    ("datachannel.read_s", "s", "mean"),
    ("datachannel.parse_s", "s", "mean"),
    ("datachannel.bytes", "B", "median"),
    ("resilience.retries", "count", "sum"),
    *((f"core.task_s.{task}", "s", "derived") for task in TASKS),
    ("core.unattributed_s", "s", "derived"),
    ("obs.spans", "count", "median"),
    ("obs.metric_writes", "count", "median"),
    ("obs.span_us", "us", "derived"),
    ("obs.metric_write_us", "us", "derived"),
)
#: layer metric -> probe key it reduces, where the names differ
PROBE_KEYS = {
    "chemistry.solve_s": "chemistry.solve",
    "chemistry.solves": "chemistry.solve.calls",
    "ml.features_s": "ml.features",
    "ml.ensemble_fit_s": "ml.ensemble_fit",
    "ml.classify_s": "ml.classify",
    "analysis.characterize_s": "analysis.characterize",
    "instruments.verb_s": "instruments.verb",
    "instruments.verbs": "instruments.verb.calls",
    "rpc.call_s": "rpc.call",
    "rpc.codec_s": "rpc.codec",
    "datachannel.read_s": "datachannel.read",
    "datachannel.parse_s": "datachannel.parse",
    "datachannel.bytes": "datachannel.read.bytes",
}
PER_LAYER = (
    ("failed_frac", "ratio"),
    ("bench.wrapper_overhead_s", "s"),
    *VIEWS,
    *((name, unit) for name, unit, _ in LAYERS),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Phase:
    """Units measured in closed-loop stretches of time."""

    def __init__(self) -> None:
        self.units: list = []
        self.deltas: list[dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed_s = 0.0


def measure(workload, seconds: float, probe=None, step=None, phase=None) -> Phase:
    """Run units back to back until ``seconds`` have passed (at least one).

    ``step`` replaces ``workload.unit`` as the unit of work; the units are
    added to ``phase`` when one is given.
    """
    step = step or workload.unit
    phase = phase or Phase()
    start = time.perf_counter()
    while True:
        before = snapshot(workload, probe)
        phase.attempted += 1
        try:
            unit = step()
        except CheckFailed as exc:
            phase.failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            phase.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            phase.units.append(unit)
            if probe is not None:
                after = snapshot(workload, probe)
                phase.deltas.append(
                    {key: after[key] - before.get(key, 0.0) for key in after}
                )
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            phase.elapsed_s += elapsed
            return phase


def snapshot(workload, probe) -> dict[str, float]:
    flat = dict(workload.counters())
    if probe is not None:
        flat.update(probe.snapshot())
    return flat


def layer_metrics(traced: Phase, obs_costs: tuple[float, float]) -> dict:
    units, deltas = traced.units, traced.deltas
    n = max(len(units), 1)

    def total(key: str) -> float:
        return sum(delta.get(key, 0.0) for delta in deltas)

    def per_unit(key: str) -> list[float]:
        return [delta.get(key, 0.0) for delta in deltas]

    out: dict[str, float] = {}
    for name, _, reduce in LAYERS:
        key = PROBE_KEYS.get(name, name)
        if reduce == "mean":
            out[name] = total(key) / n
        elif reduce == "median":
            # per unit that used the layer: a control-plane op either
            # reads the mount or calls a verb, never both
            out[name] = median([value for value in per_unit(key) if value])
        elif reduce == "sum":
            out[name] = total(key)
    out["net.modelled_s"] = median([unit.net_s for unit in units])
    slept_s = sum(unit.slept_s for unit in units)
    out["net.slept_s"] = slept_s / n
    solve_s = total("chemistry.solve")
    out["chemistry.voltammograms_per_s"] = (
        total("chemistry.solve.calls") / solve_s if solve_s > 0 else 0.0
    )
    out["rpc.overhead_s"] = (
        total("rpc.call")
        - total("instruments.verb")
        - total("datachannel.serve")
        - slept_s
    ) / n
    for task in TASKS:
        out[f"core.task_s.{task}"] = median(
            [unit.tasks[task] for unit in units if task in unit.tasks]
        )
    out["core.unattributed_s"] = (
        sum(unit.wall_s for unit in units) - total("covered_s")
    ) / n
    out["obs.span_us"], out["obs.metric_write_us"] = obs_costs
    return out


def end_to_end(setups: list[float], rss_mb: float, phase: Phase) -> dict[str, float]:
    units = phase.units
    return {
        "setup_s": median(setups),
        "peak_rss_mb": rss_mb,
        "turnaround_s": typical(units, "wall_s"),
        "cpu_s": typical(units, "cpu_s"),
    }


def set_up(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak memory after set-up and the warm-up unit, a fixed amount of
    work: a faster program runs more units, and must not read as a
    bigger one."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(args: argparse.Namespace) -> dict:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        setups = [set_up(workload)]
        phases = [measure(workload, 0.0, step=workload.warm_up)]
        rss_mb = peak_rss_mb()
        if args.trace == 0:
            # the set-ups are spread over the run, each followed by its
            # share of the measured time, so that their median does not
            # hang on one stretch of the machine's speed
            timed = Phase()
            for index in range(SETUPS):
                if index:
                    workload.close()
                    setups.append(set_up(workload))
                share = args.seconds * (index + 1) / SETUPS - timed.elapsed_s
                if share > 0:
                    measure(workload, share, phase=timed)
            phases.append(timed)
        else:
            phases.append(measure(workload, args.seconds / 2))
            probe = LayerProbe().install()
            try:
                phases.append(measure(workload, args.seconds / 2, probe))
            finally:
                probe.uninstall()
            obs_costs = workload.obs_costs()
    finally:
        workload.close()
    problems = workload.final_checks([unit for phase in phases for unit in phase.units])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(phase.attempted for phase in phases)
    failed = min(attempted, sum(phase.failed for phase in phases) + len(problems))
    if args.trace == 0:
        metrics, units = end_to_end(setups, rss_mb, phases[1]), dict(END_TO_END)
    else:
        untraced, traced = phases[1], phases[2]
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        metrics.update(workload.views(untraced.units))
        metrics.update(layer_metrics(traced, obs_costs))
        metrics["failed_frac"] = failed / attempted
        metrics["bench.wrapper_overhead_s"] = median(
            [unit.wall_s for unit in traced.units]
        ) - median([unit.wall_s for unit in untraced.units])
        units = dict(PER_LAYER)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    try:
        result = run(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
