"""Layer probes for the benchmark: timing and counting from outside ``src/``.

Nothing here changes the program. :class:`NetClock` is handed to
``ElectrochemistryICE.build(clock=)`` and books the sleeps the simulated
network charges. :class:`LayerProbe` wraps public functions of each layer
while a traced phase runs and restores them afterwards.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.clock import WallClock


class NetClock(WallClock):
    """Wall clock that books every sleep charged by ``repro.net``.

    Two totals are kept. ``net_ns`` is the modelled WAN/LAN delay as
    charged: a count, not a measurement, kept in integer nanoseconds so
    that the same traffic books exactly the same total whatever thread
    order the sleeps came in. ``slept_s`` is the wall time those sleeps
    took, which is longer: ``time.sleep`` overshoots each short sleep,
    and by more on a loaded machine.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.net_ns = 0
        self.slept_s = 0.0

    def sleep(self, duration: float) -> None:
        if duration <= 0:
            return
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if not caller.startswith("repro.net."):
            time.sleep(duration)
            return
        start = time.perf_counter()
        time.sleep(duration)
        slept = time.perf_counter() - start
        with self._lock:
            self.net_ns += round(duration * 1e9)
            self.slept_s += slept


class LayerProbe:
    """Times calls into layers and counts work done at their boundaries.

    A *timed* layer keeps the wall time of its outermost frames: a call
    that runs inside another call of the same layer on the same thread is
    already part of the outer one. Frames on the thread that called
    :meth:`install` are also summed as ``covered_s`` when no other frame
    encloses them, so ``wall - covered_s`` is the time the driving thread
    spent outside every probed layer.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._main = threading.get_ident()
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0

    # -- accounting -----------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def add(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def snapshot(self) -> dict[str, float]:
        """Every total, flattened; subtract two snapshots for one unit."""
        with self._lock:
            flat: dict[str, float] = dict(self.seconds)
            flat.update(self.counts)
            flat["covered_s"] = self.covered_s
        return flat

    def timed(
        self,
        layer: str,
        fn: Callable,
        tally: Callable[[Any], int] | None = None,
    ) -> Callable:
        """``fn`` timed under ``layer``; every outermost call counts one
        ``<layer>.calls`` and, when given, every call adds ``tally(result)``
        to ``<layer>.bytes``."""
        probe = self
        calls_key = f"{layer}.calls"
        bytes_key = f"{layer}.bytes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = probe._stack()
            outermost = layer not in stack
            stack.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with probe._lock:
                    if outermost:
                        probe.seconds[layer] += elapsed
                        probe.counts[calls_key] += 1
                    if not stack and threading.get_ident() == probe._main:
                        probe.covered_s += elapsed
            if tally is not None:
                probe.add(bytes_key, tally(result))
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` with one ``key`` count per call (no clock read)."""
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with probe._lock:
                probe.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------
    def patch_method(self, cls: type, name: str, wrap: Callable) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrap(original))
        self._patches.append((cls, name, original))

    def patch_function(self, module_name: str, name: str, wrap: Callable) -> None:
        """Replace a module-level function in every ``repro`` module that
        imported it by name, so ``from x import f`` call sites see it too."""
        original = getattr(sys.modules[module_name], name)
        wrapped = wrap(original)
        for module in list(sys.modules.values()):
            module_dict = getattr(module, "__dict__", None)
            if (
                module_dict is not None
                and str(module_dict.get("__name__", "")).startswith("repro")
                and module_dict.get(name) is original
            ):
                setattr(module, name, wrapped)
                self._patches.append((module, name, original))

    def install(self) -> "LayerProbe":
        """Wrap every layer boundary listed by :func:`probe_points`."""
        self._main = threading.get_ident()
        for target, name, wrap in probe_points(self):
            if isinstance(target, str):
                self.patch_function(target, name, wrap)
            else:
                self.patch_method(target, name, wrap)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _public_functions(cls: type) -> list[str]:
    return [
        name
        for name, attr in vars(cls).items()
        if not name.startswith("_") and callable(attr) and not isinstance(attr, type)
    ]


def probe_points(probe: LayerProbe) -> list[tuple[Any, str, Callable]]:
    """(class or module name, attribute, wrapper factory) per boundary."""
    from repro.chemistry.cv_engine import CVEngine
    from repro.datachannel.mount import Mount
    from repro.datachannel.share import FileShareService
    from repro.facility.servers import ACLWorkstationServer
    from repro.ml.ensemble import EnsembleOfTreesClassifier
    from repro.ml.normality import NormalityClassifier
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.obs.trace import Tracer
    from repro.rpc.proxy import Proxy

    def timed(layer: str, tally: Callable[[Any], int] | None = None):
        return lambda fn: probe.timed(layer, fn, tally)

    def counted(key: str):
        return lambda fn: probe.counted(key, fn)

    def frames(fn: Callable) -> Callable:
        # every frame is encoded exactly once, by whichever side sends it
        @functools.wraps(fn)
        def wrapper(msg):
            data = fn(msg)
            probe.add("rpc.frames")
            probe.add("rpc.bytes", len(data))
            return data

        return wrapper

    points: list[tuple[Any, str, Callable]] = [
        (CVEngine, "run", timed("chemistry.solve")),
        (CVEngine, "run_waveform", timed("chemistry.solve")),
        ("repro.ml.features", "extract_features", timed("ml.features")),
        ("repro.ml.features", "extract_features_batch", timed("ml.features")),
        (EnsembleOfTreesClassifier, "fit", timed("ml.ensemble_fit")),
        (NormalityClassifier, "classify", timed("ml.classify")),
        (EnsembleOfTreesClassifier, "predict_proba", timed("ml.classify")),
        (EnsembleOfTreesClassifier, "predict", timed("ml.classify")),
        ("repro.analysis.peaks", "find_peaks", timed("analysis.characterize")),
        ("repro.analysis.metrics", "characterize", timed("analysis.characterize")),
        (Proxy, "_call", timed("rpc.call")),
        (Proxy, "_pyro_ping", timed("rpc.call")),
        (Proxy, "_pyro_metadata", timed("rpc.call")),
        ("repro.rpc.protocol", "encode_message", lambda fn: timed("rpc.codec")(frames(fn))),
        ("repro.rpc.protocol", "decode_frame", timed("rpc.codec")),
        (Mount, "read_bytes", timed("datachannel.read", tally=len)),
        (Mount, "read_voltammogram", timed("datachannel.read")),
        ("repro.datachannel.formats", "read_mpt", timed("datachannel.parse")),
        (Tracer, "start_span", counted("obs.spans")),
        (Counter, "inc", counted("obs.metric_writes")),
        (Gauge, "set", counted("obs.metric_writes")),
        (Gauge, "inc", counted("obs.metric_writes")),
        (Histogram, "observe", counted("obs.metric_writes")),
    ]
    points += [
        (ACLWorkstationServer, name, timed("instruments.verb"))
        for name in _public_functions(ACLWorkstationServer)
    ]
    points += [
        (FileShareService, name, timed("datachannel.serve"))
        for name in _public_functions(FileShareService)
    ]
    return points


def span_cost_us(tracer: Any, n: int = 2000) -> float:
    """Mean cost of one root span started and ended on ``tracer``."""
    start = time.perf_counter()
    for _ in range(n):
        tracer.start_span("perfbench.probe").end()
    return (time.perf_counter() - start) / n * 1e6


def metric_write_cost_us(metrics: Any, n: int = 2000) -> float:
    """Mean cost of one counter increment on ``metrics``."""
    counter = metrics.counter("perfbench.probe_total", "benchmark probe writes")
    start = time.perf_counter()
    for _ in range(n):
        counter.inc()
    return (time.perf_counter() - start) / n * 1e6
