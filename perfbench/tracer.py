"""Outside-in span recorder for the gentorus layers.

The recorder wraps public functions of each ``gentorus`` module, plus the
``numpy.linalg`` kernels they call, without touching the package itself.
A span records its name, start, end and parent span; spans stay in memory
until ``metrics`` or ``save`` reads them.  A function imported by name is
bound in several modules (``lie_derivation_dL`` lives in ``calculus``,
``deformation`` and ``diagnostics``), so every module binding of a wrapped
function is patched, and every patched attribute is restored on exit.

The recorder assumes one thread: the benchmark never passes ``parallel``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

# (span name, module, attribute path) of every wrapped callable.  Several
# callables may share one span name.  The layer is the part before the dot.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("hodge.class_check", "gentorus.hodge", "HodgeContext.class_check"),
    ("hodge.context_init", "gentorus.hodge", "HodgeContext.__init__"),
    ("hodge.package_init", "gentorus.hodge", "HodgePackage.__init__"),
    ("hodge.apply", "gentorus.hodge", "HodgeContext.apply"),
    ("hodge.spectral", "gentorus.hodge", "HodgePackage.harmonic"),
    ("hodge.spectral", "gentorus.hodge", "HodgePackage.green"),
    ("hodge.spectral", "gentorus.hodge", "HodgePackage.laplacian"),
    ("hodge.harmonic_basis", "gentorus.hodge", "HodgePackage.harmonic_basis"),
    ("hodge.solve", "gentorus.hodge", "HodgeContext.solve_ddbar_minimal"),
    ("hodge.solve", "gentorus.hodge", "HodgeContext.d_closed_representative"),
    ("hodge.solve", "gentorus.hodge", "HodgeContext.solve_dbar_minimal"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("deformation.algebroid_init", "gentorus.deformation", "AlgebroidHodge.__init__"),
    ("deformation.mc_expand", "gentorus.deformation", "maurer_cartan_expand"),
    ("deformation.mc_verify", "gentorus.deformation", "maurer_cartan_verify"),
    ("deformation.frame_blocks", "gentorus.deformation", "frame_block_matrices"),
    ("deformation.holomorphy", "gentorus.deformation", "holomorphy_residuals"),
    ("deformation.extend", "gentorus.deformation", "extend_closed_form"),
    ("deformation.scan", "gentorus.deformation", "hodge_number_scan"),
    ("deformation.transport", "gentorus.deformation", "Transport.__init__"),
    ("deformation.transport", "gentorus.deformation", "Transport.forward"),
    ("deformation.transport", "gentorus.deformation", "Transport.inverse"),
    ("deformation.transport", "gentorus.deformation", "Transport.factorwise"),
    ("deformation.deformed_structure", "gentorus.deformation", "DeformedStructure.__init__"),
    ("calculus.dL", "gentorus.calculus", "lie_derivation_dL"),
    ("calculus.schouten", "gentorus.calculus", "schouten_bracket"),
    ("fourier.mul", "gentorus.fourier", "FourierScalar.mul"),
    ("spinor.act", "gentorus.spinor", "CliffordPoly.act"),
    ("spinor.wedge", "gentorus.spinor", "wedge"),
    ("spinor.wedge", "gentorus.spinor", "CliffordPoly.wedge"),
    ("metric.bi_inner", "gentorus.metric", "GeneralizedMetric.bi_inner"),
    ("diagnostics.identity_suites", "gentorus.diagnostics", "clifford_suite"),
    ("diagnostics.identity_suites", "gentorus.diagnostics", "structure_suite"),
    ("diagnostics.identity_suites", "gentorus.diagnostics", "calculus_suite"),
    ("diagnostics.identity_suites", "gentorus.diagnostics", "hodge_suite"),
    ("diagnostics.hodge_table", "gentorus.diagnostics", "hodge_table"),
    ("scenario.parse", "gentorus.scenario", "Scenario.__init__"),
    ("scenario.run", "gentorus.scenario", "Runner.run"),
    ("report.serialize", "gentorus.report", "report_to_json"),
)

SPANS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name.split(".")[0] for name in SPANS))


def _support_size(f) -> int:
    return sum(1 for _ in f.support())


def _mul_terms(args, kwargs, result) -> int:
    other = args[1] if len(args) > 1 else kwargs["other"]
    return _support_size(args[0]) * _support_size(other)


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


# counters measured at a span boundary: span name -> (metric, unit, measure)
COUNTERS: Dict[str, Tuple[str, str, Callable]] = {
    "fourier.mul": ("fourier.mul.terms", "count", _mul_terms),
    "report.serialize": ("report.bytes", "bytes", _text_bytes),
}


def _package_modules(prefix: str) -> List[object]:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]


class SpanRecorder:
    """Context manager that patches the targets and records spans.

    ``missing`` lists targets absent from the program; their metrics read 0.
    """

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPANS)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        # 1 when a span of the same name is already open around this one
        self._nested = array("b")
        self._depth = [0] * len(SPANS)
        self._current = -1
        self.counters = {metric: 0 for metric, _, _ in COUNTERS.values()}
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        try:
            for name, module, path in TARGETS:
                self._patch_target(name, module, path)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch_target(self, name: str, module: str, path: str) -> None:
        mod = importlib.import_module(module)
        owner_path, _, attr = path.rpartition(".")
        owner = mod
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        wrapper = self._wrap(original, self._ids[name], COUNTERS.get(name))
        self._set(owner, attr, wrapper)
        if owner is mod:
            # a function imported by name is also bound in other modules
            for other in _package_modules("gentorus"):
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, sid: int, counter):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        nested, depth = self._nested, self._depth
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            idx = len(starts)
            names.append(sid)
            parents.append(parent)
            nested.append(depth[sid] > 0)
            ends.append(0.0)
            depth[sid] += 1
            self._current = idx
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                depth[sid] -= 1
                self._current = parent
            if counter is not None:
                counters[counter[0]] += counter[2](args, kwargs, result)
            return result

        return wrapper

    # -- read-out -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "nested": np.frombuffer(self._nested, dtype=np.int8).astype(bool),
        }

    def span_self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = np.bincount(a["name"], weights=dur - covered, minlength=len(SPANS))
        return {name: float(own[i]) for i, name in enumerate(SPANS)}

    def metrics(self) -> Dict[str, float]:
        """``<span>.calls``, inclusive ``<span>.s``, ``<layer>.self_s`` and counters.

        Inclusive time counts a span only when no span of the same name is
        open around it, so recursion is not counted twice.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        outer = ~a["nested"]
        calls = np.bincount(a["name"], minlength=len(SPANS))
        incl = np.bincount(a["name"][outer], weights=dur[outer], minlength=len(SPANS))
        out: Dict[str, float] = {}
        for i, name in enumerate(SPANS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(incl[i])
        own = self.span_self_times()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in own.items() if name.split(".")[0] == layer
            )
        out.update(self.counters)
        return out

    def save(self, path) -> None:
        """Write the raw spans (ids index ``names``) as an ``.npz`` file."""
        np.savez(path, names=np.array(SPANS), **self.arrays())
