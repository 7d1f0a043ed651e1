"""Declarative scenario runner.

A scenario is one JSON document describing the torus, the structure, the
metric, an optional deformation series, and a list of experiments.  Running
it produces a report whose every numeric entry carries the tolerance it was
judged against.  Complex numbers are [re, im] pairs throughout the schema.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Dict, Iterable, List, Tuple

import numpy as np

from . import __version__
from .deformation import (
    Beltrami,
    DeformationError,
    DeformedStructure,
    FrameMaps,
    frame_block_matrices,
    extend_closed_form,
    hodge_number_scan,
    holomorphy_residuals,
    maurer_cartan_expand,
)
from .diagnostics import (
    calculus_suite,
    clifford_suite,
    entry,
    hodge_suite,
    hodge_table,
    structure_suite,
)
from .fourier import FourierScalar, TorusGeometry, TruncationBox, TruncationError
from .hodge import CHECK_COUNTERS, CHUNK_BYTES, HodgeContext, ObstructionError
from .metric import GeneralizedMetric, MetricError
from .report import FORMATS
from .spinor import CliffordPoly, Spinor, random_spinor
from .structure import GCStructure, StructureError

DEFAULT_TOLERANCE = 1e-9

# upper bounds on the sizes a config asks for, each above every value in
# scenarios/ and perfbench/configs/; a config past one is refused before
# anything is built
MAX_ORDER = 10  # an experiment's order and the deformation block's
MAX_SAMPLES = 1000  # random samples of a criterion or an identity suite
MAX_LIST_LENGTH = 64  # entries of a t, t_samples or levels list

# bytes that a config's largest arrays may take, as _estimated_bytes counts
# them; a config above it is refused before anything is built
MEMORY_BUDGET = 4 * 2 ** 30
# complex (R, N, N) stacks over the R modes that an identity pass walks (the
# first half of an untwisted box) that a Hodge context and the experiment
# using it hold at once, in units of one d stack over them, per experiment
# kind that reads eigenvectors; "expand" is the algebroid package of an
# expanded deformation, of the same size.  A context holds no d stack, and
# its packages hold their eigenvalues and the eigenvectors of the modes
# read so far.  tracemalloc peaks of an identity suite with 2 samples are
# 14.7 and 11.6 such stacks on complex T^4 K=2 and T^6 K=1, whose
# identities read the eigenvectors of every mode they walk.  extend, scan
# and expand keep the identity suite's bound.
HODGE_STACKS = {"identity-suite": 16, "extend": 16, "scan": 16, "expand": 16}
# a hodge-table builds no package and holds no d stack: its context keeps
# the rank stacks, counted here as (R, 2) int16 though they hold one row per
# symmetry orbit (at most six per level from -n - 1 to n + 1 for the class
# checks, and d's two parity blocks), and the box's (P, 2n) modes with the
# orbit index of each, and each pass holds one chunk of CHUNK_BYTES at a
# time, with room here for this many.  tracemalloc peaks of hodge_table on complex T^4 K=2, K=3 and
# T^6 K=1, K=2 are 0.22, 0.59, 1.36 and 2.55 MB, against estimates of 4.6,
# 4.8, 14.5 and 17.1 MB that count the structure too
# (``tools/hodge_peaks.py`` prints both).
HODGE_TABLE_CHUNKS = 4

# the keys a config may hold, the keys of each experiment kind besides
# "kind", of each structure type and of each nested block; any other key is
# refused, so a misspelt one is not silently ignored
CONFIG_KEYS = (
    "name", "torus", "structure", "metric", "deformation", "experiments", "tolerances", "output",
)
EXPERIMENT_KEYS = {
    "identity-suite": ("seed", "samples"),
    "hodge-table": (),
    "criterion": ("t", "samples", "seed"),
    "extend": ("level", "sigma00", "order", "variant", "t_samples"),
    "scan": ("t_samples", "levels", "order"),
}
STRUCTURE_KEYS = {
    "complex": ("type", "H", "jcx"),
    "symplectic": ("type", "H", "omega"),
    "b_transform": ("type", "base", "B"),
}
BLOCK_KEYS = {
    "torus": ("n", "K", "policy"),
    "metric": ("g", "b"),
    "deformation": ("coefficients", "expand", "order"),
    "deformation coefficient": ("terms",),
    "Fourier series": ("modes",),
    "Fourier mode": ("k", "c"),
    "H entry": ("indices", "c"),
    "tolerances": ("default",),
    "output": ("dir", "formats"),
}


class ScenarioError(ValueError):
    """Configuration parse or validation failure."""


def _parse_block(name: str, parse):
    """``parse()``, with the errors a malformed value raises while the
    config's ``name`` block is read reported as a ScenarioError."""
    try:
        return parse()
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ScenarioError(f"bad {name} block: {type(err).__name__}: {err}") from err


def _object(value, name: str) -> Dict:
    """A config block that must be a JSON object."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{name!r} must be an object, got {value!r}")
    return value


def _check_keys(block: Dict, allowed: Tuple[str, ...], where: str) -> None:
    """Refuse a key of a config block that its schema does not know."""
    for key in block:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in {where}; expected one of {allowed}")


def _block(value, name: str) -> Dict:
    """A nested config block: a JSON object with the keys of ``BLOCK_KEYS[name]``."""
    _check_keys(_object(value, name), BLOCK_KEYS[name], f"the {name} block")
    return value


def round12(x) -> float:
    """Floats are fixed at 12 significant digits on entry to a report."""
    if x is None:
        return None
    f = float(x)
    if f == 0 or not np.isfinite(f):
        return f
    return float(f"{f:.12g}")


def _finite_real(value) -> bool:
    """A JSON number that is finite as a float: not a bool, NaN, infinity
    or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _complex_from(value) -> complex:
    """A config number: a finite real, or an [re, im] pair of them."""
    if _finite_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_finite_real, value)):
        return complex(value[0], value[1])
    raise ScenarioError(f"expected a finite number or [re, im] pair, got {value!r}")


def _parse_fourier(geometry, box, data) -> FourierScalar:
    if isinstance(data, (int, float, list)) and not (
        isinstance(data, list) and data and isinstance(data[0], dict)
    ):
        return FourierScalar.constant(geometry, box, _complex_from(data))
    if isinstance(data, dict):
        data = _block(data, "Fourier series").get("modes", [])
    coeffs = {}
    for item in data:
        mode = _integer_tuple(_block(item, "Fourier mode")["k"], "mode 'k'")
        coeffs[mode] = coeffs.get(mode, 0.0) + _complex_from(item["c"])
    return FourierScalar(geometry, box, coeffs)


def _integer_tuple(values, name: str) -> Tuple[int, ...]:
    """A list of integers from the config, refused rather than truncated."""
    if not isinstance(values, (list, tuple)) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in values
    ):
        raise ScenarioError(f"{name} must be a list of integers, got {values!r}")
    return tuple(values)


def _parse_key_tuple(text) -> Tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return _integer_tuple(text, "key")
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _check_integer(key: str, value, low: int, high: int | None = None) -> None:
    """An integer field of the config: an int, not a bool, within [low, high]."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ScenarioError(f"{key!r} must be an integer {bound}, got {value!r}")


def _check_tolerance(value) -> float:
    """The default tolerance: a finite real number > 0, not a bool."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value <= sys.float_info.max
    ):
        raise ScenarioError(
            f"'tolerances.default' must be a finite number > 0, got {value!r}"
        )
    return float(value)


def _twisted(spec) -> bool:
    """Whether a structure block, or the base it transforms, sets a twist H."""
    if not isinstance(spec, dict):
        return False
    return bool(spec.get("H")) or _twisted(spec.get("base"))


def _context_bytes(kind: str, n: int, modes: float, reps: float, size: float) -> float:
    """The bytes a Hodge context and an experiment of ``kind`` hold over
    the ``modes`` box modes, ``reps`` of them walked by identity passes,
    with ``size`` spinor components: ``HODGE_STACKS`` d stacks, or what a
    hodge-table keeps."""
    if kind == "hodge-table":
        ranks = ((6 * (2 * n + 3) + 2) * 2 * 2 + 8) * reps
        box = modes * (2 * n + 1) * 8
        return ranks + box + HODGE_TABLE_CHUNKS * CHUNK_BYTES
    return HODGE_STACKS[kind] * reps * size ** 2 * 16


def _estimated_bytes(n: int, K: int, twisted: bool, kinds: Iterable[str]) -> float:
    """The bytes of a config's largest arrays, with N = 4^n spinor
    components: the structure's 4n complex (N, N) Clifford generators and
    the full SVD of its (2n N, N) frame action, four of its complex (2n N,
    2n N) U, and what the Hodge context of the largest of the experiment
    ``kinds`` holds (``_context_bytes``) over the R modes that identity
    passes walk (R = P // 2 + 1 of the P box modes, every mode when
    twisted).  Counted
    in floats, so that a huge n or K reads as infinite rather than being
    raised to its power exactly."""
    try:
        size = 4.0 ** n
        total = 4 * n * size ** 2 * 16 + 4 * (2 * n * size) ** 2 * 16
        kinds = [kind for kind in kinds if kind == "hodge-table" or kind in HODGE_STACKS]
        if kinds:
            modes = (2.0 * K + 1) ** (2 * n)
            reps = modes if twisted else modes // 2 + 1
            total += max(_context_bytes(kind, n, modes, reps, size) for kind in kinds)
    except OverflowError:
        return math.inf
    return total


def _check_output(output: Dict) -> None:
    """The output block: a directory name and a list of report formats."""
    if not isinstance(output.get("dir", ""), str):
        raise ScenarioError(f"'output.dir' must be a string, got {output['dir']!r}")
    formats = output.get("formats", [])
    if not isinstance(formats, list) or any(f not in FORMATS for f in formats):
        raise ScenarioError(f"'output.formats' must be a list of {FORMATS}, got {formats!r}")


class Scenario:
    """Parsed and validated scenario configuration."""

    def __init__(self, config: Dict):
        self.config = _object(config, "config")
        _check_keys(config, CONFIG_KEYS, "the config")
        if not isinstance(config.get("name", ""), str):
            raise ScenarioError(f"'name' must be a string, got {config['name']!r}")
        _check_output(_block(config.get("output", {}), "output"))
        torus = _block(config.get("torus") or {}, "torus")
        if "n" not in torus or "K" not in torus:
            raise ScenarioError("config requires torus.n and torus.K")
        _check_integer("torus.n", torus["n"], 1)
        _check_integer("torus.K", torus["K"], 0)
        try:
            self.geometry = TorusGeometry(torus["n"])
            self.box = TruncationBox(torus["K"], policy=torus.get("policy", "strict"))
        except ValueError as err:
            raise ScenarioError(f"bad torus: {err}") from err
        self.experiments = config.get("experiments", [])
        self._check_experiments()
        deformation = config.get("deformation")
        if deformation:
            _block(deformation, "deformation")
            _check_integer("order", deformation.get("order", 2), 1, MAX_ORDER)
        self._check_size(deformation)
        self.tolerance = _check_tolerance(
            _block(config.get("tolerances", {}), "tolerances").get("default", DEFAULT_TOLERANCE)
        )
        self.structure = _parse_block(
            "structure", lambda: self._build_structure(config.get("structure"))
        )
        self.metric = _parse_block("metric", lambda: self._build_metric(config.get("metric")))
        if self.metric.compatibility(self.structure) > 1e-9:
            raise ScenarioError("metric does not commute with the structure")
        self.series = self._build_deformation(deformation)
        self._sup_norms: Dict[complex, float] = {}
        if self.series is not None:
            for exp in self.experiments:
                for key in ("t", "t_samples"):
                    for t in exp.get(key, []):
                        try:
                            sup = self.sup_norm(_complex_from(t))
                        except OverflowError as err:
                            raise ScenarioError(
                                f"sample t={t} overflows the deformation: {err}"
                            ) from err
                        if sup >= 1.0:
                            raise ScenarioError(
                                f"sample t={t} puts the deformation sup-norm at "
                                f"{sup:.3f} >= 1"
                            )

    def _check_experiments(self) -> None:
        """Types and sizes of the experiment fields, checked before anything is built."""
        n = self.geometry.n
        if not isinstance(self.experiments, list):
            raise ScenarioError(f"'experiments' must be a list, got {self.experiments!r}")
        for exp in self.experiments:
            kind = _object(exp, "experiment").get("kind")
            if not isinstance(kind, str):
                raise ScenarioError("every experiment needs a 'kind'")
            # an unknown kind is reported by the runner as that experiment's error
            if kind in EXPERIMENT_KEYS:
                _check_keys(exp, ("kind",) + EXPERIMENT_KEYS[kind], f"a {kind!r} experiment")
            for key in ("t", "t_samples", "levels"):
                if key not in exp:
                    continue
                if not isinstance(exp[key], list):
                    raise ScenarioError(
                        f"experiment {key!r} must be a list, got {exp[key]!r}"
                    )
                if len(exp[key]) > MAX_LIST_LENGTH:
                    raise ScenarioError(
                        f"experiment {key!r} has {len(exp[key])} entries, "
                        f"more than {MAX_LIST_LENGTH}"
                    )
            if kind == "criterion" and exp.get("t") == []:
                raise ScenarioError("criterion experiment needs at least one 't'")
            if "samples" in exp:
                _check_integer("samples", exp["samples"], 1, MAX_SAMPLES)
            if "order" in exp:
                _check_integer("order", exp["order"], 0, MAX_ORDER)
            for key in ("sigma00", "seed"):
                if key in exp:
                    _check_integer(key, exp[key], 0)
            if "level" in exp:
                _check_integer("level", exp["level"], -n, n)
            for k in exp.get("levels", []):
                _check_integer("levels", k, -n, n)

    def _check_size(self, deformation) -> None:
        """Refuse a config whose largest arrays would pass ``MEMORY_BUDGET``."""
        kinds = [exp.get("kind") for exp in self.experiments]
        if deformation and deformation.get("expand"):
            kinds.append("expand")
        need = _estimated_bytes(
            self.geometry.n, self.box.K, _twisted(self.config.get("structure")), kinds
        )
        if need > MEMORY_BUDGET:
            raise ScenarioError(
                f"torus n={self.geometry.n}, K={self.box.K} needs about {need / 2 ** 30:.3g} GiB "
                f"for its largest arrays, more than the {MEMORY_BUDGET / 2 ** 30:.3g} GiB budget"
            )

    def sup_norm(self, t: complex) -> float:
        """Grid sup-norm of the deformation at sample t, computed once per t."""
        if t not in self._sup_norms:
            self._sup_norms[t] = FrameMaps(self.structure, self.series.eps_at(t)).sup_norm()
        return self._sup_norms[t]

    # ------------------------------------------------------------------

    def _parse_twist(self, spec) -> Spinor | None:
        if not spec:
            return None
        comps = {}
        for item in spec:
            key = _integer_tuple(_block(item, "H entry")["indices"], "H 'indices'")
            comps[key] = FourierScalar.constant(
                self.geometry, self.box, _complex_from(item["c"])
            )
        return Spinor(self.geometry, self.box, comps)

    def _build_structure(self, spec) -> GCStructure:
        if not spec:
            raise ScenarioError("config requires a structure block")
        kind = _object(spec, "structure").get("type")
        if kind in STRUCTURE_KEYS:
            _check_keys(spec, STRUCTURE_KEYS[kind], f"a {kind!r} structure")
        twist = self._parse_twist(spec.get("H"))
        try:
            if kind == "complex":
                jcx = np.asarray(spec["jcx"], dtype=float) if "jcx" in spec else None
                return GCStructure.complex_structure(
                    self.geometry.n, self.box, jcx=jcx, twist=twist
                )
            if kind == "symplectic":
                omega = np.asarray(spec["omega"], dtype=float)
                if omega.shape != (self.geometry.dim,) * 2:
                    raise ScenarioError(
                        f"omega must be a {self.geometry.dim} x {self.geometry.dim} matrix"
                    )
                return GCStructure.symplectic_structure(omega, self.box, twist=twist)
            if kind == "b_transform":
                base = self._build_structure(spec.get("base"))
                bmat = np.asarray(spec["B"], dtype=float)
                return base.b_transform(bmat)
        except (StructureError, KeyError) as err:
            raise ScenarioError(f"structure construction failed: {err}") from err
        raise ScenarioError(f"unknown structure type {kind!r}")

    def _build_metric(self, spec) -> GeneralizedMetric:
        dim = self.geometry.dim
        g = np.eye(dim)
        b = np.zeros((dim, dim))
        if spec:
            _block(spec, "metric")
            if "g" in spec:
                g = np.asarray(spec["g"], dtype=float)
            if "b" in spec and spec["b"] is not None:
                b = np.asarray(spec["b"], dtype=float)
        try:
            return GeneralizedMetric.from_tensors(self.geometry, g, b)
        except MetricError as err:
            raise ScenarioError(f"metric construction failed: {err}") from err

    def _parse_coefficient(self, spec) -> CliffordPoly:
        terms = _object(_block(spec, "deformation coefficient").get("terms", {}), "terms")
        return CliffordPoly(self.structure.dual_frame, 2, {
            _parse_key_tuple(slot_key): _parse_fourier(self.geometry, self.box, fdata)
            for slot_key, fdata in terms.items()
        })

    def _build_deformation(self, spec) -> Beltrami | None:
        if not spec:
            return None
        coeffs: Dict[Tuple[int, int], CliffordPoly] = {}
        coefficients = _object(spec.get("coefficients", {}), "deformation.coefficients")
        for order_key, poly_spec in coefficients.items():
            okey = _parse_block("deformation", lambda: _parse_key_tuple(order_key))
            if len(okey) != 2:
                raise ScenarioError(f"bad deformation order key {order_key!r}")
            coeffs[okey] = _parse_block(
                f"deformation coefficient {order_key!r}",
                lambda: self._parse_coefficient(poly_spec),
            )
        try:
            series = Beltrami(self.structure, coeffs)
        except DeformationError as err:
            raise ScenarioError(f"bad deformation: {err}") from err
        order = spec.get("order", 2)  # validated in __init__
        if spec.get("expand"):
            first = {
                key: poly for key, poly in series.coefficients.items() if sum(key) == 1
            }
            try:
                series = maurer_cartan_expand(
                    self.structure, self.metric, first, order, tol=self.tolerance
                )
            except (TruncationError, ObstructionError, DeformationError) as err:
                raise ScenarioError(f"deformation expansion failed: {err}") from err
        return series


def _status_from_entries(entries: List[Dict]) -> str:
    return "pass" if all(e["passed"] for e in entries) else "fail"


class Runner:
    """Executes the experiments of a scenario and assembles the report."""

    def __init__(self, scenario: Scenario, fail_fast: bool = False):
        self.scenario = scenario
        self.fail_fast = fail_fast
        self._context: HodgeContext | None = None
        # the running experiment's entries for the timings sidecar beyond
        # its wall time: an identity-suite's per-suite seconds, a scan's
        # sample and extension counts and phase seconds
        self._timing_details: Dict = {}

    @property
    def context(self) -> HodgeContext:
        if self._context is None:
            self._context = HodgeContext(self.scenario.structure, self.scenario.metric)
        return self._context

    def _check_counts(self) -> Dict[str, int]:
        """The class-check counters of the runner's context, zero before it exists."""
        if self._context is None:
            return dict.fromkeys(CHECK_COUNTERS, 0)
        return dict(self._context.level_basis.check_counts)

    def _rank_passes(self) -> List[Dict]:
        """Each rank stack the runner's context has computed: stack, level,
        the order of the symmetry group, the modes it ranked, chunk length
        and chunk count; none before the context exists."""
        return [] if self._context is None else self._context.level_basis.rank_passes

    def _mode_counts(self) -> Dict[str, int]:
        """The modes of the scenario's box; how many modes the runner's
        context has eigendecomposed so far, counted at every ``eigh`` over
        its level basis: its packages' reads, each mode once, and the d
        kernel's level content; and how many
        its rank passes rank at most, one per orbit; none before the context
        exists, decomposes or ranks."""
        box = self.scenario.box
        decomposed = 0 if self._context is None else self._context.level_basis.decomposed
        ranked = max((p["ranked"] for p in self._rank_passes()), default=0)
        return {"box": (2 * box.K + 1) ** self.scenario.geometry.dim,
                "decomposed": decomposed, "ranked": ranked}

    # -- experiment implementations --------------------------------------

    def _run_identity_suite(self, exp: Dict) -> Dict:
        seed = int(exp.get("seed", 0))
        samples = int(exp.get("samples", 100))
        s = self.scenario.structure
        suites = (
            ("clifford", lambda: clifford_suite(s.geometry, s.box, seed=seed, samples=samples)),
            ("structure", lambda: structure_suite(s)),
            ("calculus", lambda: calculus_suite(s, seed=seed)),
            ("hodge", lambda: hodge_suite(self.context, seed=seed)),
        )
        entries = []
        times = self._timing_details["suites"] = {}
        for name, suite in suites:
            started = time.monotonic()
            entries.extend(suite())
            times[name] = time.monotonic() - started
        return {"entries": entries, "status": _status_from_entries(entries)}

    def _run_hodge_table(self, exp: Dict) -> Dict:
        table = hodge_table(self.context)
        findings = []
        for level, verdicts in table["class_checks"].items():
            for kind, ok in verdicts.items():
                if not ok:
                    findings.append(f"class check {kind} fails at level {level}")
        return {
            "tables": table,
            "findings": findings,
            "status": "finding" if findings else "pass",
        }

    def _require_series(self) -> Beltrami:
        if self.scenario.series is None:
            raise ScenarioError("experiment requires a deformation block")
        return self.scenario.series

    def _run_criterion(self, exp: Dict) -> Dict:
        series = self._require_series()
        s = self.scenario.structure
        tol = self.scenario.tolerance
        seed = int(exp.get("seed", 0))
        samples = int(exp.get("samples", 20))
        rng = np.random.default_rng(seed)
        entries = []
        constant = series.is_constant()
        # A varying eps reports only its norm gate and the frame blocks, so its
        # samples are run under strict alone: there the discarded right-hand
        # side can still raise TruncationError, the experiment's verdict.
        # Under drop the right-hand side neither raises nor inverts anything.
        run_samples = constant or s.box.policy == "strict"
        for t in exp.get("t", [0.1]):
            t = _complex_from(t)
            eps_t = series.eps_at(t)
            deformed = DeformedStructure(s, eps_t) if constant else None
            sigmas = [
                random_spinor(rng, s.geometry, s.box, max_mode=max(1, s.box.K // 2))
                for _ in range(samples if run_samples else 0)
            ]
            worst_identity = 0.0
            agree = True
            for res in holomorphy_residuals(s, eps_t, sigmas, deformed=deformed) if sigmas else []:
                if "proof_identity_residual" in res:
                    worst_identity = max(
                        worst_identity, res["proof_identity_residual"] / res["scale"]
                    )
                    lhs_zero = res["lhs_residual"] < tol * res["scale"]
                    rhs_zero = res["rhs_residual"] < tol * res["scale"]
                    agree = agree and (lhs_zero == rhs_zero)
            label = f"t={t.real:g}" if t.imag == 0 else f"t={t:g}"
            if constant:
                entries.append(
                    entry(f"criterion_proof_identity[{label}]", worst_identity, tol)
                )
                entries.append(
                    entry(f"criterion_covanish[{label}]", 0.0 if agree else 1.0, 0.5)
                )
            else:
                entries.append(
                    entry(f"criterion_norm_gate[{label}]", self.scenario.sup_norm(t), 1.0)
                )
        t0 = _complex_from(exp.get("t", [0.1])[0])
        fb = frame_block_matrices(s, series.eps_at(t0), sup_norm=self.scenario.sup_norm(t0))
        for name, value in fb["residuals"].items():
            entries.append(entry(f"frame_blocks_{name}", value, 1e-9))
        return {"entries": entries, "status": _status_from_entries(entries)}

    def _select_seed(self, level: int, index: int) -> Spinor:
        basis = self.context.package("dbar").harmonic_basis(level)
        if not basis:
            raise ScenarioError(f"no harmonic classes at level {level}")
        if not 0 <= index < len(basis):
            raise ScenarioError(
                f"seed index {index} out of range ({len(basis)} classes at level {level})"
            )
        return basis[index]

    def _run_extend(self, exp: Dict) -> Dict:
        series = self._require_series()
        tol = self.scenario.tolerance
        level = int(exp.get("level", -self.scenario.geometry.n))
        index = int(exp.get("sigma00", 0))
        order = int(exp.get("order", 3))
        variant = exp.get("variant", "standard")
        sigma00 = self._select_seed(level, index)
        ext = extend_closed_form(self.context, series, sigma00, order, variant=variant, tol=tol)
        entries = []
        for key, rec in sorted(ext.residuals.items()):
            entries.append(
                entry(f"order[{key}]_equation", rec["equation"] / rec["scale"], tol)
            )
            if rec.get("lowering") is not None and not np.isnan(rec["lowering"]):
                entries.append(
                    entry(f"order[{key}]_lowering", rec["lowering"] / rec["scale"], tol)
                )
        t_samples = [abs(_complex_from(t)) for t in exp.get("t_samples", [])]
        table: Dict = {
            "majorant": {k: round12(v) if isinstance(v, float) else v
                          for k, v in ext.majorant.items()},
            "orders": [f"{p},{q}" for p, q in sorted(ext.coefficients)],
        }
        if t_samples:
            scale = max(1.0, ext.coefficients[(0, 0)].norm())
            residuals = [ext.criterion_residual_at(t) for t in t_samples]
            table["assembled_residuals"] = {
                f"{t:g}": round12(r) for t, r in zip(t_samples, residuals)
            }
            if all(r < 1e-12 * scale for r in residuals):
                entries.append(entry("assembled_decay_noise_floor", 0.0, tol))
            else:
                if 0.0 in t_samples or len(set(t_samples)) < 2:
                    raise ScenarioError(
                        f"t_samples {exp['t_samples']}: the decay-exponent fit needs "
                        "two distinct nonzero |t| and no t = 0"
                    )
                slope = float(np.polyfit(np.log(t_samples), np.log(residuals), 1)[0])
                table["fitted_exponent"] = round12(slope)
                entries.append(
                    entry("assembled_decay_exponent_defect",
                          max(0.0, order + 0.5 - slope), 0.0)
                )
        return {
            "entries": entries,
            "tables": table,
            "status": _status_from_entries(entries),
            "dropped_mass": round12(
                sum(sig.dropped_mass() for sig in ext.coefficients.values())
            ),
        }

    def _run_scan(self, exp: Dict) -> Dict:
        series = self._require_series()
        t_samples = [_complex_from(t) for t in exp.get("t_samples", [0.0, 0.1])]
        levels = exp.get("levels")
        order = int(exp.get("order", 2))
        report = hodge_number_scan(
            self.context, series, t_samples, levels=levels, order=order,
            tol=self.scenario.tolerance,
        )
        self._timing_details.update(
            samples=len(t_samples), extensions=report["extensions"], phases=report["phases"]
        )
        rows = []
        for row in report["rows"]:
            t = row["t"]
            for k in report["levels"]:
                rows.append(
                    {
                        "t": round12(t.real) if t.imag == 0 else str(t),
                        "level": k,
                        "dimension": row["dims"][k],
                        "injectivity_rank": row["injectivity_rank"][k],
                    }
                )
        entries = []
        for k in report["levels"]:
            entries.append(
                entry(f"constancy_defect[level={k}]",
                      0.0 if report["constant"][k] else 1.0, 0.5)
            )
            base = report["base_dims"][k]
            rank_ok = all(
                row["injectivity_rank"][k] == base for row in report["rows"]
            )
            entries.append(
                entry(f"injectivity_rank_defect[level={k}]", 0.0 if rank_ok else 1.0, 0.5)
            )
        return {
            "entries": entries,
            "tables": {"rows": rows, "constant": {str(k): v for k, v in report["constant"].items()}},
            "status": _status_from_entries(entries),
        }

    # -- main loop --------------------------------------------------------

    def run(self) -> Dict:
        report = {
            "tool": {"name": "gentorus", "version": __version__},
            "config": self.scenario.config,
            "experiments": [],
        }
        timings = []
        counts = {"pass": 0, "fail": 0, "finding": 0, "error": 0}
        handlers = {
            "identity-suite": self._run_identity_suite,
            "hodge-table": self._run_hodge_table,
            "criterion": self._run_criterion,
            "extend": self._run_extend,
            "scan": self._run_scan,
        }
        for exp in self.scenario.experiments:
            kind = exp["kind"]
            record: Dict = {"kind": kind}
            counts_before = self._check_counts()
            passes_before = len(self._rank_passes())
            self._timing_details = {}
            started = time.monotonic()
            try:
                handler = handlers.get(kind)
                if handler is None:
                    raise ScenarioError(f"unknown experiment kind {kind!r}")
                result = handler(exp)
                record.update(result)
            except ObstructionError as err:
                record["status"] = "finding"
                record["findings"] = [str(err)]
                record["data"] = {k: round12(v) if isinstance(v, float) else v
                                   for k, v in err.data.items()}
            except (ScenarioError, DeformationError, TruncationError, ValueError) as err:
                record["status"] = "error"
                record["error"] = f"{type(err).__name__}: {err}"
            if "entries" in record:
                record["entries"] = [
                    {
                        "name": e["name"],
                        "value": round12(e["value"]),
                        "tolerance": round12(e["tolerance"]),
                        "passed": e["passed"],
                    }
                    for e in record["entries"]
                ]
            # strict-policy runs never drop spectral content silently, so
            # experiments report zero unless they surfaced a total themselves
            record.setdefault("dropped_mass", round12(0.0))
            wall = time.monotonic() - started
            counts_after = self._check_counts()
            timing = {
                "kind": kind,
                "wall_time_s": wall,
                "class_checks": {
                    key: counts_after[key] - counts_before[key] for key in CHECK_COUNTERS
                },
                "modes": self._mode_counts(),
                "rank_passes": self._rank_passes()[passes_before:],
            }
            timing.update(self._timing_details)
            timings.append(timing)
            counts[record["status"]] += 1
            report["experiments"].append(record)
            if self.fail_fast and record["status"] in ("fail", "error", "finding"):
                break
        if counts["error"]:
            status = "error"
        elif counts["finding"] or counts["fail"]:
            status = "finding" if counts["finding"] and not counts["fail"] else "fail"
        else:
            status = "pass"
        report["summary"] = {"status": status, **counts}
        self.timings = timings
        return report


def run_scenario(config: Dict, fail_fast: bool = False) -> Tuple[Dict, List[Dict]]:
    """Parse, run, and return (report, timings)."""
    scenario = Scenario(config)
    runner = Runner(scenario, fail_fast=fail_fast)
    report = runner.run()
    return report, runner.timings


def exit_code_for(report: Dict) -> int:
    """0 all pass; 2 mathematical finding; 1 operational failure."""
    status = report.get("summary", {}).get("status")
    if status == "pass":
        return 0
    if status == "finding":
        return 2
    return 1
