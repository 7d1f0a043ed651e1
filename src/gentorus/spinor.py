"""Spinors and the Clifford module over T + T*.

A spinor is an element of the full exterior algebra of the cotangent bundle
with Fourier-series coefficients.  Sections of T + T* act on spinors by
interior contraction plus wedge,

    (X + xi) . sigma = i_X sigma + xi ^ sigma,

which satisfies the Clifford relation a.b.sigma + b.a.sigma = <a, b> sigma
for the pairing <X + xi, Y + eta> = xi(Y) + eta(X) (no 1/2 factor).

Monomials are stored as strictly increasing tuples of 0-based cotangent
generator indices; every sign in the package is derived from sorting
permutations against this one canonical order.

A spinor holds its coefficients as one
:class:`~gentorus.fourier.FourierMatrix` column over the
:func:`monomial_list` basis.  A map that acts mode by mode (Hodge operators,
level projections, the metric pairing, the transport inverse, d) is one
product over the modes (:meth:`Spinor.map_modes`), and a product with
varying coefficients (wedge, a frame polynomial's Clifford action) is one
``FourierMatrix.matmul`` of the operand's action matrix, built from its
coefficients and the constant matrices of :func:`clifford_generators`, with
the spinor's column.  A list of sections is a (4n, 2n) ``FourierMatrix``
stack whose column i holds section i's tangent then cotangent components,
and a frame polynomial (:class:`CliffordPoly`) is one ``FourierMatrix`` row
over the slot keys of its degree, held with the stack of its frame.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .fourier import (
    FourierMatrix,
    FourierScalar,
    GeometryMismatch,
    TorusGeometry,
    TruncationBox,
)

Monomial = Tuple[int, ...]


def _merge_index(indices: Monomial, j: int) -> Tuple[Monomial, int] | None:
    """Insert generator j into a sorted monomial; None if it already occurs."""
    if j in indices:
        return None
    pos = 0
    while pos < len(indices) and indices[pos] < j:
        pos += 1
    sign = -1 if pos % 2 else 1
    return indices[:pos] + (j,) + indices[pos:], sign


def sort_monomial(indices: Sequence[int]) -> Tuple[Monomial, int] | None:
    """Sort a generator tuple, returning (sorted tuple, permutation sign).

    Returns None when an index repeats (the monomial vanishes).
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort; parity of the number of transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class Spinor:
    """Element of the exterior algebra with Fourier-series coefficients.

    The coefficients are one :class:`~gentorus.fourier.FourierMatrix`
    column, ``stack``: modes (P, 2n), coefficients (P, 2^{2n}, 1) on the
    :func:`monomial_list` basis and the dropped mass of each component.
    The constructor takes a dict from strictly increasing index tuples to
    :class:`FourierScalar` coefficients; ``comps`` reads the stack back as
    such scalars.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        box: TruncationBox,
        comps: Dict[Monomial, FourierScalar] | None = None,
    ):
        index = monomial_index(geometry.dim)
        entries = []
        for mono, f in (comps or {}).items():
            mono = tuple(int(i) for i in mono)
            if any(not 0 <= i < geometry.dim for i in mono):
                raise ValueError(f"monomial {mono} out of range")
            if tuple(sorted(mono)) != mono or len(set(mono)) != len(mono):
                raise ValueError(f"monomial {mono} is not strictly increasing")
            if f.geometry != geometry or f.box != box:
                raise GeometryMismatch("spinor coefficient in a different space")
            entries.append(((index[mono], 0), f))
        self.stack = FourierMatrix.from_entries(geometry, box, (len(index), 1), entries)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_stack(cls, stack: FourierMatrix) -> "Spinor":
        """The spinor whose coefficient column is ``stack``."""
        out = cls.__new__(cls)
        out.stack = stack
        return out

    @classmethod
    def from_modes(
        cls, geometry: TorusGeometry, box: TruncationBox, modes, rows: np.ndarray
    ) -> "Spinor":
        """The spinor with coefficient rows ``rows`` (P, 2^{2n}) at ``modes`` (P, 2n)."""
        rows = np.asarray(rows, dtype=complex)
        return cls.from_stack(FourierMatrix(geometry, box, modes, rows[:, :, None]))

    @classmethod
    def zero(cls, geometry: TorusGeometry, box: TruncationBox) -> "Spinor":
        return cls.from_stack(FourierMatrix.zero(geometry, box, (2 ** geometry.dim, 1)))

    # ------------------------------------------------------------------
    # the coefficient stack
    # ------------------------------------------------------------------

    @property
    def geometry(self) -> TorusGeometry:
        return self.stack.geometry

    @property
    def box(self) -> TruncationBox:
        return self.stack.box

    @property
    def modes(self) -> np.ndarray:
        """The (P, 2n) modes that carry a nonzero coefficient."""
        return self.stack.modes

    @property
    def rows(self) -> np.ndarray:
        """The (P, 2^{2n}) coefficient rows at ``modes``."""
        return self.stack.coeffs[:, :, 0]

    def map_modes(self, ops: np.ndarray) -> "Spinor":
        """A linear map applied mode by mode: ``ops`` is one (2^{2n}, 2^{2n})
        matrix for every mode or a (P, 2^{2n}, 2^{2n}) stack, one per mode.

        The map moves coefficients between components, so the result
        carries no dropped mass.
        """
        rows = self.rows @ ops.T if ops.ndim == 2 else np.einsum("mij,mj->mi", ops, self.rows)
        return Spinor.from_modes(self.geometry, self.box, self.modes, rows)

    # ------------------------------------------------------------------
    # linear structure
    # ------------------------------------------------------------------

    def add(self, other: "Spinor") -> "Spinor":
        return Spinor.from_stack(self.stack.add(other.stack))

    def scale(self, c) -> "Spinor":
        return Spinor.from_stack(self.stack.scale(c))

    def __add__(self, other: "Spinor") -> "Spinor":
        return self.add(other)

    def __sub__(self, other: "Spinor") -> "Spinor":
        return self.add(other.scale(-1))

    def __neg__(self) -> "Spinor":
        return self.scale(-1)

    def __rmul__(self, c) -> "Spinor":
        return self.scale(c)

    def conj(self) -> "Spinor":
        return Spinor.from_stack(self.stack.conj())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def comps(self) -> Dict[Monomial, FourierScalar]:
        """The components with a nonzero coefficient or dropped mass, as scalars."""
        keys = monomial_list(self.geometry.dim)
        return {keys[j]: self.stack[j, 0] for j in _live_columns(self.stack.T)}

    def norm(self) -> float:
        return self.stack.norm()

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not len(self.stack.modes)
        return bool(np.abs(self.stack.coeffs).max(initial=0.0) <= tol)

    def dropped_mass(self) -> float:
        return float(self.stack.dropped_mass.sum())

    def embed(self, box: TruncationBox) -> "Spinor":
        s = self.stack
        return Spinor.from_stack(FourierMatrix(s.geometry, box, s.modes, s.coeffs, s.dropped_mass))

    def __repr__(self) -> str:
        comps = self.comps
        if not comps:
            return "Spinor(0)"
        parts = [f"dx{list(m)}: {f!r}" for m, f in sorted(comps.items())]
        return "Spinor({" + ", ".join(parts) + "})"


def _live_columns(row: FourierMatrix) -> np.ndarray:
    """The columns of a one-row stack with a nonzero coefficient or dropped mass."""
    return np.flatnonzero(np.any(row.coeffs[:, 0], axis=0) | (row.dropped_mass[0] > 0))


def _action(weights: FourierMatrix, matrices: np.ndarray) -> FourierMatrix:
    """sum_j weights[0, j] matrices[j]: constant matrices with the
    Fourier-series weights of a one-row matrix.

    An entry's dropped mass is the sum of the dropped mass of the weights
    whose matrix is nonzero there.
    """
    size = matrices.shape[1:]
    flat = matrices.reshape(len(matrices), size[0] * size[1])
    return FourierMatrix._from_sorted(
        weights.geometry,
        weights.box,
        weights.modes,
        (weights.coeffs[:, 0] @ flat).reshape((-1,) + size),
        (weights.dropped_mass[0] @ (flat != 0)).reshape(size),
    )


def _word_action(row: FourierMatrix, keys: Sequence[Monomial], gens: np.ndarray) -> FourierMatrix:
    """sum_j row[0, j] g[keys[j][0]] ... g[keys[j][-1]] over the live columns
    j of a one-row stack (see :func:`_action`), g the constant (N, N)
    matrices ``gens``: a word is built only where a column carries a weight."""
    live, eye = _live_columns(row), np.eye(gens.shape[1])
    words = [functools.reduce(np.matmul, [gens[i] for i in keys[j]], eye) for j in live]
    weights = FourierMatrix._from_sorted(
        row.geometry, row.box, row.modes, row.coeffs[:, :, live], row.dropped_mass[:, live]
    )
    return _action(weights, np.array(words).reshape((-1,) + eye.shape))


def wedge_matrix(form: Spinor) -> FourierMatrix:
    """The matrix of the left wedge product by ``form`` on the monomial basis:
    the weights of its live monomials dx^I on their words dx^I ^, each a
    product of the wedge generators."""
    dim = form.geometry.dim
    return _word_action(form.stack.T, monomial_list(dim), clifford_generators(dim)[dim:])


def wedge(a: Spinor, b: Spinor) -> Spinor:
    """Exterior product a ^ b."""
    return Spinor.from_stack(wedge_matrix(a).matmul(b.stack))


def _stack_linear(const: np.ndarray, slopes: np.ndarray, modes) -> np.ndarray:
    """The operators C + 2 pi i sum_a k_a A_a at the given modes, stacked.

    ``const`` is (N, N), ``slopes`` is (dim, N, N) and ``modes`` a sequence
    of integer dim-tuples; the result is (len(modes), N, N).
    """
    k = np.asarray(modes, dtype=float).reshape(-1, len(slopes))
    out = np.einsum("ma,aij->mij", 2j * math.pi * k, slopes)
    out += const
    return out


class CliffordPoly:
    """Antisymmetric polynomial over an ordered frame of T + T* sections.

    ``frame`` is the :class:`~gentorus.fourier.FourierMatrix` stack of the
    frame, one column of (tangent, cotangent) components per slot, held as
    given: polynomials share a frame only when they hold the same stack
    object.  The coefficients are one ``FourierMatrix`` row, ``stack``,
    over ``keys``, the degree's strictly increasing slot-index tuples in
    ``itertools.combinations`` order; the constructor takes a dict from
    slot tuples to FourierScalar coefficients, and ``coeffs`` and ``terms``
    read the row back as such scalars.  The coefficient convention follows
    the evaluation rule  a(l_{j1}, ..., l_{jp}) = a_{j1...jp}  with the
    full antisymmetric extension to unordered tuples.
    """

    def __init__(
        self,
        frame: FourierMatrix,
        degree: int,
        coeffs: Dict[Tuple[int, ...], FourierScalar] | None = None,
    ):
        self.frame = frame
        self.geometry = frame.geometry
        self.box = frame.box
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        # degrees above the frame size are allowed and identically zero
        # (every slot tuple would repeat an index)
        clean: Dict[Tuple[int, ...], FourierScalar] = {}
        if coeffs:
            for key, f in coeffs.items():
                key = tuple(int(i) for i in key)
                if len(key) != self.degree:
                    raise ValueError(f"tuple {key} has wrong arity")
                if any(not 0 <= i < frame.shape[1] for i in key):
                    raise ValueError(f"slot index out of range in {key}")
                sorted_sign = sort_monomial(key)
                if sorted_sign is None:
                    continue
                skey, sign = sorted_sign
                term = f.scale(sign)
                clean[skey] = clean[skey].add(term) if skey in clean else term
        column = {key: j for j, key in enumerate(self.keys)}
        self.stack = FourierMatrix.from_entries(
            self.geometry, self.box, (1, len(column)),
            (((0, column[key]), f) for key, f in clean.items()),
        )
        self._matrix: FourierMatrix | None = None  # the action matrix, built on first use

    @classmethod
    def from_stack(cls, frame: FourierMatrix, degree: int, stack: FourierMatrix) -> "CliffordPoly":
        """The degree-``degree`` polynomial whose coefficient row is ``stack``."""
        out = cls.__new__(cls)
        out.frame, out.geometry, out.box = frame, stack.geometry, stack.box
        out.degree, out.stack, out._matrix = int(degree), stack, None
        return out

    @classmethod
    def zero(cls, frame: FourierMatrix, degree: int) -> "CliffordPoly":
        return cls(frame, degree, {})

    @classmethod
    def constant(cls, frame: FourierMatrix, key: Sequence[int], c=1.0) -> "CliffordPoly":
        f = FourierScalar.constant(frame.geometry, frame.box, c)
        return cls(frame, len(tuple(key)), {tuple(key): f})

    @property
    def keys(self) -> List[Tuple[int, ...]]:
        """The slot keys of the degree, one per column of ``stack``."""
        return list(itertools.combinations(range(self.frame.shape[1]), self.degree))

    @property
    def coeffs(self) -> Dict[Tuple[int, ...], FourierScalar]:
        """The keys with a nonzero coefficient or dropped mass, as scalars."""
        keys = self.keys
        return {keys[j]: self.stack[0, j] for j in _live_columns(self.stack)}

    def add(self, other: "CliffordPoly") -> "CliffordPoly":
        if other.frame is not self.frame:
            raise ValueError("cannot add polynomials over different frames")
        if other.degree != self.degree:
            raise ValueError("cannot add polynomials of different degrees")
        return CliffordPoly.from_stack(self.frame, self.degree, self.stack.add(other.stack))

    def scale(self, c) -> "CliffordPoly":
        return CliffordPoly.from_stack(self.frame, self.degree, self.stack.scale(c))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, c):
        return self.scale(c)

    def norm(self) -> float:
        """The root sum of the keys' squared norms, each summed as FourierScalar.norm sums."""
        columns = self.stack.coeffs[:, 0].T.tolist()
        return math.sqrt(sum(math.sqrt(sum(abs(c) ** 2 for c in col)) ** 2 for col in columns))

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not len(self.stack.modes)
        return bool(np.abs(self.stack.coeffs).max(initial=0.0) <= tol)

    def action_matrix(self) -> FourierMatrix:
        """The matrix of the iterated Clifford action, slots applied in
        increasing tuple order: the sum of the coefficients times the
        constant matrices of the slot words, built on first use.  The frame
        must be constant."""
        if self._matrix is None:
            if not self.frame.is_constant():
                raise ValueError("the Clifford action needs a constant frame")
            dim = self.geometry.dim
            slots = [constant_clifford_matrix(v, dim) for v in self.frame.constant_values().T]
            self._matrix = _word_action(self.stack, self.keys, np.array(slots))
        return self._matrix

    def act(self, sigma: Spinor, policy: str | None = None) -> Spinor:
        """Iterated Clifford action: one product of :meth:`action_matrix`
        with sigma's column."""
        return Spinor.from_stack(self.action_matrix().matmul(sigma.stack, policy=policy))

    def wedge(self, other: "CliffordPoly") -> "CliffordPoly":
        """Exterior product over a common frame.

        For polynomials over an isotropic frame the Clifford product of the
        slot words equals the wedge, so acting with the product matches the
        iterated action up to the usual graded sign.
        """
        if other.frame is not self.frame:
            raise ValueError("wedge needs a common frame")
        out: Dict[Tuple[int, ...], FourierScalar] = {}
        terms_b = list(other.terms())
        for ka, fa in self.terms():
            for kb, fb in terms_b:
                sorted_sign = sort_monomial(ka + kb)
                if sorted_sign is None:
                    continue
                key, sign = sorted_sign
                term = fa.mul(fb).scale(sign)
                out[key] = out[key].add(term) if key in out else term
        return CliffordPoly(self.frame, self.degree + other.degree, out)

    def terms(self) -> Iterable[Tuple[Tuple[int, ...], FourierScalar]]:
        return self.coeffs.items()

    def __repr__(self) -> str:
        return f"CliffordPoly(degree={self.degree}, terms={len(_live_columns(self.stack))})"


_MONOMIAL_CACHE: Dict[int, List[Monomial]] = {}
_MONOMIAL_INDEX_CACHE: Dict[int, Dict[Monomial, int]] = {}
_GENERATOR_CACHE: Dict[int, np.ndarray] = {}


def monomial_list(dim: int) -> List[Monomial]:
    """All monomials of the dim generators, ordered by (degree, lex)."""
    if dim not in _MONOMIAL_CACHE:
        monos: List[Monomial] = []
        for size in range(dim + 1):
            monos.extend(itertools.combinations(range(dim), size))
        _MONOMIAL_CACHE[dim] = monos
        _MONOMIAL_INDEX_CACHE[dim] = {m: i for i, m in enumerate(monos)}
    return _MONOMIAL_CACHE[dim]


def monomial_index(dim: int) -> Dict[Monomial, int]:
    monomial_list(dim)
    return _MONOMIAL_INDEX_CACHE[dim]


def clifford_generators(dim: int) -> np.ndarray:
    """The (2 dim, N, N) matrices of the Clifford action of the coordinate
    sections d/dx^0 .. d/dx^{dim-1}, dx^0 .. dx^{dim-1} on the monomial basis."""
    if dim not in _GENERATOR_CACHE:
        monos = monomial_list(dim)
        idx = monomial_index(dim)
        size = len(monos)
        out = np.zeros((2 * dim, size, size))
        for col, mono in enumerate(monos):
            # interior product by d/dx^j
            for pos, j in enumerate(mono):
                out[j, idx[mono[:pos] + mono[pos + 1 :]], col] = -1 if pos % 2 else 1
            # wedge by dx^j
            for j in range(dim):
                merged = _merge_index(mono, j)
                if merged is not None:
                    out[dim + j, idx[merged[0]], col] = merged[1]
        _GENERATOR_CACHE[dim] = out
    return _GENERATOR_CACHE[dim]


def constant_clifford_matrix(values: np.ndarray, dim: int) -> np.ndarray:
    """Matrix of the Clifford action of a constant section on the monomial basis.

    ``values`` holds the 4n components (tangent first, then cotangent).
    """
    return np.tensordot(np.asarray(values, dtype=complex), clifford_generators(dim), axes=1)


def random_terms(
    rng: np.random.Generator, dim: int, max_mode: int, terms: int
) -> Dict[Tuple[int, ...], complex]:
    """The mode -> coefficient draws of one random scalar: per term, its
    mode's dim integers in [-max_mode, max_mode], then a complex normal;
    repeated modes are summed in draw order.  At max mode 0 the mode is
    zero and not drawn, as ``rng.integers(0, 1)`` returns 0 and leaves the
    generator where it was."""
    coeffs: Dict[Tuple[int, ...], complex] = {}
    zero = (0,) * dim
    for _ in range(terms):
        mode = (
            tuple(int(rng.integers(-max_mode, max_mode + 1)) for _ in range(dim))
            if max_mode else zero
        )
        coeffs[mode] = coeffs.get(mode, 0.0) + complex(rng.normal(), rng.normal())
    return coeffs


def random_fourier_scalar(
    rng: np.random.Generator,
    geometry: TorusGeometry,
    box: TruncationBox,
    max_mode: int | None = None,
    terms: int = 2,
) -> FourierScalar:
    """Small random trigonometric polynomial for randomized identity tests."""
    if max_mode is None:
        max_mode = box.K
    return FourierScalar(geometry, box, random_terms(rng, geometry.dim, max_mode, terms))


def random_spinor(
    rng: np.random.Generator,
    geometry: TorusGeometry,
    box: TruncationBox,
    max_mode: int | None = None,
    terms: int = 1,
) -> Spinor:
    """A random spinor: one :func:`random_fourier_scalar` per component, in
    :func:`monomial_list` order, drawn straight into the coefficient stack."""
    if max_mode is None:
        max_mode = box.K
    size = 2 ** geometry.dim
    modes, rows, values = [], [], []
    for row in range(size):
        for mode, c in random_terms(rng, geometry.dim, max_mode, terms).items():
            modes.append(mode)
            rows.append(row)
            values.append(c)
    coeffs = np.zeros((len(values), size, 1), dtype=complex)
    coeffs[np.arange(len(values)), rows, 0] = values
    return Spinor.from_stack(FourierMatrix(geometry, box, modes, coeffs))
