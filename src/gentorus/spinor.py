"""Spinors and the Clifford module over T + T*.

A spinor is an element of the full exterior algebra of the cotangent bundle
with :class:`~gentorus.fourier.FourierScalar` coefficients.  Sections of
T + T* act on spinors by interior contraction plus wedge,

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
varying coefficients (wedge, contraction, Clifford action) is one
``FourierMatrix.matmul`` of the operand's action matrix, built from its
coefficients and the constant matrices of :func:`clifford_generators`, with
the spinor's column.  A frame polynomial (:class:`CliffordPoly`) is one
``FourierMatrix`` row over the slot keys of its degree.
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
    :class:`FourierScalar` coefficients; ``comps`` and ``coefficient`` read
    the stack back as such scalars.
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
        return cls(geometry, box, {})

    @classmethod
    def scalar(cls, f: FourierScalar) -> "Spinor":
        return cls(f.geometry, f.box, {(): f})

    @classmethod
    def constant_form(
        cls, geometry: TorusGeometry, box: TruncationBox, mono: Sequence[int], c=1.0
    ) -> "Spinor":
        key = tuple(int(i) for i in mono)
        return cls(geometry, box, {key: FourierScalar.constant(geometry, box, c)})

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

    def scale_scalar(self, g: FourierScalar) -> "Spinor":
        """g sigma: one product of the column with the 1 x 1 stack of g."""
        return Spinor.from_stack(self.stack.matmul(FourierMatrix.from_scalars([[g]])))

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

    def coefficient(self, mono: Sequence[int]) -> FourierScalar:
        j = monomial_index(self.geometry.dim).get(tuple(int(i) for i in mono))
        if j is None:
            return FourierScalar.zero(self.geometry, self.box)
        return self.stack[j, 0]

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


def form_reversal(a: Spinor) -> Spinor:
    """Reversal anti-automorphism: degree-p parts pick up (-1)^{p(p-1)/2}."""
    signs = [-1 if (len(m) * (len(m) - 1) // 2) % 2 else 1 for m in monomial_list(a.geometry.dim)]
    return a.map_modes(np.diag(signs))


class CourantVector:
    """Section X + xi of T + T*, components as FourierScalars.

    ``tangent`` and ``cotangent`` are length-2n tuples indexed by coordinate
    axis.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        box: TruncationBox,
        tangent: Sequence[FourierScalar],
        cotangent: Sequence[FourierScalar],
    ):
        if len(tangent) != geometry.dim or len(cotangent) != geometry.dim:
            raise ValueError("component count must be 2n for each of X and xi")
        self.geometry = geometry
        self.box = box
        self.tangent = tuple(tangent)
        self.cotangent = tuple(cotangent)

    @classmethod
    def zero(cls, geometry: TorusGeometry, box: TruncationBox) -> "CourantVector":
        z = [FourierScalar.zero(geometry, box) for _ in range(geometry.dim)]
        return cls(geometry, box, z, list(z))

    @classmethod
    def constant(
        cls,
        geometry: TorusGeometry,
        box: TruncationBox,
        tangent: Sequence[complex],
        cotangent: Sequence[complex],
    ) -> "CourantVector":
        tan = [FourierScalar.constant(geometry, box, c) for c in tangent]
        cot = [FourierScalar.constant(geometry, box, c) for c in cotangent]
        return cls(geometry, box, tan, cot)

    @classmethod
    def basis_vector(
        cls, geometry: TorusGeometry, box: TruncationBox, axis: int
    ) -> "CourantVector":
        tan = [0.0] * geometry.dim
        tan[axis] = 1.0
        return cls.constant(geometry, box, tan, [0.0] * geometry.dim)

    @classmethod
    def basis_form(
        cls, geometry: TorusGeometry, box: TruncationBox, axis: int
    ) -> "CourantVector":
        cot = [0.0] * geometry.dim
        cot[axis] = 1.0
        return cls.constant(geometry, box, [0.0] * geometry.dim, cot)

    def add(self, other: "CourantVector") -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.add(b) for a, b in zip(self.tangent, other.tangent)],
            [a.add(b) for a, b in zip(self.cotangent, other.cotangent)],
        )

    def scale(self, c) -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.scale(c) for a in self.tangent],
            [a.scale(c) for a in self.cotangent],
        )

    def scale_scalar(self, f: FourierScalar, policy: str | None = None) -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.mul(f, policy=policy) for a in self.tangent],
            [a.mul(f, policy=policy) for a in self.cotangent],
        )

    def conj(self) -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.conj() for a in self.tangent],
            [a.conj() for a in self.cotangent],
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, c):
        return self.scale(c)

    def is_constant(self, tol: float = 0.0) -> bool:
        zero_mode = (0,) * self.geometry.dim
        for f in self.tangent + self.cotangent:
            for m, c in f.coeffs.items():
                if m != zero_mode and abs(c) > tol:
                    return False
        return True

    def constant_values(self) -> np.ndarray:
        """Components as a complex vector (X then xi); constant sections only."""
        zero_mode = (0,) * self.geometry.dim
        vals = [f.coefficient(zero_mode) for f in self.tangent + self.cotangent]
        return np.asarray(vals, dtype=complex)

    def norm(self) -> float:
        return math.sqrt(sum(f.norm() ** 2 for f in self.tangent + self.cotangent))

    def __repr__(self) -> str:
        return f"CourantVector(X={list(self.tangent)}, xi={list(self.cotangent)})"


def pairing(a: CourantVector, b: CourantVector, policy: str | None = None) -> FourierScalar:
    """<X + xi, Y + eta> = xi(Y) + eta(X); symmetric, no 1/2 factor."""
    if a.geometry != b.geometry or a.box != b.box:
        raise GeometryMismatch("pairing of sections in different spaces")
    out = FourierScalar.zero(a.geometry, a.box)
    for j in range(a.geometry.dim):
        out = out.add(a.cotangent[j].mul(b.tangent[j], policy=policy))
        out = out.add(b.cotangent[j].mul(a.tangent[j], policy=policy))
    return out


def clifford_matrix(a: CourantVector) -> FourierMatrix:
    """The matrix of the Clifford action of a section on the monomial basis."""
    weights = FourierMatrix.from_scalars([a.tangent + a.cotangent])
    return _action(weights, clifford_generators(a.geometry.dim))


def contract(a: CourantVector, sigma: Spinor) -> Spinor:
    """Interior product i_X sigma by the tangent part of a."""
    dim = a.geometry.dim
    action = _action(FourierMatrix.from_scalars([a.tangent]), clifford_generators(dim)[:dim])
    return Spinor.from_stack(action.matmul(sigma.stack))


def clifford_act(a: CourantVector, sigma: Spinor) -> Spinor:
    """Clifford action (X + xi) . sigma = i_X sigma + xi ^ sigma."""
    return Spinor.from_stack(clifford_matrix(a).matmul(sigma.stack))


def clifford_act_many(vectors: Sequence[CourantVector], sigma: Spinor) -> Spinor:
    """Iterated action v1 . v2 . ... . vk . sigma (rightmost acts first)."""
    out = sigma
    for v in reversed(vectors):
        out = clifford_act(v, out)
    return out


def _stack_linear(const: np.ndarray, slopes: np.ndarray, modes) -> np.ndarray:
    """The operators C + 2 pi i sum_a k_a A_a at the given modes, stacked.

    ``const`` is (N, N), ``slopes`` is (dim, N, N) and ``modes`` a sequence
    of integer dim-tuples; the result is (len(modes), N, N).
    """
    k = np.asarray(modes, dtype=float).reshape(-1, len(slopes))
    out = np.einsum("ma,aij->mij", 2j * math.pi * k, slopes)
    out += const
    return out


def exterior_derivative(sigma: Spinor) -> Spinor:
    """Coordinate exterior derivative d sigma: 2 pi i sum_a k_a dx^a ^ at mode k."""
    dim = sigma.geometry.dim
    slopes = clifford_generators(dim)[dim:]
    return sigma.map_modes(_stack_linear(0.0, slopes, sigma.modes))


def courant_bracket(
    a: CourantVector,
    b: CourantVector,
    H: Spinor | None = None,
    policy: str | None = None,
) -> CourantVector:
    """H-twisted Courant bracket of sections of T + T*.

    [X + xi, Y + eta]_H = [X, Y] + L_X eta - L_Y xi
                          - 1/2 d(i_X eta - i_Y xi) + i_Y i_X H.

    By the Cartan formula L_X eta = d(i_X eta) + i_X d eta, the 1-form part
    is, with s = i_X eta - i_Y xi and sums over repeated indices,
        1/2 d_j s + X^k (d_k eta_j - d_j eta_k) - Y^k (d_k xi_j - d_j xi_k)
        + H_klj X^k Y^l.
    """
    geom, box = a.geometry, a.box
    dim = geom.dim
    X, xi, Y, eta = a.tangent, a.cotangent, b.tangent, b.cotangent
    zero = FourierScalar.zero(geom, box)

    def grad(f: FourierScalar) -> List[FourierScalar | None]:
        """d_0 f .. d_{dim-1} f; all None for a constant f."""
        return [f.derive(k) for k in range(dim)] if any(map(any, f.coeffs)) else [None] * dim

    def total(terms) -> FourierScalar:
        """The sum of c f g over (c, f, g) terms, zero and None factors skipped."""
        out = zero
        for c, f, g in terms:
            if f is not None and g is not None and f.coeffs and g.coeffs:
                out = out.add(f.mul(g, policy=policy).scale(c))
        return out

    # dX[j][k] is d_k X^j
    dX, dY, dxi, deta = ([grad(f) for f in v] for v in (X, Y, xi, eta))

    # vector-field bracket [X, Y]^j = X^k d_k Y^j - Y^k d_k X^j
    lie_tan = [
        total([(c, f[k], g[j][k]) for c, f, g in ((1, X, dY), (-1, Y, dX)) for k in range(dim)])
        for j in range(dim)
    ]
    s = total([(1, eta[k], X[k]) for k in range(dim)] + [(-1, xi[k], Y[k]) for k in range(dim)])
    cot = []
    for j in range(dim):
        terms = []
        for k in range(dim):
            if k != j:
                terms += [(1, X[k], deta[j][k]), (-1, X[k], deta[k][j]),
                          (-1, Y[k], dxi[j][k]), (1, Y[k], dxi[k][j])]
        cot.append(s.derive(j).scale(0.5).add(total(terms)))

    if H is not None:
        for mono, h in H.comps.items():
            if len(mono) == 3:
                for k, l, j in itertools.permutations(mono):
                    sign = sort_monomial((k, l, j))[1]
                    cot[j] = cot[j].add(total([(sign, total([(1, X[k], Y[l])]), h)]))
    return CourantVector(geom, box, lie_tan, cot)


class CliffordPoly:
    """Antisymmetric polynomial over an ordered frame of T + T* sections.

    Stored as one :class:`~gentorus.fourier.FourierMatrix` row, ``stack``,
    over ``keys``, the degree's strictly increasing slot-index tuples in
    ``itertools.combinations`` order; the constructor takes a dict from
    slot tuples to FourierScalar coefficients, and ``coeffs``, ``terms`` and
    ``coefficient`` read the row back as such scalars.  Every slot is
    resolved to a frame :class:`CourantVector`.  The coefficient convention
    follows the evaluation rule  a(l_{j1}, ..., l_{jp}) = a_{j1...jp}  with
    the full antisymmetric extension to unordered tuples.
    """

    def __init__(
        self,
        frame: Sequence[CourantVector],
        degree: int,
        coeffs: Dict[Tuple[int, ...], FourierScalar] | None = None,
    ):
        if not frame:
            raise ValueError("frame must be nonempty")
        self.frame = tuple(frame)
        self.geometry = frame[0].geometry
        self.box = frame[0].box
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
                if any(not 0 <= i < len(self.frame) for i in key):
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
    def from_stack(
        cls, frame: Sequence[CourantVector], degree: int, stack: FourierMatrix
    ) -> "CliffordPoly":
        """The degree-``degree`` polynomial whose coefficient row is ``stack``."""
        out = cls.__new__(cls)
        out.frame, out.geometry, out.box = tuple(frame), stack.geometry, stack.box
        out.degree, out.stack, out._matrix = int(degree), stack, None
        return out

    @classmethod
    def zero(cls, frame: Sequence[CourantVector], degree: int) -> "CliffordPoly":
        return cls(frame, degree, {})

    @classmethod
    def constant(
        cls, frame: Sequence[CourantVector], key: Sequence[int], c=1.0
    ) -> "CliffordPoly":
        geom = frame[0].geometry
        box = frame[0].box
        return cls(
            frame,
            len(tuple(key)),
            {tuple(key): FourierScalar.constant(geom, box, c)},
        )

    @property
    def keys(self) -> List[Tuple[int, ...]]:
        """The slot keys of the degree, one per column of ``stack``."""
        return list(itertools.combinations(range(len(self.frame)), self.degree))

    @property
    def coeffs(self) -> Dict[Tuple[int, ...], FourierScalar]:
        """The keys with a nonzero coefficient or dropped mass, as scalars."""
        keys = self.keys
        return {keys[j]: self.stack[0, j] for j in _live_columns(self.stack)}

    def add(self, other: "CliffordPoly") -> "CliffordPoly":
        if other.degree != self.degree or len(other.frame) != len(self.frame):
            raise ValueError("cannot add polynomials of different shapes")
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

    def coefficient(self, key: Sequence[int]) -> FourierScalar:
        """Fully antisymmetric coefficient a_{j1...jp} for any index tuple."""
        sorted_sign = sort_monomial(tuple(int(i) for i in key))
        keys = self.keys
        if sorted_sign is None or sorted_sign[0] not in keys:
            return FourierScalar.zero(self.geometry, self.box)
        return self.stack[0, keys.index(sorted_sign[0])].scale(sorted_sign[1])

    def action_matrix(self) -> FourierMatrix:
        """The matrix of the iterated Clifford action, slots applied in
        increasing tuple order: the sum of the coefficients times the
        constant matrices of the slot words, built on first use.  The frame
        must be constant."""
        if self._matrix is None:
            if not all(v.is_constant() for v in self.frame):
                raise ValueError("the Clifford action needs a constant frame")
            dim = self.geometry.dim
            slots = [constant_clifford_matrix(v.constant_values(), dim) for v in self.frame]
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
        if other.frame != self.frame:
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

    def partial_eval(
        self, v: CourantVector, argument_duals: Sequence[CourantVector]
    ) -> CourantVector:
        """Clifford partial evaluation a(v) for degree-2 polynomials.

        For eps = (1/2) eps_{ij} f^i f^j over an isotropic frame {f^i} whose
        arguments f_p are extracted by pairing with ``argument_duals`` (so
        <argument_duals[p], f_q> = delta_pq), the commutator rule
        eps . v . rho = eps(v) . rho + v . eps . rho resolves to
        eps(f_p) = eps_{ip} f^i; sections outside the argument span are
        killed.
        """
        if self.degree != 2:
            raise ValueError("partial evaluation implemented for degree 2 only")
        out = CourantVector.zero(self.geometry, self.box)
        for p, dual in enumerate(argument_duals):
            cp = pairing(dual, v)
            if cp.is_zero():
                continue
            for i in range(len(self.frame)):
                cf = self.coefficient((i, p))
                if cf.is_zero():
                    continue
                out = out.add(self.frame[i].scale_scalar(cf.mul(cp)))
        return out

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


def random_courant_vector(
    rng: np.random.Generator,
    geometry: TorusGeometry,
    box: TruncationBox,
    max_mode: int | None = None,
) -> CourantVector:
    """A random section: one one-term :func:`random_fourier_scalar` per
    component, tangent then cotangent; constant at max mode 0."""
    tan = [random_fourier_scalar(rng, geometry, box, max_mode, 1) for _ in range(geometry.dim)]
    cot = [random_fourier_scalar(rng, geometry, box, max_mode, 1) for _ in range(geometry.dim)]
    return CourantVector(geometry, box, tan, cot)
