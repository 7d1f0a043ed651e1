"""Constant generalized complex structures on flat tori.

A structure bundles the endomorphism J of T + T* with an explicit frame of
its +i eigenbundle L, the pairing-dual frame spanning the conjugate bundle,
the canonical line generator annihilated by L, an optional constant closed
3-form twist, and the change of basis realizing the spinor level grading

    level k in [-n, n]  <->  span of (k+n)-fold dual-frame Clifford words
    acting on the canonical generator.

Frame coordinates, level projections and weights act on a spinor's
coefficient stack in that word basis, one product for all modes.

Only constant-coefficient J, twist and frames are supported; all variation
enters later through deformation coefficients.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .fourier import FourierMatrix, FourierScalar, TorusGeometry, TruncationBox
from .spinor import (
    CourantVector,
    Spinor,
    clifford_generators,
    constant_clifford_matrix,
    sort_monomial,
    wedge,
    wedge_matrix,
)

DEFAULT_TOL = 1e-12


class StructureError(ValueError):
    """A candidate structure failed one of its defining residual checks."""

    def __init__(self, message: str, residuals: Dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


def natural_pairing_matrix(dim: int) -> np.ndarray:
    """Matrix Q with <u, v> = u^T Q v in (tangent, cotangent) block order."""
    q = np.zeros((2 * dim, 2 * dim))
    q[:dim, dim:] = np.eye(dim)
    q[dim:, :dim] = np.eye(dim)
    return q


def wedge_exponential(b: Spinor) -> Spinor:
    """exp(b ^ .) applied to the constant function 1, for even-degree b."""
    geometry, box = b.geometry, b.box
    out = Spinor.scalar(FourierScalar.constant(geometry, box, 1.0))
    term = Spinor.scalar(FourierScalar.constant(geometry, box, 1.0))
    for i in range(1, geometry.dim // 2 + 1):
        term = wedge(b, term).scale(1.0 / i)
        if term.is_zero():
            break
        out = out.add(term)
    return out


def two_form_spinor(
    geometry: TorusGeometry, box: TruncationBox, matrix: np.ndarray
) -> Spinor:
    """Constant 2-form sum_{j<k} m_{jk} dx^j ^ dx^k from an antisymmetric matrix."""
    matrix = np.asarray(matrix)
    comps: Dict[Tuple[int, ...], FourierScalar] = {}
    for j in range(geometry.dim):
        for k in range(j + 1, geometry.dim):
            if matrix[j, k] != 0:
                comps[(j, k)] = FourierScalar.constant(geometry, box, matrix[j, k])
    return Spinor(geometry, box, comps)


class GCStructure:
    """A validated constant generalized complex structure.

    The constructor takes the frames as matrices: ``frame`` and
    ``dual_frame`` are (4n, 2n) complex arrays whose column i holds section
    i's tangent then cotangent components.  Everything else is built from
    them once: the sections, J, the Clifford matrices of the frames, rho0,
    the level basis, the structure constants, the validation residuals and
    the matrices of d_H and of its level parts.

    Attributes
    ----------
    frame : tuple of CourantVector
        Basis l_1..l_{2n} of the +i eigenbundle L.
    dual_frame : tuple of CourantVector
        Pairing-dual basis l^1..l^{2n} spanning the conjugate bundle,
        with <l^i, l_j> = delta^i_j.
    rho0 : Spinor
        Canonical line generator, L . rho0 = 0, deterministic phase.
    twist : Spinor
        Constant closed 3-form H (possibly zero).
    jmatrix : ndarray
        The real 4n x 4n endomorphism.
    structure_constants : ndarray
        c[i, j, k] = <l^k, [l_i, l_j]_H>.
    dual_structure_constants : ndarray
        d[i, j, k] = <l_k, [l^i, l^j]_H>, the constants of the Schouten
        bracket on polynomials over the dual frame.
    differentials : dict
        ``"d"``, ``"del"`` and ``"dbar"`` to the pair (C, A) with the
        operator C + 2 pi i sum_a k_a A_a at mode k on the monomial basis:
        d_H, and its level-lowering and level-raising parts; ``"dL"`` to the
        raising pair in frame coordinates, which is d_L.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        box: TruncationBox,
        frame: np.ndarray,
        dual_frame: np.ndarray,
        twist: Spinor | None = None,
        label: str = "custom",
        tol: float = DEFAULT_TOL,
    ):
        self.geometry = geometry
        self.box = box
        self.n = geometry.n
        self.dim = geometry.dim
        self.label = label
        if twist is None:
            twist = Spinor.zero(geometry, box)
        self.twist = twist

        # + 0.0 turns negative zeros positive, as the sections' dict coefficients
        # hold them, so the matrices and the sections agree bit for bit
        self._frame_vals = np.asarray(frame, dtype=complex) + 0.0
        self._dual_vals = np.asarray(dual_frame, dtype=complex) + 0.0
        shape = (2 * self.dim, self.dim)
        if self._frame_vals.shape != shape or self._dual_vals.shape != shape:
            raise StructureError(
                f"frames must have 2n elements each: expected two {shape} matrices, "
                f"got {self._frame_vals.shape} and {self._dual_vals.shape}"
            )
        degrees = sorted({len(mono) for mono in twist.comps} - {3})
        if degrees:
            raise StructureError(f"twist must be a 3-form, got components of degree {degrees}")
        self.frame = self._sections(self._frame_vals)
        self.dual_frame = self._sections(self._dual_vals)
        self.jmatrix = self._build_jmatrix()
        self._frame_cliff = [constant_clifford_matrix(v, self.dim) for v in self._frame_vals.T]
        self._dual_cliff = [constant_clifford_matrix(v, self.dim) for v in self._dual_vals.T]

        self.rho0 = self._canonical_spinor()
        self._rho0_vec = self.rho0.stack.constant_values()[:, 0]
        self._level_matrix, self._level_slices = self._build_level_basis()
        self._level_inverse = np.linalg.inv(self._level_matrix)
        self.structure_constants = self._structure_constants()
        self.dual_structure_constants = self._dual_structure_constants()
        self.validation = self._residuals()
        bad = {k: v for k, v in self.validation.items() if v > tol}
        if bad:
            detail = ", ".join(f"{k}={v:.3e}" for k, v in bad.items())
            if "integrability" in bad and self._bracket_offframe_pair:
                i, j = self._bracket_offframe_pair
                detail += f" (worst bracket pair: frame {i}, frame {j})"
            raise StructureError(
                f"structure '{label}' failed validation: " + detail,
                self.validation,
            )
        self.differentials = self._build_differentials()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_jmatrix(self) -> np.ndarray:
        q = natural_pairing_matrix(self.dim)
        j = np.zeros((2 * self.dim, 2 * self.dim), dtype=complex)
        for i in range(self.dim):
            li = self._frame_vals[:, i]
            ld = self._dual_vals[:, i]
            # coefficient of v along l_i is <l^i, v>, along l^i is <l_i, v>
            j += 1j * np.outer(li, q @ ld) - 1j * np.outer(ld, q @ li)
        return j.real if np.abs(j.imag).max() < 1e-9 else j

    def _canonical_spinor(self) -> Spinor:
        stacked = np.vstack(self._frame_cliff)
        _, svals, vh = np.linalg.svd(stacked)
        size = 2 ** self.dim
        scale = svals[0] if svals[0] > 0 else 1.0
        kernel_dim = int(np.sum(svals < 1e-10 * scale)) + (size - len(svals) if len(svals) < size else 0)
        if kernel_dim != 1:
            raise StructureError(
                f"joint kernel of the L action has dimension {kernel_dim}, expected 1"
            )
        vec = vh[-1].conj()
        # deterministic phase: first nonzero monomial coefficient real positive
        for c in vec:
            if abs(c) > 1e-10:
                vec = vec * (abs(c) / c)
                break
        vec = vec / np.linalg.norm(vec)
        return self._constant_spinor(vec)

    def _constant_spinor(self, vec: np.ndarray) -> Spinor:
        return Spinor.from_modes(self.geometry, self.box, np.zeros((1, self.dim)), vec[None])

    def _build_level_basis(self):
        """Dual-frame words on rho0, one column per subset of the dual frame.

        Level k holds the (k+n)-fold words, so the columns follow
        ``monomial_list(dim)`` order with the subsets as keys.
        """
        size = 2 ** self.dim
        columns = np.zeros((size, size), dtype=complex)
        slices: Dict[int, slice] = {}
        col = 0
        for k in range(-self.n, self.n + 1):
            start = col
            for subset in itertools.combinations(range(self.dim), k + self.n):
                vec = self._rho0_vec
                for i in reversed(subset):
                    vec = self._dual_cliff[i] @ vec
                columns[:, col] = vec
                col += 1
            slices[k] = slice(start, col)
        return columns, slices

    def _sections(self, values: np.ndarray) -> Tuple[CourantVector, ...]:
        """The constant sections whose components are the columns of ``values``."""
        dim = self.dim
        return tuple(
            CourantVector.constant(self.geometry, self.box, v[:dim], v[dim:]) for v in values.T
        )

    def _twist_tensor(self) -> np.ndarray:
        """H_{klm}: the twist's constant coefficients as an antisymmetric tensor."""
        h = np.zeros((self.dim,) * 3, dtype=complex)
        for mono, f in self.twist.comps.items():
            for perm in itertools.permutations(mono):
                h[perm] = sort_monomial(perm)[1] * f.integrate()
        return h

    def _structure_constants(self) -> np.ndarray:
        """c[i, j, k] = <l^k, [l_i, l_j]_H> for constant frames.

        Every Lie and d term of the twisted Courant bracket of constant
        sections vanishes, so [l_i, l_j]_H is the 1-form i_{X_j} i_{X_i} H,
        sum_{k,l} X_i^k X_j^l H_{klm}, with X the tangent parts of the frame.
        Paired with the dual frame it gives c; paired with the frame, its
        mass off the conjugate bundle, which is zero exactly when L is
        involutive (``integrability``, with the first worst pair i < j).
        The same pairing with the roles of the frames swapped gives
        ``dual_structure_constants``.
        """
        dim = self.dim
        tangent = self._frame_vals[:dim]
        rows, cols, bracket = self._constant_brackets(tangent)
        c = np.zeros((dim, dim, dim), dtype=complex)
        c[rows, cols] = bracket @ self._dual_vals[:dim] + 0.0
        c[cols, rows] = -c[rows, cols]
        off = np.abs(bracket @ tangent).max(axis=1)
        worst = int(np.argmax(off))
        self._bracket_offframe = float(off[worst])
        self._bracket_offframe_pair = (
            (int(rows[worst]), int(cols[worst])) if off[worst] > 0 else None
        )
        return c

    def _dual_structure_constants(self) -> np.ndarray:
        """d[i, j, k] = <l_k, [l^i, l^j]_H>, the brackets of the dual frame
        along itself.

        Their mass off the dual frame needs no check of its own: J and H
        are real (``j_real``, ``twist_real``) and the dual frame spans the
        -i eigenbundle (``frame_eigen``), so L-bar is the conjugate of L
        and the bracket of two of its sections is the conjugate of a
        bracket in L, on the conjugate bundle when L is involutive.
        """
        dim = self.dim
        rows, cols, bracket = self._constant_brackets(self._dual_vals[:dim])
        d = np.zeros((dim, dim, dim), dtype=complex)
        d[rows, cols] = bracket @ self._frame_vals[:dim] + 0.0
        d[cols, rows] = -d[rows, cols]
        return d

    def _constant_brackets(self, tangent: np.ndarray):
        """The pairs i < j in row order, and row p the 1-form
        [s_i, s_j]_H = i_{X_j} i_{X_i} H of the constant sections whose
        tangent parts are the columns of ``tangent``."""
        rows, cols = np.triu_indices(self.dim, 1)
        bracket = np.einsum(
            "kp,lp,klm->pm", tangent[:, rows], tangent[:, cols], self._twist_tensor()
        )
        return rows, cols, bracket

    def _residuals(self) -> Dict[str, float]:
        q = natural_pairing_matrix(self.dim)
        j = self.jmatrix
        frame, dual = self._frame_vals, self._dual_vals
        res: Dict[str, float] = {}
        res["j_squared"] = float(np.abs(j @ j + np.eye(2 * self.dim)).max())
        res["j_real"] = float(np.abs(j.imag).max()) if np.iscomplexobj(j) else 0.0
        res["pairing_preserved"] = float(np.abs(j.T @ q @ j - q).max())
        res["isotropy"] = float(
            max(np.abs(frame.T @ q @ frame).max(), np.abs(dual.T @ q @ dual).max())
        )
        res["duality"] = float(np.abs(dual.T @ q @ frame - np.eye(self.dim)).max())
        res["integrability"] = self._bracket_offframe
        eig = 0.0
        for i in range(self.dim):
            eig = max(
                eig,
                float(np.abs(self.jmatrix @ self._frame_vals[:, i] - 1j * self._frame_vals[:, i]).max()),
            )
            eig = max(
                eig,
                float(np.abs(self.jmatrix @ self._dual_vals[:, i] + 1j * self._dual_vals[:, i]).max()),
            )
        res["frame_eigen"] = eig
        kill = 0.0
        for i in range(self.dim):
            kill = max(kill, float(np.abs(self._frame_cliff[i] @ self._rho0_vec).max()))
        res["annihilator"] = kill
        res["twist_closed"] = max(
            (f.derive(a).norm() for f in self.twist.comps.values() for a in range(self.dim)), default=0.0
        )
        res["twist_real"] = 0.0 if all(f.is_real() for f in self.twist.comps.values()) else 1.0
        res["level_basis_rank"] = 0.0 if np.linalg.matrix_rank(self._level_matrix) == 2 ** self.dim else 1.0
        return res

    def _build_differentials(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """C and the slopes A_a of d_H = C + 2 pi i sum_a k_a A_a at mode k,
        and of its parts that lower (del) and raise (dbar) the level by one.

        On the monomial basis C = -H ^ (the twist is constant) and
        A_a = dx^a ^.  The parts are the level blocks of C and of the A_a,
        masked in the frame basis; ``"dL"`` is the raising part in frame
        coordinates, which P -> P . rho0 identifies with d_L.
        """
        const = -wedge_matrix(self.twist).constant_values()
        slopes = clifford_generators(self.dim)[self.dim:]
        out = {"d": (const, slopes)}
        words, coords = self._level_matrix, self._level_inverse
        frame = coords @ np.concatenate([const[None], slopes]) @ words
        raising = self.shift_mask(+1) * frame
        for name, part in (("del", self.shift_mask(-1) * frame), ("dbar", raising)):
            parts = words @ part @ coords
            out[name] = (parts[0], parts[1:])
        out["dL"] = (raising[0], raising[1:])
        return out

    # ------------------------------------------------------------------
    # named constructors
    # ------------------------------------------------------------------

    @classmethod
    def complex_structure(
        cls,
        n: int,
        box: TruncationBox,
        jcx: np.ndarray | None = None,
        twist: Spinor | None = None,
        tol: float = DEFAULT_TOL,
    ) -> "GCStructure":
        """Structure of complex type.

        With the default complex structure, z^j = x^j + i x^{n+j}; the
        eigenframe is {dz^j, d/dzbar^j} with dual {d/dz^j, dzbar^j} and
        canonical generator dz^1 ^ ... ^ dz^n.
        """
        geometry = TorusGeometry(n)
        dim = geometry.dim
        if jcx is None:
            frame = np.zeros((2 * dim, dim), dtype=complex)
            dual = np.zeros((2 * dim, dim), dtype=complex)
            for j in range(n):
                frame[dim + j, j], frame[dim + n + j, j] = 1.0, 1.0j  # dz^j
                frame[j, n + j], frame[n + j, n + j] = 0.5, 0.5j  # d/dzbar^j
                dual[j, j], dual[n + j, j] = 0.5, -0.5j  # d/dz^j
                dual[dim + j, n + j], dual[dim + n + j, n + j] = 1.0, -1.0j  # dzbar^j
            return cls(geometry, box, frame, dual, twist, label=f"complex(T{dim})", tol=tol)

        jcx = np.asarray(jcx, dtype=float)
        if jcx.shape != (dim, dim):
            raise StructureError("complex structure matrix must be 2n x 2n")
        if np.abs(jcx @ jcx + np.eye(dim)).max() > tol * 10:
            raise StructureError("matrix does not square to -1")
        jgc = np.zeros((2 * dim, 2 * dim))
        jgc[:dim, :dim] = -jcx
        jgc[dim:, dim:] = jcx.T
        return cls.from_endomorphism(geometry, box, jgc, twist, label="complex(custom)", tol=tol)

    @classmethod
    def symplectic_structure(
        cls,
        omega: np.ndarray,
        box: TruncationBox,
        twist: Spinor | None = None,
        tol: float = DEFAULT_TOL,
    ) -> "GCStructure":
        """Structure of symplectic type; eigenframe {X - i omega(X)}."""
        omega = np.asarray(omega, dtype=float)
        dim = omega.shape[0]
        if dim % 2 or np.abs(omega + omega.T).max() > 0:
            raise StructureError("omega must be an antisymmetric 2n x 2n matrix")
        if abs(np.linalg.det(omega)) < 1e-12:
            raise StructureError("omega must be nondegenerate")
        geometry = TorusGeometry(dim // 2)
        frame = np.concatenate([np.eye(dim), -1j * omega.T])
        om_inv = np.linalg.inv(omega)
        dual = np.zeros((2 * dim, dim), dtype=complex)
        for i in range(dim):
            for a in range(dim):
                coeff = om_inv[i, a] / 2j
                dual[a, i] += coeff
                for k in range(dim):
                    dual[dim + k, i] += coeff * 1j * omega[a, k]
        return cls(geometry, box, frame, dual, twist, label=f"symplectic(T{dim})", tol=tol)

    @classmethod
    def from_endomorphism(
        cls,
        geometry: TorusGeometry,
        box: TruncationBox,
        jgc: np.ndarray,
        twist: Spinor | None = None,
        label: str = "endomorphism",
        tol: float = DEFAULT_TOL,
    ) -> "GCStructure":
        """Build frames from a real endomorphism with J^2 = -1 preserving <,>."""
        jgc = np.asarray(jgc, dtype=float)
        dim = geometry.dim
        vals, vecs = np.linalg.eig(jgc)
        plus_cols = [i for i, v in enumerate(vals) if v.imag > 0.5]
        if len(plus_cols) != dim:
            raise StructureError("+i eigenspace does not have dimension 2n")
        # deterministic normalization: largest component real positive
        columns = []
        for v in vecs[:, plus_cols].T:
            pivot = np.argmax(np.abs(v))
            columns.append(v * (abs(v[pivot]) / v[pivot]))
        frame = np.column_stack(columns) + 0.0
        q = natural_pairing_matrix(dim)
        conj_vals = frame.conj()
        pinv = np.linalg.inv(conj_vals.T @ q @ frame)
        dual = np.column_stack([conj_vals @ pinv[i, :] for i in range(dim)])
        return cls(geometry, box, frame, dual, twist, label=label, tol=tol)

    def b_transform(self, bmatrix: np.ndarray, tol: float = DEFAULT_TOL) -> "GCStructure":
        """Shear by a constant 2-form: X + xi -> X + xi + i_X B.

        The canonical generator transforms by the wedge exponential of -B,
        which is what intertwines the sheared Clifford action with the
        original one.
        """
        bmatrix = np.asarray(bmatrix, dtype=float)
        dim = self.dim
        if bmatrix.shape != (dim, dim) or np.abs(bmatrix + bmatrix.T).max() > 0:
            raise StructureError("B must be an antisymmetric 2n x 2n matrix")
        tmat = np.eye(2 * dim)
        tmat[dim:, :dim] = bmatrix.T  # (i_X B)_k = sum_j X^j B_{jk}
        return GCStructure(
            self.geometry,
            self.box,
            np.column_stack([tmat @ v for v in self._frame_vals.T]),
            np.column_stack([tmat @ v for v in self._dual_vals.T]),
            twist=self.twist,
            label=f"{self.label}+b",
            tol=tol,
        )

    # ------------------------------------------------------------------
    # level grading
    # ------------------------------------------------------------------

    def level_dimension(self, k: int) -> int:
        return math.comb(self.dim, k + self.n)

    def levels(self) -> Iterable[int]:
        return range(-self.n, self.n + 1)

    def _check_level(self, k: int) -> None:
        if not -self.n <= k <= self.n:
            raise ValueError(f"level {k} out of range [-{self.n}, {self.n}]")

    def frame_coordinates(self, sigma: Spinor) -> FourierMatrix:
        """sigma's coordinates in the dual-frame spinor basis, a column like
        ``sigma.stack`` without dropped mass.

        Rows follow ``monomial_list(dim)``: row j holds the word on the
        j-th subset of the dual frame.
        """
        coords = sigma.rows @ self._level_inverse.T
        return FourierMatrix(self.geometry, self.box, sigma.modes, coords[:, :, None])

    def degree_slice(self, degree: int) -> slice:
        """Frame coordinates of the degree-``degree`` words: level degree - n."""
        return self._level_slices.get(degree - self.n, slice(0, 0))

    def shift_mask(self, shift: int) -> np.ndarray:
        """Entries of a matrix on the frame basis that map level k to level k + shift."""
        level = np.concatenate([[k] * self.level_dimension(k) for k in self.levels()])
        return level[:, None] == level[None, :] + shift

    def _level_part(self, coords: FourierMatrix, k: int) -> Spinor:
        sl = self._level_slices[k]
        rows = coords.coeffs[:, sl, 0] @ self._level_matrix[:, sl].T
        return Spinor.from_modes(self.geometry, self.box, coords.modes, rows)

    def project_level(self, sigma: Spinor, k: int) -> Spinor:
        self._check_level(k)
        return self._level_part(self.frame_coordinates(sigma), k)

    def level_components(self, sigma: Spinor) -> Dict[int, Spinor]:
        coords = self.frame_coordinates(sigma)
        return {
            k: self._level_part(coords, k)
            for k in self.levels()
            if np.any(coords.coeffs[:, self._level_slices[k]])
        }

    def level_weights(self, sigma: Spinor) -> Dict[int, float]:
        coords = self.frame_coordinates(sigma).coeffs
        return {
            k: math.sqrt(float(np.sum(np.abs(coords[:, self._level_slices[k]]) ** 2)))
            for k in self.levels()
        }

    def level_of(self, sigma: Spinor, tol: float = 1e-9) -> int:
        """The single level carrying sigma; raises if levels mix."""
        weights = self.level_weights(sigma)
        total = math.sqrt(sum(w ** 2 for w in weights.values()))
        if total == 0:
            raise ValueError("zero spinor has no level")
        live = [k for k, w in weights.items() if w > tol * total]
        if len(live) != 1:
            detail = {k: w / total for k, w in weights.items() if w > 0}
            raise ValueError(f"spinor mixes levels; relative weights {detail}")
        return live[0]

    def level_spinors(self, k: int) -> List[Spinor]:
        """Constant frame spinors spanning the level-k slice."""
        self._check_level(k)
        sl = self._level_slices[k]
        return [self._constant_spinor(col) for col in self._level_matrix[:, sl].T]

    def rotation_generator(self) -> np.ndarray:
        """Spinorial action of J on the monomial basis.

        Normalized so the canonical generator has eigenvalue n*i; level k
        sits at eigenvalue -k*i.
        """
        size = 2 ** self.dim
        nhat = np.zeros((size, size), dtype=complex)
        for i in range(self.dim):
            nhat += self._dual_cliff[i] @ self._frame_cliff[i]
        return 1j * (self.n * np.eye(size) - nhat)

    def rebox(self, box: TruncationBox) -> "GCStructure":
        """The same structure with its data re-homed in another box."""
        return GCStructure(
            self.geometry,
            box,
            self._frame_vals,
            self._dual_vals,
            twist=self.twist.embed(box),
            label=self.label,
        )

    def __repr__(self) -> str:
        return f"GCStructure({self.label}, n={self.n}, K={self.box.K})"
