"""Generalized metrics, the spinor Hodge star and the Born-Infeld pairing.

A generalized metric is an involution G of T + T* commuting with the
structure J, with positive definite form <G., .>.  Its +1 eigenbundle
carries an oriented orthonormal frame a_1..a_{2n}; the Hodge star is the
Clifford word a_1 . a_2 ... a_{2n} and the inner product of two spinors is

    (alpha, beta) = integral of alpha ^ rev(star(conj beta)),

with rev the reversal anti-automorphism of the exterior algebra.  The
frame orientation is the one making this pairing positive definite (the
sign alternates with n for the coordinate orientation, so positivity is the
deterministic tie-breaker).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from .fourier import TorusGeometry, _mode_keys
from .spinor import Spinor, constant_clifford_matrix, monomial_list
from .structure import GCStructure, natural_pairing_matrix


class MetricError(ValueError):
    """A candidate generalized metric failed its defining checks."""


def _complement_sign(mono: Tuple[int, ...], dim: int) -> Tuple[Tuple[int, ...], int]:
    """Complementary monomial and the sign with mono ^ comp = volume."""
    comp = tuple(i for i in range(dim) if i not in mono)
    perm = list(mono) + list(comp)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return comp, sign


class GeneralizedMetric:
    """Involution G with positive <G., .>, plus its spinor-level kit.

    Attributes
    ----------
    gmatrix : ndarray
        Real 4n x 4n matrix of G, from the orthonormal frames of its +1
        and -1 eigenbundles C+ and C-, given as (4n, 2n) matrices of
        section columns.
    star_matrix : ndarray
        Constant matrix of the Hodge star on the monomial basis.
    volume_factor : float
        det(g + b) / det(g) when built from tensor data, else computed from
        the recovered graph data.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        cplus_values: np.ndarray,
        cminus_values: np.ndarray,
        g: np.ndarray | None = None,
        b: np.ndarray | None = None,
        tol: float = 1e-10,
    ):
        self.geometry = geometry
        dim = geometry.dim
        q = natural_pairing_matrix(dim)

        # orientation: positive determinant of the C+ tangent projections,
        # then flip to make the Born-Infeld pairing positive definite
        tangent = cplus_values[:dim, :]
        det = np.linalg.det(tangent.real)
        if det < 0:
            cplus_values = cplus_values.copy()
            cplus_values[:, [0, 1]] = cplus_values[:, [1, 0]]

        star = self._star_from(cplus_values, dim)
        gram = self._gram_from(star, dim)
        hmat = gram.T
        if np.abs(hmat - hmat.conj().T).max() > 1e-9:
            raise MetricError("Born-Infeld pairing is not Hermitian")
        sign_probe = hmat[0, 0].real
        if sign_probe < 0:
            cplus_values = cplus_values.copy()
            cplus_values[:, [0, 1]] = cplus_values[:, [1, 0]]
            star = -star
            gram = -gram
            hmat = -hmat
        eigs = np.linalg.eigvalsh(hmat)
        if eigs.min() <= 0:
            raise MetricError(
                f"Born-Infeld pairing is not positive definite (min eig {eigs.min():.3e})"
            )

        self._cplus_values = cplus_values
        self.star_matrix = star
        self.bi_gram = gram

        basis = np.column_stack([cplus_values, cminus_values])
        signs = np.diag([1.0] * dim + [-1.0] * dim)
        gm = basis @ signs @ np.linalg.inv(basis)
        if np.abs(gm.imag).max() > 1e-9:
            raise MetricError("metric endomorphism is not real")
        self.gmatrix = gm.real

        res: Dict[str, float] = {}
        res["involution"] = float(np.abs(self.gmatrix @ self.gmatrix - np.eye(2 * dim)).max())
        res["symmetry"] = float(np.abs(q @ self.gmatrix - (q @ self.gmatrix).T).max())
        gramq = self.gmatrix.T @ q
        res["positivity"] = float(max(0.0, -np.linalg.eigvalsh((gramq + gramq.T) / 2).min()))
        ortho = cplus_values.T @ q @ cplus_values - np.eye(dim)
        res["cplus_orthonormal"] = float(np.abs(ortho).max())
        res["cminus_orthonormal"] = float(
            np.abs(cminus_values.T @ q @ cminus_values + np.eye(dim)).max()
        )
        res["eigenbundle_orthogonal"] = float(np.abs(cplus_values.T @ q @ cminus_values).max())
        res["star_real"] = float(np.abs(star.imag).max())
        self.validation = res
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            raise MetricError(
                "metric failed validation: " + ", ".join(f"{k}={v:.3e}" for k, v in bad.items())
            )

        if g is None or b is None:
            g, b = self._recover_graph()
        self.g = np.asarray(g, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.volume_factor = float(
            np.linalg.det(self.g + self.b) / np.linalg.det(self.g)
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _star_from(cplus_values: np.ndarray, dim: int) -> np.ndarray:
        mats = [constant_clifford_matrix(cplus_values[:, i], dim) for i in range(dim)]
        star = np.eye(2 ** dim, dtype=complex)
        for m in mats:
            star = star @ m  # a_1 ... a_{2n}: rightmost factor acts first
        return star

    @staticmethod
    def _gram_from(star: np.ndarray, dim: int) -> np.ndarray:
        """Gram[mu, nu] = top coefficient of mon_mu ^ rev(star mon_nu): the
        row of star at the complement of mon_mu, negated where reversal
        flips that complement, times the int sign of mon_mu ^ complement =
        volume, as one gather."""
        monos = monomial_list(dim)
        index = {m: i for i, m in enumerate(monos)}
        comps, signs = zip(*(_complement_sign(m, dim) for m in monos))
        flips = np.array([(len(m) * (len(m) - 1) // 2) % 2 == 1 for m in monos])
        image = np.where(flips[:, None], -star, star)
        return np.array(signs)[:, None] * image[[index[c] for c in comps]]

    def _recover_graph(self) -> Tuple[np.ndarray, np.ndarray]:
        dim = self.geometry.dim
        tangent = self._cplus_values[:dim, :].real
        cotangent = self._cplus_values[dim:, :].real
        graph = cotangent @ np.linalg.inv(tangent)
        g = (graph + graph.T) / 2
        b = (graph - graph.T) / 2
        return g, b

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_tensors(
        cls,
        geometry: TorusGeometry,
        g: np.ndarray,
        b: np.ndarray | None = None,
        tol: float = 1e-10,
    ) -> "GeneralizedMetric":
        """Metric from a Riemannian g and 2-form b: C+ is the graph of b + g."""
        dim = geometry.dim
        g = np.asarray(g, dtype=float)
        if b is None:
            b = np.zeros((dim, dim))
        b = np.asarray(b, dtype=float)
        if g.shape != (dim, dim) or np.abs(g - g.T).max() > 0:
            raise MetricError("g must be a symmetric 2n x 2n matrix")
        if np.linalg.eigvalsh(g).min() <= 0:
            raise MetricError("g must be positive definite")
        if b.shape != (dim, dim) or np.abs(b + b.T).max() > 0:
            raise MetricError("b must be an antisymmetric 2n x 2n matrix")

        def graph_frame(form: np.ndarray) -> np.ndarray:
            cols = np.zeros((2 * dim, dim))
            for i in range(dim):
                cols[i, i] = 1.0
                cols[dim:, i] = form[i, :]
            return cols

        vplus = graph_frame(b + g)
        vminus = graph_frame(b - g)
        chol = np.linalg.cholesky(2 * g)
        inv = np.linalg.inv(chol)
        cplus = vplus @ inv.T
        cminus = vminus @ inv.T
        return cls(geometry, cplus, cminus, g=g, b=b, tol=tol)

    @classmethod
    def compatible_with(
        cls, structure: GCStructure, tol: float = 1e-10
    ) -> "GeneralizedMetric":
        """Canonical metric commuting with a given structure.

        Diagonalizes the Hermitian pairing h(x, y) = <x, conj y> on the +i
        eigenbundle; the positive part and its conjugate span C+.
        """
        geometry = structure.geometry
        dim = geometry.dim
        q = natural_pairing_matrix(dim)
        fvals = structure._frame_vals
        nmat = fvals.T @ q @ fvals.conj()
        vals, vecs = np.linalg.eigh(nmat)
        pos = [i for i, v in enumerate(vals) if v > 1e-12]
        neg = [i for i, v in enumerate(vals) if v < -1e-12]
        if len(pos) != dim // 2 or len(neg) != dim // 2:
            raise MetricError("pairing on the eigenbundle is not split (n, n)")

        def real_frame(indices: List[int]) -> np.ndarray:
            cols = []
            for i in indices:
                scale = math.sqrt(abs(vals[i]))
                p = (fvals @ vecs[:, i].conj()) / scale
                pivot = np.argmax(np.abs(p))
                p = p * (abs(p[pivot]) / p[pivot])
                cols.append((p + p.conj()) / math.sqrt(2))
                cols.append((1j * p + (1j * p).conj()) / math.sqrt(2))
            return np.column_stack(cols)

        cplus = real_frame(pos)
        cminus = real_frame(neg)
        metric = cls(geometry, cplus, cminus, tol=tol)
        if metric.compatibility(structure) > 1e-9:
            raise MetricError("constructed metric does not commute with the structure")
        return metric

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def compatibility(self, structure: GCStructure) -> float:
        j = np.asarray(structure.jmatrix, dtype=float)
        return float(np.abs(self.gmatrix @ j - j @ self.gmatrix).max())

    def bi_inner(self, alpha: Spinor, beta: Spinor) -> complex:
        """Born-Infeld inner product, linear in alpha, conjugate-linear in beta.

        Modes pair only with themselves, so beta is read at alpha's modes.
        Both supports are sorted and distinct, so beta's rows are matched to
        alpha's modes by their integer keys.
        """
        box = max(alpha.box, beta.box, key=lambda b: b.K)
        keys_a, keys_b = _mode_keys(box, alpha.modes), _mode_keys(box, beta.modes)
        slot = np.searchsorted(keys_a, keys_b)
        shared = slot < len(keys_a)
        shared[shared] = keys_a[slot[shared]] == keys_b[shared]
        b = np.zeros(alpha.rows.shape, dtype=complex)
        b[slot[shared]] = beta.rows[shared]
        return complex(np.sum((alpha.rows @ self.bi_gram) * b.conj()))

    def bi_norm(self, alpha: Spinor) -> float:
        val = self.bi_inner(alpha, alpha)
        return math.sqrt(max(val.real, 0.0))

    def constant_inner(self, va: np.ndarray, vb: np.ndarray) -> complex:
        return va @ self.bi_gram @ vb.conj()

    def orthonormalize_columns(self, columns: np.ndarray) -> np.ndarray:
        """Replace the columns by a Born-Infeld-orthonormal basis of their span."""
        k = columns.shape[1]
        gram = np.zeros((k, k), dtype=complex)
        for i in range(k):
            for j in range(k):
                gram[i, j] = self.constant_inner(columns[:, i], columns[:, j])
        chol = np.linalg.cholesky((gram + gram.conj().T) / 2)
        # with gram[i,j] = inner(c_i, c_j) = (A^T gram conj(A))_ab for new
        # columns C A, A = inv(chol)^T makes the new Gram the identity
        return columns @ np.linalg.inv(chol).T

    def __repr__(self) -> str:
        return f"GeneralizedMetric(n={self.geometry.n}, vol={self.volume_factor:.6g})"
