"""Finite-dimensional Hodge theory for the level-graded spinor complex.

Constant structures make every operator block-diagonal over Fourier modes.
On a Born-Infeld-orthonormal constant basis the twisted differential at
mode k is C + 2 pi i sum_a k_a A_a, with C and the A_a those of
``calculus.d_matrices`` changed to that basis, so the operators are
assembled for all modes at once and kept as arrays stacked over the modes.  Adjoints are
conjugate transposes in that basis (exact on the truncation).  The
Laplacians are assembled per diagonal block from products of the level
blocks of d (one block per level; the whole matrix for the level-mixing d
Laplacian), so their entries off the blocks are exact zeros, and each block
is eigendecomposed by batched ``eigh`` over chunks of modes, the kernel
split off by a relative cutoff; the Green operator is the pseudo-inverse on
the kernel complement.  The class checks (the ddbar-lemma and the
solvability classes) slice level blocks from the same stacks and decide
every numerical rank by a batched SVD.  A basis carries its rank in its
nonzero columns, the bases that several kinds of one level share are
computed once while that level is the one asked last, and each
(kind, level) is decided once per context.  A spinor enters and leaves as
the coefficient rows of its mode stack, so every operator, projector and
Green operator acts by one product batched over its modes.  The
Lie-algebroid complex (``deformation.AlgebroidHodge``) shares the
assembly, the eigendecomposition and the batched application.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .calculus import d_matrices
from .fourier import TruncationBox
from .metric import GeneralizedMetric
from .spinor import Spinor, _stack_linear
from .structure import GCStructure

KINDS = ("d", "del", "dbar", "bc", "aeppli")

RANK_CUTOFF = 1e-9

MODE_CHUNK = 256  # modes per batched eigh; bounds the transient Laplacian stack

# HodgeContext.check_counts: class checks decided and served from the memo,
# shared bases computed and reused
CHECK_COUNTERS = ("decided", "memo_hits", "bases_computed", "bases_reused")


class ObstructionError(ValueError):
    """A solvability condition failed; carries the offending norms."""

    def __init__(self, message: str, data: Dict[str, float] | None = None):
        super().__init__(message)
        self.data = data or {}


def _cut(s: np.ndarray, floor) -> np.ndarray:
    """Per matrix, the number of singular values above max(RANK_CUTOFF * s_max, floor).

    ``s`` holds descending singular values along its last axis and ``floor``
    broadcasts against the rest.  The absolute floor matters when a matrix
    is pure float noise: its own largest singular value is then a
    meaningless reference.
    """
    bound = np.maximum(RANK_CUTOFF * s[..., :1], np.asarray(floor)[..., None])
    return np.sum(s > bound, axis=-1)


def _rank(mats: np.ndarray, floor=0.0) -> np.ndarray:
    """Numerical rank of each matrix of an (..., r, c) stack."""
    return _cut(np.linalg.svd(mats, compute_uv=False), floor)


def _range_basis(mats: np.ndarray, floor=0.0) -> np.ndarray:
    """Orthonormal range bases of a stack, (..., r, min(r, c)).

    Columns past each matrix's rank are exact zeros, and every kept column
    is a unit vector, so ``_basis_rank`` reads the rank back.  Zero columns
    add only zero singular values, so every rank and containment is
    unchanged.
    """
    u, s = np.linalg.svd(mats, full_matrices=False)[:2]
    u *= (np.arange(s.shape[-1]) < _cut(s, floor)[..., None])[..., None, :]
    return u


def _null_basis(mats: np.ndarray, floor=0.0) -> np.ndarray:
    """Orthonormal null-space bases of a stack, (..., c, c), zero past the nullity."""
    rows, cols = mats.shape[-2:]
    s, vh = np.linalg.svd(mats, full_matrices=rows < cols)[1:]
    basis = _adjoint(vh)
    basis *= (np.arange(cols) >= _cut(s, floor)[..., None])[..., None, :]
    return basis


def _trim(basis: np.ndarray) -> np.ndarray:
    """A basis stack without the columns that are zero at every matrix: its
    width becomes the widest rank (or nullity) over the stack."""
    return basis[..., basis.any(axis=tuple(range(basis.ndim - 1)))]


def _basis_rank(basis: np.ndarray) -> np.ndarray:
    """Per matrix, the rank of a basis from ``_range_basis`` or ``_null_basis``:
    its count of nonzero columns."""
    return np.count_nonzero(basis.any(axis=-2), axis=-1)


def _contained(sub: np.ndarray, sup: np.ndarray, floor=0.0) -> np.ndarray:
    """Per matrix, column span of sub contained in that of the basis sup."""
    return _rank(np.concatenate([sup, sub], axis=-1), floor) == _basis_rank(sup)


def _intersection_dim(a: np.ndarray, b: np.ndarray, floor=0.0) -> np.ndarray:
    """Per matrix, the dimension of the intersection of the spans of two bases."""
    da, db = _basis_rank(a), _basis_rank(b)
    both = _rank(np.concatenate([a, b], axis=-1), floor)
    return np.where((da == 0) | (db == 0), 0, da + db - both)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _mode_positions(box: TruncationBox, dim: int, modes) -> np.ndarray:
    """Indices of ``modes`` in ``box.modes``, which run lexicographically.

    Raises ValueError for a mode outside the box.
    """
    k = np.array(modes, dtype=int).reshape(-1, dim)
    outside = np.abs(k).max(axis=1, initial=0) > box.K
    if outside.any():
        mode = tuple(int(v) for v in k[np.argmax(outside)])
        raise ValueError(f"spinor mode {mode} outside the context box")
    return np.ravel_multi_index(tuple(k.T + box.K), (2 * box.K + 1,) * dim)


class _LevelBasis:
    """Level-basis coordinates of spinors, stacked over the modes of a box.

    The constant basis is Born-Infeld orthonormal and aligned with the level
    grading; ``level_slices[k]`` picks level k's columns.  A spinor's
    coordinates are one row per mode of its support, and ``positions``
    gives those modes' rows in the stacks over ``modes``.  Hodge packages
    hold this rather than their context, so a context and its packages
    form no reference cycle and are freed as soon as the context is dropped.
    """

    def __init__(self, structure: GCStructure, metric: GeneralizedMetric, box: TruncationBox):
        self.geometry = structure.geometry
        self.box = box
        self.dim = structure.dim
        self.size = 2 ** structure.dim
        self.levels = list(structure.levels())
        cols = []
        slices: Dict[int, slice] = {}
        start = 0
        for k in self.levels:
            raw = structure._level_matrix[:, structure._level_slices[k]]
            ortho = metric.orthonormalize_columns(raw)
            cols.append(ortho)
            slices[k] = slice(start, start + ortho.shape[1])
            start += ortho.shape[1]
        self.basis = np.hstack(cols)
        self.level_slices = slices
        self.basis_inv = np.linalg.inv(self.basis)

        gram = np.zeros((self.size, self.size), dtype=complex)
        for i in range(self.size):
            for j in range(self.size):
                gram[i, j] = metric.constant_inner(self.basis[:, i], self.basis[:, j])
        residual = float(np.abs(gram - np.eye(self.size)).max())
        if residual > 1e-10:
            raise ValueError(f"level basis failed orthonormalization ({residual:.3e})")
        self.modes: List[Tuple[int, ...]] = list(box.modes(self.geometry))

    def positions(self, modes) -> np.ndarray:
        """Indices into the mode stacks; ValueError for a mode outside the box."""
        return _mode_positions(self.box, self.dim, modes)

    def position(self, mode: Tuple[int, ...]) -> int:
        return int(self.positions([mode])[0])

    def coords(self, sigma: Spinor) -> np.ndarray:
        """sigma's coordinate rows in the level basis, at ``sigma.modes``."""
        return sigma.rows @ self.basis_inv.T

    def spinor(self, modes, coords: np.ndarray) -> Spinor:
        """The spinor with level-basis coordinate rows ``coords`` at ``modes``."""
        return Spinor.from_modes(self.geometry, self.box, modes, coords @ self.basis.T)


class _ModeSpectra:
    """Eigendecomposed per-mode Hermitian Laplacians, by diagonal block.

    ``laplacian(sel)`` returns the diagonal blocks of the Laplacians of the
    modes in the slice ``sel``, one (m, n_b, n_b) stack per slice of
    ``blocks``; the Laplacian is zero off these blocks.  It is called on
    MODE_CHUNK modes at a time, so no whole stack exists at once, and each
    block of a chunk goes to one batched ``eigh``.  ``vals[b]`` is (M, n_b)
    and ``vecs[b]`` is (M, n_b, n_b) for ``blocks[b]``.  Eigenvalues up to
    RANK_CUTOFF times the spectral radius count as kernel.
    """

    def __init__(self, laplacian, count: int, blocks: List[slice]):
        self.blocks = blocks
        sizes = [b.stop - b.start for b in blocks]
        self.vals = [np.empty((count, n)) for n in sizes]
        self.vecs = [np.empty((count, n, n), dtype=complex) for n in sizes]
        for start in range(0, count, MODE_CHUNK):
            sel = slice(start, min(start + MODE_CHUNK, count))
            for vals, vecs, block in zip(self.vals, self.vecs, laplacian(sel)):
                vals[sel], vecs[sel] = np.linalg.eigh((block + _adjoint(block)) / 2)
        self.radius = max(float(v.max()) for v in self.vals)
        self.cutoff = RANK_CUTOFF * self.radius if self.radius > 0 else 1e-12

    def harmonic_weights(self, vals: np.ndarray) -> np.ndarray:
        return (vals <= self.cutoff).astype(float)

    def green_weights(self, vals: np.ndarray) -> np.ndarray:
        kernel = vals <= self.cutoff
        return np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, vals))

    def apply(self, index: np.ndarray, coords: np.ndarray, weights) -> np.ndarray:
        """weights(L) applied to coordinate rows; row i sits at mode ``index[i]``."""
        out = np.zeros_like(coords)
        for vals, vecs, b in zip(self.vals, self.vecs, self.blocks):
            v = vecs[index]
            inner = weights(vals[index])[..., None] * (_adjoint(v) @ coords[:, b, None])
            out[:, b] = (v @ inner)[..., 0]
        return out

    def matrix(self, sel, weights) -> np.ndarray:
        """weights(L) at the modes picked by ``sel`` (an index or a slice)."""
        size = self.blocks[-1].stop
        out = np.zeros(self.vals[0][sel].shape[:-1] + (size, size), dtype=complex)
        for vals, vecs, b in zip(self.vals, self.vecs, self.blocks):
            v = vecs[sel]
            out[..., b, b] = (v * weights(vals[sel])[..., None, :]) @ _adjoint(v)
        return out


class HodgePackage:
    """Eigendecomposed Laplacian of one kind with projector and Green operator.

    Most Laplacians preserve the level grading and are eigendecomposed per
    level block; the full twisted-d Laplacian mixes levels by +-2 away from
    the generalized Kaehler case, so that kind decomposes whole per-mode
    matrices.
    """

    def __init__(self, context: "HodgeContext", kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown operator kind {kind!r}; expected one of {KINDS}")
        self.level_basis = lb = context.level_basis
        self.kind = kind
        self.blockwise = kind != "d"
        self._levels = lb.levels if self.blockwise else [None]
        self._spectra = _ModeSpectra(
            lambda sel: context._laplacian_blocks(kind, sel),
            len(lb.modes),
            context._laplacian_slices(kind),
        )
        self.vals, self.vecs = self._spectra.vals, self._spectra.vecs
        self.spectral_radius = self._spectra.radius
        self.cutoff = self._spectra.cutoff

        self.warnings: List[str] = []
        gap = sum(
            int(np.sum((v > self.cutoff) & (v <= 10 * self.cutoff))) for v in self.vals
        )
        if gap:
            self.warnings.append(
                f"spectral gap warning: {gap} eigenvalues within 10x of the kernel cutoff"
            )

    # ------------------------------------------------------------------

    def kernel_dimension(self, level: int, mode: Tuple[int, ...] | None = None) -> int:
        lb = self.level_basis
        sel = slice(None) if mode is None else lb.positions([mode])
        if self.blockwise:
            return int(np.sum(self.vals[self._levels.index(level)][sel] <= self.cutoff))
        # level content of a level-mixing kernel: rank of the projected basis
        kernel = self.vals[0][sel] <= self.cutoff
        vecs = self.vecs[0][sel]
        total = 0
        for i in np.flatnonzero(kernel.any(axis=1)):
            s = np.linalg.svd(vecs[i][lb.level_slices[level]][:, kernel[i]], compute_uv=False)
            if s[0] > RANK_CUTOFF:
                total += int(np.sum(s > RANK_CUTOFF * s[0]))
        return total

    def kernel_dimensions(self) -> Dict[int, int]:
        return {k: self.kernel_dimension(k) for k in self.level_basis.levels}

    def harmonic_basis(self, level: int | None = None) -> List[Spinor]:
        """Orthonormal kernel spinors (at one level for blockwise kinds)."""
        lb = self.level_basis
        index = [np.zeros(0, dtype=int)]
        rows = [np.zeros((0, lb.size), dtype=complex)]
        for key, vals, vecs, sl in zip(self._levels, self.vals, self.vecs, self._spectra.blocks):
            if self.blockwise and level is not None and key != level:
                continue
            modes, cols = np.nonzero(vals <= self.cutoff)
            coords = np.zeros((len(modes), lb.size), dtype=complex)
            coords[:, sl] = vecs[modes, :, cols]
            index.append(modes)
            rows.append(coords)
        # mode by mode, then block by block, then eigenvector by eigenvector
        index = np.concatenate(index)
        order = np.argsort(index, kind="stable")
        rows = np.concatenate(rows)[order]
        return [lb.spinor([lb.modes[i]], row[None]) for i, row in zip(index[order], rows)]

    def _apply_spectral(self, sigma: Spinor, weights) -> Spinor:
        lb = self.level_basis
        if sigma.is_zero():
            return Spinor.zero(lb.geometry, lb.box)
        coords = self._spectra.apply(lb.positions(sigma.modes), lb.coords(sigma), weights)
        return lb.spinor(sigma.modes, coords)

    def harmonic(self, sigma: Spinor) -> Spinor:
        """Projection onto the kernel."""
        return self._apply_spectral(sigma, self._spectra.harmonic_weights)

    def green(self, sigma: Spinor) -> Spinor:
        """Pseudo-inverse on the kernel complement."""
        return self._apply_spectral(sigma, self._spectra.green_weights)

    def laplacian(self, sigma: Spinor) -> Spinor:
        return self._apply_spectral(sigma, lambda v: v)

    def green_matrix(self, mode: Tuple[int, ...]) -> np.ndarray:
        return self._spectra.matrix(self.level_basis.position(mode), self._spectra.green_weights)

    def harmonic_matrix(self, mode: Tuple[int, ...]) -> np.ndarray:
        return self._spectra.matrix(self.level_basis.position(mode), self._spectra.harmonic_weights)


class HodgeContext:
    """Operator matrices on a Born-Infeld-orthonormal level basis, stacked over modes."""

    OPERATOR_NAMES = (
        "d", "del", "dbar", "d_adj", "del_adj", "dbar_adj",
        "deldbar", "deldbar_adj",
    )

    def __init__(
        self,
        structure: GCStructure,
        metric: GeneralizedMetric,
        box: TruncationBox | None = None,
    ):
        if metric.compatibility(structure) > 1e-9:
            raise ValueError("metric does not commute with the structure")
        self.structure = structure
        self.metric = metric
        self.box = box or structure.box
        self.geometry = structure.geometry
        self.level_basis = lb = _LevelBasis(structure, metric, self.box)
        self.size, self.modes = lb.size, lb.modes
        self.basis, self.basis_inv, self.level_slices = lb.basis, lb.basis_inv, lb.level_slices

        self._packages: Dict[str, HodgePackage] = {}

        # d at mode k is -H^ + 2 pi i sum_a k_a dx^a^ in the level basis
        const, slopes = d_matrices(structure)
        d = _stack_linear(
            self.basis_inv @ const @ self.basis, self.basis_inv @ slopes @ self.basis, self.modes
        )
        self._masks = {"del": structure.shift_mask(-1), "dbar": structure.shift_mask(+1)}
        # del, dbar and deldbar are stacked on first use: packages need d alone
        self._stacks = {"d": d}
        self._checks: Dict[Tuple[str, int], Dict] = {}
        # bases shared by the class checks of one level: only the level
        # asked last is kept (``_shared_basis``)
        self._bases_level: int | None = None
        self._bases: Dict[str, np.ndarray] = {}
        self._scale: np.ndarray | None = None
        self.check_counts = dict.fromkeys(CHECK_COUNTERS, 0)

    # ------------------------------------------------------------------
    # matrix assembly
    # ------------------------------------------------------------------

    def _op(self, name: str, sel) -> np.ndarray:
        """d, del, dbar or deldbar at the modes picked by ``sel`` (index, slice or indices)."""
        if name == "deldbar":
            return self._op("del", sel) @ self._op("dbar", sel)
        d = self._stacks["d"][sel]
        if name == "d":
            return d
        if name not in self._masks:
            raise ValueError(f"unknown operator {name!r}")
        return np.where(self._masks[name], d, 0.0)

    def _stack(self, name: str) -> np.ndarray:
        """``name`` at every mode, built on first use and kept."""
        if name not in self._stacks:
            self._stacks[name] = self._op(name, slice(None))
        return self._stacks[name]

    def operator_matrix(self, name: str, mode: Tuple[int, ...]) -> np.ndarray:
        if name.endswith("_adj"):
            return _adjoint(self.operator_matrix(name[:-4], mode))
        return self._stack(name)[self.level_basis.position(mode)]

    def laplacian_matrix(self, kind: str, mode: Tuple[int, ...]) -> np.ndarray:
        return self._laplacian(kind, self.level_basis.position(mode))

    def _laplacian_slices(self, kind: str) -> List[slice]:
        """The diagonal blocks of the ``kind`` Laplacian: the levels, or the
        whole matrix for the level-mixing ``d``."""
        if kind == "d":
            return [slice(0, self.size)]
        return [self.level_slices[k] for k in self.level_basis.levels]

    def _laplacian(self, kind: str, sel) -> np.ndarray:
        """The ``kind`` Laplacian at the modes picked by ``sel`` (index or slice):
        its blocks placed on the diagonal."""
        blocks = self._laplacian_blocks(kind, sel)
        out = np.zeros(blocks[0].shape[:-2] + (self.size, self.size), dtype=complex)
        for block, b in zip(blocks, self._laplacian_slices(kind)):
            out[..., b, b] = block
        return out

    def _laplacian_blocks(self, kind: str, sel) -> List[np.ndarray]:
        """The diagonal blocks of the ``kind`` Laplacian at the modes picked by ``sel``.

        Each block is assembled from level blocks of d: del is the block one
        level down, dbar the block one level up.  Every term of the del,
        dbar, bc and aeppli Laplacians is X X* or X* X of such blocks, so the
        entries off the level blocks are exact zeros.
        """
        d = self._stacks["d"][sel]
        if kind == "d":
            return [d @ _adjoint(d) + _adjoint(d) @ d]
        if kind not in KINDS:
            raise ValueError(f"unknown Laplacian kind {kind!r}")

        def block(row_level, col_level):
            return d[..., self._level(row_level), self._level(col_level)]

        out = []
        for k in self.level_basis.levels:
            if kind in ("del", "dbar"):
                # a maps into level k, b out of it
                step = -1 if kind == "del" else 1
                a, b = block(k, k - step), block(k + step, k)
                out.append(a @ _adjoint(a) + _adjoint(b) @ b)
                continue
            dl_out, db_out = block(k - 1, k), block(k + 1, k)
            if kind == "bc":
                t = block(k, k + 1) @ db_out  # del dbar on level k
                # dbar* del from level k + 2 into k, and from k into k - 2
                s_in = _adjoint(db_out) @ block(k + 1, k + 2)
                s_out = _adjoint(block(k - 1, k - 2)) @ dl_out
                out.append(
                    t @ _adjoint(t) + _adjoint(t) @ t
                    + s_in @ _adjoint(s_in) + _adjoint(s_out) @ s_out
                    + _adjoint(db_out) @ db_out + _adjoint(dl_out) @ dl_out
                )
            else:
                db_in, dl_in = block(k, k - 1), block(k, k + 1)
                t = db_in @ dl_out  # dbar del on level k
                # del dbar* from level k + 2 into k, and from k into k - 2
                r_in = dl_in @ _adjoint(block(k + 2, k + 1))
                r_out = block(k - 2, k - 1) @ _adjoint(db_in)
                out.append(
                    t @ _adjoint(t) + _adjoint(t) @ t
                    + r_in @ _adjoint(r_in) + _adjoint(r_out) @ r_out
                    + db_in @ _adjoint(db_in) + dl_in @ _adjoint(dl_in)
                )
        return out

    # ------------------------------------------------------------------
    # spinor transport
    # ------------------------------------------------------------------

    def apply(self, name: str, sigma: Spinor) -> Spinor:
        if name not in self.OPERATOR_NAMES:
            raise ValueError(f"unknown operator {name!r}")
        if sigma.is_zero():
            return Spinor.zero(self.geometry, self.box)
        lb = self.level_basis
        adjoint = name.endswith("_adj")
        ops = self._op(name[:-4] if adjoint else name, lb.positions(sigma.modes))
        if adjoint:
            ops = _adjoint(ops)
        return lb.spinor(sigma.modes, np.einsum("mij,mj->mi", ops, lb.coords(sigma)))

    def package(self, kind: str) -> HodgePackage:
        if kind not in self._packages:
            self._packages[kind] = HodgePackage(self, kind)
        return self._packages[kind]

    def identity_residual(self, kind: str) -> float:
        """Operator-norm residual of (harmonic + laplacian o green - 1) for the
        ``kind`` package, worst mode."""
        sp, every = self.package(kind)._spectra, slice(None)
        resid = (
            sp.matrix(every, sp.harmonic_weights)
            + self._laplacian(kind, every) @ sp.matrix(every, sp.green_weights)
            - np.eye(self.size)
        )
        return float(np.linalg.norm(resid, 2, axis=(1, 2)).max())

    def bi_inner(self, a: Spinor, b: Spinor) -> complex:
        return self.metric.bi_inner(a, b)

    def bi_norm(self, a: Spinor) -> float:
        return self.metric.bi_norm(a)

    # ------------------------------------------------------------------
    # solvers
    # ------------------------------------------------------------------

    def solve_ddbar_minimal(self, y: Spinor, tol: float = 1e-9) -> Spinor:
        """Minimum-norm solution of (del o dbar) x = y via the BC Green operator.

        Raises ObstructionError when y is not in the image (nonzero BC-harmonic
        projection or exactness residual).
        """
        bc = self.package("bc")
        scale = max(y.norm(), 1e-300)
        harm = bc.harmonic(y).norm()
        x = self.apply("deldbar_adj", bc.green(y))
        resid = (self.apply("deldbar", x) - y).norm()
        if harm > tol * scale or resid > tol * scale:
            raise ObstructionError(
                "right-hand side is not in the image of del dbar",
                {"harmonic_norm": harm, "residual": resid, "scale": scale},
            )
        return x

    def d_closed_representative(self, sigma: Spinor, tol: float = 1e-9) -> Tuple[Spinor, Spinor]:
        """gamma = sigma + dbar beta with d gamma = 0, same raising-cohomology class.

        beta = -(del dbar)^* G_bc (del sigma); requires dbar sigma = 0 and the
        exactness class condition for del sigma.
        """
        scale = max(sigma.norm(), 1e-300)
        closed = self.apply("dbar", sigma).norm()
        if closed > tol * scale:
            raise ObstructionError(
                "input is not dbar-closed", {"dbar_norm": closed, "scale": scale}
            )
        del_sigma = self.apply("del", sigma)
        bc = self.package("bc")
        beta = self.apply("deldbar_adj", bc.green(del_sigma)).scale(-1)
        gamma = sigma.add(self.apply("dbar", beta))
        d_res = self.apply("d", gamma).norm()
        if d_res > tol * scale:
            raise ObstructionError(
                "class condition failed: no d-closed representative on this truncation",
                {"d_residual": d_res, "scale": scale},
            )
        return gamma, beta

    def solve_dbar_minimal(self, tau: Spinor, tol: float = 1e-9) -> Spinor:
        """Minimum-norm solution of dbar x = tau via the dbar Green operator."""
        pk = self.package("dbar")
        scale = max(tau.norm(), 1e-300)
        harm = pk.harmonic(tau).norm()
        closed = self.apply("dbar", tau).norm()
        x = self.apply("dbar_adj", pk.green(tau))
        resid = (self.apply("dbar", x) - tau).norm()
        if harm > tol * scale or resid > tol * scale:
            raise ObstructionError(
                "right-hand side is not dbar-exact",
                {"harmonic_norm": harm, "residual": resid, "closed": closed, "scale": scale},
            )
        return x

    # ------------------------------------------------------------------
    # class checks
    # ------------------------------------------------------------------

    def _level(self, k: int) -> slice:
        """Coordinates of level k; empty outside [-n, n]."""
        if -self.structure.n <= k <= self.structure.n:
            return self.level_slices[k]
        return slice(0, 0)

    def class_check(self, kind: str, k: int) -> Dict:
        """Rank verdicts for the ddbar-lemma and the solvability classes.

        Kinds: 'ddbar_lemma', 'B_k', 'S_k', 'Bcal_k', 'Scal_k'.  The two
        S/B families quantify over phi in the level above k with
        dbar(del phi) = 0 (plain) or dbar phi = 0 (calligraphic); the B
        variants additionally demand a del-exact solution.  Every verdict
        is decided per mode, on level blocks sliced from the stacked d, by
        batched SVDs; ``holds`` requires it at every mode and ``dims`` sums
        the ranks over the modes.  A basis carries its rank in its nonzero
        columns, so a rank question costs one SVD, and the bases that
        several kinds of level k share are computed once while k is the
        level asked last.  The verdicts depend on the context alone, so
        each (kind, k) is decided once; every call returns a fresh dict.
        """
        if kind not in ("ddbar_lemma", "S_k", "B_k", "Scal_k", "Bcal_k"):
            raise ValueError(f"unknown class check {kind!r}")
        if (kind, k) in self._checks:
            self.check_counts["memo_hits"] += 1
        else:
            self._checks[kind, k] = self._class_check(kind, k)
            self.check_counts["decided"] += 1
        check = self._checks[kind, k]
        return {**check, "dims": dict(check["dims"])}

    def _block(self, row_level: int, col_level: int) -> np.ndarray:
        """The level block of d at every mode: del one level down, dbar one up."""
        return self._stack("d")[:, self._level(row_level), self._level(col_level)]

    def _floor(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per mode, the operator scale and the absolute rank floor tied to it."""
        if self._scale is None:
            self._scale = np.maximum(1.0, np.abs(self._stack("d")).max(axis=(1, 2)))
        return self._scale, RANK_CUTOFF * self._scale

    def _shared_basis(self, name: str, k: int) -> np.ndarray:
        """A basis that several class checks of level k share.

        'dbar_in' is the range of dbar into level k, 'dbar_del_in' the range
        of dbar del into level k (del-exact solutions), and 'w_plain' /
        'w_cal' the span of del phi over phi in level k + 1 with
        dbar(del phi) = 0 / dbar phi = 0.  Only the bases of the level asked
        last are kept.
        """
        if self._bases_level != k:
            self._bases_level, self._bases = k, {}
        if name in self._bases:
            self.check_counts["bases_reused"] += 1
            return self._bases[name]
        self.check_counts["bases_computed"] += 1
        scale, floor = self._floor()
        block = self._block
        if name == "dbar_in":
            basis = _range_basis(block(k, k - 1), floor)
        elif name == "dbar_del_in":
            basis = _range_basis(block(k, k - 1) @ block(k - 1, k), floor * scale)
        else:
            del_down = block(k, k + 1)
            if name == "w_plain":
                null = _null_basis(block(k + 1, k) @ del_down, floor * scale)
            else:
                null = _null_basis(block(k + 2, k + 1), floor)
            basis = _range_basis(del_down @ _trim(null), floor)
        basis = self._bases[name] = _trim(basis)
        return basis

    def _class_check(self, kind: str, k: int) -> Dict:
        scale, floor = self._floor()
        block = self._block
        del_down = block(k, k + 1)
        if kind == "ddbar_lemma":
            # the shared basis first: it frees the bases of another level
            v2 = self._shared_basis("dbar_in", k)
            v1 = _trim(_range_basis(del_down, floor))
            ker_dbar = _trim(_null_basis(block(k + 1, k), floor))
            ker_del = _trim(_null_basis(block(k - 1, k), floor))
            v3 = _range_basis(del_down @ block(k + 1, k), floor * scale)
            d1 = _intersection_dim(v1, ker_dbar, RANK_CUTOFF)
            d2 = _intersection_dim(v2, ker_del, RANK_CUTOFF)
            d3 = _basis_rank(v3)
            holds, candidates, target = (d1 == d2) & (d2 == d3), d1 + d2, 2 * d3
        elif del_down.shape[-1] == 0:
            # no level above k: nothing to check
            holds, candidates, target = True, 0, 0
        else:
            w = self._shared_basis("w_plain" if kind in ("S_k", "B_k") else "w_cal", k)
            image = self._shared_basis("dbar_in" if kind in ("S_k", "Scal_k") else "dbar_del_in", k)
            holds = _contained(w, image, RANK_CUTOFF)
            candidates, target = _basis_rank(w), _basis_rank(image)
        return {
            "kind": kind,
            "level": k,
            "holds": bool(np.all(holds)),
            "dims": {"candidates": int(np.sum(candidates)), "target": int(np.sum(target))},
        }
