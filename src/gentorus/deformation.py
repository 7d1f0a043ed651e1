"""Deformation machinery: transport of spinors, holomorphy criterion,
power-series extension of closed forms, and the Hodge-number scan.

A deformation is a degree-2 polynomial over the dual frame (or a doubly
indexed family of them).  Its dual arises by conjugation; the pair shears
the eigenframes, transports the level grading, and turns holomorphy on the
deformed structure into a residual computable entirely on the undeformed
one.

Every matrix of Fourier series here (the frame maps [eps], [eps*] and
eps eps*, the pairing blocks of the sheared frames, and their Neumann-series
inverses) is a :class:`~gentorus.fourier.FourierMatrix` mode stack, so each
matrix product is one batched convolution.  Lists of sections are stacks
too: the structure's frames, the sheared frames of :class:`FrameMaps` and
every transport image are (4n, 2n) stacks whose columns hold the sections'
(tangent, cotangent) components.  Spinors are
mode stacks as well: the transport and the factorwise dressings are one
product of a word matrix (the substituted frame words on the vacuum, one
column each) with a spinor's frame coordinates, and the exponential action
is repeated products of eps's action matrix.
"""

from __future__ import annotations

import math
import time
from functools import cached_property
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .calculus import (
    del_op,
    delbar_op,
    lie_derivation_dL,
    schouten_bracket,
)
from .fourier import (
    FourierMatrix,
    _key_modes,
    _mode_keys,
    _norms,
    _products,
    _runs_within_chunk,
    _Stacks,
    _sum,
    _without_zeros,
)
from .hodge import (
    HodgeContext,
    ObstructionError,
    _LevelBasis,
    _ModeSpectra,
    _mode_positions,
    _rank,
)
from .metric import GeneralizedMetric
from .spinor import (
    CliffordPoly,
    Spinor,
    _action,
    _stack_linear,
    clifford_generators,
    monomial_list,
)
from .structure import GCStructure, natural_pairing_matrix

OrderKey = Tuple[int, int]


class DeformationError(ValueError):
    """Precondition failure in the deformation machinery."""


# ---------------------------------------------------------------------------
# Neumann-series inverse of Fourier matrices
# ---------------------------------------------------------------------------


# the Neumann series stops at the first term whose norm is at most
# NEUMANN_REL_TOL times max(1, norm of the partial sum), or fails after
# NEUMANN_MAX_TERMS terms
NEUMANN_REL_TOL = 1e-14
NEUMANN_MAX_TERMS = 200


def _neumann_inverse(a: FourierMatrix) -> FourierMatrix:
    """(1 - a)^{-1} by Neumann series; exact inversion on constant matrices."""
    geometry, box = a.geometry, a.box
    size = a.shape[0]
    if a.is_constant():
        inv = np.linalg.inv(np.eye(size) - a.constant_values())
        return FourierMatrix.constant(geometry, box, inv)
    total = term = FourierMatrix.identity(geometry, box, size)
    for _ in range(NEUMANN_MAX_TERMS):
        term = term.matmul(a)
        tnorm = term.norm()
        total = total + term
        if tnorm <= NEUMANN_REL_TOL * max(1.0, total.norm()):
            return total
    raise DeformationError(
        "Neumann series for the frame inverse did not converge; "
        "deformation too large for this expansion"
    )


# ---------------------------------------------------------------------------
# deformation polynomials
# ---------------------------------------------------------------------------


class FrameMaps:
    """Matrix forms of a deformation and its conjugate, and the frames they
    shear.

    ``eps_matrix`` M, the antisymmetric scatter of eps's coefficient row
    (M[i, p] = eps_ip = -M[p, i]), satisfies eps(l_p) = sum_i M[i, p] l^i and
    ``eps_star_matrix`` N satisfies eps*(l^p) = sum_i N[i, p] l_i; the
    composite eps eps* acts on the dual frame by E = M N.  A list of
    sections is a (4n, 2n) stack whose column i holds the (tangent,
    cotangent) components of section i, as the structure's ``frame`` and
    ``dual_frame`` hold l_i and l^i: ``xi`` is the sheared frame
    (1+eps)(l_i) and ``eta`` the sheared dual frame (1+eps*)(l^i).  Both
    are :class:`FourierMatrix` stacks, each built on first use, so a reader
    of ``eps_matrix`` alone (``sup_norm``) builds nothing else.
    """

    def __init__(self, structure: GCStructure, eps: CliffordPoly):
        if eps.degree != 2 or eps.frame is not structure.dual_frame:
            raise DeformationError("deformation must be a 2-polynomial over the dual frame")
        self.structure = structure
        self.eps = eps
        # eps's keys (i, p), i < p, run as the upper triangle does, row by
        # row; 0.0 - c keeps the zeros positive, as the dict ring's sums did
        s, dim = eps.stack, structure.dim
        i, p = np.triu_indices(dim, 1)
        values = np.zeros((len(s.modes), dim, dim), dtype=complex)
        values[:, i, p] = s.coeffs[:, 0]
        values[:, p, i] = 0.0 - s.coeffs[:, 0]
        dropped = np.zeros((dim, dim))
        dropped[i, p] = dropped[p, i] = s.dropped_mass[0]
        self.eps_matrix = FourierMatrix._from_sorted(s.geometry, s.box, s.modes, values, dropped)

    @cached_property
    def eps_star_matrix(self) -> FourierMatrix:
        # eps* is the conjugate of eps re-expanded over the frame:
        # conj(l^i) = sum_a C[a, i] l_a with C[a, i] = <l^a, conj(l^i)>
        s, dual_vals = self.structure, self.structure._dual_vals
        conj_coords = FourierMatrix.constant(
            s.geometry, s.box, dual_vals.T @ natural_pairing_matrix(s.dim) @ dual_vals.conj()
        )
        return conj_coords.matmul(self.eps_matrix.conj()).matmul(conj_coords.T)

    @cached_property
    def eps_eps_star(self) -> FourierMatrix:
        return self.eps_matrix.matmul(self.eps_star_matrix)

    @cached_property
    def xi(self) -> FourierMatrix:
        s = self.structure
        return s.frame + s.dual_frame.matmul(self.eps_matrix)

    @cached_property
    def eta(self) -> FourierMatrix:
        s = self.structure
        return s.dual_frame + s.frame.matmul(self.eps_star_matrix)

    def sup_norm(self) -> float:
        """Grid estimate of the sup over the torus of the 2-norm of eps.

        A constant eps takes its one value at every grid point, so its
        sup-norm is the 2-norm of that matrix, without the grid.  Otherwise
        eps depends only on the axes on which one of its modes is nonzero,
        and the full grid repeats the values of the grid over those axes, so
        only that grid is evaluated.
        """
        if self.eps_matrix.is_constant():
            return float(np.linalg.norm(self.eps_matrix.constant_values(), 2))
        active = np.flatnonzero(self.eps_matrix.modes.any(axis=0))
        npts = 4 * self.structure.box.K + 1
        axes = [np.linspace(0.0, 1.0, npts, endpoint=False)] * len(active)
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.zeros((npts ** len(active), self.structure.dim))
        pts[:, active] = np.stack([g.ravel() for g in grids], axis=-1)
        vals = self.eps_matrix.evaluate(pts)
        return float(np.linalg.norm(vals, ord=2, axis=(1, 2)).max())


class Beltrami:
    """Doubly indexed family eps_{ij} of deformation 2-polynomials.

    eps(t) = sum over i + j >= 1 of t^i conj(t)^j eps_ij.  The coefficients
    are fixed at construction, so the Maurer-Cartan residuals are computed
    once per series (``maurer_cartan_residuals``).  ``cut_order`` is the
    order at which :func:`maurer_cartan_expand` cut the series, None for a
    series given in full.
    """

    def __init__(
        self,
        structure: GCStructure,
        coefficients: Dict[OrderKey, CliffordPoly],
        cut_order: int | None = None,
    ):
        self.structure = structure
        self.cut_order = cut_order
        self.coefficients: Dict[OrderKey, CliffordPoly] = {}
        for key, poly in coefficients.items():
            key = (int(key[0]), int(key[1]))
            if key[0] + key[1] < 1:
                raise DeformationError("deformation coefficients start at order 1")
            if poly.degree != 2 or poly.frame is not structure.dual_frame:
                raise DeformationError(
                    "every coefficient must be a 2-polynomial over the dual frame"
                )
            if not poly.is_zero():
                self.coefficients[key] = poly
        self.order = max((i + j for i, j in self.coefficients), default=0)

    def eps_at(self, t: complex) -> CliffordPoly:
        t = complex(t)
        out = CliffordPoly.zero(self.structure.dual_frame, 2)
        for (i, j), poly in self.coefficients.items():
            out = out.add(poly.scale((t ** i) * (t.conjugate() ** j)))
        return out

    def is_constant(self) -> bool:
        return not any(poly.stack.modes.any() for poly in self.coefficients.values())

    @cached_property
    def maurer_cartan_residuals(self) -> Dict:
        """Residuals of d_L eps = (1/2)[eps, eps] at every order (i, j) with
        i + j <= 2 ``order``, where the brackets of the coefficients can
        land, an absent coefficient taken as zero; each is relative to
        max(1, |eps_ij|).  ``worst`` is the worst up to the cut order (every
        order for a series given in full), ``truncation`` holds the orders
        above it, and ``first_order_closed`` is the worst first-order
        |d_L eps_ij|.  ``maurer_cartan_verify`` judges them."""
        s = self.structure
        coeffs = self.coefficients
        zero = CliffordPoly.zero(s.dual_frame, 3)
        # the brackets are 3-polynomials, zero on T^2: none is formed there,
        # so no product of coefficients can leave a strict box for nothing
        brackets = coeffs if s.dim >= 3 else {}
        cut = 2 * self.order if self.cut_order is None else self.cut_order
        residuals: Dict[str, float] = {}
        truncation: Dict[str, float] = {}
        worst = 0.0
        closed_defect = 0.0
        for total in range(1, 2 * self.order + 1):
            # above the cut the brackets may leave the box; what stays is kept
            policy = "drop" if total > cut else None
            for i in range(total, -1, -1):
                j = total - i
                poly = coeffs.get((i, j))
                # d_L runs only on the coefficients that are there
                lhs = zero if poly is None else lie_derivation_dL(poly, s)
                rhs = zero
                for (a, b), pa in brackets.items():
                    if (i - a, j - b) in coeffs:
                        rhs = rhs.add(
                            schouten_bracket(pa, coeffs[(i - a, j - b)], s, policy=policy)
                        )
                scale = 1.0 if poly is None else max(1.0, poly.norm())
                resid = lhs.add(rhs.scale(-0.5)).norm() / scale
                residuals[f"{i},{j}"] = resid
                if total > cut:
                    truncation[f"{i},{j}"] = resid
                else:
                    worst = max(worst, resid)
                if total == 1 and poly is not None:
                    closed_defect = max(closed_defect, lhs.norm() / scale)
        return {
            "residuals": residuals,
            "worst": worst,
            "first_order_closed": closed_defect,
            "truncation": truncation,
        }


# ---------------------------------------------------------------------------
# the algebroid Hodge package (for Maurer-Cartan expansion)
# ---------------------------------------------------------------------------


class AlgebroidHodge:
    """Hodge package for the Lie algebroid differential on frame polynomials.

    Polynomials are identified with spinors through the canonical generator
    (P maps to P . rho0), the inner product pulled back from Born-Infeld.
    Under that map d_L is dbar, the level-raising part of d_H, so the
    differential at mode k is C + 2 pi i sum_a k_a A_a, where C and the A_a
    are the raising blocks of those of d_H in the level basis
    (``hodge._LevelBasis``); they are kept for ``dL_adjoint`` alone.  The
    Laplacians are the dbar Laplacian's level blocks, which read only the
    raising blocks of d, eigendecomposed in stacked chunks by a bare
    ``hodge._ModeSpectra(lb, "dbar")`` on its own level basis.  That counts
    the kernel at each orbit of the structure's lattice symmetries from
    the level basis's dbar rank stacks, ranked once per orbit, and
    eigendecomposes each mode that the Green operator or projector reads
    when it is first read, at that mode: bitwise the kernel counts and
    spectra of the context's dbar package, with no context built.  A polynomial's coefficient rows
    are placed in its degree's slice of the ``monomial_list`` keys, so the
    projector, Green operator and adjoint each act by one batched product,
    and the result's rows are read back from its degree's slice: no scalar
    is built on the way.
    """

    def __init__(self, structure: GCStructure, metric: GeneralizedMetric):
        self.structure = structure
        self.metric = metric

        # the context's orthonormal level basis, which holds the degree-d
        # words at level d - n in key order, in poly coordinates
        self.level_basis = lb = _LevelBasis(structure, metric)
        self.poly_basis = np.linalg.solve(structure._level_matrix, lb.basis)
        self.poly_basis_inv = np.linalg.inv(self.poly_basis)

        raising = structure.shift_mask(+1)
        self._const = np.where(raising, lb.const, 0)
        self._slopes = np.where(raising, lb.slopes, 0)
        self._spectra = _ModeSpectra(lb, "dbar")

    # poly <-> per-mode coordinate rows ---------------------------------

    def _coords(self, poly: CliffordPoly) -> Tuple[np.ndarray, np.ndarray]:
        """poly's modes and its coordinate rows, one row per mode: its
        coefficient rows placed in its degree's slice of the keys."""
        s = poly.stack
        rows = np.zeros((len(s.modes), self.level_basis.size), dtype=complex)
        rows[:, self.structure.degree_slice(poly.degree)] = s.coeffs[:, 0]
        return s.modes, rows @ self.poly_basis_inv.T

    def _poly(self, modes, coords: np.ndarray, degree: int) -> CliffordPoly:
        """The degree-``degree`` polynomial with coordinate rows ``coords``."""
        rows = (coords @ self.poly_basis.T)[:, self.structure.degree_slice(degree)]
        s = self.structure
        return CliffordPoly.from_stack(
            s.dual_frame, degree, FourierMatrix(s.geometry, s.box, modes, rows[:, None, :])
        )

    def _spectral(self, poly: CliffordPoly, weights) -> CliffordPoly:
        modes, coords = self._coords(poly)
        index = self.level_basis.positions(modes)
        return self._poly(modes, self._spectra.apply(index, coords, weights), poly.degree)

    def harmonic(self, poly: CliffordPoly) -> CliffordPoly:
        return self._spectral(poly, self._spectra.harmonic_weights)

    def green(self, poly: CliffordPoly) -> CliffordPoly:
        return self._spectral(poly, self._spectra.green_weights)

    def dL_adjoint(self, poly: CliffordPoly) -> CliffordPoly:
        modes, coords = self._coords(poly)
        d = _stack_linear(self._const, self._slopes, modes)
        return self._poly(modes, np.einsum("mji,mj->mi", d.conj(), coords), poly.degree - 1)


def maurer_cartan_verify(series: Beltrami, tol: float = 1e-9) -> Dict:
    """Order-by-order Maurer-Cartan residuals d_L eps = (1/2)[eps, eps],
    computed once per series and judged against ``tol`` on every call.

    ``integrable`` judges every order up to the series' cut order.  Above
    it a cut series is exact only to the size of what was cut:
    ``truncation`` is the first order there whose residual exceeds ``tol``,
    with that residual, or None, and it does not decide ``integrable``.
    """
    mc = series.maurer_cartan_residuals
    unmatched = [(key, r) for key, r in mc["truncation"].items() if r > tol]
    return {
        "residuals": dict(mc["residuals"]),
        "worst": mc["worst"],
        "first_order_closed": mc["first_order_closed"],
        "integrable": mc["worst"] <= tol,
        "truncation": (
            {"order": unmatched[0][0], "residual": unmatched[0][1]} if unmatched else None
        ),
    }


def maurer_cartan_expand(
    structure: GCStructure,
    metric: GeneralizedMetric,
    first_order: Dict[OrderKey, CliffordPoly],
    order: int,
    tol: float = 1e-9,
) -> Beltrami:
    """Complete first-order data to a Maurer-Cartan series by the standard
    recursion eps_m = (1/2) d_L^* G [eps, eps]_m.

    Raises ObstructionError when a bracket sum has a harmonic component
    (genuine deformation obstruction).
    """
    for key, poly in first_order.items():
        if key not in ((1, 0), (0, 1)):
            raise DeformationError("first-order data must sit at orders (1,0), (0,1)")
        defect = lie_derivation_dL(poly, structure).norm()
        if not defect <= tol * max(1.0, poly.norm()):
            raise ObstructionError(
                "first-order coefficient is not d_L-closed",
                {"residual": defect},
            )
    hodge = AlgebroidHodge(structure, metric)
    coeffs: Dict[OrderKey, CliffordPoly] = dict(first_order)
    for total in range(2, order + 1):
        for i in range(total + 1):
            j = total - i
            rhs = CliffordPoly.zero(structure.dual_frame, 3)
            for (a, b) in list(coeffs):
                c, d = i - a, j - b
                if (c, d) in coeffs and c + d >= 1 and a + b >= 1:
                    # recursion products must stay exact on the truncation
                    rhs = rhs.add(
                        schouten_bracket(
                            coeffs[(a, b)], coeffs[(c, d)], structure, policy="strict"
                        )
                    )
            rhs = rhs.scale(0.5)
            if rhs.is_zero(1e-16):
                continue
            harm = hodge.harmonic(rhs).norm()
            if not harm <= tol * max(1.0, rhs.norm()):
                raise ObstructionError(
                    f"Kuranishi obstruction at order ({i},{j})",
                    {"harmonic_norm": harm, "order": f"{i},{j}"},
                )
            sol = hodge.dL_adjoint(hodge.green(rhs))
            resid = lie_derivation_dL(sol, structure).add(rhs.scale(-1)).norm()
            if not resid <= tol * max(1.0, rhs.norm()):
                raise ObstructionError(
                    f"d_L solve failed at order ({i},{j})",
                    {"residual": resid, "order": f"{i},{j}"},
                )
            if not sol.is_zero(1e-16):
                coeffs[(i, j)] = sol
    return Beltrami(structure, coeffs, cut_order=order)


# ---------------------------------------------------------------------------
# transport of spinors
# ---------------------------------------------------------------------------


class Transport:
    """The deformation transport: frame substitution plus exponential action.

    Forward: sigma = sum c_I l^{i_1}..l^{i_k} . rho0 maps to
    sum c_I (1+eps*)(l^{i_1}) .. (1+eps*)(l^{i_k}) . (exp(eps) . rho0).
    Every frame substitution is one product of a word matrix, whose columns
    are the substituted words on the vacuum, with sigma's frame-coordinate
    column; for a constant eps the word matrix has the one mode zero.  The
    substituted frames are (4n, 2n) stacks of sections, as in
    :class:`FrameMaps`, and each one is a stack expression in the frame maps.
    """

    def __init__(self, structure: GCStructure, eps: CliffordPoly):
        self.structure = structure
        self.eps = eps
        self.maps = FrameMaps(structure, eps)
        self.exp_rho0 = self.exp_act(structure.rho0)
        self._constant = (
            self.maps.eps_matrix.is_constant() and self.maps.eps_star_matrix.is_constant()
        )

    # -- exponential Clifford action ------------------------------------

    def exp_act(self, sigma: Spinor, sign: float = 1.0) -> Spinor:
        """exp(eps) . sigma; the sum is finite since each action raises the
        level by two."""
        out = sigma
        term = sigma
        for i in range(1, self.structure.dim + 2):
            term = self.eps.act(term).scale(sign / i)
            if term.is_zero(0.0):
                break
            out = out.add(term)
        return out

    # -- frame substitution ----------------------------------------------

    def word_matrix(self, images: FourierMatrix, vacuum: Spinor) -> FourierMatrix:
        """Column I holds v_{i_1} . .. . v_{i_k} . vacuum for the I-th subset
        {i_1 < .. < i_k} of the frame in ``monomial_list`` order, where v_i
        is column i of the (4n, 2n) stack ``images``."""
        dim = self.structure.dim
        gens = clifford_generators(dim)
        # v_i's Clifford matrix: its column read as a (1, 4n) row of weights
        acts = [
            _action(
                FourierMatrix._from_sorted(
                    images.geometry, images.box, images.modes,
                    images.coeffs[:, None, :, i], images.dropped_mass[None, :, i],
                ),
                gens,
            )
            for i in range(dim)
        ]
        keys = monomial_list(dim)
        words = {(): vacuum.stack}
        for key in keys[1:]:
            words[key] = acts[key[0]].matmul(words[key[1:]])
        return FourierMatrix.block([[words[key] for key in keys]])

    def _substitute(self, words: FourierMatrix, sigma: Spinor) -> Spinor:
        return Spinor.from_stack(words.matmul(self.structure.frame_coordinates(sigma)))

    @cached_property
    def forward_words(self) -> FourierMatrix:
        """The word matrix of the forward map."""
        return self.word_matrix(self.maps.eta, self.exp_rho0)

    @cached_property
    def _dress_words(self) -> FourierMatrix:
        return self.word_matrix(self.images_one_minus_epseps(), self.structure.rho0)

    @cached_property
    def _undress_words(self) -> FourierMatrix:
        return self.word_matrix(self.images_inverse_one_minus_epseps(), self.structure.rho0)

    # -- the transport and its inverse -----------------------------------

    def forward(self, sigma: Spinor) -> Spinor:
        return self._substitute(self.forward_words, sigma)

    def inverse(self, sigma: Spinor) -> Spinor:
        """For a constant eps, the inverse of the one matrix by which forward
        maps every mode's coefficient column: the forward words' mode-zero
        values times the frame-coordinate map."""
        if not self._constant:
            raise DeformationError(
                "the transport's inverse requires a constant-coefficient deformation"
            )
        forward = self.forward_words.constant_values() @ self.structure._level_inverse
        return sigma.map_modes(np.linalg.inv(forward))

    def factorwise(self, images: FourierMatrix, sigma: Spinor) -> Spinor:
        """Apply a frame endomorphism to every Clifford factor, vacuum fixed."""
        return self._substitute(self.word_matrix(images, self.structure.rho0), sigma)

    def dress(self, sigma: Spinor) -> Spinor:
        """(1 - eps eps*) applied factorwise; its word matrix is built once."""
        return self._substitute(self._dress_words, sigma)

    def undress(self, sigma: Spinor) -> Spinor:
        """(1 - eps eps*)^{-1} applied factorwise; its word matrix is built once."""
        return self._substitute(self._undress_words, sigma)

    # -- frame endomorphism images ---------------------------------------

    # each returns the images of the dual frame as a stack of sections: the
    # dual frame times a matrix

    def images_one_minus_epseps(self) -> FourierMatrix:
        s = self.structure
        ident = FourierMatrix.identity(s.geometry, s.box, s.dim)
        return s.dual_frame.matmul(ident - self.maps.eps_eps_star)

    def images_inverse_one_minus_epseps(self) -> FourierMatrix:
        return self.structure.dual_frame.matmul(_neumann_inverse(self.maps.eps_eps_star))


# ---------------------------------------------------------------------------
# frame block matrices
# ---------------------------------------------------------------------------


def frame_block_matrices(
    structure: GCStructure, eps: CliffordPoly, sup_norm: float | None = None
) -> Dict:
    """Pairing blocks of the deformed frames, their closed-form inverse, and
    residuals.

    Builds xi_i = (1+eps)(l_i), the normalized duals xi^i, assembles the
    4n x 4n pairing block matrix, inverts it by the triangular-factor closed
    form in [eps], [eps*], and reports the residual against the identity.
    Sections are handled as the columns of (4n, 2n) stacks over their
    (tangent, cotangent) components, so every pairing and every block is a
    :class:`FourierMatrix` product.  ``sup_norm``, when given, is eps's grid
    sup-norm as :meth:`FrameMaps.sup_norm` computes it; it is checked against
    1 as the computed one would be.
    """
    maps = FrameMaps(structure, eps)
    sup = maps.sup_norm() if sup_norm is None else sup_norm
    if sup >= 1.0:
        raise DeformationError(
            f"deformation sup-norm {sup:.3f} >= 1; frame expansion invalid"
        )
    dim = structure.dim
    geometry, box = structure.geometry, structure.box

    ident = FourierMatrix.identity(geometry, box, dim)
    frame, dual, xi, eta = structure.frame, structure.dual_frame, maps.xi, maps.eta
    q = FourierMatrix.constant(geometry, box, natural_pairing_matrix(dim))

    # normalize the dual frame: xi^i = sum_j N[i, j] eta^j
    pmat = eta.T.matmul(q).matmul(xi)
    nmat = _neumann_inverse(ident - pmat)
    xi_dual = eta.matmul(nmat.T)
    xi_dual_q, xi_q = xi_dual.T.matmul(q), xi.T.matmul(q)
    dual_residual = float((xi_dual_q.matmul(xi) - ident).entry_norms().max())

    # forward block matrix in the arrangement [[L(Xi*), L*(Xi*)], [L(Xi), L*(Xi)]]
    top_left, top_right = xi_dual_q.matmul(frame), xi_dual_q.matmul(dual)
    bot_left, bot_right = xi_q.matmul(frame), xi_q.matmul(dual)

    forward = FourierMatrix.block([[top_left, top_right], [bot_left, bot_right]])

    # [eps] and [eps*] recovered from the pairings (Formulas 2.4 / 2.5 shape)
    inv_br = _neumann_inverse(ident - bot_right)
    e_mat = inv_br.matmul(bot_left)
    inv_tl = _neumann_inverse(ident - top_left)
    es_mat = inv_tl.matmul(top_right)

    # coefficient-matrix consistency: [eps]_{kj} = eps_{jk}
    conv_residual = float((e_mat - maps.eps_matrix.T).entry_norms().max())

    # closed-form inverse
    inv_one_minus_se = _neumann_inverse(es_mat.matmul(e_mat))
    inv_one_minus_es = _neumann_inverse(e_mat.matmul(es_mat))
    closed_inverse = FourierMatrix.block([
        [inv_one_minus_se.matmul(inv_tl), -es_mat.matmul(inv_one_minus_es.matmul(inv_br))],
        [-inv_one_minus_es.matmul(e_mat.matmul(inv_tl)), inv_one_minus_es.matmul(inv_br)],
    ])
    product = forward.matmul(closed_inverse)
    inverse_residual = (product - FourierMatrix.identity(geometry, box, 2 * dim)).norm()

    # swap identity: (1 - [eps][eps*])^{-1} [eps] = [eps](1 - [eps*][eps])^{-1}
    swap_residual = (inv_one_minus_es.matmul(e_mat) - e_mat.matmul(inv_one_minus_se)).norm()

    return {
        "forward": forward,
        "inverse": closed_inverse,
        "eps_matrix": e_mat,
        "eps_star_matrix": es_mat,
        "sup_norm": sup,
        "residuals": {
            "duality": dual_residual,
            "inverse": inverse_residual,
            "coefficient_convention": conv_residual,
            "swap_identity": swap_residual,
        },
    }


# ---------------------------------------------------------------------------
# deformed structures (constant deformations)
# ---------------------------------------------------------------------------


class DeformedStructure:
    """The generalized complex structure sheared by a constant deformation.

    Frames are (1+eps)(l_i) with pairing-normalized duals inside the
    conjugate span; the canonical generator is exp(eps) . rho0 up to
    normalization (cross-checked), and ``ratio`` is that normalization:
    exp(eps) . rho0 = ratio rho0'.  Carries its own compatible metric and
    Hodge context for the deformed side.
    """

    def __init__(self, structure: GCStructure, eps: CliffordPoly, tol: float = 1e-9):
        self.transport = Transport(structure, eps)
        maps = self.transport.maps
        if not self.transport._constant:
            raise DeformationError("deformed structures require constant deformations")
        self.base = structure
        self.eps = eps
        sup = maps.sup_norm()
        if sup >= 1.0:
            raise DeformationError(f"deformation sup-norm {sup:.3f} >= 1")

        geometry, box = structure.geometry, structure.box
        dim = structure.dim
        xi_vals = maps.xi.constant_values()
        q = natural_pairing_matrix(dim)
        conj_vals = xi_vals.conj()
        p = conj_vals.T @ q @ xi_vals
        pinv = np.linalg.inv(p)
        dual_vals = conj_vals @ pinv.T

        self.structure = GCStructure(
            geometry, box, xi_vals, dual_vals, twist=structure.twist,
            label=f"{structure.label}+eps", tol=1e-9,
        )

        # the canonical generator must be proportional to exp(eps) . rho0
        target = self.transport.exp_rho0.stack.constant_values()[:, 0]
        got = self.structure._rho0_vec
        pivot = np.argmax(np.abs(target))
        self.ratio = target[pivot] / got[pivot]
        self.canonical_residual = float(np.abs(target - self.ratio * got).max())
        if self.canonical_residual > tol * max(1.0, np.abs(target).max()):
            raise DeformationError(
                f"deformed canonical generator mismatch ({self.canonical_residual:.3e})"
            )
        self.metric = GeneralizedMetric.compatible_with(self.structure)

    @cached_property
    def context(self) -> HodgeContext:
        return HodgeContext(self.structure, self.metric)


# ---------------------------------------------------------------------------
# the holomorphy criterion
# ---------------------------------------------------------------------------


def bracket_del_action(structure: GCStructure, eps: CliffordPoly, sigma: Spinor) -> Spinor:
    """[del, eps .] sigma = del(eps . sigma) - eps . (del sigma)."""
    return del_op(eps.act(sigma), structure).add(eps.act(del_op(sigma, structure)).scale(-1))


def _criterion_rhs(transport: Transport, sigma: Spinor) -> Spinor:
    structure = transport.structure
    dressed = transport.dress(sigma)
    return delbar_op(dressed, structure).add(
        bracket_del_action(structure, transport.eps, dressed)
    )


def holomorphy_residuals(
    structure: GCStructure,
    eps: CliffordPoly,
    sigmas: Sequence[Spinor],
    deformed: DeformedStructure | None = None,
) -> List[Dict[str, float]]:
    """Both sides of the holomorphy criterion plus the proof identity, one
    dict per spinor of ``sigmas``.

    rhs: the undeformed-side expression; lhs (constant deformations only):
    the raising part of d on the transported spinor, computed on the
    deformed structure; identity: their exact relation through the
    transport of the Neumann-dressed rhs.

    ``deformed``, when given, is the deformed structure of this eps; a
    constant eps without it gets its deformed structure built first.  The
    deformed structure's transport is then the one used, so a call builds
    one transport.

    For a constant eps every step is mode-diagonal, so all samples go
    through :func:`_constant_criterion` together, in runs of
    ``fourier._runs_within_chunk``, and each dict is bitwise the one the
    sample's own composition gives: the dressing, [del, eps .], delbar,
    the transport, the undressing and the deformed delbar, one spinor at a
    time.

    A varying deformation yields only ``rhs_residual`` and ``scale``, sample
    by sample, which the ``criterion`` experiment does not report: for a
    varying eps it reports the norm gate and the frame blocks, and under the
    ``drop`` policy it calls this function on no sample.
    """
    if deformed is None and eps.stack.is_constant():
        deformed = DeformedStructure(structure, eps)
    transport = deformed.transport if deformed is not None else Transport(structure, eps)
    if not transport._constant:
        norms = [_criterion_rhs(transport, sigma).norm() for sigma in sigmas]
        return [{"rhs_residual": r, "scale": max(1.0, r)} for r in norms]
    size = 2 ** structure.dim
    # a sample's largest array is its (P, N, N) stack of delbar or del
    cost = np.array([max(1, len(sigma.modes)) * size * size for sigma in sigmas], dtype=np.int64)
    out: List[Dict[str, float]] = []
    for run in _runs_within_chunk(cost) if len(sigmas) else []:
        out.extend(_constant_criterion(transport, deformed.structure, sigmas[run]))
    return out


def _constant_criterion(
    transport: Transport, deformed: GCStructure, sigmas: Sequence[Spinor]
) -> List[Dict[str, float]]:
    """:func:`holomorphy_residuals` of a constant eps over one run of
    samples, their spinors held end to end as one
    :class:`~gentorus.fourier._Stacks`.

    A word-matrix product or a Clifford action by eps is one
    :func:`~gentorus.fourier._products` with the constant matrix as a
    one-mode stack per sample, a sum is :func:`~gentorus.fourier._sum`, a
    mode-by-mode map is the product ``Spinor.map_modes`` forms, over all
    rows at once, with the modes read back from the keys, and the norms are
    :func:`~gentorus.fourier._norms`: each forms a sample's matrices as the
    ``FourierMatrix`` and ``Spinor`` operations form them for it alone.
    """
    structure = transport.structure
    box, dim, count = structure.box, structure.dim, len(sigmas)

    def tiled(matrix: FourierMatrix) -> _Stacks:
        keys = _mode_keys(box, matrix.modes)
        return _Stacks(
            np.tile(matrix.coeffs, (count, 1, 1)), np.tile(keys, count), np.full(count, len(keys))
        )

    def mapped(stacks: _Stacks, ops: np.ndarray) -> _Stacks:
        rows = stacks.coeffs[:, :, 0]
        rows = rows @ ops.T if ops.ndim == 2 else np.einsum("mij,mj->mi", ops, rows)
        return _without_zeros(stacks._replace(coeffs=rows[:, :, None]))

    def coords(stacks: _Stacks) -> _Stacks:
        return mapped(stacks, structure._level_inverse)

    def differential(stacks: _Stacks, gc: GCStructure, name: str) -> _Stacks:
        modes = _key_modes(box, stacks.keys, dim)
        return mapped(stacks, _stack_linear(*gc.differentials[name], modes))

    def negated(stacks: _Stacks) -> _Stacks:
        return stacks._replace(coeffs=stacks.coeffs * complex(-1))

    dress, forward, undress, eps_act = (
        tiled(words) for words in (
            transport._dress_words, transport.forward_words, transport._undress_words,
            transport.eps.action_matrix(),
        )
    )
    sigma = coords(_Stacks(
        np.concatenate([s.stack.coeffs for s in sigmas]),
        _mode_keys(box, np.concatenate([s.modes for s in sigmas])),
        np.array([len(s.modes) for s in sigmas]),
    ))
    dressed = _products(dress, sigma)
    # (delbar + [del, eps .]) dressed, [del, eps .] = del eps . - eps . del
    bracket = _sum(
        differential(_products(eps_act, dressed), structure, "del"),
        negated(_products(eps_act, differential(dressed, structure, "del"))),
    )
    rhs = _sum(differential(dressed, structure, "dbar"), bracket)
    lhs = differential(_products(forward, sigma), deformed, "dbar")
    undone = _products(undress, coords(rhs))
    identity = _sum(lhs, negated(_products(forward, coords(undone))))
    rhs_norms, lhs_norms, identity_norms = (
        _norms(stacks).tolist() for stacks in (rhs, lhs, identity)
    )
    return [
        {
            "rhs_residual": r,
            "lhs_residual": lhs_norm,
            "proof_identity_residual": i,
            "scale": max(1.0, lhs_norm, r),
        }
        for r, lhs_norm, i in zip(rhs_norms, lhs_norms, identity_norms)
    ]


# ---------------------------------------------------------------------------
# power-series extension of dbar-closed forms
# ---------------------------------------------------------------------------


class ExtensionSeries:
    """Solution data of the order-by-order extension equations.

    ``coefficients`` are the dressed series terms; ``residuals`` record the
    two defining equations per order; ``majorant`` carries the comparison
    series diagnostic (beta, gamma, radius estimate).
    """

    def __init__(
        self,
        series: Beltrami,
        level: int,
        coefficients: Dict[OrderKey, Spinor],
        residuals: Dict[str, Dict[str, float]],
        variant: str,
        majorant: Dict,
        class_checks: Dict,
    ):
        self.series = series
        self.level = level
        self.coefficients = coefficients
        self.residuals = residuals
        self.variant = variant
        self.majorant = majorant
        self.class_checks = class_checks

    def dressed_at(self, t: complex) -> Spinor:
        """sum over orders of t^p conj(t)^q sigma~_pq."""
        t = complex(t)
        sample = next(iter(self.coefficients.values()))
        out = Spinor.zero(sample.geometry, sample.box)
        for (p, q), sig in self.coefficients.items():
            out = out.add(sig.scale((t ** p) * (t.conjugate() ** q)))
        return out

    def criterion_residual_at(self, t: complex) -> float:
        """Norm of (delbar + [del, eps(t) .]) applied to the dressed value."""
        eps_t = self.series.eps_at(t)
        structure = self.series.structure
        value = self.dressed_at(t)
        return delbar_op(value, structure).add(bracket_del_action(structure, eps_t, value)).norm()


def _majorant_diagnostic(
    coefficients: Dict[OrderKey, Spinor], series: Beltrami
) -> Dict:
    """Comparison-series constants measured from the computed norms.

    beta matches 16 (|sigma~_10| + |sigma~_01|); gamma = K beta with K the
    worst measured ratio of an order's output norm to its driving bilinear
    sum; the series converges for |t| < 1/gamma.
    """
    order_norms: Dict[int, float] = {}
    for (p, q), sig in coefficients.items():
        order_norms[p + q] = order_norms.get(p + q, 0.0) + sig.norm()
    eps_norms: Dict[int, float] = {}
    for (i, j), poly in series.coefficients.items():
        eps_norms[i + j] = eps_norms.get(i + j, 0.0) + poly.norm()
    beta = 16.0 * order_norms.get(1, 0.0)
    kmax = 0.0
    top = max(order_norms, default=0)
    for m in range(2, top + 1):
        driving = 0.0
        for a in range(1, m + 1):
            driving += eps_norms.get(a, 0.0) * order_norms.get(m - a, 0.0)
        if driving > 0 and m in order_norms:
            kmax = max(kmax, order_norms[m] / driving)
    gamma = kmax * beta
    coeff_check = True
    if gamma > 0:
        a_coeff = [0.0] + [
            beta / (16.0 * gamma) * gamma ** m / m ** 2 for m in range(1, top + 2)
        ]
        for m in range(1, min(top + 1, len(a_coeff))):
            square = sum(
                a_coeff[i] * a_coeff[m - i] for i in range(1, m)
            )
            if square > (beta / gamma) * a_coeff[m] + 1e-12:
                coeff_check = False
    return {
        "beta": beta,
        "gamma": gamma,
        "radius_estimate": math.inf if gamma == 0 else 1.0 / gamma,
        "square_domination": coeff_check,
    }


class ExtensionBatch(NamedTuple):
    """The extensions of a batch of E seeds of one level
    (``extend_closed_forms``): per order (p, q), the (P, 2^{2n}, E) stack
    whose column e is seed e's coefficient, an order absent where every
    coefficient is zero; per seed, its residual dict, as
    ``ExtensionSeries.residuals``; and the class checks of the level."""

    level: int
    coefficients: Dict[OrderKey, FourierMatrix]
    residuals: List[Dict[str, Dict[str, float]]]
    class_checks: Dict


def extend_closed_form(
    context: HodgeContext,
    series: Beltrami,
    sigma00: Spinor,
    order: int,
    variant: str = "standard",
    tol: float = 1e-9,
) -> ExtensionSeries:
    """Extend a harmonic dbar-class order by order along the deformation.

    standard: solve del sigma~ = 0 and dbar sigma~_pq = -sum del(eps . sigma~)
    by the minimal dbar solve plus the double-operator correction;
    h_vanishing: solve the single equation with the extra eps . del sigma~
    terms (solvable when the raising cohomology above the level vanishes;
    the harmonic obstruction is checked per order either way).  This is
    ``extend_closed_forms`` on a batch of one, whose one-column stacks are
    the coefficients' own.
    """
    batch = extend_closed_forms(context, series, [sigma00], order, variant, tol)
    coeffs = {key: Spinor.from_stack(stack) for key, stack in batch.coefficients.items()}
    majorant = _majorant_diagnostic(coeffs, series)
    return ExtensionSeries(
        series, batch.level, coeffs, batch.residuals[0], variant, majorant, batch.class_checks
    )


def extend_closed_forms(
    context: HodgeContext,
    series: Beltrami,
    seeds: Sequence[Spinor],
    order: int,
    variant: str = "standard",
    tol: float = 1e-9,
) -> ExtensionBatch:
    """Extend harmonic dbar-classes of one level together, as
    ``extend_closed_form`` extends each: the seeds are the columns of one
    stack over the union of their modes, so each step of the solve is one
    operation on all of them, and every norm, check and residual is taken
    column by column.  A batch of several seeds that raises a ValueError
    (an obstruction, a failed solve, a truncation escape, an unresolved
    Green operator, seeds of several levels) is extended again one seed
    at a time, so the error raised is the one that the loop over the seeds
    raises; where that loop passes, the batch's own error stands.
    """
    try:
        return _extend_batch(context, series, seeds, order, variant, tol)
    except ValueError:
        if len(seeds) > 1:
            for sigma in seeds:
                extend_closed_form(context, series, sigma, order, variant, tol)
        raise


def _columns(columns: Sequence[FourierMatrix]) -> FourierMatrix:
    """The stack whose column e is the one-column stack ``columns[e]``, over
    the union of their modes; one column is itself, so a batch of one is
    its seed's own stack."""
    if len(columns) == 1:
        return columns[0]
    first = columns[0]
    modes = np.concatenate([col.modes for col in columns])
    owner = np.repeat(np.arange(len(columns)), [len(col.modes) for col in columns])
    coeffs = np.zeros((len(modes), first.shape[0], len(columns)), dtype=complex)
    coeffs[np.arange(len(modes)), :, owner] = np.concatenate([col.coeffs[:, :, 0] for col in columns])
    return FourierMatrix(
        first.geometry, first.box, modes, coeffs, np.hstack([col.dropped_mass for col in columns])
    )


def _keep(stack: FourierMatrix, keep: List[bool]) -> FourierMatrix:
    """The stack with every column that ``keep`` does not mark set to zero."""
    if all(keep):
        return stack
    mask = np.array(keep, dtype=float)
    return FourierMatrix._from_sorted(
        stack.geometry, stack.box, stack.modes, stack.coeffs * mask, stack.dropped_mass * mask
    )


def _extend_batch(
    context: HodgeContext,
    series: Beltrami,
    seeds: Sequence[Spinor],
    order: int,
    variant: str,
    tol: float,
) -> ExtensionBatch:
    """The solve of ``extend_closed_forms``, raising at the first column to
    fail.  On one seed every array is the one-column stack of that seed's
    own solve, so its coefficients and residuals are bitwise those of a
    solve on spinors."""
    if variant not in ("standard", "h_vanishing"):
        raise DeformationError(f"unknown variant {variant!r}")
    structure = context.structure
    if structure is not series.structure:
        raise DeformationError("series and context structures differ")
    levels = {structure.level_of(sigma) for sigma in seeds}
    if len(levels) > 1:
        raise DeformationError("the seeds of a batch lie at different levels")
    (level,) = levels
    sigma00 = _columns([sigma.stack for sigma in seeds])
    pk = context.package("dbar")
    defects = (pk.harmonic(sigma00) - sigma00).column_norms()
    for harm_defect, norm in zip(defects, sigma00.column_norms()):
        if not harm_defect <= tol * max(1.0, norm):
            raise ObstructionError(
                "seed is not harmonic for the raising Laplacian",
                {"defect": harm_defect},
            )
    mc = maurer_cartan_verify(series, tol=tol)
    if not mc["integrable"]:
        raise ObstructionError(
            "deformation series fails the Maurer-Cartan equation",
            {"worst_residual": mc["worst"]},
        )

    class_checks: Dict[str, Dict] = {}
    if variant == "standard":
        # the checks whose level exists; the others hold trivially
        wanted = {"B_lower": ("B_k", level - 1), "S_upper": ("S_k", level + 1)}
        for name, (kind, k) in wanted.items():
            class_checks[name] = (
                context.class_check(kind, k) if abs(k) <= structure.n
                else {"holds": True, "kind": kind, "level": k, "dims": {}}
            )
        for name, check in class_checks.items():
            if not check["holds"]:
                raise ObstructionError(
                    f"class condition {name} fails at level {check['level']}",
                    {"check": name},
                )
    else:
        hdim = pk.kernel_dimension(level + 1) if level + 1 <= structure.n else 0
        class_checks["h_upper"] = {
            "kind": "h_vanishing",
            "level": level + 1,
            "dims": {"harmonic": hdim},
            "holds": hdim == 0,
        }
        # a nonzero harmonic space above the level is not fatal: the per-order
        # harmonic obstruction check below is the sharp condition

    coeffs: Dict[OrderKey, FourierMatrix] = {}
    residuals: List[Dict[str, Dict[str, float]]] = [{} for _ in seeds]
    zero = FourierMatrix.zero(structure.geometry, structure.box, sigma00.shape)
    gamma0, _ = context.d_closed_representative(sigma00, tol=tol)
    coeffs[(0, 0)] = gamma0
    gamma_norms = gamma0.column_norms()
    lowering = context.apply("del", gamma0).column_norms()
    equation = context.apply("dbar", gamma0).column_norms()
    for res, low, eq, norm in zip(residuals, lowering, equation, gamma_norms):
        res["0,0"] = {"lowering": low, "equation": eq, "scale": max(1.0, norm)}

    def driving_sum(p: int, q: int) -> FourierMatrix:
        # solver products are exact on the truncation: escapes are errors,
        # never silently dropped content
        acc = zero
        for (i, k), epspoly in series.coefficients.items():
            j, l = p - i, q - k
            if (j, l) in coeffs:
                acc = acc.add(epspoly.action_matrix().matmul(coeffs[(j, l)], policy="strict"))
        return acc

    for total in range(1, order + 1):
        for p in range(total + 1):
            q = total - p
            rhs = context.apply("del", driving_sum(p, q)).scale(-1)
            if variant == "h_vanishing":
                for (i, k), epspoly in series.coefficients.items():
                    j, l = p - i, q - k
                    if (j, l) in coeffs:
                        rhs = rhs.add(epspoly.action_matrix().matmul(
                            context.apply("del", coeffs[(j, l)]), policy="strict"
                        ))
            norms = rhs.column_norms()
            scales = [max(1.0, norm, g) for norm, g in zip(norms, gamma_norms)]
            if variant == "standard":
                for harm, scale in zip(pk.harmonic(rhs).column_norms(), scales):
                    if not harm <= tol * scale:
                        raise ObstructionError(
                            f"extension obstruction at order ({p},{q})",
                            {"harmonic_norm": harm, "order": f"{p},{q}", "scale": scale},
                        )
            else:
                closed = context.apply("dbar", rhs).column_norms()
                for dbar_res, harm, scale in zip(closed, pk.harmonic(rhs).column_norms(), scales):
                    if not (dbar_res <= tol * scale and harm <= tol * scale):
                        raise ObstructionError(
                            f"extension obstruction at order ({p},{q})",
                            {
                                "harmonic_norm": harm,
                                "dbar_closed_residual": dbar_res,
                                "order": f"{p},{q}",
                            },
                        )
            # a column whose right-hand side is zero to rounding solves to zero
            live = [not norm <= 1e-15 * scale for norm, scale in zip(norms, scales)]
            sig = zero
            if any(live):
                sig = context.apply("dbar_adj", pk.green(_keep(rhs, live)))
                if variant == "standard":
                    # the double-operator correction, where del sig is not zero
                    del_first = context.apply("del", sig)
                    fix = [norm > 1e-15 * scale for norm, scale in zip(del_first.column_norms(), scales)]
                    if any(fix):
                        correction = context.apply(
                            "deldbar_adj", context.package("bc").green(_keep(del_first, fix))
                        ).scale(-1)
                        sig = sig.add(context.apply("dbar", correction))
            eq_res = (context.apply("dbar", sig) - rhs).column_norms()
            low_res = (
                context.apply("del", sig).column_norms() if variant == "standard"
                else [float("nan")] * len(seeds)
            )
            for eq, scale in zip(eq_res, scales):
                if not eq <= tol * scale:
                    raise ObstructionError(
                        f"order ({p},{q}) solve failed",
                        {"equation_residual": eq, "order": f"{p},{q}"},
                    )
            if len(sig.modes):
                coeffs[(p, q)] = sig
            for res, eq, low, scale in zip(residuals, eq_res, low_res, scales):
                res[f"{p},{q}"] = {"equation": eq, "lowering": low, "scale": scale}

    return ExtensionBatch(level, coeffs, residuals, class_checks)


# ---------------------------------------------------------------------------
# Hodge-number scan
# ---------------------------------------------------------------------------


def _order_rows(
    structure: GCStructure, coefficients: Dict[OrderKey, FourierMatrix]
) -> Tuple[List[OrderKey], np.ndarray, np.ndarray]:
    """The coefficient rows of a batch of E extensions on the union of
    their supports: the orders, the union's box mode indices (P,) in
    ascending order, and rows (E, orders, P, N) that are zero where an
    extension has no coefficient at an order or a mode."""
    orders = sorted(coefficients)
    positions = [_mode_positions(structure.box, structure.dim, coefficients[key].modes) for key in orders]
    index = np.flatnonzero(np.bincount(np.concatenate(positions)))
    count = coefficients[orders[0]].shape[1]
    rows = np.zeros((count, len(orders), len(index), 2 ** structure.dim), dtype=complex)
    for o, (key, pos) in enumerate(zip(orders, positions)):
        rows[:, o, np.searchsorted(index, pos)] = coefficients[key].coeffs.transpose(2, 0, 1)
    return orders, index, rows


def hodge_number_scan(
    context: HodgeContext,
    series: Beltrami,
    t_samples: Sequence[complex],
    levels: Sequence[int] | None = None,
    order: int = 2,
    tol: float = 1e-9,
) -> Dict:
    """Kernel dimensions of the deformed raising Laplacian across samples,
    plus the rank of the harmonic transport map at each level.

    The harmonic basis of each level is extended to ``order`` as one batch
    (``extend_closed_forms``), one extension solve per level that has
    harmonics, and its coefficient stacks are laid out once as rows on the
    union of their supports, per order.  For each sample t the deformed
    structure is built at eps(t) (constant deformations only), and its
    harmonic basis is read once, over every level, and split by the level
    block each row lies in.  Each raising-kernel dimension, undeformed or
    deformed, is the length of the level's harmonic basis, which the
    extensions or the Gram matrix read anyway.  Then per level the rows
    summed with weights t^p conj(t)^q are the E extended harmonics at t, an
    (E, P, N) block, and forward o undress, which for a constant eps is one
    matrix at every mode, maps them into the deformed level basis; one
    batched apply per sample projects the blocks of every level onto the
    deformed harmonics; and per level the E x H Gram matrix against the
    deformed harmonic basis, whose rank is the injectivity rank, is a plain
    conjugate inner product of coordinate rows, since the level basis is
    Born-Infeld orthonormal.  Constancy verdicts compare every row to
    t = 0.  Rows come in the given sample order.  ``extensions`` counts the
    extended harmonics over all the levels, and ``phases`` holds the wall
    seconds of the extensions, of the deformed structures and packages, and
    of the images; neither is part of any report.
    """
    structure = context.structure
    if not series.is_constant():
        raise DeformationError("the scan needs deformed-side packages: constant deformations only")
    if levels is None:
        levels = list(structure.levels())
    phases = dict.fromkeys(("extension", "deformed", "image"), 0.0)
    started = time.monotonic()
    pk = context.package("dbar")
    base_dims = {}
    stacks = {}
    extensions = 0
    for k in levels:
        harmonics = pk.harmonic_basis(k)
        base_dims[k] = len(harmonics)
        if not harmonics:
            continue
        try:
            batch = extend_closed_forms(context, series, harmonics, order, "standard", tol)
        except ObstructionError as err:
            raise ObstructionError(f"extending the level {k} harmonics: {err}", err.data) from err
        extensions += len(harmonics)
        stacks[k] = _order_rows(structure, batch.coefficients)
    phases["extension"] = time.monotonic() - started

    def sample_row(t: complex) -> Dict:
        t = complex(t)
        eps_t = series.eps_at(t)
        if eps_t.is_zero():
            return {"t": t, "dims": dict(base_dims),
                    "injectivity_rank": {k: base_dims[k] for k in levels}}
        started = time.monotonic()
        ds = DeformedStructure(structure, eps_t)
        pk_t = ds.context.package("dbar")
        phases["deformed"] += time.monotonic() - started
        started = time.monotonic()
        # forward o undress into the deformed level basis, one matrix at every
        # mode: it sends the frame word l^I . rho0 to the deformed frame word
        # on exp(eps) . rho0 = ratio rho0', so in frame coordinates it is
        # ratio times the deformed level matrix times the undeformed inverse
        step = ds.ratio * (
            pk_t.level_basis.basis_inv @ ds.structure._level_matrix @ structure._level_inverse
        )
        # the deformed harmonics of every level, each row in its level's
        # block, and the extended harmonics at t of each level that has both
        h_index, h_rows = pk_t.harmonic_basis_rows()
        deformed, blocks = {}, {}
        for k in levels:
            mine = np.any(h_rows[:, pk_t.level_basis.level(k)], axis=1)
            deformed[k] = h_index[mine], h_rows[mine]
            if k in stacks and mine.any():
                orders, index, coeffs = stacks[k]
                weights = np.array([t ** p * t.conjugate() ** q for p, q in orders])
                blocks[k] = np.tensordot(weights, coeffs, axes=(0, 1)) @ step.T
        dims = {k: len(deformed[k][0]) for k in levels}
        ranks = dict.fromkeys(levels, 0)
        if blocks:
            # one apply projects the images of every level
            flat = pk_t.apply(
                np.concatenate([np.tile(stacks[k][1], len(block)) for k, block in blocks.items()]),
                np.concatenate([block.reshape(-1, block.shape[-1]) for block in blocks.values()]),
                pk_t.harmonic_weights,
            )
            ends = np.cumsum([block.shape[0] * block.shape[1] for block in blocks.values()])
            for (k, block), image in zip(blocks.items(), np.split(flat, ends[:-1])):
                index, (h_index, h_rows) = stacks[k][1], deformed[k]
                image = image.reshape(block.shape)
                # each deformed harmonic pairs only with the image at its own mode
                slot = np.minimum(np.searchsorted(index, h_index), len(index) - 1)
                shared = index[slot] == h_index
                gram = np.einsum("ehn,hn->eh", image[:, slot], h_rows.conj()) * shared
                ranks[k] = int(_rank(gram))
        phases["image"] += time.monotonic() - started
        return {"t": t, "dims": dims, "injectivity_rank": ranks}

    rows = [sample_row(t) for t in t_samples]

    constant = {
        k: all(row["dims"][k] == base_dims[k] for row in rows) for k in levels
    }
    return {
        "levels": list(levels),
        "base_dims": base_dims,
        "rows": rows,
        "constant": constant,
        "extensions": extensions,
        "phases": phases,
    }
