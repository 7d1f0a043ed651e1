"""Twisted differential calculus on the spinor grading.

The twisted differential d sigma - H ^ sigma splits, on a structure with
involutive eigenbundle, into the level-lowering and level-raising pieces
(projections onto adjacent levels).  All three act mode by mode as
C + 2 pi i sum_a k_a A_a, one product over a spinor's modes, with the C and
A_a that the structure builds once (``GCStructure.differentials``).  The module
also carries the Lie algebroid differential on frame polynomials (the
raising part in frame coordinates) and the Schouten bracket that extends
the twisted Courant bracket to them, in closed form on their coefficient
rows: one stack product of the pair products, summed into the output keys
by constant tensors.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Tuple

import numpy as np

from .fourier import FourierMatrix
from .spinor import CliffordPoly, Spinor, _stack_linear, sort_monomial
from .structure import GCStructure


def twisted_d(sigma: Spinor, structure: GCStructure) -> Spinor:
    """d_H sigma = d sigma - H ^ sigma."""
    return sigma.map_modes(_stack_linear(*structure.differentials["d"], sigma.modes))


def del_op(sigma: Spinor, structure: GCStructure) -> Spinor:
    """Level-lowering component of the twisted differential."""
    return sigma.map_modes(_stack_linear(*structure.differentials["del"], sigma.modes))


def delbar_op(sigma: Spinor, structure: GCStructure) -> Spinor:
    """Level-raising component of the twisted differential."""
    return sigma.map_modes(_stack_linear(*structure.differentials["dbar"], sigma.modes))


def dolbeault_split(
    sigma: Spinor, structure: GCStructure, tol: float = 1e-9
) -> Tuple[Spinor, Spinor]:
    """Split d_H sigma of a single-level sigma into its two components.

    Raises ValueError with the level weights when sigma mixes levels.
    """
    k = structure.level_of(sigma, tol=tol)
    d_sigma = twisted_d(sigma, structure)
    lower = (
        structure.project_level(d_sigma, k - 1)
        if k - 1 >= -structure.n
        else Spinor.zero(sigma.geometry, sigma.box)
    )
    upper = (
        structure.project_level(d_sigma, k + 1)
        if k + 1 <= structure.n
        else Spinor.zero(sigma.geometry, sigma.box)
    )
    return lower, upper


def lie_derivation_dL(a: CliffordPoly, structure: GCStructure) -> CliffordPoly:
    """Lie algebroid differential on polynomials over the dual frame.

    (d_L a)(x_0, .., x_k) = sum_i (-1)^i p(x_i) a(.., x_i omitted, ..)
                          + sum_{i<j} (-1)^{i+j} a([x_i, x_j]_H, ..).
    Under P -> P . rho0 it is dbar in frame coordinates: at mode k the
    degree (p + 1, p) block of C + 2 pi i sum_a k_a A_a, the pair
    ``differentials["dL"]``, applied to the coefficient row in one product
    over the modes; as for any map between keys, no dropped mass is carried.
    """
    if a.frame != structure.dual_frame:
        raise ValueError("polynomial must live over the structure's dual frame")
    rows, cols = structure.degree_slice(a.degree + 1), structure.degree_slice(a.degree)
    const, slopes = structure.differentials["dL"]
    s = a.stack
    ops = _stack_linear(const[rows, cols], slopes[:, rows, cols], s.modes)
    image = np.einsum("mij,mj->mi", ops, s.coeffs[:, 0])
    return CliffordPoly.from_stack(
        structure.dual_frame, a.degree + 1,
        FourierMatrix(s.geometry, s.box, s.modes, image[:, None, :]),
    )


@functools.lru_cache(maxsize=None)
def _slot_tables(dim: int, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """How each key of ``degree`` over ``dim`` slots loses one slot.

    ``every[i, x, r]`` is (-1)^alpha when slot alpha of key i is x and the
    other slots form key r of degree - 1; ``first`` keeps alpha = 0 alone.
    """
    keys = itertools.combinations(range(dim), degree)
    rest = {key: r for r, key in enumerate(itertools.combinations(range(dim), degree - 1))}
    every = np.zeros((math.comb(dim, degree), dim, len(rest)))
    first = np.zeros_like(every)
    for i, key in enumerate(keys):
        for alpha, x in enumerate(key):
            every[i, x, rest[key[:alpha] + key[alpha + 1:]]] = -1 if alpha % 2 else 1
        first[i, key[0], rest[key[1:]]] = 1
    return every, first


@functools.lru_cache(maxsize=None)
def _bracket_tables(dim: int, p: int, q: int) -> Tuple[np.ndarray, ...]:
    """The constant tensors of the bracket of a p- and a q-polynomial.

    ``wedge[k, a, b, o]`` is the sign of l^k ^ (rest key a) ^ (rest key b)
    as output key o; ``anchor_b[i, j, x, o]`` weighs f_i rho(l^x)(g_j) and
    ``anchor_a[i, j, y, o]`` weighs rho(l^y)(f_i) g_j in output key o.
    """
    every_a, first_a = _slot_tables(dim, p)
    every_b, first_b = _slot_tables(dim, q)
    rest_a = list(itertools.combinations(range(dim), p - 1))
    rest_b = list(itertools.combinations(range(dim), q - 1))
    out = {key: o for o, key in enumerate(itertools.combinations(range(dim), p + q - 1))}
    wedge = np.zeros((dim, len(rest_a), len(rest_b), len(out)))
    for k in range(dim):
        for a, ka in enumerate(rest_a):
            for b, kb in enumerate(rest_b):
                sorted_sign = sort_monomial((k,) + ka + kb)
                if sorted_sign is not None:
                    wedge[k, a, b, out[sorted_sign[0]]] = sorted_sign[1]
    # every_a[i, x, a] first_b[j, y, b] wedge[y, a, b, o] over y, a, b
    step = np.tensordot(first_b, wedge, axes=([1, 2], [0, 2]))  # (j, a, o)
    anchor_b = np.tensordot(every_a, step, axes=([2], [1])).transpose(0, 2, 1, 3)
    # first_a[i, x, a] every_b[j, y, b] wedge[x, a, b, o] over x, a, b
    step = np.tensordot(first_a, wedge, axes=([1, 2], [0, 1]))  # (i, b, o)
    anchor_a = -np.tensordot(step, every_b, axes=([1], [2])).transpose(0, 2, 3, 1)
    return every_a, every_b, wedge, anchor_b, anchor_a


def schouten_bracket(
    a: CliffordPoly,
    b: CliffordPoly,
    structure: GCStructure,
    policy: str | None = None,
) -> CliffordPoly:
    """Schouten extension of the twisted Courant bracket to frame polynomials,
    in closed form on the coefficient rows.

    The dual frame is constant and isotropic, so the pairing term of the
    Courant bracket drops out and, with rho the anchor (the tangent part),
        [f l^i, g l^j] = f g [l^i, l^j]_H + f rho(l^i)(g) l^j - g rho(l^j)(f) l^i.
    For decomposables the derivation rule gives
        [s_1..s_p, t_1..t_q] =
            sum (-1)^{alpha+beta} [s_alpha, t_beta]_H ^ (remaining factors),
    with the coefficient functions folded into the first factor of each
    monomial.  At mode m, rho(l^x) is 2 pi i (Y_x . m) with Y_x the tangent
    part of l^x.  One ``FourierMatrix`` product, under ``policy``, forms
    every pair product of the column (f, rho f) of a with the row
    (g, rho g) of b, and constant tensors (``_bracket_tables`` and the
    structure's ``dual_structure_constants``) sum them into the output keys.
    So under ``strict`` the bracket raises when a product of a coefficient
    of a with one of b leaves the box, even when the terms it feeds vanish;
    an output key's dropped mass is the sum of those of the pair products
    that feed it.
    """
    if a.frame != structure.dual_frame or b.frame != structure.dual_frame:
        raise ValueError("bracket arguments must live over the dual frame")
    p, q = a.degree, b.degree
    if p == 0 or q == 0:
        raise ValueError("bracket needs positive-degree arguments")
    dim = structure.dim
    anchors = structure._dual_vals[:dim]  # column x is Y_x, the tangent part of l^x
    moving = np.flatnonzero(anchors.any(axis=0))  # rho(l^x) is zero for the others
    every_a, every_b, wedge, anchor_b, anchor_a = _bracket_tables(dim, p, q)
    na, nb, no = len(every_a), len(every_b), wedge.shape[3]
    # weights[i, u, j, v, o]: the weight in output key o of the product of
    # f_i (u = 0) or rho(l^moving[u - 1])(f_i) with g_j or rho(..)(g_j) (v)
    weights = np.zeros((na, 1 + len(moving), nb, 1 + len(moving), no), dtype=complex)
    consts = structure.dual_structure_constants
    if consts.any():
        # every_a[i, x, a] every_b[j, y, b] consts[x, y, k] wedge[k, a, b, o]
        # summed over x, y, k and the rest keys a, b
        step = np.tensordot(every_a, consts, axes=([1], [0]))  # (i, a, y, k)
        step = np.tensordot(step, wedge, axes=([1, 3], [1, 0]))  # (i, y, b, o)
        weights[:, 0, :, 0] = np.tensordot(step, every_b, axes=([1, 2], [1, 2])).transpose(0, 2, 1)
    weights[:, 0, :, 1:] = anchor_b[:, :, moving]
    weights[:, 1:, :, 0] = anchor_a[:, :, moving].transpose(0, 2, 1, 3)
    weights = weights.reshape(na * nb * (1 + len(moving)) ** 2, no)
    used = np.flatnonzero(weights.any(axis=1))

    def with_anchors(row: FourierMatrix) -> Tuple[np.ndarray, np.ndarray]:
        """Per mode the coefficients f_i, rho(l^x)(f_i) for x in ``moving``,
        flat in that order, and their dropped masses."""
        c = row.coeffs[:, 0, :, None]
        rho = 2j * math.pi * (row.modes @ anchors[:, moving])
        flat = np.concatenate([c, c * rho[:, None, :]], axis=2).reshape(len(c), -1)
        return flat, np.repeat(row.dropped_mass[0], 1 + len(moving))

    sa, sb = a.stack, b.stack
    left, left_mass = with_anchors(sa)
    right, right_mass = with_anchors(sb)
    pairs = FourierMatrix._from_sorted(
        sa.geometry, sa.box, sa.modes, left[:, :, None], left_mass[:, None]
    ).matmul(
        FourierMatrix._from_sorted(
            sb.geometry, sb.box, sb.modes, right[:, None, :], right_mass[None, :]
        ),
        policy=policy,
    )
    live = weights[used]
    coeffs = pairs.coeffs.reshape(len(pairs.modes), len(weights))[:, used] @ live
    dropped = pairs.dropped_mass.reshape(-1)[used] @ (live != 0)
    return CliffordPoly.from_stack(
        structure.dual_frame, p + q - 1,
        FourierMatrix._from_sorted(
            sa.geometry, sa.box, pairs.modes, coeffs[:, None, :], dropped[None, :]
        ),
    )


def maurer_cartan_residual(eps: CliffordPoly, structure: GCStructure) -> CliffordPoly:
    """d_L eps - (1/2)[eps, eps], the integrability defect of a deformation."""
    dl = lie_derivation_dL(eps, structure)
    br = schouten_bracket(eps, eps, structure)
    return dl.add(br.scale(-0.5))
