"""Twisted differential calculus on the spinor grading.

The twisted differential d sigma - H ^ sigma splits, on a structure with
involutive eigenbundle, into the level-lowering and level-raising pieces
(projections onto adjacent levels).  All three act mode by mode as
C + 2 pi i sum_a k_a A_a, one product over a spinor's modes, with the C and
A_a that the structure builds once (``GCStructure.differentials``).  The module
also carries the Lie algebroid differential on frame polynomials (the
raising part in frame coordinates) and the Schouten bracket that extends
the twisted Courant bracket to them, on the FourierScalar ring.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .fourier import FourierMatrix, FourierScalar
from .spinor import (
    CliffordPoly,
    CourantVector,
    Spinor,
    _stack_linear,
    courant_bracket,
    pairing,
    sort_monomial,
)
from .structure import GCStructure

# a bracket's off-span mass, relative to its norm, that means it left the
# conjugate eigenbundle
SPAN_TOL = 1e-9


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


def _expand_in_dual_frame(
    v: CourantVector, structure: GCStructure, policy: str | None = None
) -> Tuple[List[FourierScalar], float]:
    """Coefficients of a section along the dual frame, plus the off-span mass."""
    coeffs = []
    off = 0.0
    for k in range(structure.dim):
        coeffs.append(pairing(structure.frame[k], v, policy=policy))
        off = max(off, pairing(structure.dual_frame[k], v, policy=policy).norm())
    return coeffs, off


def schouten_bracket(
    a: CliffordPoly,
    b: CliffordPoly,
    structure: GCStructure,
    policy: str | None = None,
) -> CliffordPoly:
    """Schouten extension of the twisted Courant bracket to frame polynomials.

    For decomposables the bracket is
        [s_1..s_p, t_1..t_q] =
            sum (-1)^{alpha+beta} [s_alpha, t_beta]_H ^ (remaining factors),
    and coefficient functions are folded into the first factor of each
    monomial, which keeps the sum exact for non-constant coefficients.
    """
    if a.frame != structure.dual_frame or b.frame != structure.dual_frame:
        raise ValueError("bracket arguments must live over the dual frame")
    p, q = a.degree, b.degree
    if p == 0 or q == 0:
        raise ValueError("bracket needs positive-degree arguments")
    # summed per key on the ring and stacked once: a stacked polynomial per
    # term would build a FourierMatrix in the innermost loop
    out: Dict[Tuple[int, ...], FourierScalar] = {}
    H = structure.twist
    terms_b = list(b.terms())
    for key_a, f in a.terms():
        secs_a = [structure.dual_frame[i] for i in key_a]
        secs_a[0] = secs_a[0].scale_scalar(f, policy=policy)
        for key_b, g in terms_b:
            secs_b = [structure.dual_frame[i] for i in key_b]
            secs_b[0] = secs_b[0].scale_scalar(g, policy=policy)
            for alpha in range(p):
                for beta in range(q):
                    br = courant_bracket(secs_a[alpha], secs_b[beta], H=H, policy=policy)
                    coeffs, off = _expand_in_dual_frame(br, structure, policy=policy)
                    scale = max(1.0, br.norm())
                    if off > SPAN_TOL * scale:
                        raise ValueError(
                            "bracket left the conjugate eigenbundle "
                            f"(off-span mass {off:.3e}); structure not involutive?"
                        )
                    sign = -1 if (alpha + beta) % 2 else 1
                    rest_a = tuple(x for t, x in enumerate(key_a) if t != alpha)
                    rest_b = tuple(x for t, x in enumerate(key_b) if t != beta)
                    carry = None
                    if alpha != 0:
                        carry = f
                    if beta != 0:
                        carry = g if carry is None else carry.mul(g, policy=policy)
                    for k, ck in enumerate(coeffs):
                        sorted_sign = sort_monomial((k,) + rest_a + rest_b)
                        if ck.is_zero() or sorted_sign is None:
                            continue
                        key, key_sign = sorted_sign
                        val = ck if carry is None else ck.mul(carry, policy=policy)
                        term = val.scale(sign).scale(key_sign)
                        out[key] = out[key].add(term) if key in out else term
    return CliffordPoly(structure.dual_frame, p + q - 1, out)


def maurer_cartan_residual(eps: CliffordPoly, structure: GCStructure) -> CliffordPoly:
    """d_L eps - (1/2)[eps, eps], the integrability defect of a deformation."""
    dl = lie_derivation_dL(eps, structure)
    br = schouten_bracket(eps, eps, structure)
    return dl.add(br.scale(-0.5))
