"""Twisted differential, Dolbeault split, algebroid differential, bracket."""

import itertools
from typing import Tuple

import numpy as np
import pytest

from gentorus.calculus import (
    del_op,
    delbar_op,
    lie_derivation_dL,
    schouten_bracket,
    twisted_d,
)
from gentorus.fourier import FourierScalar, TorusGeometry, TruncationBox
from gentorus.spinor import (
    CliffordPoly,
    Spinor,
    random_fourier_scalar,
    random_spinor,
)
from gentorus.structure import GCStructure

from reference import constant_form, level_spinors, scalar_spinor, scale_spinor, sections
from reference import poly_coefficient, spinor_coefficient

BOX = TruncationBox(4)


@pytest.fixture(scope="module")
def t2():
    return GCStructure.complex_structure(1, BOX)


@pytest.fixture(scope="module")
def t4():
    return GCStructure.complex_structure(2, BOX)


@pytest.fixture(scope="module")
def t4_twisted():
    H = constant_form(TorusGeometry(2), BOX, (0, 1, 2), 1.0)
    return GCStructure.complex_structure(2, BOX, twist=H)


def random_poly(rng, structure, degree, max_mode=1):
    coeffs = {}
    for key in itertools.combinations(range(structure.dim), degree):
        coeffs[key] = random_fourier_scalar(
            rng, structure.geometry, structure.box, max_mode, 1
        )
    return CliffordPoly(structure.dual_frame, degree, coeffs)


def test_twisted_d_on_constants(t2):
    c = scalar_spinor(FourierScalar.constant(t2.geometry, t2.box, 2.0))
    assert twisted_d(c, t2).is_zero()


def test_twisted_d_is_de_rham_without_twist(t2):
    f = FourierScalar.mode(t2.geometry, t2.box, (1, 0))
    sigma = scalar_spinor(f)
    d_sigma = twisted_d(sigma, t2)
    for j in range(2):
        expected = f.derive(j)
        assert (spinor_coefficient(d_sigma, (j,)) - expected).norm() < 1e-14


@pytest.mark.parametrize("fixture", ["t2", "t4", "t4_twisted"])
def test_twisted_d_squares_to_zero(fixture, request):
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(101)
    for _ in range(5):
        sigma = random_spinor(rng, s.geometry, s.box, max_mode=1)
        dd = twisted_d(twisted_d(sigma, s), s)
        assert dd.norm() < 1e-12 * max(1.0, sigma.norm())


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


@pytest.mark.parametrize("fixture", ["t2", "t4", "t4_twisted"])
def test_split_reconstructs_twisted_d(fixture, request):
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(103)
    for k in s.levels():
        base = level_spinors(s, k)[0]
        sigma = scale_spinor(base, random_fourier_scalar(rng, s.geometry, s.box, 1, 2))
        lower, upper = dolbeault_split(sigma, s)
        resid = twisted_d(sigma, s) - lower - upper
        assert resid.norm() < 1e-9 * max(1.0, sigma.norm())


def test_split_rejects_mixed_levels(t2):
    mixed = t2.rho0.add(level_spinors(t2, 0)[0])
    with pytest.raises(ValueError, match="weights"):
        dolbeault_split(mixed, t2)


def test_del_vanishes_on_bottom_level(t2):
    """No level below the canonical one, so the lowering component is zero."""
    rng = np.random.default_rng(105)
    sigma = scale_spinor(t2.rho0, random_fourier_scalar(rng, t2.geometry, t2.box, 1, 2))
    lower, _ = dolbeault_split(sigma, t2)
    assert lower.is_zero(1e-14)


def test_classical_dolbeault_oracle_on_01_forms(t2):
    """f dzbar sits at the top level, so the raising component vanishes
    identically and the lowering one reduces to the classical operator:
    it is zero exactly when f is anti-holomorphic (df/dz = 0)."""
    geometry, box = t2.geometry, t2.box
    dzbar = Spinor(
        geometry, box,
        {(0,): FourierScalar.constant(geometry, box, 1.0),
         (1,): FourierScalar.constant(geometry, box, -1.0j)},
    )
    assert t2.level_of(dzbar) == 1

    def dz_derivative(f):
        # d/dz = (d/dx1 - i d/dx2) / 2 for z = x1 + i x2
        return f.derive(0).add(f.derive(1).scale(-1j)).scale(0.5)

    dz = Spinor(
        geometry, box,
        {(0,): FourierScalar.constant(geometry, box, 1.0),
         (1,): FourierScalar.constant(geometry, box, 1.0j)},
    )
    rng = np.random.default_rng(131)
    from gentorus.spinor import random_fourier_scalar, wedge
    for _ in range(5):
        f = random_fourier_scalar(rng, geometry, box, max_mode=2, terms=3)
        sigma = scale_spinor(dzbar, f)
        assert delbar_op(sigma, t2).norm() < 1e-12  # no level above n
        classical = wedge(scale_spinor(dz, dz_derivative(f)), dzbar)
        assert (del_op(sigma, t2) - classical).norm() < 1e-9 * max(1.0, f.norm())
    # vanishing exactly for anti-holomorphic f; on the torus those are constants
    const = FourierScalar.constant(geometry, box, 2.0 + 1.0j)
    assert dz_derivative(const).is_zero()
    assert del_op(scale_spinor(dzbar, const), t2).norm() < 1e-14


def test_dL_constant_coefficients_vanish(t4):
    # untwisted complex torus: all structure constants vanish
    assert np.abs(t4.structure_constants).max() < 1e-14
    eps = CliffordPoly.constant(t4.dual_frame, (0, 2), 1.0)
    assert lie_derivation_dL(eps, t4).is_zero(1e-14)


def test_dL_degree_zero_matches_anchor_expansion(t4_twisted):
    s = t4_twisted
    rng = np.random.default_rng(107)
    f = random_fourier_scalar(rng, s.geometry, s.box, 1, 2)
    a = CliffordPoly(s.dual_frame, 0, {(): f})
    dla = lie_derivation_dL(a, s)
    from test_mode_stacks import ref_anchor_derivative
    for p, l in enumerate(sections(s.frame)):
        expected = ref_anchor_derivative(l, f)
        assert (poly_coefficient(dla, (p,)) - expected).norm() < 1e-12


@pytest.mark.parametrize("fixture", ["t4", "t4_twisted"])
@pytest.mark.parametrize("degree", [1, 2])
def test_dL_leibniz_relation(fixture, degree, request):
    """delbar(a . rho) = dL(a) . rho + (-1)^deg a . delbar(rho)."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(109 + degree)
    for _ in range(3):
        a = random_poly(rng, s, degree)
        rho = random_spinor(rng, s.geometry, s.box, max_mode=1)
        lhs = delbar_op(a.act(rho), s)
        rhs = lie_derivation_dL(a, s).act(rho).add(
            a.act(delbar_op(rho, s)).scale((-1) ** degree)
        )
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_schouten_constant_untwisted_vanishes(t4):
    a = CliffordPoly.constant(t4.dual_frame, (0, 1), 1.0)
    b = CliffordPoly.constant(t4.dual_frame, (2, 3), 2.0)
    assert schouten_bracket(a, b, t4).is_zero(1e-14)


@pytest.mark.parametrize("fixture", ["t4", "t4_twisted"])
def test_schouten_derived_bracket_identity(fixture, request):
    """[a,b].s = a.d(b.s) + b.d(a.s) - a.b.ds - d(a.b.s) for 2-polys."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(113)
    for _ in range(3):
        a = random_poly(rng, s, 2)
        b = random_poly(rng, s, 2)
        sigma = random_spinor(rng, s.geometry, s.box, max_mode=1)
        lhs = schouten_bracket(a, b, s).act(sigma)
        rhs = (
            a.act(twisted_d(b.act(sigma), s))
            .add(b.act(twisted_d(a.act(sigma), s)))
            .add(a.act(b.act(twisted_d(sigma, s))).scale(-1))
            .add(twisted_d(a.act(b.act(sigma)), s).scale(-1))
        )
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_schouten_self_bracket_generally_nonzero(t4):
    rng = np.random.default_rng(115)
    a = random_poly(rng, t4, 2)
    br = schouten_bracket(a, a, t4)
    # brute-force oracle: the derived-bracket action on the canonical spinor
    lhs = br.act(t4.rho0)
    rhs = (
        a.act(twisted_d(a.act(t4.rho0), t4)).scale(2)
        .add(a.act(a.act(twisted_d(t4.rho0, t4))).scale(-1))
        .add(twisted_d(a.act(a.act(t4.rho0)), t4).scale(-1))
    )
    assert br.norm() > 1e-3
    assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_schouten_even_degree_symmetric(t4_twisted):
    rng = np.random.default_rng(117)
    a = random_poly(rng, t4_twisted, 2)
    b = random_poly(rng, t4_twisted, 2)
    lhs = schouten_bracket(a, b, t4_twisted)
    rhs = schouten_bracket(b, a, t4_twisted)
    assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_maurer_cartan_residual_zero_for_constant_eps(t4):
    eps = CliffordPoly.constant(t4.dual_frame, (0, 2), 0.5)
    residual = lie_derivation_dL(eps, t4).add(schouten_bracket(eps, eps, t4).scale(-0.5))
    assert residual.is_zero(1e-14)


def test_maurer_cartan_residual_nonzero_for_generic_fourier_eps(t4):
    rng = np.random.default_rng(119)
    eps = random_poly(rng, t4, 2)
    res = lie_derivation_dL(eps, t4).add(schouten_bracket(eps, eps, t4).scale(-0.5))
    assert res.norm() > 1e-3
