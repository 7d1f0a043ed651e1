"""Clifford-module tests: pairing, actions, brackets, reversal."""

import numpy as np
import pytest

from gentorus.calculus import twisted_d
from gentorus.fourier import FourierScalar, TorusGeometry, TruncationBox, TruncationError
from gentorus.spinor import CliffordPoly, Spinor, monomial_list
from gentorus.spinor import random_fourier_scalar, random_spinor, wedge
from gentorus.structure import GCStructure

from reference import CourantVector, clifford_act, constant_form, courant_bracket, pairing
from reference import random_courant_vector, section_stack
from reference import scalar_spinor, scale_section, scale_spinor
from reference import mode_coefficient, spinor_coefficient

T2 = TorusGeometry(1)
T4 = TorusGeometry(2)
BOX = TruncationBox(3)


def basis_vector(geometry: TorusGeometry, box: TruncationBox, axis: int) -> CourantVector:
    tan = [0.0] * geometry.dim
    tan[axis] = 1.0
    return CourantVector.constant(geometry, box, tan, [0.0] * geometry.dim)


def basis_form(geometry: TorusGeometry, box: TruncationBox, axis: int) -> CourantVector:
    cot = [0.0] * geometry.dim
    cot[axis] = 1.0
    return CourantVector.constant(geometry, box, [0.0] * geometry.dim, cot)


def test_pairing_on_coordinate_frame():
    d1 = basis_vector(T2, BOX, 0)   # d/dx1
    dx1 = basis_form(T2, BOX, 0)
    d2 = basis_vector(T2, BOX, 1)
    assert mode_coefficient(pairing(d1, dx1), (0, 0)) == 1.0
    assert pairing(d1, d2).is_zero()
    both = d1.add(dx1)
    assert mode_coefficient(pairing(both, both), (0, 0)) == 2.0


def test_pairing_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_courant_vector(rng, T2, BOX, max_mode=1)
        b = random_courant_vector(rng, T2, BOX, max_mode=1)
        assert (pairing(a, b) - pairing(b, a)).norm() < 1e-12


def test_clifford_act_basic():
    one = scalar_spinor(FourierScalar.constant(T2, BOX, 1.0))
    dx1 = basis_form(T2, BOX, 0)
    acted = clifford_act(dx1, one)
    assert mode_coefficient(spinor_coefficient(acted, (0,)), (0, 0)) == 1.0

    d1 = basis_vector(T2, BOX, 0)
    dx12 = constant_form(T2, BOX, (0, 1))
    contracted = clifford_act(d1, dx12)
    assert mode_coefficient(spinor_coefficient(contracted, (1,)), (0, 0)) == 1.0
    assert spinor_coefficient(contracted, (0,)).is_zero()


@pytest.mark.parametrize("geometry", [T2, T4])
def test_clifford_relation_constant(geometry):
    """a.b.sigma + b.a.sigma = <a,b> sigma over 100 random constant triples."""
    rng = np.random.default_rng(5)
    box = TruncationBox(2)
    for _ in range(100):
        a = random_courant_vector(rng, geometry, box, max_mode=0)
        b = random_courant_vector(rng, geometry, box, max_mode=0)
        sigma = random_spinor(rng, geometry, box, max_mode=0)
        lhs = clifford_act(a, clifford_act(b, sigma)) + clifford_act(b, clifford_act(a, sigma))
        rhs = scale_spinor(sigma, pairing(a, b))
        scale = max(1.0, a.norm() * b.norm() * sigma.norm())
        assert (lhs - rhs).norm() < 1e-12 * scale


@pytest.mark.parametrize("geometry", [T2, T4])
def test_clifford_relation_fourier(geometry):
    rng = np.random.default_rng(7)
    box = TruncationBox(3)
    for _ in range(100):
        a = random_courant_vector(rng, geometry, box, max_mode=1)
        b = random_courant_vector(rng, geometry, box, max_mode=1)
        sigma = random_spinor(rng, geometry, box, max_mode=1)
        lhs = clifford_act(a, clifford_act(b, sigma)) + clifford_act(b, clifford_act(a, sigma))
        rhs = scale_spinor(sigma, pairing(a, b))
        scale = max(1.0, a.norm() * b.norm() * sigma.norm())
        assert (lhs - rhs).norm() < 1e-9 * scale


def test_zero_section_acts_as_zero():
    z = CourantVector.zero(T2, BOX)
    rng = np.random.default_rng(9)
    sigma = random_spinor(rng, T2, BOX, max_mode=1)
    assert clifford_act(z, sigma).is_zero()


def test_wedge_signs():
    dx1 = constant_form(T2, BOX, (0,))
    dx2 = constant_form(T2, BOX, (1,))
    w12 = wedge(dx1, dx2)
    w21 = wedge(dx2, dx1)
    assert mode_coefficient(spinor_coefficient(w12, (0, 1)), (0, 0)) == 1.0
    assert mode_coefficient(spinor_coefficient(w21, (0, 1)), (0, 0)) == -1.0
    assert wedge(dx1, dx1).is_zero()


def test_exterior_derivative_modes():
    """d_H with no twist is the exterior derivative."""
    s = GCStructure.complex_structure(1, BOX)
    f = FourierScalar.mode(T2, BOX, (1, 0))
    sigma = scalar_spinor(f)
    d_sigma = twisted_d(sigma, s)
    import math
    d0 = spinor_coefficient(d_sigma, (0,))
    assert mode_coefficient(d0, (1, 0)) == pytest.approx(2j * math.pi)
    assert spinor_coefficient(d_sigma, (1,)).is_zero()
    dd = twisted_d(d_sigma, s)
    assert dd.norm() < 1e-12


def test_courant_bracket_coordinate_fields():
    # constant coordinate sections commute on the flat torus
    d1 = basis_vector(T4, BOX, 0)
    dx2 = basis_form(T4, BOX, 1)
    br = courant_bracket(d1, dx2)
    assert br.norm() < 1e-15


def test_courant_bracket_twist_term():
    # [X, Y]_H picks up i_Y i_X H for constant vector fields
    H = constant_form(T4, BOX, (0, 1, 2))
    X = basis_vector(T4, BOX, 0)
    Y = basis_vector(T4, BOX, 1)
    br = courant_bracket(X, Y, H=H)
    # i_Y i_X (dx1^dx2^dx3) = dx3
    assert mode_coefficient(br.cotangent[2], (0, 0, 0, 0)) == 1.0
    assert br.tangent[0].is_zero()


def test_courant_bracket_function_coefficients():
    # [f X, g Y] reproduces the Lie-bracket Leibniz structure on tangent parts
    rng = np.random.default_rng(21)
    f = FourierScalar.mode(T2, BOX, (1, 0))
    X = scale_section(basis_vector(T2, BOX, 0), f)
    Y = basis_vector(T2, BOX, 1)
    br = courant_bracket(X, Y)
    # [f d1, d2] = -(d2 f) d1 = 0 here since f depends on x1 only
    assert br.norm() < 1e-14
    g = FourierScalar.mode(T2, BOX, (0, 1))
    Z = scale_section(basis_vector(T2, BOX, 0), g)
    br2 = courant_bracket(Z, Y)
    # [g d1, d2] = -(d2 g) d1
    expected = scale_section(basis_vector(T2, BOX, 0), g.derive(1)).scale(-1)
    diff = br2.add(expected.scale(-1))
    assert diff.norm() < 1e-12
    del rng


def form_reversal(a: Spinor) -> Spinor:
    """Reversal anti-automorphism: degree-p parts pick up (-1)^{p(p-1)/2}."""
    signs = [-1 if (len(m) * (len(m) - 1) // 2) % 2 else 1 for m in monomial_list(a.geometry.dim)]
    return a.map_modes(np.diag(signs))


def test_form_reversal_signs():
    sigma = constant_form(T4, BOX, (0, 1))
    assert mode_coefficient(spinor_coefficient(form_reversal(sigma), (0, 1)), (0,) * 4) == -1.0
    tau = constant_form(T4, BOX, (0, 1, 2, 3))
    assert mode_coefficient(spinor_coefficient(form_reversal(tau), (0, 1, 2, 3)), (0,) * 4) == 1.0


def test_poly_act_degree_zero_and_antisymmetry():
    frame = section_stack([basis_form(T2, BOX, 0), basis_vector(T2, BOX, 1)])
    c = CliffordPoly(frame, 0, {(): FourierScalar.constant(T2, BOX, 2.0)})
    rng = np.random.default_rng(25)
    sigma = random_spinor(rng, T2, BOX, max_mode=1)
    assert (c.act(sigma) - sigma.scale(2.0)).norm() < 1e-14

    # antisymmetry normalization at construction
    p_fwd = CliffordPoly(frame, 2, {(0, 1): FourierScalar.constant(T2, BOX, 1.0)})
    p_rev = CliffordPoly(frame, 2, {(1, 0): FourierScalar.constant(T2, BOX, -1.0)})
    assert (p_fwd.act(sigma) - p_rev.act(sigma)).norm() < 1e-14


def test_poly_act_matches_direct_expansion():
    """Degree-2 action against brute-force interior/wedge expansion on T2."""
    # frame vectors d/dz = (d1 - i d2)/2 and dzbar = dx1 - i dx2
    dz_vec = CourantVector.constant(T2, BOX, [0.5, -0.5j], [0, 0])
    dzbar = CourantVector.constant(T2, BOX, [0, 0], [1.0, -1.0j])
    frame = section_stack([dz_vec, dzbar])
    eps = CliffordPoly(frame, 2, {(0, 1): FourierScalar.constant(T2, BOX, 1.0)})
    # sigma = dz
    sigma = Spinor(
        T2,
        BOX,
        {(0,): FourierScalar.constant(T2, BOX, 1.0),
         (1,): FourierScalar.constant(T2, BOX, 1.0j)},
    )
    out = eps.act(sigma)
    oracle = clifford_act(dz_vec, clifford_act(dzbar, sigma))
    assert (out - oracle).norm() < 1e-14
    # explicit value: (dz_vec . dzbar . dz) = -dzbar
    expected = Spinor(
        T2,
        BOX,
        {(0,): FourierScalar.constant(T2, BOX, -1.0),
         (1,): FourierScalar.constant(T2, BOX, 1.0j)},
    )
    assert (out - expected).norm() < 1e-14


def test_wedge_part_is_function_linear():
    """For tangent-free sections the action commutes with scalar rescaling."""
    rng = np.random.default_rng(29)
    box = TruncationBox(4)
    for _ in range(5):
        cot = [random_fourier_scalar(rng, T2, box, 1) for _ in range(2)]
        zero = [FourierScalar.zero(T2, box) for _ in range(2)]
        a = CourantVector(T2, box, zero, cot)
        sigma = random_spinor(rng, T2, box, max_mode=1)
        f = random_fourier_scalar(rng, T2, box, 1)
        lhs = clifford_act(a, scale_spinor(sigma, f))
        rhs = scale_spinor(clifford_act(a, sigma), f)
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_contraction_graded_leibniz():
    """i_X(alpha ^ beta) = i_X alpha ^ beta + (-1)^p alpha ^ i_X beta, with
    i_X the Clifford action of a section with no cotangent part."""
    rng = np.random.default_rng(31)
    box = TruncationBox(4)
    for _ in range(5):
        tan = [random_fourier_scalar(rng, T4, box, 1) for _ in range(4)]
        zero = [FourierScalar.zero(T4, box) for _ in range(4)]
        X = CourantVector(T4, box, tan, zero)
        for p in (1, 2):
            import itertools as it
            alpha = Spinor(
                T4, box,
                {m: random_fourier_scalar(rng, T4, box, 1)
                 for m in it.combinations(range(4), p)},
            )
            beta = random_spinor(rng, T4, box, max_mode=1)
            lhs = clifford_act(X, wedge(alpha, beta))
            rhs = wedge(clifford_act(X, alpha), beta).add(
                wedge(alpha, clifford_act(X, beta)).scale((-1) ** p)
            )
            assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


def test_spinor_dropped_mass_accounting():
    """Drop-policy products surface their lost spectral mass on the spinor."""
    box = TruncationBox(1, policy="drop")
    f = FourierScalar.mode(T2, box, (1, 0), 2.0)
    sigma = Spinor(T2, box, {(0,): f})
    out = scale_spinor(sigma, f)  # mode (2, 0) escapes, |c|^2 = 16
    assert out.is_zero()
    assert out.dropped_mass() == pytest.approx(16.0)
    # strict policy on the same data raises instead
    strict_box = TruncationBox(1)
    g = FourierScalar.mode(T2, strict_box, (1, 0), 2.0)
    tau = Spinor(T2, strict_box, {(0,): g})
    with pytest.raises(TruncationError):
        scale_spinor(tau, g)


def test_poly_wedge_matches_iterated_action():
    """Over an isotropic frame, acting with P ^ Q equals acting with P then Q,
    and swapping picks up the graded sign (-1)^{pq}."""
    rng = np.random.default_rng(33)
    box = TruncationBox(4)
    import itertools as it
    # isotropic frame: the four coordinate 1-forms on T4
    frame = section_stack([basis_form(T4, box, j) for j in range(4)])
    for pdeg, qdeg in ((1, 1), (1, 2), (2, 2)):
        P = CliffordPoly(
            frame, pdeg,
            {k: random_fourier_scalar(rng, T4, box, 1) for k in it.combinations(range(4), pdeg)},
        )
        Q = CliffordPoly(
            frame, qdeg,
            {k: random_fourier_scalar(rng, T4, box, 1) for k in it.combinations(range(4), qdeg)},
        )
        sigma = random_spinor(rng, T4, box, max_mode=1)
        lhs = P.act(Q.act(sigma))
        rhs = P.wedge(Q).act(sigma)
        scale = max(1.0, lhs.norm())
        assert (lhs - rhs).norm() < 1e-10 * scale
        flipped = Q.act(P.act(sigma)).scale((-1) ** (pdeg * qdeg))
        assert (lhs - flipped).norm() < 1e-10 * scale


def test_isotropic_factors_anticommute():
    rng = np.random.default_rng(27)
    # span{dx1, dx2} is isotropic
    for _ in range(5):
        ca = [complex(rng.normal(), rng.normal()) for _ in range(2)]
        cb = [complex(rng.normal(), rng.normal()) for _ in range(2)]
        a = CourantVector.constant(T2, BOX, [0, 0], ca)
        b = CourantVector.constant(T2, BOX, [0, 0], cb)
        sigma = random_spinor(rng, T2, BOX, max_mode=1)
        lhs = clifford_act(a, clifford_act(b, sigma))
        rhs = clifford_act(b, clifford_act(a, sigma)).scale(-1)
        assert (lhs - rhs).norm() < 1e-12
