"""Clifford-module tests: pairing, actions, brackets, reversal."""

import numpy as np
import pytest

from gentorus.fourier import FourierScalar, TorusGeometry, TruncationBox
from gentorus.spinor import (
    CliffordPoly,
    CourantVector,
    Spinor,
    clifford_act,
    clifford_act_many,
    courant_bracket,
    exterior_derivative,
    form_reversal,
    pairing,
    random_courant_vector,
    random_spinor,
    wedge,
)

T2 = TorusGeometry(1)
T4 = TorusGeometry(2)
BOX = TruncationBox(3)


def test_pairing_on_coordinate_frame():
    d1 = CourantVector.basis_vector(T2, BOX, 0)   # d/dx1
    dx1 = CourantVector.basis_form(T2, BOX, 0)
    d2 = CourantVector.basis_vector(T2, BOX, 1)
    assert pairing(d1, dx1).coefficient((0, 0)) == 1.0
    assert pairing(d1, d2).is_zero()
    both = d1.add(dx1)
    assert pairing(both, both).coefficient((0, 0)) == 2.0


def test_pairing_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_courant_vector(rng, T2, BOX, max_mode=1)
        b = random_courant_vector(rng, T2, BOX, max_mode=1)
        assert (pairing(a, b) - pairing(b, a)).norm() < 1e-12


def test_clifford_act_basic():
    one = Spinor.scalar(FourierScalar.constant(T2, BOX, 1.0))
    dx1 = CourantVector.basis_form(T2, BOX, 0)
    acted = clifford_act(dx1, one)
    assert acted.coefficient((0,)).coefficient((0, 0)) == 1.0

    d1 = CourantVector.basis_vector(T2, BOX, 0)
    dx12 = Spinor.constant_form(T2, BOX, (0, 1))
    contracted = clifford_act(d1, dx12)
    assert contracted.coefficient((1,)).coefficient((0, 0)) == 1.0
    assert contracted.coefficient((0,)).is_zero()


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
        rhs = sigma.scale_scalar(pairing(a, b))
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
        rhs = sigma.scale_scalar(pairing(a, b))
        scale = max(1.0, a.norm() * b.norm() * sigma.norm())
        assert (lhs - rhs).norm() < 1e-9 * scale


def test_zero_section_acts_as_zero():
    z = CourantVector.zero(T2, BOX)
    rng = np.random.default_rng(9)
    sigma = random_spinor(rng, T2, BOX, max_mode=1)
    assert clifford_act(z, sigma).is_zero()


def test_wedge_signs():
    dx1 = Spinor.constant_form(T2, BOX, (0,))
    dx2 = Spinor.constant_form(T2, BOX, (1,))
    w12 = wedge(dx1, dx2)
    w21 = wedge(dx2, dx1)
    assert w12.coefficient((0, 1)).coefficient((0, 0)) == 1.0
    assert w21.coefficient((0, 1)).coefficient((0, 0)) == -1.0
    assert wedge(dx1, dx1).is_zero()


def test_exterior_derivative_modes():
    f = FourierScalar.mode(T2, BOX, (1, 0))
    sigma = Spinor.scalar(f)
    d_sigma = exterior_derivative(sigma)
    import math
    assert d_sigma.coefficient((0,)).coefficient((1, 0)) == pytest.approx(2j * math.pi)
    assert d_sigma.coefficient((1,)).is_zero()
    dd = exterior_derivative(d_sigma)
    assert dd.norm() < 1e-12


def test_courant_bracket_coordinate_fields():
    # constant coordinate sections commute on the flat torus
    d1 = CourantVector.basis_vector(T4, BOX, 0)
    dx2 = CourantVector.basis_form(T4, BOX, 1)
    br = courant_bracket(d1, dx2)
    assert br.norm() < 1e-15


def test_courant_bracket_twist_term():
    # [X, Y]_H picks up i_Y i_X H for constant vector fields
    H = Spinor.constant_form(T4, BOX, (0, 1, 2))
    X = CourantVector.basis_vector(T4, BOX, 0)
    Y = CourantVector.basis_vector(T4, BOX, 1)
    br = courant_bracket(X, Y, H=H)
    # i_Y i_X (dx1^dx2^dx3) = dx3
    assert br.cotangent[2].coefficient((0, 0, 0, 0)) == 1.0
    assert br.tangent[0].is_zero()


def test_courant_bracket_function_coefficients():
    # [f X, g Y] reproduces the Lie-bracket Leibniz structure on tangent parts
    rng = np.random.default_rng(21)
    f = FourierScalar.mode(T2, BOX, (1, 0))
    X = CourantVector.basis_vector(T2, BOX, 0).scale_scalar(f)
    Y = CourantVector.basis_vector(T2, BOX, 1)
    br = courant_bracket(X, Y)
    # [f d1, d2] = -(d2 f) d1 = 0 here since f depends on x1 only
    assert br.norm() < 1e-14
    g = FourierScalar.mode(T2, BOX, (0, 1))
    Z = CourantVector.basis_vector(T2, BOX, 0).scale_scalar(g)
    br2 = courant_bracket(Z, Y)
    # [g d1, d2] = -(d2 g) d1
    expected = CourantVector.basis_vector(T2, BOX, 0).scale_scalar(g.derive(1)).scale(-1)
    diff = br2.add(expected.scale(-1))
    assert diff.norm() < 1e-12
    del rng


def test_form_reversal_signs():
    sigma = Spinor.constant_form(T4, BOX, (0, 1))
    assert form_reversal(sigma).coefficient((0, 1)).coefficient((0,) * 4) == -1.0
    tau = Spinor.constant_form(T4, BOX, (0, 1, 2, 3))
    assert form_reversal(tau).coefficient((0, 1, 2, 3)).coefficient((0,) * 4) == 1.0


def test_poly_act_degree_zero_and_antisymmetry():
    frame = [CourantVector.basis_form(T2, BOX, 0), CourantVector.basis_vector(T2, BOX, 1)]
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
    frame = [dz_vec, dzbar]
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
    from gentorus.spinor import random_fourier_scalar
    for _ in range(5):
        cot = [random_fourier_scalar(rng, T2, box, 1) for _ in range(2)]
        zero = [FourierScalar.zero(T2, box) for _ in range(2)]
        a = CourantVector(T2, box, zero, cot)
        sigma = random_spinor(rng, T2, box, max_mode=1)
        f = random_fourier_scalar(rng, T2, box, 1)
        lhs = clifford_act(a, sigma.scale_scalar(f))
        rhs = clifford_act(a, sigma).scale_scalar(f)
        assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_contraction_graded_leibniz():
    """i_X(alpha ^ beta) = i_X alpha ^ beta + (-1)^p alpha ^ i_X beta."""
    rng = np.random.default_rng(31)
    box = TruncationBox(4)
    from gentorus.spinor import contract, random_fourier_scalar
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
            lhs = contract(X, wedge(alpha, beta))
            rhs = wedge(contract(X, alpha), beta).add(
                wedge(alpha, contract(X, beta)).scale((-1) ** p)
            )
            assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


def test_spinor_dropped_mass_accounting():
    """Drop-policy products surface their lost spectral mass on the spinor."""
    box = TruncationBox(1, policy="drop")
    f = FourierScalar.mode(T2, box, (1, 0), 2.0)
    sigma = Spinor(T2, box, {(0,): f})
    out = sigma.scale_scalar(f)  # mode (2, 0) escapes, |c|^2 = 16
    assert out.is_zero()
    assert out.dropped_mass() == pytest.approx(16.0)
    # strict policy on the same data raises instead
    from gentorus.fourier import TruncationError
    strict_box = TruncationBox(1)
    g = FourierScalar.mode(T2, strict_box, (1, 0), 2.0)
    tau = Spinor(T2, strict_box, {(0,): g})
    with pytest.raises(TruncationError):
        tau.scale_scalar(g)


def test_poly_wedge_matches_iterated_action():
    """Over an isotropic frame, acting with P ^ Q equals acting with P then Q,
    and swapping picks up the graded sign (-1)^{pq}."""
    rng = np.random.default_rng(33)
    box = TruncationBox(4)
    from gentorus.spinor import random_fourier_scalar
    import itertools as it
    # isotropic frame: the four coordinate 1-forms on T4
    frame = [CourantVector.basis_form(T4, box, j) for j in range(4)]
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
        lhs = clifford_act_many([a, b], sigma)
        rhs = clifford_act_many([b, a], sigma).scale(-1)
        assert (lhs - rhs).norm() < 1e-12
