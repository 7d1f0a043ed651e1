"""Coefficient-ring tests: products, derivatives, integration, truncation."""

import math

import numpy as np
import pytest

from gentorus.fourier import (
    FourierScalar,
    TorusGeometry,
    TruncationBox,
    TruncationError,
)
from gentorus.spinor import random_fourier_scalar

from reference import conj_scalar, mode_coefficient

T2 = TorusGeometry(1)
BOX2 = TruncationBox(2)


def test_identity_element():
    one = FourierScalar.constant(T2, BOX2, 1.0)
    g = FourierScalar(T2, BOX2, {(1, 0): 2.0 + 1.0j, (-1, 1): 0.5})
    prod = one.mul(g)
    assert prod.coeffs == g.coeffs
    assert prod.dropped_mass == 0.0


def test_inverse_modes_cancel():
    f = FourierScalar.mode(T2, BOX2, (1, 0))
    g = FourierScalar.mode(T2, BOX2, (-1, 0))
    prod = f.mul(g)
    assert mode_coefficient(prod, (0, 0)) == 1.0
    assert len(prod.coeffs) == 1


def test_truncation_drop_and_strict():
    box = TruncationBox(1, policy="drop")
    f = FourierScalar.mode(T2, box, (1, 0))
    prod = f.mul(f)
    assert prod.is_zero()
    assert prod.dropped_mass == pytest.approx(1.0)

    strict_box = TruncationBox(1)
    fs = FourierScalar.mode(T2, strict_box, (1, 0))
    with pytest.raises(TruncationError) as err:
        fs.mul(fs)
    assert err.value.mode == (2, 0)


def test_derivative_of_constant_and_modes():
    c = FourierScalar.constant(T2, BOX2, 3.0)
    assert c.derive(0).is_zero()

    f = FourierScalar.mode(T2, BOX2, (1, 0))
    df = f.derive(0)
    assert mode_coefficient(df, (1, 0)) == pytest.approx(2j * math.pi)
    assert f.derive(1).is_zero()

    with pytest.raises(ValueError):
        f.derive(2)


def test_integration():
    c = FourierScalar.constant(T2, BOX2, 2.5 - 1.0j)
    assert c.integrate() == pytest.approx(2.5 - 1.0j)
    f = FourierScalar.mode(T2, BOX2, (1, 0))
    assert f.integrate() == 0.0

    rng = np.random.default_rng(7)
    g = random_fourier_scalar(rng, T2, BOX2, max_mode=2, terms=4)
    for axis in range(2):
        assert abs(g.derive(axis).integrate()) == 0.0


def test_ring_laws_without_truncation():
    rng = np.random.default_rng(11)
    box = TruncationBox(3)
    for _ in range(20):
        f = random_fourier_scalar(rng, T2, box, max_mode=1)
        g = random_fourier_scalar(rng, T2, box, max_mode=1)
        h = random_fourier_scalar(rng, T2, box, max_mode=1)
        comm = f.mul(g) - g.mul(f)
        assert comm.norm() < 1e-12
        assoc = f.mul(g).mul(h) - f.mul(g.mul(h))
        scale = max(1.0, f.norm() * g.norm() * h.norm())
        assert assoc.norm() < 1e-12 * scale


def test_leibniz_rule():
    rng = np.random.default_rng(13)
    box = TruncationBox(3)
    for _ in range(20):
        f = random_fourier_scalar(rng, T2, box, max_mode=1)
        g = random_fourier_scalar(rng, T2, box, max_mode=1)
        for axis in range(2):
            lhs = f.mul(g).derive(axis)
            rhs = f.derive(axis).mul(g) + f.mul(g.derive(axis))
            assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_conjugation_anti_homomorphism():
    rng = np.random.default_rng(17)
    box = TruncationBox(3)
    for _ in range(10):
        f = random_fourier_scalar(rng, T2, box, max_mode=1)
        g = random_fourier_scalar(rng, T2, box, max_mode=1)
        assert (conj_scalar(conj_scalar(f)) - f).norm() < 1e-15
        assert (conj_scalar(f.mul(g)) - conj_scalar(f).mul(conj_scalar(g))).norm() < 1e-12
        for axis in range(2):
            # d/dx is a real operator: the conjugated 2*pi*i factor combines
            # with the flipped mode sign, so conj commutes with derive
            assert (conj_scalar(f.derive(axis)) - conj_scalar(f).derive(axis)).norm() < 1e-12


def test_positivity_of_self_pairing():
    rng = np.random.default_rng(19)
    box = TruncationBox(4)
    f = random_fourier_scalar(rng, T2, box, max_mode=2, terms=5)
    val = f.mul(conj_scalar(f)).integrate()
    assert abs(val.imag) < 1e-12
    assert val.real > 0
    zero = FourierScalar.zero(T2, box)
    assert zero.mul(conj_scalar(zero)).integrate() == 0.0


def test_real_detection():
    f = FourierScalar(T2, BOX2, {(1, 0): 1 + 2j, (-1, 0): 1 - 2j})
    assert f.is_real()
    g = FourierScalar(T2, BOX2, {(1, 0): 1 + 2j})
    assert not g.is_real()


def test_dropped_mass_propagates_additively():
    box = TruncationBox(1, policy="drop")
    f = FourierScalar.mode(T2, box, (1, 0))
    lost = f.mul(f)  # dropped mass 1
    g = lost.add(FourierScalar.constant(T2, box, 1.0))
    assert g.dropped_mass == pytest.approx(1.0)
    h = g.mul(g)
    assert h.dropped_mass == pytest.approx(2.0)


