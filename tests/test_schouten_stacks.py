"""The closed-form Schouten bracket against the ring loop it replaced.

``ref_schouten_bracket`` below is the bracket as it ran on the
``FourierScalar`` ring, kept verbatim: every pair of terms, every pair of
factors, one twisted Courant bracket of sections with function
coefficients, expanded along the dual frame by pairings and checked for
mass off it.  The stacked bracket must agree with it to 1e-14 relative on
the structures and degrees below, with the same supports, the same
``strict`` escapes and the same kept modes under ``drop``, and a
Maurer-Cartan expansion built on it must form no ring product.
"""

import itertools
from typing import Dict, List, Tuple

import numpy as np
import pytest

from gentorus import deformation
from gentorus.calculus import schouten_bracket
from gentorus.deformation import maurer_cartan_expand
from gentorus.fourier import FourierScalar, TorusGeometry, TruncationBox, TruncationError
from gentorus.metric import GeneralizedMetric
from gentorus.spinor import (
    CliffordPoly,
    CourantVector,
    Spinor,
    courant_bracket,
    pairing,
    random_fourier_scalar,
    sort_monomial,
)
from gentorus.structure import GCStructure

# ----------------------------------------------------------------------
# the ring bracket, as it was
# ----------------------------------------------------------------------

# a bracket's off-span mass, relative to its norm, that means it left the
# conjugate eigenbundle
SPAN_TOL = 1e-9


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


def ref_schouten_bracket(
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


# ----------------------------------------------------------------------
# structures and polynomials
# ----------------------------------------------------------------------

_B = [[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 0, 0.3], [0, 0, -0.3, 0]]
_OMEGA = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
STRUCTURES = ["t4-complex", "t4-twisted", "t4-symplectic", "t4-b-transform", "t6-complex"]
DEGREES = [(1, 1), (1, 2), (2, 2), (2, 3)]
REL = 1e-14


def _structure(name, box):
    if name == "t6-complex":
        return GCStructure.complex_structure(3, box)
    if name == "t4-twisted":
        H = Spinor.constant_form(TorusGeometry(2), box, (0, 1, 2), 1.0)
        return GCStructure.complex_structure(2, box, twist=H)
    if name == "t4-symplectic":
        return GCStructure.symplectic_structure(_OMEGA, box)
    if name == "t4-b-transform":
        return GCStructure.complex_structure(2, box).b_transform(_B)
    return GCStructure.complex_structure(2, box)


def _poly(rng, s, degree, max_mode, keys=None):
    """Random coefficients, one term each, on ``keys`` (every key by default)."""
    if keys is None:
        keys = list(itertools.combinations(range(s.dim), degree))
    return CliffordPoly(
        s.dual_frame, degree,
        {key: random_fourier_scalar(rng, s.geometry, s.box, max_mode, 1) for key in keys},
    )


def _rows(poly):
    return {tuple(m): row for m, row in zip(poly.stack.modes.tolist(), poly.stack.coeffs[:, 0])}


def _assert_matches(got, want):
    """Rows within REL of the reference norm.  A mode kept by one side alone
    is a cancellation that rounded to zero on the other side only, so its
    row is within the same bound; an empty reference is matched exactly."""
    assert got.degree == want.degree
    if want.is_zero():
        assert got.is_zero()
        return
    bound = REL * want.norm()
    rows, ref = _rows(got), _rows(want)
    zero = np.zeros(len(want.keys))
    for mode in rows.keys() | ref.keys():
        assert np.abs(rows.get(mode, zero) - ref.get(mode, zero)).max() <= bound, mode
    live = {m for m, row in ref.items() if np.abs(row).max() > bound}
    assert live == {m for m, row in rows.items() if np.abs(row).max() > bound}


def _outcome(fn):
    try:
        return fn()
    except TruncationError:
        return TruncationError


@pytest.fixture(scope="module", params=STRUCTURES)
def structure(request):
    return _structure(request.param, TruncationBox(4))


# ----------------------------------------------------------------------
# agreement, escapes and kept modes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("degrees", DEGREES)
@pytest.mark.parametrize("max_mode", [0, 1], ids=["constant", "fourier"])
def test_bracket_matches_ring(structure, degrees, max_mode, monkeypatch):
    rng = np.random.default_rng(sum(degrees) + 10 * max_mode + structure.dim)
    a, b = (_poly(rng, structure, d, max_mode) for d in degrees)
    want = ref_schouten_bracket(a, b, structure)
    calls = []
    mul = FourierScalar.mul
    monkeypatch.setattr(FourierScalar, "mul", lambda *x, **k: calls.append(1) or mul(*x, **k))
    got = schouten_bracket(a, b, structure)
    assert calls == []
    _assert_matches(got, want)


def test_dual_frame_constants_are_its_ring_brackets(structure):
    """<l_k, [l^i, l^j]_H> from the ring, and no mass off the dual frame."""
    frame, dual, H = structure.frame, structure.dual_frame, structure.twist
    for i, j in itertools.product(range(structure.dim), repeat=2):
        br = courant_bracket(dual[i], dual[j], H=H)
        along = [pairing(frame[k], br).integrate() for k in range(structure.dim)]
        assert np.abs(structure.dual_structure_constants[i, j] - along).max() <= 1e-15
        assert max(pairing(v, br).norm() for v in dual) <= 1e-12


@pytest.mark.parametrize("name", STRUCTURES)
@pytest.mark.parametrize("degrees", DEGREES)
def test_strict_escapes_match_ring(name, degrees):
    """Every key filled, the edge modes of a K=1 box in reach: the bracket
    raises exactly when the ring did.  With both degrees >= 2 the ring
    multiplied every pair of coefficients, so one filled key on each side
    raises exactly as it did too."""
    s = _structure(name, TruncationBox(1))
    rng = np.random.default_rng(31 + sum(degrees))
    cases = [[_poly(rng, s, d, 1) for d in degrees] for _ in range(2)]
    if min(degrees) >= 2:
        for _ in range(4):
            keys = [[tuple(sorted(rng.choice(s.dim, d, replace=False)))] for d in degrees]
            cases.append([_poly(rng, s, d, 1, k) for d, k in zip(degrees, keys)])
    raised = set()
    for a, b in cases:
        want = _outcome(lambda: ref_schouten_bracket(a, b, s))
        got = _outcome(lambda: schouten_bracket(a, b, s))
        raised.add(got is TruncationError)
        if want is TruncationError or got is TruncationError:
            assert got is want is TruncationError
        else:
            _assert_matches(got, want)
    assert raised == ({True, False} if min(degrees) >= 2 else {True})


def test_t2_edge_mode_product_still_raises():
    """On T^2 the bracket of 2-polynomials has degree 3 > 2 and is zero, but
    the product of the coefficients is formed: under strict it raises, as
    the ring's did, and under drop the result is empty."""
    for policy in ("strict", "drop"):
        s = GCStructure.complex_structure(1, TruncationBox(1, policy))
        f = FourierScalar.mode(s.geometry, s.box, (1, 0), 0.2)
        eps = CliffordPoly(s.dual_frame, 2, {(0, 1): f})
        want = _outcome(lambda: ref_schouten_bracket(eps, eps, s))
        got = _outcome(lambda: schouten_bracket(eps, eps, s))
        if policy == "strict":
            assert got is want is TruncationError
        else:
            assert got.degree == want.degree == 3 and got.is_zero() and want.is_zero()


def test_degree_one_pair_without_terms_still_multiplies():
    """With a degree-1 argument the ring formed only the products its
    Courant bracket's components needed: two dzbar slots, which have no
    anchor and bracket to zero, formed none.  The stacked bracket forms
    every pair product, so their escape raises under strict, as it does
    for pairs of higher degree in both bracket forms."""
    s = GCStructure.complex_structure(2, TruncationBox(1))
    f = FourierScalar.mode(s.geometry, s.box, (1, 0, 0, 0), 0.5)
    a = CliffordPoly(s.dual_frame, 1, {(2,): f})
    b = CliffordPoly(s.dual_frame, 1, {(3,): f})
    assert ref_schouten_bracket(a, b, s).is_zero()
    with pytest.raises(TruncationError):
        schouten_bracket(a, b, s)


@pytest.mark.parametrize("name", STRUCTURES)
def test_drop_keeps_the_ring_modes(name):
    s = _structure(name, TruncationBox(1, "drop"))
    rng = np.random.default_rng(37)
    for degrees in DEGREES:
        a, b = (_poly(rng, s, d, 1) for d in degrees)
        got = schouten_bracket(a, b, s)
        _assert_matches(got, ref_schouten_bracket(a, b, s))
        assert got.stack.dropped_mass.sum() > 0


# ----------------------------------------------------------------------
# the Maurer-Cartan expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("twisted", [False, True], ids=["t4-expand", "t4-twisted"])
def test_expansion_forms_no_ring_product(twisted, monkeypatch):
    """The first-order data of the ``t4-expand`` benchmark, expanded to order
    3 on T^4 K=3 under drop: no ``FourierScalar.mul`` call, and the series
    the ring bracket expands, with the same orders, supports and constancy."""
    box = TruncationBox(3, "drop")
    H = Spinor.constant_form(TorusGeometry(2), box, (0, 1, 2), 1.0) if twisted else None
    s = GCStructure.complex_structure(2, box, twist=H)
    metric = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(4))
    first = {
        (1, 0): CliffordPoly(s.dual_frame, 2, {(0, 2): FourierScalar.mode(s.geometry, box, (1, 0, 0, 0), 0.3)}),
        (0, 1): CliffordPoly(s.dual_frame, 2, {(0, 3): FourierScalar.mode(s.geometry, box, (0, 1, 0, 0), 0.25)}),
    }
    calls = []
    mul = FourierScalar.mul
    with monkeypatch.context() as patch:
        patch.setattr(FourierScalar, "mul", lambda *x, **k: calls.append(1) or mul(*x, **k))
        series = maurer_cartan_expand(s, metric, first, 3)
    assert calls == []
    monkeypatch.setattr(deformation, "schouten_bracket", ref_schouten_bracket)
    want = maurer_cartan_expand(s, metric, first, 3)
    assert sorted(series.coefficients) == sorted(want.coefficients)
    assert series.order == want.order and series.is_constant() == want.is_constant()
    for key, poly in want.coefficients.items():
        got = series.coefficients[key]
        assert np.array_equal(got.stack.modes, poly.stack.modes), key
        assert np.abs(got.stack.coeffs - poly.stack.coeffs).max() <= 1e-13 * max(1.0, poly.norm())
