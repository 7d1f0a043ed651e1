"""Frame shears, transport, holomorphy criterion, Maurer-Cartan machinery."""

import itertools
from typing import Sequence

import numpy as np
import pytest

from gentorus import deformation
from gentorus.calculus import delbar_op, lie_derivation_dL, schouten_bracket, twisted_d
from gentorus.deformation import (
    Beltrami,
    DeformationError,
    DeformedStructure,
    FrameMaps,
    Transport,
    _neumann_inverse,
    bracket_del_action,
    frame_block_matrices,
    holomorphy_residuals,
    maurer_cartan_expand,
    maurer_cartan_verify,
)
from gentorus.fourier import FourierMatrix, FourierScalar, TruncationBox, TruncationError
from gentorus.hodge import ObstructionError
from gentorus.metric import GeneralizedMetric
from gentorus.spinor import CliffordPoly, random_spinor
from gentorus.structure import GCStructure

from reference import CourantVector, clifford_act, level_spinors, pairing, poly_coefficient
from reference import scale_section, scale_spinor, sections

BOX = TruncationBox(3)


@pytest.fixture(scope="module")
def t2():
    return GCStructure.complex_structure(1, BOX)


@pytest.fixture(scope="module")
def t4():
    return GCStructure.complex_structure(2, BOX)


def random_constant_eps(rng, structure, norm=0.3):
    dim = structure.dim
    coeffs = {}
    for key in itertools.combinations(range(dim), 2):
        coeffs[key] = FourierScalar.constant(
            structure.geometry, structure.box, complex(rng.normal(), rng.normal())
        )
    eps = CliffordPoly(structure.dual_frame, 2, coeffs)
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for p in range(dim):
            mat[i, p] = poly_coefficient(eps, (i, p)).integrate()
    scale = norm / max(np.linalg.norm(mat, 2), 1e-12)
    return eps.scale(scale)


def grid_sup_norm(maps):
    """The sup over the (4K + 1)^{2n} grid of the 2-norm of eps's matrix."""
    s = maps.structure
    axes = [np.linspace(0.0, 1.0, 4 * s.box.K + 1, endpoint=False)] * s.dim
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return float(np.linalg.norm(maps.eps_matrix.evaluate(points), ord=2, axis=(1, 2)).max())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sup_norm_of_constant_eps_is_its_matrix_norm(n):
    """A constant eps takes one value at every grid point: its sup-norm is
    the 2-norm of that matrix, equal to the grid value; a varying eps keeps
    its grid value."""
    s = GCStructure.complex_structure(n, TruncationBox(1))
    rng = np.random.default_rng(59 + n)
    for _ in range(10):
        maps = FrameMaps(s, random_constant_eps(rng, s, rng.uniform(0.1, 0.9)))
        want = float(np.linalg.norm(maps.eps_matrix.constant_values(), 2))
        assert maps.sup_norm() == want == grid_sup_norm(maps)
    f = FourierScalar(s.geometry, s.box, {(1,) + (0,) * (s.dim - 1): 0.2, (0,) * s.dim: 0.1})
    maps = FrameMaps(s, CliffordPoly(s.dual_frame, 2, {(0, s.dim - 1): f}))
    assert not maps.eps_matrix.is_constant()
    assert maps.sup_norm() == grid_sup_norm(maps)


@pytest.mark.parametrize("n", [1, 2])
def test_sup_norm_grids_only_the_axes_eps_varies_on(n, monkeypatch):
    """An eps varying along one axis, and one varying along two: the grid
    over those axes alone gives the full grid's value."""
    s = GCStructure.complex_structure(n, TruncationBox(2))
    e, zero = np.eye(s.dim, dtype=int), (0,) * s.dim
    along = {
        1: {tuple(e[0]): 0.2, zero: 0.1, tuple(-e[0]): 0.05j},
        2: {tuple(e[0] + e[-1]): 0.15, tuple(-e[-1]): -0.1 + 0.02j, zero: 0.1},
    }
    evaluated = []
    real = FourierMatrix.evaluate

    def counted(self, points):
        evaluated.append(len(points))
        return real(self, points)

    for axes, coeffs in along.items():
        f = FourierScalar(s.geometry, s.box, coeffs)
        maps = FrameMaps(s, CliffordPoly(s.dual_frame, 2, {(0, s.dim - 1): f}))
        want = grid_sup_norm(maps)
        with monkeypatch.context() as m:
            m.setattr(FourierMatrix, "evaluate", counted)
            assert maps.sup_norm() == want
        assert evaluated.pop() == (4 * s.box.K + 1) ** axes


def test_sup_norm_builds_only_the_eps_matrix(monkeypatch):
    """The sup-norm reads [eps] alone: eps*, eps eps* and the sheared
    frames are built on first use, and it uses none of them."""
    s = GCStructure.complex_structure(2, TruncationBox(1))
    f = FourierScalar(s.geometry, s.box, {(1, 0, 0, 0): 0.2, (0, 0, 0, 0): 0.1})
    maps = FrameMaps(s, CliffordPoly(s.dual_frame, 2, {(0, 3): f}))
    products = []
    real = FourierMatrix.matmul

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(FourierMatrix, "matmul", counted)
    maps.sup_norm()
    assert products == []
    lazy = ("eps_star_matrix", "eps_eps_star", "frame", "dual", "xi", "eta")
    assert not set(lazy) & set(vars(maps))
    assert maps.eta is maps.eta and products


def test_frame_blocks_zero_deformation(t2):
    eps = CliffordPoly.zero(t2.dual_frame, 2)
    fb = frame_block_matrices(t2, eps)
    assert fb["residuals"]["inverse"] < 1e-12
    assert fb["sup_norm"] == 0.0
    # forward block is the identity arrangement
    ident = np.eye(4)
    vals = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            vals[i, j] = fb["forward"][i, j].integrate()
    assert np.abs(vals - ident).max() < 1e-12


@pytest.mark.parametrize("fixture", ["t2", "t4"])
def test_frame_blocks_random_eps(fixture, request):
    """Closed-form block inverse, duality, coefficient conventions: 50 draws."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(301)
    for trial in range(25):
        eps = random_constant_eps(rng, s, norm=0.5 if trial % 2 else 0.3)
        fb = frame_block_matrices(s, eps)
        assert fb["residuals"]["inverse"] < 1e-10
        assert fb["residuals"]["duality"] < 1e-10
        assert fb["residuals"]["coefficient_convention"] < 1e-10
        assert fb["residuals"]["swap_identity"] < 1e-10


def test_frame_blocks_fourier_eps(t2):
    f = FourierScalar.mode(t2.geometry, t2.box, (1, 0), 0.2)
    eps = CliffordPoly(t2.dual_frame, 2, {(0, 1): f})
    fb = frame_block_matrices(t2, eps)
    assert fb["residuals"]["inverse"] < 1e-9
    assert fb["residuals"]["duality"] < 1e-9
    assert 0.15 < fb["sup_norm"] < 0.25


def test_frame_blocks_norm_gate(t2):
    eps = CliffordPoly.constant(t2.dual_frame, (0, 1), 1.5)
    with pytest.raises(DeformationError, match="sup-norm"):
        frame_block_matrices(t2, eps)


def test_deformed_frame_reconstruction(t4):
    """xi_i = l^q(xi_i) (1+eps)(l_q) and the dual analogue."""
    rng = np.random.default_rng(303)
    eps = random_constant_eps(rng, t4, 0.4)
    frames = sections(FrameMaps(t4, eps).xi)
    maps_frame = [l.add(sum_images(t4, eps, i)) for i, l in enumerate(sections(t4.frame))]
    dual = sections(t4.dual_frame)
    for i in range(t4.dim):
        # reconstruct xi_i from its frame pairings
        acc = None
        for q in range(t4.dim):
            coeff = pairing(dual[q], frames[i]).integrate()
            term = maps_frame[q].scale(coeff)
            acc = term if acc is None else acc.add(term)
        assert acc.add(frames[i].scale(-1)).norm() < 1e-10


def sum_images(structure, eps, i):
    acc = CourantVector.zero(structure.geometry, structure.box)
    for a, l in enumerate(sections(structure.dual_frame)):
        c = poly_coefficient(eps, (a, i))
        if not c.is_zero():
            acc = acc.add(scale_section(l, c))
    return acc


def test_exponential_action_properties(t2):
    rng = np.random.default_rng(305)
    eps = random_constant_eps(rng, t2, 0.4)
    tr = Transport(t2, eps)
    sigma = random_spinor(rng, t2.geometry, t2.box, max_mode=1)
    # zero deformation acts trivially
    zero_tr = Transport(t2, CliffordPoly.zero(t2.dual_frame, 2))
    assert (zero_tr.exp_act(sigma) - sigma).norm() < 1e-14
    assert (zero_tr.forward(sigma) - sigma).norm() < 1e-14
    # exp(-eps) exp(eps) = 1
    assert (tr.exp_act(tr.exp_act(sigma), sign=-1) - sigma).norm() < 1e-10 * max(
        1.0, sigma.norm()
    )


def partial_eval(
    poly: CliffordPoly, v: CourantVector, argument_duals: Sequence[CourantVector]
) -> CourantVector:
    """Clifford partial evaluation a(v) for degree-2 polynomials.

    For eps = (1/2) eps_{ij} f^i f^j over an isotropic frame {f^i} whose
    arguments f_p are extracted by pairing with ``argument_duals`` (so
    <argument_duals[p], f_q> = delta_pq), the commutator rule
    eps . v . rho = eps(v) . rho + v . eps . rho resolves to
    eps(f_p) = eps_{ip} f^i; sections outside the argument span are
    killed.
    """
    if poly.degree != 2:
        raise ValueError("partial evaluation implemented for degree 2 only")
    out = CourantVector.zero(poly.geometry, poly.box)
    for p, dual in enumerate(argument_duals):
        cp = pairing(dual, v)
        if cp.is_zero():
            continue
        for i, l in enumerate(sections(poly.frame)):
            cf = poly_coefficient(poly, (i, p))
            if cf.is_zero():
                continue
            out = out.add(scale_section(l, cf.mul(cp)))
    return out


@pytest.mark.parametrize("fixture", ["t2", "t4"])
def test_exp_intertwines_frame_shear(fixture, request):
    """exp(eps)(l . rho) = (1+eps)(l) . (exp(eps) rho) for frame sections."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(307)
    eps = random_constant_eps(rng, s, 0.4)
    tr = Transport(s, eps)
    dual = sections(s.dual_frame)
    for l in sections(s.frame) + dual:
        rho = random_spinor(rng, s.geometry, s.box, max_mode=1)
        lhs = tr.exp_act(clifford_act(l, rho))
        rhs = clifford_act(l.add(partial_eval(eps, l, dual)), tr.exp_act(rho))
        assert (lhs - rhs).norm() < 1e-10 * max(1.0, rho.norm())


@pytest.mark.parametrize("fixture", ["t2", "t4"])
def test_transport_roundtrip(fixture, request):
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(309)
    for _ in range(5):
        eps = random_constant_eps(rng, s, 0.4)
        tr = Transport(s, eps)
        sigma = random_spinor(rng, s.geometry, s.box, max_mode=1)
        back = tr.inverse(tr.forward(sigma))
        assert (back - sigma).norm() < 1e-10 * max(1.0, sigma.norm())


@pytest.mark.parametrize("fixture", ["t2", "t4"])
def test_dressing_identity_all_levels(fixture, request):
    """exp(-eps) E(sigma) = (1 + eps* - eps eps*)(sigma) factorwise."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(311)
    eps = random_constant_eps(rng, s, 0.4)
    tr = Transport(s, eps)
    for _ in range(3):
        sigma = random_spinor(rng, s.geometry, s.box, max_mode=1)
        lhs = tr.exp_act(tr.forward(sigma), sign=-1)
        rhs = tr.factorwise(tr.maps.eta - s.dual_frame.matmul(tr.maps.eps_eps_star), sigma)
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, sigma.norm())


@pytest.mark.parametrize("fixture", ["t2", "t4"])
def test_inverse_combo_on_low_levels(fixture, request):
    """E^{-1} exp(eps) agrees with the Neumann combo on words with at most
    one Clifford factor (its exact domain; see the decisions ledger)."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(313)
    eps = random_constant_eps(rng, s, 0.4)
    tr = Transport(s, eps)
    inv = _neumann_inverse(tr.maps.eps_eps_star)
    combo = s.dual_frame.matmul(inv) - s.frame.matmul(tr.maps.eps_star_matrix.matmul(inv))
    for level in (-s.n, -s.n + 1):
        base = level_spinors(s, level)
        for b in base:
            sigma = scale_spinor(
                b, FourierScalar.constant(s.geometry, s.box, complex(rng.normal(), rng.normal()))
            )
            lhs = tr.inverse(tr.exp_act(sigma))
            rhs = tr.factorwise(combo, sigma)
            assert (lhs - rhs).norm() < 1e-9 * max(1.0, sigma.norm())


def test_neumann_roundtrip(t4):
    rng = np.random.default_rng(315)
    eps = random_constant_eps(rng, t4, 0.5)
    tr = Transport(t4, eps)
    sigma = random_spinor(rng, t4.geometry, t4.box, max_mode=1)
    mid = tr.factorwise(tr.images_one_minus_epseps(), sigma)
    back = tr.factorwise(tr.images_inverse_one_minus_epseps(), mid)
    assert (back - sigma).norm() < 1e-9 * max(1.0, sigma.norm())


@pytest.mark.parametrize("fixture", ["t2", "t4"])
def test_conjugation_formula_lemma(fixture, request):
    """exp(-eps) d(exp(eps) sigma) = (d + [del, eps .]) sigma for constant eps."""
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(317)
    eps = random_constant_eps(rng, s, 0.4)
    assert maurer_cartan_verify(Beltrami(s, {(1, 0): eps}))["integrable"]
    tr = Transport(s, eps)
    for _ in range(3):
        sigma = random_spinor(rng, s.geometry, s.box, max_mode=1)
        lhs = tr.exp_act(twisted_d(tr.exp_act(sigma), s), sign=-1)
        rhs = twisted_d(sigma, s).add(bracket_del_action(s, eps, sigma))
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


@pytest.mark.parametrize("fixture", ["t2", "t4"])
def test_differential_transport_identity(fixture, request):
    """d E(sigma) = exp(eps)(d + [del, eps .])(1 + eps* - eps eps*)(sigma).

    This is the exact form of the differential-transport identity (the
    printed route through E and the Neumann combo collapses to exp(eps)
    exactly where the combo formula is valid; see the decisions ledger).
    """
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(319)
    eps = random_constant_eps(rng, s, 0.4)
    tr = Transport(s, eps)
    # (1 + eps* - eps eps*) and the combo (1 - eps*)(1 - eps eps*)^{-1} on the dual frame
    dressing = tr.maps.eta - s.dual_frame.matmul(tr.maps.eps_eps_star)
    inv = _neumann_inverse(tr.maps.eps_eps_star)
    combo = s.dual_frame.matmul(inv) - s.frame.matmul(tr.maps.eps_star_matrix.matmul(inv))
    for _ in range(3):
        sigma = random_spinor(rng, s.geometry, s.box, max_mode=1)
        dressed = tr.factorwise(dressing, sigma)
        mid = twisted_d(dressed, s).add(bracket_del_action(s, eps, dressed))
        lhs = twisted_d(tr.forward(sigma), s)
        rhs = tr.exp_act(mid)
        assert (lhs - rhs).norm() < 1e-8 * max(1.0, lhs.norm())
    # the literal combo composition agrees at the bottom level, where the
    # intermediate words stay inside the combo formula's exact domain
    for k in (-s.n,):
        sigma = scale_spinor(
            level_spinors(s, k)[0], FourierScalar.mode(s.geometry, s.box, (1,) + (0,) * (s.dim - 1))
        )
        dressed = tr.factorwise(dressing, sigma)
        mid = twisted_d(dressed, s).add(bracket_del_action(s, eps, dressed))
        lhs = twisted_d(tr.forward(sigma), s)
        rhs = tr.forward(tr.factorwise(combo, mid))
        assert (lhs - rhs).norm() < 1e-8 * max(1.0, lhs.norm())


def test_deformed_structure_canonical_and_levels(t2):
    eps = CliffordPoly.constant(t2.dual_frame, (0, 1), 0.3)
    ds = DeformedStructure(t2, eps)
    assert ds.canonical_residual < 1e-9
    assert all(v <= 1e-9 for v in ds.structure.validation.values())
    # transported level-k spinors live at deformed level k
    tr = Transport(t2, eps)
    for k in t2.levels():
        for b in level_spinors(t2, k):
            assert ds.structure.level_of(tr.forward(b)) == k


def test_deformed_context_dies_with_its_last_reference(t2):
    """A Hodge context and its packages form no reference cycle, so the
    deformed-side context of a scan sample is freed without the cyclic
    collector, and a package kept alone still works."""
    import gc
    import weakref

    eps = CliffordPoly.constant(t2.dual_frame, (0, 1), 0.3)
    gc.collect()
    gc.disable()
    try:
        ds = DeformedStructure(t2, eps)
        pk = ds.context.package("dbar")
        ref = weakref.ref(ds.context)
        del ds
        assert ref() is None
        assert {k: pk.kernel_dimension(k) for k in (-1, 0, 1)} == {-1: 1, 0: 2, 1: 1}
    finally:
        gc.enable()


def test_deformed_delbar_of_canonical_vanishes(t2):
    eps = CliffordPoly.constant(t2.dual_frame, (0, 1), 0.3)
    ds = DeformedStructure(t2, eps)
    tr = Transport(t2, eps)
    assert delbar_op(tr.exp_rho0, ds.structure).norm() < 1e-12
    # zero deformation reduces to the base raising operator
    zero = CliffordPoly.zero(t2.dual_frame, 2)
    rng = np.random.default_rng(321)
    sigma = random_spinor(rng, t2.geometry, t2.box, max_mode=1)
    undeformed = DeformedStructure(t2, zero).structure
    assert (delbar_op(sigma, undeformed) - delbar_op(sigma, t2)).norm() < 1e-12


@pytest.mark.parametrize("c", [0.1, 0.3, 0.5])
def test_criterion_proof_identity(t2, c):
    eps = CliffordPoly.constant(t2.dual_frame, (0, 1), c)
    ds = DeformedStructure(t2, eps)
    rng = np.random.default_rng(int(1000 * c))
    sigmas = [random_spinor(rng, t2.geometry, t2.box, max_mode=1) for _ in range(20)]
    for res in holomorphy_residuals(t2, eps, sigmas, deformed=ds):
        assert res["proof_identity_residual"] < 1e-9 * res["scale"]
        lhs_zero = res["lhs_residual"] < 1e-9 * res["scale"]
        rhs_zero = res["rhs_residual"] < 1e-9 * res["scale"]
        assert lhs_zero == rhs_zero


def test_criterion_proof_identity_t4_generic(t4):
    """The criterion identity holds for a generic complex deformation."""
    rng = np.random.default_rng(347)
    eps = random_constant_eps(rng, t4, 0.35)
    ds = DeformedStructure(t4, eps)
    sigmas = [random_spinor(rng, t4.geometry, t4.box, max_mode=1) for _ in range(5)]
    for res in holomorphy_residuals(t4, eps, sigmas, deformed=ds):
        assert res["proof_identity_residual"] < 1e-9 * res["scale"]


def test_criterion_zero_deformation_reduces_to_delbar(t2):
    zero = CliffordPoly.zero(t2.dual_frame, 2)
    rng = np.random.default_rng(323)
    sigma = random_spinor(rng, t2.geometry, t2.box, max_mode=1)
    res = holomorphy_residuals(t2, zero, [sigma])[0]
    want = delbar_op(sigma, t2).norm()
    assert abs(res["rhs_residual"] - want) < 1e-12 * max(1.0, want)
    assert abs(res["lhs_residual"] - want) < 1e-12 * max(1.0, want)


def test_varying_criterion_rhs_under_drop_drops_mass_and_inverts_nothing(monkeypatch):
    """A varying eps's criterion right-hand side calls no Neumann inverse;
    under drop its escaping products lose mass where strict raises, so no
    sample of it can decide a verdict there."""

    def refuse(*args, **kwargs):
        raise AssertionError("Neumann inverse called")

    monkeypatch.setattr(deformation, "_neumann_inverse", refuse)
    for policy in ("drop", "strict"):
        s = GCStructure.complex_structure(1, TruncationBox(1, policy=policy))
        eps = CliffordPoly(
            s.dual_frame, 2, {(0, 1): FourierScalar(s.geometry, s.box, {(1, 0): 0.06})}
        )
        rng = np.random.default_rng(7)
        sigmas = [random_spinor(rng, s.geometry, s.box, max_mode=1) for _ in range(3)]
        if policy == "strict":
            with pytest.raises(TruncationError):
                for sigma in sigmas:
                    deformation._criterion_rhs(Transport(s, eps), sigma)
            continue
        lost = 0.0
        for sigma in sigmas:
            lost += deformation._criterion_rhs(Transport(s, eps), sigma).dropped_mass()
            res = holomorphy_residuals(s, eps, [sigma])[0]
            assert set(res) == {"rhs_residual", "scale"}
            assert np.isfinite(res["rhs_residual"])
        assert lost > 0


def test_beltrami_deformed_holomorphy_on_seed(t2):
    """The transported canonical class is holomorphic for the shear itself."""
    eps = CliffordPoly.constant(t2.dual_frame, (0, 1), 0.3)
    res = holomorphy_residuals(t2, eps, [t2.rho0])[0]
    assert res["rhs_residual"] < 1e-12
    assert res["lhs_residual"] < 1e-12


def test_holomorphy_residuals_builds_one_transport(t2, monkeypatch):
    """A constant eps given without its deformed structure gets that
    structure built first, and its transport is the one used: one Transport
    per call (two when the criterion built its own beside it), and the same
    residuals as when the deformed structure is passed in."""
    calls = []
    init = Transport.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transport, "__init__", counting)
    eps = CliffordPoly.constant(t2.dual_frame, (0, 1), 0.3)
    sigma = random_spinor(np.random.default_rng(5), t2.geometry, t2.box, max_mode=1)
    res = holomorphy_residuals(t2, eps, [sigma])
    assert len(calls) == 1
    ds = DeformedStructure(t2, eps)
    calls.clear()
    assert holomorphy_residuals(t2, eps, [sigma], deformed=ds) == res
    assert calls == []


def _per_sample_residuals(deformed, sigma):
    """The criterion's residuals of one spinor, composed as the criterion
    composed them one sample at a time: the right-hand side, then the
    transport, the deformed delbar and the undressing, each a
    ``FourierMatrix`` or ``Spinor`` operation on that spinor alone."""

    transport = deformed.transport
    rhs = deformation._criterion_rhs(transport, sigma)
    lhs = delbar_op(transport.forward(sigma), deformed.structure)
    identity = lhs.add(transport.forward(transport.undress(rhs)).scale(-1))
    return {
        "rhs_residual": rhs.norm(),
        "lhs_residual": lhs.norm(),
        "proof_identity_residual": identity.norm(),
        "scale": max(1.0, lhs.norm(), rhs.norm()),
    }


def _criterion_cases(n, K, samples):
    """(structure, eps, spinors) for every slot at c = 0.1, 0.3, 0.5 and for
    the zero eps; the spinors are random at the criterion's max mode, then
    rho0."""
    s = GCStructure.complex_structure(n, TruncationBox(K))
    rng = np.random.default_rng(10 * n + K)
    epss = [
        CliffordPoly.constant(s.dual_frame, slot, c)
        for c in (0.1, 0.3, 0.5)
        for slot in itertools.combinations(range(s.dim), 2)
    ]
    for eps in epss + [CliffordPoly.zero(s.dual_frame, 2)]:
        sigmas = [
            random_spinor(rng, s.geometry, s.box, max_mode=max(1, K // 2))
            for _ in range(samples)
        ]
        yield s, eps, sigmas + [s.rho0]


@pytest.mark.parametrize("n, K", [(1, 1), (1, 4), (2, 1), (2, 2)])
def test_stacked_criterion_equals_the_per_sample_composition(n, K):
    """Every key of every sample's dict is bitwise the per-sample one."""
    for s, eps, sigmas in _criterion_cases(n, K, 4):
        ds = DeformedStructure(s, eps)
        got = holomorphy_residuals(s, eps, sigmas, deformed=ds)
        assert got == [_per_sample_residuals(ds, sigma) for sigma in sigmas]


def test_criterion_split_into_runs_equals_one_run(monkeypatch):
    """Samples in several runs, each within a small ``PAIR_CHUNK``, give
    the dicts of one run over all of them."""
    from gentorus import fourier

    runs = []
    real = deformation._constant_criterion

    def counted(transport, structure, sigmas):
        runs.append(len(sigmas))
        return real(transport, structure, sigmas)

    monkeypatch.setattr(deformation, "_constant_criterion", counted)
    for n, K in [(1, 4), (2, 2)]:
        s, eps, sigmas = next(_criterion_cases(n, K, 12))
        ds = DeformedStructure(s, eps)
        whole = holomorphy_residuals(s, eps, sigmas, deformed=ds)
        assert runs == [len(sigmas)]
        runs.clear()
        with monkeypatch.context() as m:
            m.setattr(fourier, "PAIR_CHUNK", 4 ** s.dim * 3)
            assert holomorphy_residuals(s, eps, sigmas, deformed=ds) == whole
        assert len(runs) > 2 and sum(runs) == len(sigmas)
        runs.clear()


def test_mc_verify_constant_and_single_coefficient(t4):
    eps = CliffordPoly.constant(t4.dual_frame, (0, 2), 0.4)
    series = Beltrami(t4, {(1, 0): eps})
    report = maurer_cartan_verify(series)
    assert report["integrable"]
    assert report["worst"] < 1e-14
    # square-zero coefficient stays integrable at all orders
    assert schouten_bracket(eps, eps, t4).is_zero(1e-14)


def test_mc_expand_matches_verify(t4):
    m = GeneralizedMetric.from_tensors(t4.geometry, np.eye(4))
    f1 = FourierScalar.mode(t4.geometry, t4.box, (1, 0, 0, 0), 0.3)
    f2 = FourierScalar.mode(t4.geometry, t4.box, (0, 1, 0, 0), 0.25)
    e10 = CliffordPoly(t4.dual_frame, 2, {(0, 2): f1})
    e01 = CliffordPoly(t4.dual_frame, 2, {(0, 3): f2})
    assert lie_derivation_dL(e10, t4).norm() < 1e-14
    assert schouten_bracket(e10, e01, t4).norm() > 0.1
    series = maurer_cartan_expand(t4, m, {(1, 0): e10, (0, 1): e01}, 4)
    assert (1, 1) in series.coefficients  # the bracket forces a correction
    report = maurer_cartan_verify(series)
    assert report["integrable"]
    assert report["worst"] < 1e-9


def test_mc_residuals_are_computed_once_per_series(t4, monkeypatch):
    """The Maurer-Cartan residuals are computed on the first verification of
    a series and read back by every later one, each judged against its own
    tolerance; every call returns its own residual dict."""
    m = GeneralizedMetric.from_tensors(t4.geometry, np.eye(4))
    f1 = FourierScalar.mode(t4.geometry, t4.box, (1, 0, 0, 0), 0.3)
    f2 = FourierScalar.mode(t4.geometry, t4.box, (0, 1, 0, 0), 0.25)
    e10 = CliffordPoly(t4.dual_frame, 2, {(0, 2): f1})
    e01 = CliffordPoly(t4.dual_frame, 2, {(0, 3): f2})
    series = maurer_cartan_expand(t4, m, {(1, 0): e10, (0, 1): e01}, 3)
    calls = []
    monkeypatch.setattr(
        deformation, "lie_derivation_dL",
        lambda poly, s: calls.append(poly) or lie_derivation_dL(poly, s),
    )
    first = maurer_cartan_verify(series)
    assert len(calls) == len(series.coefficients)
    assert first["integrable"] and first["worst"] > 0.0
    strict = maurer_cartan_verify(series, tol=first["worst"] / 2)
    assert len(calls) == len(series.coefficients)
    assert not strict["integrable"]
    assert strict["residuals"] == first["residuals"]
    first["residuals"].clear()
    assert maurer_cartan_verify(series)["residuals"] == strict["residuals"]


def _pair_series(policy="drop"):
    """Complex T^4 K=2 with eps = t (0.3 e^{2 pi i x0} on slot (0, 2) plus
    0.3 e^{2 pi i x1} on slot (0, 3)): d_L eps_10 = 0, [eps_10, eps_10] != 0."""
    s = GCStructure.complex_structure(2, TruncationBox(2, policy))
    e10 = CliffordPoly(s.dual_frame, 2, {
        (0, 2): FourierScalar.mode(s.geometry, s.box, (1, 0, 0, 0), 0.3),
        (0, 3): FourierScalar.mode(s.geometry, s.box, (0, 1, 0, 0), 0.3),
    })
    return s, Beltrami(s, {(1, 0): e10})


def test_mc_checks_the_orders_without_a_coefficient(monkeypatch):
    """eps = t eps_1 is checked at every order up to 2: at (2, 0) the
    equation reads 0 = 1/2 [eps_1, eps_1], which fails, though eps_1 is
    d_L-closed; d_L runs on the one coefficient only."""
    s, series = _pair_series()
    calls = []
    monkeypatch.setattr(
        deformation, "lie_derivation_dL",
        lambda poly, st: calls.append(poly) or lie_derivation_dL(poly, st),
    )
    report = maurer_cartan_verify(series)
    assert len(calls) == 1
    assert sorted(report["residuals"]) == ["0,1", "0,2", "1,0", "1,1", "2,0"]
    assert report["first_order_closed"] < 1e-15
    half_bracket = 0.5 * schouten_bracket(series.coefficients[(1, 0)],
                                          series.coefficients[(1, 0)], s).norm()
    assert report["residuals"]["2,0"] == pytest.approx(half_bracket, rel=1e-12)
    assert report["residuals"]["2,0"] == pytest.approx(0.09 * np.pi, rel=1e-9)
    assert report["worst"] == report["residuals"]["2,0"]
    assert not report["integrable"] and report["truncation"] is None
    for key in ("1,0", "0,1", "1,1", "0,2"):
        assert report["residuals"][key] < 1e-15


def test_mc_check_on_t2_forms_no_bracket(monkeypatch):
    """On T^2 a bracket of 2-polynomials has degree 3 > 2 and is zero, so the
    check of order (2, 0) forms no product: eps at the edge mode of a
    strict K=1 box is integrable, though eps eps would leave the box."""
    s = GCStructure.complex_structure(1, TruncationBox(1))
    eps = CliffordPoly(s.dual_frame, 2, {(0, 1): FourierScalar.mode(s.geometry, s.box, (1, 0), 0.2)})
    with pytest.raises(TruncationError):
        schouten_bracket(eps, eps, s)
    calls = []
    mul = FourierScalar.mul
    monkeypatch.setattr(FourierScalar, "mul", lambda *a, **k: calls.append(1) or mul(*a, **k))
    report = maurer_cartan_verify(Beltrami(s, {(1, 0): eps}))
    assert report["integrable"] and sorted(report["residuals"]) == ["0,1", "0,2", "1,0", "1,1", "2,0"]
    assert calls == []


def test_mc_orders_above_the_cut_are_truncation():
    """An expansion cut at order 3 is judged through order 3; above it the
    first unmatched order is reported with its residual, the size of what
    was cut, and does not decide integrability."""
    s = GCStructure.complex_structure(2, TruncationBox(3, "drop"))
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(4))
    e10 = CliffordPoly(s.dual_frame, 2, {(0, 2): FourierScalar.mode(s.geometry, s.box, (1, 0, 0, 0), 0.3)})
    e01 = CliffordPoly(s.dual_frame, 2, {(0, 3): FourierScalar.mode(s.geometry, s.box, (0, 1, 0, 0), 0.25)})
    series = maurer_cartan_expand(s, m, {(1, 0): e10, (0, 1): e01}, 3)
    assert series.cut_order == 3 and series.order == 3
    report = maurer_cartan_verify(series)
    assert report["integrable"] and report["worst"] < 1e-15
    assert len(report["residuals"]) == sum(total + 1 for total in range(1, 7))
    trunc = report["truncation"]
    assert trunc["order"] == "1,3"
    assert trunc["residual"] == report["residuals"]["1,3"] == pytest.approx(2.945e-3, rel=1e-3)
    assert maurer_cartan_verify(series, tol=1e-2)["truncation"] is None
    # given in full, the same coefficients are judged at every order
    full = maurer_cartan_verify(Beltrami(s, series.coefficients))
    assert not full["integrable"] and full["truncation"] is None
    assert full["worst"] == full["residuals"]["1,3"]


def test_mc_expand_leaves_no_noise_slots():
    """Every slot of an expanded coefficient carries weight: the raising
    operator is exactly zero off its blocks, so no float noise leaks into
    slots the recursion never fills."""
    s = GCStructure.complex_structure(2, TruncationBox(2))
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(4))
    e10 = CliffordPoly(s.dual_frame, 2, {(0, 2): FourierScalar.mode(s.geometry, s.box, (1, 0, 0, 0), 0.3)})
    e01 = CliffordPoly(s.dual_frame, 2, {(0, 3): FourierScalar.mode(s.geometry, s.box, (0, 1, 0, 0), 0.25)})
    series = maurer_cartan_expand(s, m, {(1, 0): e10, (0, 1): e01}, 3)
    assert (1, 1) in series.coefficients
    for key, poly in series.coefficients.items():
        for slot, f in poly.terms():
            assert f.norm() >= 1e-15 * poly.norm(), (key, slot, f.norm())


def test_mc_expand_rejects_nonclosed_first_order(t4):
    m = GeneralizedMetric.from_tensors(t4.geometry, np.eye(4))
    f = FourierScalar.mode(t4.geometry, t4.box, (0, 1, 0, 0), 1.0)
    bad = CliffordPoly(t4.dual_frame, 2, {(0, 2): f})
    assert lie_derivation_dL(bad, t4).norm() > 0.5
    with pytest.raises(ObstructionError, match="d_L-closed"):
        maurer_cartan_expand(t4, m, {(1, 0): bad}, 3)
