"""Power-series extension solver and the Hodge-number scan."""

import numpy as np
import pytest

from gentorus.deformation import (
    Beltrami,
    Transport,
    extend_closed_form,
    hodge_number_scan,
    maurer_cartan_verify,
)
from gentorus.fourier import FourierScalar, TruncationBox, TruncationError
from gentorus.hodge import HodgeContext, ObstructionError
from gentorus.metric import GeneralizedMetric
from gentorus.spinor import CliffordPoly, Spinor
from gentorus.structure import GCStructure


def make_t2(K):
    s = GCStructure.complex_structure(1, TruncationBox(K))
    m = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(2))
    return s, m, HodgeContext(s, m)


@pytest.fixture(scope="module")
def t2k1():
    return make_t2(1)


@pytest.fixture(scope="module")
def t2k5():
    return make_t2(5)


def constant_series(s, c):
    eps = CliffordPoly.constant(s.dual_frame, (0, 1), c)
    return Beltrami(s, {(1, 0): eps})


def fourier_series(s, c):
    f = FourierScalar.mode(s.geometry, s.box, (1, 0), c)
    return Beltrami(s, {(1, 0): CliffordPoly(s.dual_frame, 2, {(0, 1): f})})


def test_zero_deformation_extends_trivially(t2k1):
    s, m, ctx = t2k1
    series = Beltrami(s, {(1, 0): CliffordPoly.zero(s.dual_frame, 2)})
    ext = extend_closed_form(ctx, series, s.rho0, 3)
    assert list(ext.coefficients) == [(0, 0)]
    assert (ext.dressed_at(0.2) - s.rho0).norm() < 1e-12


def test_constant_eps_zero_tail_and_oracle(t2k1):
    """The classical shear of the canonical class: the dressed series stays
    at order zero and the transported value matches dz - t c dzbar."""
    s, m, ctx = t2k1
    c = 0.4
    series = constant_series(s, c)
    ext = extend_closed_form(ctx, series, s.rho0, 4)
    for key, rec in ext.residuals.items():
        assert rec["equation"] < 1e-9 * rec["scale"]
        if not np.isnan(rec["lowering"]):
            assert rec["lowering"] < 1e-9 * rec["scale"]
    assert list(ext.coefficients) == [(0, 0)]

    t = 0.1
    sigma_t = ext.undressed_at(t)
    transported = Transport(s, series.eps_at(t)).forward(sigma_t)
    # oracle: classical extension dz - t c dzbar, normalized like rho0
    geometry, box = s.geometry, s.box
    expect = Spinor(
        geometry, box,
        {(0,): FourierScalar.constant(geometry, box, (1 - t * c) / np.sqrt(2)),
         (1,): FourierScalar.constant(geometry, box, 1j * (1 + t * c) / np.sqrt(2))},
    )
    assert (transported - expect).norm() < 1e-10
    for tv in (0.02, 0.05, 0.1):
        assert ext.criterion_residual_at(tv) < 1e-12


def fit_exponent(ext, ts):
    res = [ext.criterion_residual_at(t) for t in ts]
    scale = max(1.0, ext.coefficients[(0, 0)].norm())
    if all(r < 1e-12 * scale for r in res):
        return None, res  # below noise floor: decay bound vacuously satisfied
    slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
    return slope, res


def test_fourier_eps_regression_exponent(t2k5):
    """Nonzero tail: assembled residual decays like |t|^{N+1}."""
    s, m, ctx = t2k5
    order = 4
    series = fourier_series(s, 0.4)
    assert maurer_cartan_verify(series)["integrable"]
    ext = extend_closed_form(ctx, series, s.rho0, order)
    assert sorted(ext.coefficients) == [(k, 0) for k in range(order + 1)]
    for key, rec in ext.residuals.items():
        assert rec["equation"] < 1e-9 * rec["scale"]
    slope, res = fit_exponent(ext, [0.02, 0.05, 0.1])
    assert slope is not None and slope >= order + 0.5
    # one order lower decays one power slower
    ext3 = extend_closed_form(ctx, series, s.rho0, 3)
    slope3, _ = fit_exponent(ext3, [0.02, 0.05, 0.1])
    assert slope3 is not None and order - 0.5 <= slope3 < order + 0.75

    # consistency of two independent compositions: undressing the series and
    # feeding it to the criterion reproduces the dressed residual
    from gentorus.deformation import holomorphy_residuals
    t = 0.05
    sigma_t = ext.undressed_at(t)
    res_c = holomorphy_residuals(s, series.eps_at(t), [sigma_t])[0]
    dressed = ext.criterion_residual_at(t)
    assert abs(res_c["rhs_residual"] - dressed) < 1e-10 * max(1.0, dressed)


def test_variant_agreement_per_order(t2k5):
    """The two solver variants produce dbar-cohomologous coefficients."""
    s, m, ctx = t2k5
    series = fourier_series(s, 0.4)
    ext_a = extend_closed_form(ctx, series, s.rho0, 3, variant="standard")
    ext_b = extend_closed_form(ctx, series, s.rho0, 3, variant="h_vanishing")
    pk = ctx.package("dbar")
    keys = set(ext_a.coefficients) | set(ext_b.coefficients)
    zero = Spinor.zero(s.geometry, s.box)
    for key in sorted(keys):
        diff = ext_a.coefficients.get(key, zero) - ext_b.coefficients.get(key, zero)
        scale = max(1.0, ext_a.coefficients.get(key, zero).norm())
        assert pk.harmonic(diff).norm() < 1e-9 * scale
        exact_part = ctx.apply("dbar", ctx.apply("dbar_adj", pk.green(diff)))
        assert (diff - exact_part).norm() < 1e-9 * scale


def test_h_vanishing_variant_residuals(t2k5):
    """Single-equation variant: dbar sigma~ equals the full driving term."""
    s, m, ctx = t2k5
    series = fourier_series(s, 0.3)
    ext = extend_closed_form(ctx, series, s.rho0, 3, variant="h_vanishing")
    assert ext.class_checks["h_upper"]["kind"] == "h_vanishing"
    for key, rec in ext.residuals.items():
        assert rec["equation"] < 1e-9 * rec["scale"]
    # verify the defining equation directly at one order
    sig10 = ext.coefficients[(1, 0)]
    eps10 = series.coefficients[(1, 0)]
    tau = ctx.apply("del", eps10.act(ext.coefficients[(0, 0)])).scale(-1).add(
        eps10.act(ctx.apply("del", ext.coefficients[(0, 0)]))
    )
    assert (ctx.apply("dbar", sig10) - tau).norm() < 1e-9


def make_twisted_t4():
    from gentorus.fourier import TorusGeometry
    box = TruncationBox(2)
    g4 = TorusGeometry(2)
    H = Spinor.constant_form(g4, box, (0, 1, 2), 1.0)
    s = GCStructure.complex_structure(2, box, twist=H)
    m = GeneralizedMetric.from_tensors(g4, box, np.eye(4))
    return s, m, HodgeContext(s, m)


def test_twisted_t4_extension_and_class_obstruction():
    """On the twisted background the solver extends the levels whose class
    conditions hold and refuses the ones whose conditions genuinely fail."""
    s, m, ctx = make_twisted_t4()
    f = FourierScalar.mode(s.geometry, s.box, (1, 0, 0, 0), 0.3)
    eps = CliffordPoly(s.dual_frame, 2, {(0, 2): f})
    series = Beltrami(s, {(1, 0): eps})
    assert maurer_cartan_verify(series)["integrable"]
    pk = ctx.package("dbar")
    assert {k: pk.kernel_dimension(k) for k in s.levels()} == {-2: 1, -1: 3, 0: 4, 1: 3, 2: 1}

    # level -1: class conditions hold; a seed picks up genuine corrections
    seed = pk.harmonic_basis(-1)[0]
    ext = extend_closed_form(ctx, series, seed, 2)
    assert (1, 0) in ext.coefficients and (2, 0) in ext.coefficients
    for rec in ext.residuals.values():
        assert rec["equation"] < 1e-9 * rec["scale"]
        if not np.isnan(rec["lowering"]):
            assert rec["lowering"] < 1e-9 * rec["scale"]

    # level 0 requires the del-exactness class one level down, which the
    # twist breaks: the solver must refuse, not project silently
    assert not ctx.class_check("B_k", -1)["holds"]
    with pytest.raises(ObstructionError, match="class condition"):
        extend_closed_form(ctx, series, pk.harmonic_basis(0)[0], 2)


def test_seed_must_be_harmonic(t2k1):
    s, m, ctx = t2k1
    series = constant_series(s, 0.2)
    bad_seed = ctx.apply("dbar", s.level_spinors(-1)[0].scale_scalar(
        FourierScalar.mode(s.geometry, s.box, (1, 0))
    ))
    with pytest.raises(ObstructionError, match="harmonic"):
        extend_closed_form(ctx, series, bad_seed, 2)


def test_nonintegrable_series_aborts():
    """A first-order coefficient violating the integrability equation must
    stop the solver with an obstruction, never pass silently."""
    box = TruncationBox(2)
    s = GCStructure.complex_structure(2, box)
    m = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(4))
    ctx = HodgeContext(s, m)
    f = FourierScalar.mode(s.geometry, s.box, (0, 1, 0, 0), 1.0)
    bad = CliffordPoly(s.dual_frame, 2, {(0, 2): f})
    series = Beltrami(s, {(1, 0): bad})
    report = maurer_cartan_verify(series)
    assert not report["integrable"]
    assert report["worst"] > 0.5  # order-one defect
    with pytest.raises(ObstructionError, match="Maurer-Cartan"):
        extend_closed_form(ctx, series, s.rho0, 2)


def test_truncation_error_propagates():
    """A box too small for the driving products fails loudly under strict."""
    s, m, ctx = make_t2(1)
    series = fourier_series(s, 0.4)
    with pytest.raises(TruncationError):
        extend_closed_form(ctx, series, s.rho0, 3)


def test_majorant_diagnostic(t2k5):
    s, m, ctx = t2k5
    series = fourier_series(s, 0.4)
    ext = extend_closed_form(ctx, series, s.rho0, 4)
    mj = ext.majorant
    assert mj["beta"] == pytest.approx(16.0 * ext.coefficients[(1, 0)].norm())
    assert mj["gamma"] > 0
    assert 0 < mj["radius_estimate"] < np.inf
    assert mj["square_domination"]
    # zero-tail series reports an infinite radius
    s1, m1, ctx1 = make_t2(1)
    ext0 = extend_closed_form(ctx1, constant_series(s1, 0.3), s1.rho0, 3)
    assert ext0.majorant["radius_estimate"] == np.inf


def test_scan_constancy_and_ranks(t2k1):
    s, m, ctx = t2k1
    series = constant_series(s, 0.3)
    report = hodge_number_scan(ctx, series, [0.0, 0.05, 0.1, 0.15], order=2)
    assert report["base_dims"] == {-1: 1, 0: 2, 1: 1}
    for row in report["rows"]:
        assert row["dims"] == {-1: 1, 0: 2, 1: 1}
        assert row["injectivity_rank"] == {-1: 1, 0: 2, 1: 1}
    assert all(report["constant"].values())


def test_scan_builds_one_transport_per_sample(t2k1, monkeypatch):
    """Each nonzero sample t builds one transport, the deformed structure's,
    and no word matrix: forward o undress is the canonical-generator ratio
    times the deformed level matrix times the undeformed inverse, so the
    inverse-dressing images are never computed; t = 0 builds none."""
    s, m, ctx = t2k1
    calls = {"init": 0, "images": 0, "words": 0}
    init, images = Transport.__init__, Transport.images_inverse_one_minus_epseps
    words = Transport.word_matrix

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_images(self):
        calls["images"] += 1
        return images(self)

    def counted_words(self, *args, **kwargs):
        calls["words"] += 1
        return words(self, *args, **kwargs)

    monkeypatch.setattr(Transport, "__init__", counted_init)
    monkeypatch.setattr(Transport, "images_inverse_one_minus_epseps", counted_images)
    monkeypatch.setattr(Transport, "word_matrix", counted_words)
    report = hodge_number_scan(ctx, constant_series(s, 0.3), [0.0, 0.05, 0.1, 0.15], order=2)
    assert all(row["injectivity_rank"] == {-1: 1, 0: 2, 1: 1} for row in report["rows"])
    assert calls == {"init": 3, "images": 0, "words": 0}


def test_scan_t4(t2k1):
    """Invariance scan on the larger torus: binomial dimensions at every
    sample and full transport ranks."""
    box = TruncationBox(1)
    s = GCStructure.complex_structure(2, box)
    m = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(4))
    ctx = HodgeContext(s, m)
    eps = CliffordPoly.constant(s.dual_frame, (0, 2), 0.3)
    series = Beltrami(s, {(1, 0): eps})
    import math
    want = {k: math.comb(4, k + 2) for k in s.levels()}
    report = hodge_number_scan(ctx, series, [0.0, 0.1], order=1)
    for row in report["rows"]:
        assert row["dims"] == want
        assert row["injectivity_rank"] == want
    assert all(report["constant"].values())


def test_scan_rejects_fourier_series(t2k5):
    s, m, ctx = t2k5
    series = fourier_series(s, 0.3)
    from gentorus.deformation import DeformationError
    with pytest.raises(DeformationError, match="constant"):
        hodge_number_scan(ctx, series, [0.0, 0.1])
