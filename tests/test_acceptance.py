"""Acceptance gate: the ten top-level criteria, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines; every criterion asserts at its stated tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from gentorus.calculus import twisted_d
from gentorus.deformation import (
    Beltrami,
    DeformedStructure,
    Transport,
    extend_closed_form,
    frame_block_matrices,
    hodge_number_scan,
    holomorphy_residuals,
    maurer_cartan_verify,
    bracket_del_action,
)
from gentorus.diagnostics import (
    calculus_suite,
    clifford_suite,
    hodge_suite,
    hodge_table,
    structure_suite,
)
from gentorus.fourier import FourierScalar, TorusGeometry, TruncationBox
from gentorus.hodge import HodgeContext
from gentorus.metric import GeneralizedMetric
from gentorus.scenario import exit_code_for, run_scenario
from gentorus.spinor import CliffordPoly, Spinor, random_spinor
from gentorus.structure import GCStructure


def report(number: int, passed: bool, detail: str):
    mark = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {mark} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def t2():
    s = GCStructure.complex_structure(1, TruncationBox(1))
    m = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(2))
    return s, m, HodgeContext(s, m)


@pytest.fixture(scope="module")
def t4():
    s = GCStructure.complex_structure(2, TruncationBox(1))
    m = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(4))
    return s, m, HodgeContext(s, m)


def omega_standard(n):
    dim = 2 * n
    om = np.zeros((dim, dim))
    for j in range(n):
        om[j, n + j] = 1.0
        om[n + j, j] = -1.0
    return om


def test_criterion_01_clifford_relation():
    """Clifford-relation suite on T2 and T4, 100 random triples each regime."""
    worst = {}
    for n in (1, 2):
        geometry = TorusGeometry(n)
        box = TruncationBox(3)
        for e in clifford_suite(geometry, box, seed=41, samples=100):
            worst[f"T{2*n}:{e['name']}"] = (e["value"], e["tolerance"], e["passed"])
    ok = all(v[2] for v in worst.values())
    detail = ", ".join(f"{k} {v[0]:.1e}<={v[1]:.0e}" for k, v in worst.items())
    report(1, ok, detail)


def test_criterion_02_structure_validation():
    """Complex, symplectic and b-transformed structures on T2 and T4."""
    box = TruncationBox(1)
    results = []
    for n in (1, 2):
        dim = 2 * n
        b = np.zeros((dim, dim))
        b[0, 1] = 0.7
        b[1, 0] = -0.7
        structures = [
            GCStructure.complex_structure(n, box),
            GCStructure.symplectic_structure(omega_standard(n), box),
            GCStructure.complex_structure(n, box).b_transform(b),
        ]
        for s in structures:
            worst = max(structure_suite(s, tol=1e-12), key=lambda e: e["value"])
            results.append((s.label, worst["value"], worst["passed"]))
    ok = all(r[2] for r in results)
    report(2, ok, ", ".join(f"{label} {val:.1e}" for label, val, _ in results))


def test_criterion_03_calculus_identities(t2, t4):
    """d_H^2, the Dolbeault split, the Leibniz rule and the bracket identity."""
    entries = []
    H = Spinor.constant_form(TorusGeometry(2), TruncationBox(1), (0, 1, 2), 1.0)
    twisted = GCStructure.complex_structure(2, TruncationBox(1), twist=H)
    for s in (t2[0], t4[0], twisted):
        entries.extend(calculus_suite(s, seed=43))
    ok = all(e["passed"] for e in entries)
    worst = max(entries, key=lambda e: e["value"] / max(e["tolerance"], 1e-300))
    report(3, ok, f"worst {worst['name']} = {worst['value']:.1e} (tol {worst['tolerance']:.0e})")


def test_criterion_04_hodge_suite(t2, t4):
    """Hodge identities, kernel characterizations, decompositions, and the
    eight Laplacian/Green commutation identities."""
    entries = []
    for _, _, ctx in (t2, t4):
        entries.extend(hodge_suite(ctx, seed=47))
    ok = all(e["passed"] for e in entries)
    worst = max(entries, key=lambda e: e["value"] / max(e["tolerance"], 1e-300))
    report(4, ok, f"{len(entries)} checks, worst {worst['name']} = {worst['value']:.1e}")


def test_criterion_05_torus_hodge_numbers(t2, t4):
    """T2 reports (1, 2, 1) with the ddbar lemma; T4 reports C(4, k+2)."""
    _, _, ctx2 = t2
    _, _, ctx4 = t4
    pk2, pk4 = ctx2.package("dbar"), ctx4.package("dbar")
    dims2 = {k: pk2.kernel_dimension(k) for k in ctx2.structure.levels()}
    table2 = hodge_table(ctx2)
    lemma2 = all(v["ddbar_lemma"] for v in table2["class_checks"].values())
    dims4 = {k: pk4.kernel_dimension(k) for k in ctx4.structure.levels()}
    want4 = {k: math.comb(4, k + 2) for k in ctx4.structure.levels()}
    from test_hodge import brute_force_kernel_dims
    oracle2 = brute_force_kernel_dims(ctx2)
    oracle4 = brute_force_kernel_dims(ctx4)
    ok = (
        dims2 == {-1: 1, 0: 2, 1: 1}
        and lemma2
        and dims4 == want4
        and oracle2 == dims2
        and oracle4 == dims4
    )
    report(5, ok, f"T2 {dims2} ddbar={lemma2}, T4 {dims4} (oracle agrees)")


def test_criterion_06_deformation_algebra_suite(t4):
    """Frame-block inverse, transport round-trips, dressing identities,
    the differential-transport identity, and the conjugation formula."""
    s4 = t4[0]
    s2 = GCStructure.complex_structure(1, TruncationBox(3))
    rng = np.random.default_rng(53)

    def random_eps(s, norm):
        coeffs = {
            key: FourierScalar.constant(
                s.geometry, s.box, complex(rng.normal(), rng.normal())
            )
            for key in itertools.combinations(range(s.dim), 2)
        }
        eps = CliffordPoly(s.dual_frame, 2, coeffs)
        mat = np.zeros((s.dim, s.dim), dtype=complex)
        for i in range(s.dim):
            for p in range(s.dim):
                mat[i, p] = eps.coefficient((i, p)).integrate()
        return eps.scale(norm / max(np.linalg.norm(mat, 2), 1e-12))

    worst_inverse = 0.0
    for trial in range(50):
        s = s2 if trial % 2 else s4
        eps = random_eps(s, 0.5 if trial % 3 else 0.3)
        fb = frame_block_matrices(s, eps)
        worst_inverse = max(worst_inverse, fb["residuals"]["inverse"])
    ok = worst_inverse < 1e-10

    worst_round = 0.0
    worst_dressing = 0.0
    worst_combo = 0.0
    worst_transport = 0.0
    worst_conjugation = 0.0
    for s in (s2, s4):
        eps = random_eps(s, 0.4)
        tr = Transport(s, eps)
        for _ in range(5):
            sigma = random_spinor(rng, s.geometry, s.box, max_mode=1)
            scale = max(1.0, sigma.norm())
            worst_round = max(
                worst_round,
                (tr.inverse(tr.forward(sigma)) - sigma).norm() / scale,
                (tr.exp_act(tr.exp_act(sigma), sign=-1) - sigma).norm() / scale,
            )
            lhs = tr.exp_act(tr.forward(sigma), sign=-1)
            rhs = tr.factorwise(tr.images_one_plus_star_minus_epseps(), sigma)
            worst_dressing = max(worst_dressing, (lhs - rhs).norm() / scale)
            dressed = tr.factorwise(tr.images_one_plus_star_minus_epseps(), sigma)
            mid = twisted_d(dressed, s).add(bracket_del_action(s, eps, dressed))
            lhs6 = twisted_d(tr.forward(sigma), s)
            worst_transport = max(
                worst_transport, (lhs6 - tr.exp_act(mid)).norm() / max(1.0, lhs6.norm())
            )
            lhs22 = tr.exp_act(twisted_d(tr.exp_act(sigma), s), sign=-1)
            rhs22 = twisted_d(sigma, s).add(bracket_del_action(s, eps, sigma))
            worst_conjugation = max(
                worst_conjugation, (lhs22 - rhs22).norm() / max(1.0, lhs22.norm())
            )
        # the inverse-transport combo on its exact domain (bottom two levels)
        combo = tr.images_inverse_combo()
        for level in (-s.n, -s.n + 1):
            for b in s.level_spinors(level):
                sigma = b.scale_scalar(
                    FourierScalar.mode(s.geometry, s.box, (1,) + (0,) * (s.dim - 1))
                )
                lhs35 = tr.inverse(tr.exp_act(sigma))
                rhs35 = tr.factorwise(combo, sigma)
                worst_combo = max(
                    worst_combo, (lhs35 - rhs35).norm() / max(1.0, sigma.norm())
                )
    ok = (
        ok
        and worst_round < 1e-10
        and worst_dressing < 1e-9
        and worst_combo < 1e-9
        and worst_transport < 1e-8
        and worst_conjugation < 1e-9
    )
    report(
        6,
        ok,
        f"block inverse {worst_inverse:.1e}, roundtrips {worst_round:.1e}, "
        f"dressing {worst_dressing:.1e}, inverse-combo {worst_combo:.1e}, "
        f"differential transport {worst_transport:.1e}, conjugation {worst_conjugation:.1e}",
    )


def test_criterion_07_holomorphy_criterion():
    """Deformed-side and undeformed-side expressions vanish together."""
    s = GCStructure.complex_structure(1, TruncationBox(2))
    worst = 0.0
    agree = True
    for c in (0.1, 0.3, 0.5):
        eps = CliffordPoly.constant(s.dual_frame, (0, 1), c)
        ds = DeformedStructure(s, eps)
        rng = np.random.default_rng(int(100 * c))
        sigmas = [random_spinor(rng, s.geometry, s.box, max_mode=1) for _ in range(20)]
        for res in holomorphy_residuals(s, eps, sigmas, deformed=ds):
            worst = max(worst, res["proof_identity_residual"] / res["scale"])
            lhs_zero = res["lhs_residual"] < 1e-9 * res["scale"]
            rhs_zero = res["rhs_residual"] < 1e-9 * res["scale"]
            agree = agree and (lhs_zero == rhs_zero)
    ok = worst < 1e-9 and agree
    report(7, ok, f"proof identity {worst:.1e}, covanish={agree}")


def test_criterion_08_extension_solver():
    """Order-4 extension of the canonical class on T2: per-order residuals,
    decay of the assembled residual, and agreement of the two variants."""
    order = 4
    s = GCStructure.complex_structure(1, TruncationBox(order + 1))
    m = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(2))
    ctx = HodgeContext(s, m)

    c = 0.4
    details = []
    ok = True
    for tag, series in (
        ("constant", Beltrami(s, {(1, 0): CliffordPoly.constant(s.dual_frame, (0, 1), c)})),
        (
            "fourier",
            Beltrami(
                s,
                {(1, 0): CliffordPoly(
                    s.dual_frame, 2,
                    {(0, 1): FourierScalar.mode(s.geometry, s.box, (1, 0), c)},
                )},
            ),
        ),
    ):
        ext_std = extend_closed_form(ctx, series, s.rho0, order, variant="standard")
        ext_alt = extend_closed_form(ctx, series, s.rho0, order, variant="h_vanishing")
        per_order = max(
            max(r["equation"], 0.0 if np.isnan(r.get("lowering", np.nan)) else r["lowering"])
            / r["scale"]
            for r in ext_std.residuals.values()
        )
        ok = ok and per_order < 1e-9
        ts = [0.02, 0.05, 0.1]
        res = [ext_std.criterion_residual_at(t) for t in ts]
        scale = max(1.0, ext_std.coefficients[(0, 0)].norm())
        if all(r < 1e-12 * scale for r in res):
            decay = "noise floor"
        else:
            slope = float(np.polyfit(np.log(ts), np.log(res), 1)[0])
            ok = ok and slope >= order + 0.5
            decay = f"exponent {slope:.2f}"
        pk = ctx.package("dbar")
        zero = Spinor.zero(s.geometry, s.box)
        class_diff = 0.0
        for key in set(ext_std.coefficients) | set(ext_alt.coefficients):
            diff = ext_std.coefficients.get(key, zero) - ext_alt.coefficients.get(key, zero)
            cscale = max(1.0, ext_std.coefficients.get(key, zero).norm())
            class_diff = max(class_diff, pk.harmonic(diff).norm() / cscale)
            exact_part = ctx.apply("dbar", ctx.apply("dbar_adj", pk.green(diff)))
            class_diff = max(class_diff, (diff - exact_part).norm() / cscale)
        ok = ok and class_diff < 1e-9
        details.append(f"{tag}: per-order {per_order:.1e}, {decay}, variants {class_diff:.1e}")
    report(8, ok, "; ".join(details))


def test_criterion_09_hodge_number_invariance():
    """Scan over four samples: constant dimensions and full injectivity rank."""
    s = GCStructure.complex_structure(1, TruncationBox(1))
    m = GeneralizedMetric.from_tensors(s.geometry, s.box, np.eye(2))
    ctx = HodgeContext(s, m)
    series = Beltrami(s, {(1, 0): CliffordPoly.constant(s.dual_frame, (0, 1), 0.3)})
    scan = hodge_number_scan(ctx, series, [0.0, 0.05, 0.1, 0.15], order=2)
    constant = all(scan["constant"].values())
    ranks_ok = all(
        row["injectivity_rank"][k] == scan["base_dims"][k]
        for row in scan["rows"]
        for k in scan["levels"]
    )
    ok = constant and ranks_ok
    report(9, ok, f"dims constant={constant}, injectivity ranks full={ranks_ok}")


def test_criterion_10_negative_control():
    """A non-integrable deformation aborts with a finding, exit code 2."""
    config = {
        "name": "negative-control",
        "torus": {"n": 2, "K": 2},
        "structure": {"type": "complex"},
        "deformation": {
            "coefficients": {
                "1,0": {
                    "terms": {
                        "0,2": {"modes": [{"k": [0, 1, 0, 0], "c": [1.0, 0]}]}
                    }
                }
            }
        },
        "experiments": [
            {"kind": "extend", "level": -2, "sigma00": 0, "order": 2}
        ],
    }
    # the defect itself is order one
    s = GCStructure.complex_structure(2, TruncationBox(2))
    bad = CliffordPoly(
        s.dual_frame, 2,
        {(0, 2): FourierScalar.mode(s.geometry, s.box, (0, 1, 0, 0), 1.0)},
    )
    mc = maurer_cartan_verify(Beltrami(s, {(1, 0): bad}))
    magnitude_ok = not mc["integrable"] and mc["worst"] > 0.5

    report_doc, _ = run_scenario(config)
    code = exit_code_for(report_doc)
    aborted = report_doc["experiments"][0]["status"] == "finding"
    ok = magnitude_ok and code == 2 and aborted
    report(10, ok, f"mc residual {mc['worst']:.2f}, exit code {code}, aborted={aborted}")
