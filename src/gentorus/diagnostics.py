"""Residual suites: every identity the machinery is supposed to satisfy.

Each check returns an entry dict carrying the measured value and the
tolerance it was judged against, so reports stay auditable.  The suites are
shared by the test battery and the scenario runner.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

from .calculus import (
    del_op,
    delbar_op,
    lie_derivation_dL,
    schouten_bracket,
    twisted_d,
)
from .fourier import TorusGeometry, TruncationBox
from .hodge import CHECK_KINDS, HodgeContext, _adjoint, _basis_rank, _null_basis, _range_basis
from .spinor import (
    CliffordPoly,
    clifford_act,
    pairing,
    random_courant_vector,
    random_fourier_scalar,
    random_spinor,
)
from .structure import GCStructure


def entry(name: str, value: float, tolerance: float) -> Dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(value <= tolerance),
    }


def clifford_suite(
    geometry: TorusGeometry,
    box: TruncationBox,
    seed: int = 0,
    samples: int = 100,
) -> List[Dict]:
    """Clifford relation residuals over random triples.

    The Fourier half needs a no-truncation regime: small boxes are embedded
    in one wide enough for the triple products.
    """
    rng = np.random.default_rng(seed)
    if box.K < 3:
        box = TruncationBox(3, policy="strict")
    worst_const = 0.0
    worst_fourier = 0.0
    for _ in range(samples):
        a = random_courant_vector(rng, geometry, box, constant=True)
        b = random_courant_vector(rng, geometry, box, constant=True)
        sigma = random_spinor(rng, geometry, box, max_mode=0)
        lhs = clifford_act(a, clifford_act(b, sigma)) + clifford_act(b, clifford_act(a, sigma))
        rhs = sigma.scale_scalar(pairing(a, b))
        scale = max(1.0, a.norm() * b.norm() * sigma.norm())
        worst_const = max(worst_const, (lhs - rhs).norm() / scale)
    mm = max(1, box.K // 3)
    for _ in range(samples):
        a = random_courant_vector(rng, geometry, box, max_mode=mm)
        b = random_courant_vector(rng, geometry, box, max_mode=mm)
        sigma = random_spinor(rng, geometry, box, max_mode=mm)
        lhs = clifford_act(a, clifford_act(b, sigma)) + clifford_act(b, clifford_act(a, sigma))
        rhs = sigma.scale_scalar(pairing(a, b))
        scale = max(1.0, a.norm() * b.norm() * sigma.norm())
        worst_fourier = max(worst_fourier, (lhs - rhs).norm() / scale)
    return [
        entry("clifford_relation_constant", worst_const, 1e-12),
        entry("clifford_relation_fourier", worst_fourier, 1e-9),
    ]


def structure_suite(structure: GCStructure, tol: float = 1e-12) -> List[Dict]:
    return [
        entry(f"structure_{name}", value, tol)
        for name, value in structure.validation.items()
    ]


def calculus_suite(structure: GCStructure, seed: int = 0, samples: int = 5) -> List[Dict]:
    rng = np.random.default_rng(seed)
    if structure.box.K < 4:
        # the bracket identity multiplies up to four Fourier factors;
        # run the suite in an embedded no-truncation box
        structure = structure.rebox(TruncationBox(4, policy="strict"))
    geometry, box = structure.geometry, structure.box
    mm = 1

    dd = 0.0
    split = 0.0
    leibniz = 0.0
    bracket = 0.0
    for _ in range(samples):
        sigma = random_spinor(rng, geometry, box, max_mode=mm)
        scale = max(1.0, sigma.norm())
        dd = max(dd, twisted_d(twisted_d(sigma, structure), structure).norm() / scale)
        for k in structure.levels():
            part = structure.project_level(sigma, k)
            if part.is_zero(1e-13):
                continue
            resid = (
                twisted_d(part, structure)
                - del_op(part, structure)
                - delbar_op(part, structure)
            ).norm()
            split = max(split, resid / max(1.0, part.norm()))

        degree = 2
        coeffs = {
            key: random_fourier_scalar(rng, geometry, box, mm, 1)
            for key in itertools.combinations(range(structure.dim), degree)
        }
        a = CliffordPoly(structure.dual_frame, degree, coeffs)
        rho = random_spinor(rng, geometry, box, max_mode=mm)
        lhs = delbar_op(a.act(rho), structure)
        rhs = lie_derivation_dL(a, structure).act(rho).add(
            a.act(delbar_op(rho, structure)).scale((-1) ** degree)
        )
        leibniz = max(leibniz, (lhs - rhs).norm() / max(1.0, lhs.norm()))

        coeffs_b = {
            key: random_fourier_scalar(rng, geometry, box, mm, 1)
            for key in itertools.combinations(range(structure.dim), 2)
        }
        b = CliffordPoly(structure.dual_frame, 2, coeffs_b)
        br = schouten_bracket(a, b, structure)
        lhs2 = br.act(sigma)
        rhs2 = (
            a.act(twisted_d(b.act(sigma), structure))
            .add(b.act(twisted_d(a.act(sigma), structure)))
            .add(a.act(b.act(twisted_d(sigma, structure))).scale(-1))
            .add(twisted_d(a.act(b.act(sigma)), structure).scale(-1))
        )
        bracket = max(bracket, (lhs2 - rhs2).norm() / max(1.0, lhs2.norm()))

    return [
        entry("twisted_d_squared", dd, 1e-12),
        entry("d_equals_del_plus_delbar", split, 1e-9),
        entry("algebroid_leibniz", leibniz, 1e-9),
        entry("bracket_derived_identity", bracket, 1e-9),
    ]


def _matrix_identities(ctx: HodgeContext) -> List[Dict]:
    worst = {"del_squared": 0.0, "dbar_squared": 0.0, "anticommute": 0.0, "d_split": 0.0}
    for mode in ctx.modes:
        dl = ctx.operator_matrix("del", mode)
        db = ctx.operator_matrix("dbar", mode)
        d = ctx.operator_matrix("d", mode)
        scale = max(1.0, np.abs(d).max()) ** 2
        worst["del_squared"] = max(worst["del_squared"], np.abs(dl @ dl).max() / scale)
        worst["dbar_squared"] = max(worst["dbar_squared"], np.abs(db @ db).max() / scale)
        worst["anticommute"] = max(worst["anticommute"], np.abs(dl @ db + db @ dl).max() / scale)
        worst["d_split"] = max(worst["d_split"], np.abs(d - dl - db).max() / max(1.0, np.abs(d).max()))
    return [entry(k, v, 1e-9) for k, v in worst.items()]


def _adjointness(ctx: HodgeContext, rng: np.random.Generator, samples: int = 5) -> List[Dict]:
    worst = {"del": 0.0, "dbar": 0.0, "d": 0.0}
    mm = max(1, ctx.box.K // 2)
    for _ in range(samples):
        alpha = random_spinor(rng, ctx.geometry, ctx.box, max_mode=mm)
        beta = random_spinor(rng, ctx.geometry, ctx.box, max_mode=mm)
        scale = max(1e-12, ctx.bi_norm(alpha) * ctx.bi_norm(beta))
        for name in worst:
            lhs = ctx.bi_inner(ctx.apply(name, alpha), beta)
            rhs = ctx.bi_inner(alpha, ctx.apply(name + "_adj", beta))
            worst[name] = max(worst[name], abs(lhs - rhs) / scale)
    return [entry(f"adjointness_{k}", v, 1e-9) for k, v in worst.items()]


def _hodge_identities(ctx: HodgeContext) -> List[Dict]:
    out = []
    for kind in ("dbar", "bc", "aeppli", "d", "del"):
        out.append(entry(f"hodge_identity_{kind}", ctx.identity_residual(kind), 1e-9))
    return out


def _kernel_characterizations(ctx: HodgeContext) -> List[Dict]:
    """Kernel and orthogonal-decomposition facts for the BC and Aeppli kinds.

    Every basis is a stack over the modes, zero-padded past its rank, so
    dimensions are counted as nonzero columns.
    """
    out = []
    size = ctx.size
    dl, db, t = ctx._stack("del"), ctx._stack("dbar"), ctx._stack("deldbar")
    for kind in ("bc", "aeppli"):
        pk = ctx.package(kind)
        if kind == "bc":
            stack = np.concatenate([dl, db, _adjoint(t)], axis=1)
            second = _range_basis(t)
            third = _range_basis(np.concatenate([_adjoint(dl), _adjoint(db)], axis=2))
        else:
            stack = np.concatenate([_adjoint(dl), _adjoint(db), t], axis=1)
            second = _range_basis(_adjoint(t))
            third = _range_basis(np.concatenate([dl, db], axis=2))
        null = _null_basis(stack)
        hmat = pk._spectra.matrix(slice(None), pk._spectra.harmonic_weights)
        hbasis = _range_basis(hmat)
        hdim = _basis_rank(hbasis)
        dim_mismatch = int(np.sum(hdim != _basis_rank(null)))
        containment = float(np.abs(null - hmat @ null).max())
        total = hdim + _basis_rank(second) + _basis_rank(third)
        decomp_dim_defect = int(np.sum(np.abs(total - size)))
        orth = max(
            float(np.abs(_adjoint(a) @ b).max())
            for a, b in ((hbasis, second), (second, third), (hbasis, third))
        )
        out.append(entry(f"kernel_characterization_dim_{kind}", dim_mismatch, 0.0))
        out.append(entry(f"kernel_containment_{kind}", containment, 1e-9))
        out.append(entry(f"decomposition_dims_{kind}", decomp_dim_defect, 0.0))
        out.append(entry(f"decomposition_orthogonal_{kind}", orth, 1e-9))
    return out


def _green_commutation(ctx: HodgeContext) -> List[Dict]:
    """The eight Laplacian/Green commutation identities as matrix equations."""
    worst = {f"green_identity_{i}": 0.0 for i in range(1, 9)}
    bc = ctx.package("bc")
    ae = ctx.package("aeppli")
    every = slice(None)
    laps = zip(ctx.modes, ctx._laplacian("bc", every), ctx._laplacian("aeppli", every))
    for mode, lbc, la in laps:
        dl = ctx.operator_matrix("del", mode)
        db = ctx.operator_matrix("dbar", mode)
        t = dl @ db                      # level-preserving double operator
        t2 = db @ dl
        gbc = bc.green_matrix(mode)
        ga = ae.green_matrix(mode)
        scale = max(1.0, np.abs(lbc).max(), np.abs(la).max())
        pairs = {
            1: lbc @ t @ t.conj().T - t @ t.conj().T @ lbc,
            2: la @ t2.conj().T @ t2 - t2.conj().T @ t2 @ la,
            3: lbc @ t - t @ la,
            4: t.conj().T @ lbc - la @ t.conj().T,
            5: gbc @ t @ t.conj().T - t @ t.conj().T @ gbc,
            6: ga @ t2.conj().T @ t2 - t2.conj().T @ t2 @ ga,
            7: gbc @ t - t @ ga,
            8: t.conj().T @ gbc - ga @ t.conj().T,
        }
        mid = lbc @ t - t @ t.conj().T @ t
        pairs[3] = np.maximum(np.abs(pairs[3]), np.abs(mid))
        mid4 = t.conj().T @ lbc - t.conj().T @ t @ t.conj().T
        pairs[4] = np.maximum(np.abs(pairs[4]), np.abs(mid4))
        for i, resid in pairs.items():
            worst[f"green_identity_{i}"] = max(
                worst[f"green_identity_{i}"], float(np.abs(resid).max()) / scale
            )
    return [entry(k, v, 1e-9) for k, v in worst.items()]


def _star_conjugation(ctx: HodgeContext) -> List[Dict]:
    """Adjoints agree with star-conjugation: dbar_adj = star del star^{-1}."""
    star = ctx.basis_inv @ ctx.metric.star_matrix @ ctx.basis
    star_inv = np.linalg.inv(star)
    worst = 0.0
    worst_del = 0.0
    for mode in ctx.modes:
        db_adj = ctx.operator_matrix("dbar_adj", mode)
        dl_adj = ctx.operator_matrix("del_adj", mode)
        dl = ctx.operator_matrix("del", mode)
        db = ctx.operator_matrix("dbar", mode)
        scale = max(1.0, np.abs(dl).max(), np.abs(db).max())
        worst = max(worst, float(np.abs(db_adj - star @ dl @ star_inv).max()) / scale)
        worst_del = max(worst_del, float(np.abs(dl_adj - star @ db @ star_inv).max()) / scale)
    return [
        entry("star_conjugation_dbar_adj", worst, 1e-9),
        entry("star_conjugation_del_adj", worst_del, 1e-9),
    ]


def _kaehler_diagnostic(ctx: HodgeContext) -> List[Dict]:
    """When -GJ is also a valid structure, d, del and dbar Laplacians align."""
    jprime = -ctx.metric.gmatrix @ ctx.structure.jmatrix
    try:
        GCStructure.from_endomorphism(
            ctx.geometry, ctx.box, jprime, twist=ctx.structure.twist, label="kaehler-partner"
        )
    except Exception:
        return [entry("kaehler_partner_integrable", 1.0, float("inf"))]
    worst = 0.0
    every = slice(None)
    laps = zip(*(ctx._laplacian(kind, every) for kind in ("d", "del", "dbar")))
    for ld, ldel, ldbar in laps:
        scale = max(1.0, np.abs(ld).max())
        worst = max(
            worst,
            float(np.abs(ld - 2 * ldel).max()) / scale,
            float(np.abs(ld - 2 * ldbar).max()) / scale,
        )
    return [entry("kaehler_laplacian_identity", worst, 1e-9)]


def hodge_suite(ctx: HodgeContext, seed: int = 0) -> List[Dict]:
    rng = np.random.default_rng(seed)
    out = []
    out.extend(_matrix_identities(ctx))
    out.extend(_adjointness(ctx, rng))
    out.extend(_hodge_identities(ctx))
    out.extend(_kernel_characterizations(ctx))
    out.extend(_green_commutation(ctx))
    out.extend(_star_conjugation(ctx))
    out.extend(_kaehler_diagnostic(ctx))
    return out


def hodge_table(ctx: HodgeContext) -> Dict:
    """Kernel dimensions per kind and level plus class-check verdicts.

    The class checks go first, as one batch: their decompositions are freed
    before the packages' eigenvectors are built.
    """
    levels = list(ctx.structure.levels())
    questions = [(kind, k) for k in levels for kind in CHECK_KINDS]
    checks: Dict[str, Dict[str, bool]] = {str(k): {} for k in levels}
    for (kind, k), check in zip(questions, ctx.class_checks(questions)):
        checks[str(k)][kind] = check["holds"]
    dims = {
        kind: {str(k): ctx.package(kind).kernel_dimension(k) for k in levels}
        for kind in ("dbar", "bc", "aeppli", "d")
    }
    return {"kernel_dimensions": dims, "class_checks": checks}
