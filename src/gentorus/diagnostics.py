"""Residual suites: every identity the machinery is supposed to satisfy.

Each check returns an entry dict carrying the measured value and the
tolerance it was judged against, so reports stay auditable.  The suites are
shared by the test battery and the scenario runner.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Tuple

import numpy as np

from .calculus import (
    del_op,
    delbar_op,
    lie_derivation_dL,
    schouten_bracket,
    twisted_d,
)
from .fourier import (
    TorusGeometry,
    TruncationBox,
    _join,
    _mode_keys,
    _norms,
    _products,
    _runs_within_chunk,
    _split,
    _Stacks,
    _sum,
    _without_zeros,
)
from .hodge import (
    CHECK_KINDS,
    HodgeContext,
    _adjoint,
    _basis_rank,
    _range_and_null,
    _range_basis,
)
from .spinor import (
    CliffordPoly,
    clifford_generators,
    random_fourier_scalar,
    random_spinor,
    random_terms,
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
    """Clifford relation residuals a.b.sigma + b.a.sigma - <a, b> sigma over
    random triples: ``samples`` with constant sections a, b and a constant
    spinor, then ``samples`` whose factors carry modes up to K // 3.

    A constant triple is a Fourier triple drawn with max mode 0, so both
    halves are one pass of :func:`_clifford_relation` over 2S samples on
    one generator, the constant samples first.  Each entry is the worst
    residual of its half.

    The Fourier half needs a no-truncation regime: small boxes are embedded
    in one wide enough for the triple products.
    """
    rng = np.random.default_rng(seed)
    if box.K < 3:
        box = TruncationBox(3, policy="strict")
    resid = _clifford_relation(rng, geometry, box, [0] * samples + [max(1, box.K // 3)] * samples)
    return [
        entry("clifford_relation_constant", resid[:samples].max(initial=0.0), 1e-12),
        entry("clifford_relation_fourier", resid[samples:].max(initial=0.0), 1e-9),
    ]


def _clifford_relation(
    rng: np.random.Generator, geometry: TorusGeometry, box: TruncationBox, max_modes: List[int]
) -> np.ndarray:
    """The relative Clifford residual of one random triple per entry of
    ``max_modes``: sample i's factors carry modes up to ``max_modes[i]``.

    All samples are drawn first, in the per-sample order: a, b, then the
    spinor.  Their products are then stacks over runs of samples (see
    :class:`~gentorus.fourier._Stacks`), each run's largest stack within ``PAIR_CHUNK``
    entries, formed with :func:`~gentorus.fourier._stack_products`, the
    summation ``FourierMatrix.matmul`` uses: each pair-product GEMM keeps
    its own column count, samples of equal count share a batched matmul
    with rows padded, and each sample's products are summed into its modes
    in the order its own product sums them.  So every residual is bitwise
    the one that ``clifford_act`` and ``pairing``, the reference section
    operations in ``tests/reference.py``, give for the sample alone.
    """
    dim, size = geometry.dim, 2 ** geometry.dim
    a_cells, b_cells, pair_cells, sigma_cells, norms = [], [], [], [], []
    for mm in max_modes:
        a = _fourier_section(rng, geometry, mm)
        b = _fourier_section(rng, geometry, mm)
        a_cells.append([(m, 0, j, c) for j, (m, c) in enumerate(a)])
        b_cells.append([(m, 0, j, c) for j, (m, c) in enumerate(b)])
        pair_cells.append([(m, 0, 0, c) for m, c in _pairing(a, b).items()])
        # random_spinor's draws: one term per component
        sigma_cells.append([
            (m, row, 0, c)
            for row in range(size)
            for m, c in random_terms(rng, dim, mm, 1).items()
        ])
        norms.append(_section_norm(a) * _section_norm(b))
    # each sample's a.(b.sigma) takes at most P_a P_b P_sigma N entries
    cost = np.array([
        len({c[0] for c in ca}) * len({c[0] for c in cb}) * len({c[0] for c in cs}) * size
        for ca, cb, cs in zip(a_cells, b_cells, sigma_cells)
    ])
    generators = clifford_generators(dim).reshape(2 * dim, -1)
    resid = np.zeros(len(max_modes))
    for run in _runs_within_chunk(cost):
        count = run.stop - run.start
        weights = _row_stacks(box, dim, b_cells[run] + a_cells[run], (1, 2 * dim))
        # exact: each entry of an action matrix is one +-1 times one component
        actions = weights._replace(
            coeffs=(weights.coeffs[:, 0] @ generators).reshape(-1, size, size)
        )
        sigma = _row_stacks(box, dim, sigma_cells[run], (size, 1))
        scales = np.maximum(1.0, np.array(norms[run]) * _norms(sigma))
        b_acts, a_acts = _split(actions, count)
        # b.sigma and a.sigma, then a.(b.sigma) and b.(a.sigma)
        once = _products(actions, _join(sigma, sigma))
        ab, ba = _split(_products(_join(a_acts, b_acts), once), count)
        rhs = _products(sigma, _row_stacks(box, dim, pair_cells[run], (1, 1)))
        diff = _sum(_sum(ab, ba), rhs._replace(coeffs=rhs.coeffs * complex(-1)))
        resid[run] = _norms(diff) / scales
    return resid


def _row_stacks(
    box: TruncationBox, dim: int, cells: List[List[Tuple]], shape: Tuple[int, int]
) -> _Stacks:
    """Per sample, the stack of the given shape with coefficient c at (mode,
    i, j) for each of its (mode, i, j, c) cells, no two at one place and
    every mode in the box: a section's components as the reference
    ``clifford_matrix`` weighs them, a scalar, or a spinor as
    ``random_spinor`` stacks it."""
    modes, at, counts = [], [], []
    for sample in cells:
        distinct = sorted({cell[0] for cell in sample})
        row = {m: len(modes) + p for p, m in enumerate(distinct)}
        modes.extend(distinct)
        at.extend((row[m], i, j, c) for m, i, j, c in sample)
        counts.append(len(distinct))
    coeffs = np.zeros((len(modes),) + shape, dtype=complex)
    if at:
        p, i, j, c = zip(*at)
        coeffs[p, i, j] = c
    keys = _mode_keys(box, np.array(modes, dtype=np.int64).reshape(-1, dim))
    return _without_zeros(_Stacks(coeffs, keys, np.array(counts)))


# A section drawn for the Clifford suite is its 4n components (tangent, then
# cotangent) as one (mode, coefficient) term each, as the reference
# random_courant_vector in tests/reference.py draws them.


def _fourier_section(
    rng: np.random.Generator, geometry: TorusGeometry, max_mode: int
) -> List[Tuple]:
    return [
        next(iter(random_terms(rng, geometry.dim, max_mode, 1).items()))
        for _ in range(2 * geometry.dim)
    ]


def _section_norm(section: List[Tuple]) -> float:
    """The root sum of the squared component norms, summed as the ``norm``
    of the reference sections in ``tests/reference.py`` sums them."""
    return math.sqrt(sum(math.sqrt(abs(c) ** 2) ** 2 for _, c in section))


def _pairing(a: List[Tuple], b: List[Tuple]) -> Dict[Tuple[int, ...], complex]:
    """<a, b> as mode -> coefficient, summed in the order and with the
    Python complex arithmetic of the reference ``pairing`` in
    ``tests/reference.py``."""
    dim = len(a) // 2
    out: Dict[Tuple[int, ...], complex] = {}
    for j in range(dim):
        for (m1, c1), (m2, c2) in ((a[dim + j], b[j]), (b[dim + j], a[j])):
            mode = tuple(p + q for p, q in zip(m1, m2))
            out[mode] = out.get(mode, 0.0) + c1 * c2
    return out


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


def _rep_chunks(ctx: HodgeContext):
    """The context's representative modes, one chunk at a time: as many as
    keep four (m, N, N) stacks within ``hodge.CHUNK_BYTES``.

    The per-mode terms of the Hodge diagnostics are stacked products over
    these slices, d built for each slice alone.  A mirrored mode's terms
    are bitwise its representative's: its del and dbar are negated, its
    Laplacians and Green matrices equal, products of negated factors are
    exact, and the SVD is unchanged by sign flips of rows or columns.  A
    stacked product equals its per-mode one slice by slice.  So a worst
    case over the representatives is the worst case over the box, and a
    count weights each representative by ``ctx.level_basis.weight``.
    """
    return ctx.level_basis.rep_chunks(4)


def _worst(values: np.ndarray) -> np.ndarray:
    """Per mode of a (modes, rows, cols) stack, its largest absolute entry."""
    return np.abs(values).max(axis=(1, 2))


def _matrix_identities(ctx: HodgeContext) -> List[Dict]:
    worst = {"del_squared": 0.0, "dbar_squared": 0.0, "anticommute": 0.0, "d_split": 0.0}
    for sel in _rep_chunks(ctx):
        dl, db, d = (ctx._op(name, sel) for name in ("del", "dbar", "d"))
        top = _worst(d)
        scale = np.array([max(1.0, m) ** 2 for m in top])
        values = {
            "del_squared": _worst(dl @ dl) / scale,
            "dbar_squared": _worst(db @ db) / scale,
            "anticommute": _worst(dl @ db + db @ dl) / scale,
            "d_split": _worst(d - dl - db) / np.maximum(1.0, top),
        }
        for k, v in values.items():
            worst[k] = np.maximum(worst[k], v.max())
    return [entry(k, v, 1e-9) for k, v in worst.items()]


def _adjointness(ctx: HodgeContext, rng: np.random.Generator, samples: int = 5) -> List[Dict]:
    worst = {"del": 0.0, "dbar": 0.0, "d": 0.0}
    mm = min(ctx.box.K, max(1, ctx.box.K // 2))
    metric = ctx.metric
    for _ in range(samples):
        alpha = random_spinor(rng, ctx.geometry, ctx.box, max_mode=mm)
        beta = random_spinor(rng, ctx.geometry, ctx.box, max_mode=mm)
        scale = max(1e-12, metric.bi_norm(alpha) * metric.bi_norm(beta))
        for name in worst:
            lhs = metric.bi_inner(ctx.apply(name, alpha), beta)
            rhs = metric.bi_inner(alpha, ctx.apply(name + "_adj", beta))
            worst[name] = np.maximum(worst[name], abs(lhs - rhs) / scale)
    return [entry(f"adjointness_{k}", v, 1e-9) for k, v in worst.items()]


def _hodge_identities(ctx: HodgeContext) -> List[Dict]:
    out = []
    for kind in ("dbar", "bc", "aeppli", "d", "del"):
        out.append(entry(f"hodge_identity_{kind}", ctx.identity_residual(kind), 1e-9))
    return out


def _kernel_characterizations(ctx: HodgeContext) -> List[Dict]:
    """Kernel and orthogonal-decomposition facts for the BC and Aeppli kinds.

    Every basis is a stack over the representative modes, zero-padded past
    its rank, so dimensions are counted as nonzero columns, and each count
    weights a representative by the modes it stands for.
    """
    out = []
    for kind in ("bc", "aeppli"):
        pk = ctx.package(kind)
        dim_mismatch = decomp_dim_defect = 0
        containment = orth = 0.0
        for sel in _rep_chunks(ctx):
            dl, db, t = (ctx._op(name, sel) for name in ("del", "dbar", "deldbar"))
            if kind == "bc":
                stack = np.concatenate([dl, db, _adjoint(t)], axis=1)
                second = _range_basis(t)
                third = _range_basis(np.concatenate([_adjoint(dl), _adjoint(db)], axis=2))
            else:
                stack = np.concatenate([_adjoint(dl), _adjoint(db), t], axis=1)
                second = _range_basis(_adjoint(t))
                third = _range_basis(np.concatenate([dl, db], axis=2))
            weight = ctx.level_basis.weight[sel]
            null = _range_and_null(stack)[1]
            hmat = pk.matrix(sel, pk.harmonic_weights)
            hbasis = _range_basis(hmat)
            hdim = _basis_rank(hbasis)
            dim_mismatch += int(np.sum(weight * (hdim != _basis_rank(null))))
            containment = np.maximum(containment, np.abs(null - hmat @ null).max())
            total = hdim + _basis_rank(second) + _basis_rank(third)
            decomp_dim_defect += int(np.sum(weight * np.abs(total - ctx.level_basis.size)))
            orth = np.maximum.reduce([
                orth,
                *(np.abs(_adjoint(a) @ b).max()
                  for a, b in ((hbasis, second), (second, third), (hbasis, third))),
            ])
        out.append(entry(f"kernel_characterization_dim_{kind}", dim_mismatch, 0.0))
        out.append(entry(f"kernel_containment_{kind}", containment, 1e-9))
        out.append(entry(f"decomposition_dims_{kind}", decomp_dim_defect, 0.0))
        out.append(entry(f"decomposition_orthogonal_{kind}", orth, 1e-9))
    return out


def _green_commutation(ctx: HodgeContext) -> List[Dict]:
    """The eight Laplacian/Green commutation identities as matrix equations."""
    worst = {f"green_identity_{i}": 0.0 for i in range(1, 9)}
    bc, ae = ctx.package("bc"), ctx.package("aeppli")
    for sel in _rep_chunks(ctx):
        lbc, la = ctx._laplacian("bc", sel), ctx._laplacian("aeppli", sel)
        dl, db = ctx._op("del", sel), ctx._op("dbar", sel)
        t = dl @ db                      # level-preserving double operator
        t2 = db @ dl
        th, t2h = _adjoint(t), _adjoint(t2)
        gbc = bc.matrix(sel, bc.green_weights)
        ga = ae.matrix(sel, ae.green_weights)
        scale = np.maximum(1.0, np.maximum(_worst(lbc), _worst(la)))
        resids = {
            1: _worst(lbc @ t @ th - t @ th @ lbc),
            2: _worst(la @ t2h @ t2 - t2h @ t2 @ la),
            3: np.maximum(_worst(lbc @ t - t @ la), _worst(lbc @ t - t @ th @ t)),
            4: np.maximum(_worst(th @ lbc - la @ th), _worst(th @ lbc - th @ t @ th)),
            5: _worst(gbc @ t @ th - t @ th @ gbc),
            6: _worst(ga @ t2h @ t2 - t2h @ t2 @ ga),
            7: _worst(gbc @ t - t @ ga),
            8: _worst(th @ gbc - ga @ th),
        }
        for i, resid in resids.items():
            key = f"green_identity_{i}"
            worst[key] = np.maximum(worst[key], (resid / scale).max())
    return [entry(k, v, 1e-9) for k, v in worst.items()]


def _star_conjugation(ctx: HodgeContext) -> List[Dict]:
    """Adjoints agree with star-conjugation: dbar_adj = star del star^{-1}."""
    lb = ctx.level_basis
    star = lb.basis_inv @ ctx.metric.star_matrix @ lb.basis
    star_inv = np.linalg.inv(star)
    worst = 0.0
    worst_del = 0.0
    for sel in _rep_chunks(ctx):
        dl, db = ctx._op("del", sel), ctx._op("dbar", sel)
        scale = np.maximum(1.0, np.maximum(_worst(dl), _worst(db)))
        worst = np.maximum(worst, (_worst(_adjoint(db) - star @ dl @ star_inv) / scale).max())
        worst_del = np.maximum(worst_del, (_worst(_adjoint(dl) - star @ db @ star_inv) / scale).max())
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
    for sel in _rep_chunks(ctx):
        ld, ldel, ldbar = (ctx._laplacian(kind, sel) for kind in ("d", "del", "dbar"))
        scale = np.maximum(1.0, _worst(ld))
        worst = np.maximum.reduce([
            worst,
            (_worst(ld - 2 * ldel) / scale).max(),
            (_worst(ld - 2 * ldbar) / scale).max(),
        ])
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

    The class checks go first.  They are decided from rank stacks that
    the context's level basis keeps, one int per representative mode.  The
    kernel dimensions are rank identities over the same stacks
    (``_LevelBasis.kernel_counts``), the counts the packages read: the
    table builds no package, and ranks anew only the two parity blocks of
    d, whose Laplacian the level basis eigendecomposes once, only at the
    modes that have a kernel, for the kernel's level content.  ``warnings`` appears when
    singular values of the stacks read lie within 10x of the rank cut.
    """
    checks = {
        str(k): {kind: ctx.class_check(kind, k)["holds"] for kind in CHECK_KINDS}
        for k in ctx.structure.levels()
    }
    counts, gap = ctx.level_basis.kernel_counts(("dbar", "bc", "aeppli", "d"))
    dims = {kind: {str(k): n for k, n in per_level.items()} for kind, per_level in counts.items()}
    table = {"kernel_dimensions": dims, "class_checks": checks}
    if gap:
        table["warnings"] = [f"rank gap warning: {gap} singular values within 10x of the rank cut"]
    return table
