"""Hodge packages, solvers, class checks, with independent matrix oracles."""

import functools
import itertools
import json
import math
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gentorus import diagnostics, hodge
from gentorus.calculus import delbar_op
from gentorus.deformation import DeformedStructure
from gentorus.diagnostics import hodge_suite, hodge_table
from gentorus.fourier import FourierScalar, TorusGeometry, TruncationBox
from gentorus.hodge import KINDS, RANK_CUTOFF, HodgeContext, ObstructionError
from gentorus.metric import GeneralizedMetric
from gentorus.scenario import Scenario
from gentorus.spinor import (
    CliffordPoly,
    Spinor,
    constant_clifford_matrix,
    monomial_index,
    monomial_list,
    random_fourier_scalar,
    random_spinor,
    sort_monomial,
    wedge_matrix,
)
from gentorus.structure import GCStructure

from reference import constant_form, operator_matrix, scale_spinor
from reference import mode_coefficient, spinor_coefficient

BOX = TruncationBox(1)


def spinor_from_constant_vector(geometry, box, vec):
    """The constant spinor with coefficient vector ``vec``, built from its components."""
    return Spinor(geometry, box, {
        mono: FourierScalar.constant(geometry, box, c)
        for mono, c in zip(monomial_list(geometry.dim), vec) if c != 0
    })


def mode_vector(sigma, mode):
    """sigma's coefficients at one mode, read from its components."""
    return np.array([
        mode_coefficient(spinor_coefficient(sigma, m), mode)
        for m in monomial_list(sigma.geometry.dim)
    ])


def wedge_matrix_reference(form):
    """Left wedge by ``form`` on the monomial basis from monomial signs alone:
    dx^I ^ dx^J = sign dx^{I u J} for disjoint I and J, with the sign of
    the sorting permutation.  Returns the (N, N) coefficient matrix at each
    mode and the dropped mass of each entry, that of the one dx^I that
    reaches it."""
    dim = form.geometry.dim
    index, size = monomial_index(dim), 2 ** dim
    mats, mass = {}, np.zeros((size, size))
    for mono, f in form.comps.items():
        for source in monomial_list(dim):
            merged = sort_monomial(mono + source)
            if merged is None:
                continue
            row, col = index[merged[0]], index[source]
            mass[row, col] = f.dropped_mass
            for mode, c in f.coeffs.items():
                mats.setdefault(mode, np.zeros((size, size), dtype=complex))[row, col] = (
                    c if merged[1] > 0 else -c
                )
    return mats, mass


def box_modes(ctx):
    """The modes of a context's box, in order, as tuples."""
    return [tuple(mode) for mode in ctx.level_basis.modes.tolist()]


@pytest.fixture(scope="module")
def t2ctx():
    s = GCStructure.complex_structure(1, BOX)
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(2))
    return HodgeContext(s, m)


@pytest.fixture(scope="module")
def t4ctx():
    s = GCStructure.complex_structure(2, BOX)
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(4))
    return HodgeContext(s, m)


@pytest.fixture(scope="module")
def t4ctx_twisted():
    geometry = TorusGeometry(2)
    H = constant_form(geometry, BOX, (0, 1, 2), 1.0)
    s = GCStructure.complex_structure(2, BOX, twist=H)
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(4))
    return HodgeContext(s, m)


def brute_force_kernel_dims(ctx):
    """Independent oracle: adjoint via the raw Born-Infeld Gram on monomials.

    Assembles dbar on the plain (non-orthonormal) monomial basis through the
    generic spinor operators, takes the Gram-adjoint, and counts small
    singular values of the Laplacian per level and mode.
    """
    s, m = ctx.structure, ctx.metric
    size = 2 ** s.dim
    hmat = m.bi_gram.T  # inner(v, w) = w^dagger hmat v
    dims = {k: 0 for k in s.levels()}
    for mode in box_modes(ctx):
        cols = np.zeros((size, size), dtype=complex)
        for j in range(size):
            unit = np.zeros(size)
            unit[j] = 1.0
            sigma = spinor_from_constant_vector(s.geometry, s.box, unit)
            sigma = scale_spinor(sigma, FourierScalar.mode(s.geometry, s.box, mode))
            image = delbar_op(sigma, s)
            cols[:, j] = mode_vector(image, mode)
        adj = np.linalg.solve(hmat, cols.conj().T @ hmat)
        lap = adj @ cols + cols @ adj
        # classify kernel vectors by level
        null = np.linalg.svd(lap)[2]
        svals = np.linalg.svd(lap, compute_uv=False)
        scale = svals[0] if svals[0] > 0 else 1.0
        kdim = int(np.sum(svals < 1e-9 * scale))
        vecs = null[size - kdim :].conj().T if kdim else np.zeros((size, 0))
        if kdim == 0:
            continue
        # the Laplacian preserves levels, so the kernel splits levelwise:
        # count the rank of the level projection of the kernel basis
        coords = s._level_inverse @ vecs
        for k in s.levels():
            block = coords[s._level_slices[k], :]
            bs = np.linalg.svd(block, compute_uv=False) if block.size else np.zeros(0)
            if bs.size and bs[0] > 1e-9:
                dims[k] += int(np.sum(bs > 1e-9 * bs[0]))
    return dims


def test_t2_kernel_dimensions_with_oracle(t2ctx):
    pk = t2ctx.package("dbar")
    assert {k: pk.kernel_dimension(k) for k in t2ctx.structure.levels()} == {-1: 1, 0: 2, 1: 1}
    assert brute_force_kernel_dims(t2ctx) == {-1: 1, 0: 2, 1: 1}
    # oscillatory modes contribute nothing, read at their own representatives:
    # no rank count and no eigenvalue under the whole-box cutoff
    rep = t2ctx.level_basis.rep
    cutoff = _reference_cutoff(vals for vals, _ in pk.eigen(rep))
    for i, mode in enumerate(box_modes(t2ctx)):
        if mode != (0, 0):
            assert not any(m[rep[i]] for m in pk.kernel)
            for vals, _ in pk.eigen(rep[i]):
                assert not np.any(vals <= cutoff)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_box_modes_are_the_box_iterator_as_an_int_grid(n):
    """The level basis's modes, an integer grid, are ``box.modes`` in order
    and as ints on T^{2n} for K = 0..3.  They are compared slice by slice,
    so no list of tuples is held: T^8 K=3 has 5.8 million modes."""
    g = TorusGeometry(n)
    for K in range(4):
        box = TruncationBox(K)
        grid = hodge._box_modes(box, g.dim)
        assert grid.dtype == int and grid.shape == ((2 * K + 1) ** g.dim, g.dim)
        flat = itertools.chain.from_iterable(box.modes(g))
        for start in range(0, len(grid), 1 << 16):
            rows = grid[start:start + (1 << 16)]
            assert np.array_equal(np.fromiter(flat, int, rows.size).reshape(rows.shape), rows)
        assert next(flat, None) is None


def test_t4_kernel_dimensions_binomial(t4ctx):
    pk = t4ctx.package("dbar")
    dims = {k: pk.kernel_dimension(k) for k in t4ctx.structure.levels()}
    assert dims == {k: math.comb(4, k + 2) for k in t4ctx.structure.levels()}
    assert brute_force_kernel_dims(t4ctx) == dims


@pytest.mark.parametrize("fixture", ["t2ctx", "t4ctx", "t4ctx_twisted"])
def test_full_hodge_suite_passes(fixture, request):
    ctx = request.getfixturevalue(fixture)
    for e in hodge_suite(ctx):
        assert e["passed"], f"{e['name']}: {e['value']:.3e} > {e['tolerance']:.0e}"


def test_twisted_kernel_dims_shift(t4ctx_twisted):
    """The twist deforms the complex; dimensions change but stay consistent
    across the dbar/BC/Aeppli kinds on a ddbar-lemma background."""
    table = hodge_table(t4ctx_twisted)
    dims = table["kernel_dimensions"]
    assert sum(dims["dbar"].values()) >= 2  # canonical class survives
    for k, verdicts in table["class_checks"].items():
        if verdicts["B_k"]:
            assert verdicts["S_k"], f"B_k without S_k at level {k}"
        if verdicts["ddbar_lemma"]:
            assert verdicts["Bcal_k"] or dims["dbar"][k] == 0 or True


def test_symplectic_torus_class_checks_all_true():
    """The symplectic torus is generalized Kaehler: every solvability class
    holds at every level (regression for the numerical-rank noise floor)."""
    om = np.array([[0.0, 1.0], [-1.0, 0.0]])
    s = GCStructure.symplectic_structure(om, BOX)
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(2))
    ctx = HodgeContext(s, m)
    table = hodge_table(ctx)
    for level, verdicts in table["class_checks"].items():
        for kind, ok in verdicts.items():
            assert ok, f"{kind} failed at level {level} on the symplectic torus"
    assert table["kernel_dimensions"]["dbar"] == {"-1": 1, "0": 2, "1": 1}
    for e in hodge_suite(ctx, seed=71):
        assert e["passed"], f"{e['name']}: {e['value']:.3e}"


def test_double_image_always_contained(t4ctx_twisted):
    """Im(del dbar) sits inside Im(del) and Ker(dbar) and inside Im(dbar)
    and Ker(del) even where the full lemma fails (twisted background)."""
    ctx = t4ctx_twisted
    lb = ctx.level_basis

    def block(name, row_level, col_level):
        return ctx._op(name, slice(None))[:, lb.level(row_level), lb.level(col_level)]

    lemma_fails_somewhere = False
    for k in ctx.structure.levels():
        double = block("deldbar", k, k)
        del_in = block("del", k, k + 1)
        dbar_in = block("dbar", k, k - 1)
        for v3, a, b in zip(double, del_in, dbar_in):
            assert _ref_contained(v3, a) and _ref_contained(v3, b)
        if not ctx.class_check("ddbar_lemma", k)["holds"]:
            lemma_fails_somewhere = True
    assert lemma_fails_somewhere  # the twist genuinely breaks the lemma here


def test_class_check_is_decided_once(monkeypatch):
    """A repeated (kind, level) check reads its ranks from the context, so it
    runs no SVD, and it hands out a fresh dict."""
    s, m = _case(2, 1)
    ctx = HodgeContext(s, m)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    first = ctx.class_check("B_k", -1)
    assert calls
    calls.clear()
    again = ctx.class_check("B_k", -1)
    assert not calls
    assert again == first
    assert again is not first and again["dims"] is not first["dims"]


def test_ddbar_lemma_true_on_torus(t2ctx):
    table = hodge_table(t2ctx)
    for verdicts in table["class_checks"].values():
        assert verdicts["ddbar_lemma"]
        assert verdicts["S_k"] and verdicts["B_k"]
        assert verdicts["Scal_k"] and verdicts["Bcal_k"]


def test_minimal_ddbar_solve_trivial(t2ctx):
    zero = Spinor.zero(t2ctx.geometry, t2ctx.box)
    assert t2ctx.solve_ddbar_minimal(zero).is_zero()


@pytest.mark.parametrize("fixture", ["t2ctx", "t4ctx"])
def test_minimal_ddbar_solve_properties(fixture, request):
    """x = (del dbar)^* G_bc y solves, is minimal, and is kernel-orthogonal."""
    ctx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(201)
    for _ in range(5):
        w = random_spinor(rng, ctx.geometry, ctx.box, max_mode=1)
        y = ctx.apply("deldbar", w)
        if y.norm() < 1e-12:
            continue
        x = ctx.solve_ddbar_minimal(y)
        resid = (ctx.apply("deldbar", x) - y).norm()
        assert resid < 1e-9 * max(1.0, y.norm())
        assert ctx.metric.bi_norm(x) <= ctx.metric.bi_norm(w) * (1 + 1e-9)
        # orthogonal to the kernel of del dbar: sample random kernel elements
        for _ in range(20):
            v = random_spinor(rng, ctx.geometry, ctx.box, max_mode=1)
            tv = ctx.apply("deldbar", v)
            # project v onto ker(del dbar) by removing the minimal preimage part
            kernel_elt = v - ctx.apply("deldbar_adj", ctx.package("bc").green(tv))
            leak = ctx.apply("deldbar", kernel_elt).norm()
            if leak > 1e-8 * max(1.0, v.norm()):
                continue
            ip = abs(ctx.metric.bi_inner(x, kernel_elt))
            assert ip < 1e-9 * max(1.0, ctx.metric.bi_norm(x) * ctx.metric.bi_norm(kernel_elt))


def test_minimal_ddbar_obstruction_raises(t2ctx):
    # a harmonic element is never del dbar exact
    harm = t2ctx.package("bc").harmonic_basis(0)[0]
    with pytest.raises(ObstructionError) as err:
        t2ctx.solve_ddbar_minimal(harm)
    assert "harmonic_norm" in err.value.data


def test_d_closed_representative_on_harmonics(t2ctx):
    """Harmonic inputs are already d-closed; the correction vanishes."""
    for k in t2ctx.structure.levels():
        for sigma in t2ctx.package("dbar").harmonic_basis(k):
            gamma, beta = t2ctx.d_closed_representative(sigma)
            assert (gamma - sigma).norm() < 1e-10
            assert t2ctx.apply("d", gamma).norm() < 1e-9


def test_d_closed_representative_general(t4ctx):
    """dbar-closed inputs get a d-closed representative in the same class."""
    ctx = t4ctx
    rng = np.random.default_rng(203)
    pk = ctx.package("dbar")
    found = 0
    for _ in range(10):
        v = random_spinor(rng, ctx.geometry, ctx.box, max_mode=1)
        # make a dbar-closed spinor: harmonic + exact
        sigma = pk.harmonic(v) + ctx.apply("dbar", random_spinor(rng, ctx.geometry, ctx.box, max_mode=1))
        if sigma.norm() < 1e-9:
            continue
        found += 1
        gamma, beta = ctx.d_closed_representative(sigma)
        assert ctx.apply("d", gamma).norm() < 1e-9 * max(1.0, sigma.norm())
        diff = gamma - sigma
        # gamma - sigma = dbar beta: same raising-cohomology class
        assert (diff - ctx.apply("dbar", beta)).norm() < 1e-9 * max(1.0, sigma.norm())
        assert pk.harmonic(diff).norm() < 1e-9 * max(1.0, sigma.norm())
    assert found >= 5


def test_dbar_minimal_solve(t4ctx):
    ctx = t4ctx
    rng = np.random.default_rng(205)
    w = random_spinor(rng, ctx.geometry, ctx.box, max_mode=1)
    tau = ctx.apply("dbar", w)
    x = ctx.solve_dbar_minimal(tau)
    assert (ctx.apply("dbar", x) - tau).norm() < 1e-9 * max(1.0, tau.norm())
    assert ctx.metric.bi_norm(x) <= ctx.metric.bi_norm(w) * (1 + 1e-9)


def test_kernel_counts_harmonic_basis_and_projector_read_one_cutoff(monkeypatch):
    """The kernel counts, the harmonic basis and the harmonic projector all
    read the level basis's one kernel count (``kernel_sizes``): forced to
    the eigenvalues at most the median one at the least mode of each orbit
    on complex T^2 K=1, each finds 5, 10 and 5 kernel vectors over the box
    at levels -1, 0 and 1 (1, 2 and 1 from the rank stacks)."""
    ctx = HodgeContext(*_case(1, 1))
    lb = ctx.level_basis
    least = lb.orbit_reps()[0]
    spectra = hodge._eigh(lb, "dbar", least, lb.spectra_chunk("dbar"))
    median = float(np.median(np.concatenate([vals.ravel() for vals, _ in spectra])))
    orbit = np.searchsorted(least, lb.orbits())
    forced = [np.sum(vals <= median, axis=1)[orbit] for vals, _ in spectra]
    assert [int(m @ lb.weight) for m in lb.kernel_sizes("dbar")] == [1, 2, 1]
    monkeypatch.setattr(lb, "kernel_sizes", lambda kind: forced)
    pk = ctx.package("dbar")
    projector = pk.matrix(slice(None), pk.harmonic_weights)
    for level, want in zip(lb.levels, (5, 10, 5)):
        block = projector[:, lb.level_slices[level], lb.level_slices[level]]
        assert int(np.linalg.matrix_rank(block).sum()) == want
        assert pk.kernel_dimension(level) == want
        assert len(pk.harmonic_basis(level)) == want


def _reference_cutoff(spectra):
    radius = max(float(v.max()) for v in spectra)
    return RANK_CUTOFF * radius if radius > 0 else 1e-12


def _case(n, K, twisted=False, g_scale=1.0, h=(0, 1, 2)):
    """Complex T^{2n} on the box of size K, twisted by H = dx^h when asked."""
    box = TruncationBox(K)
    twist = constant_form(TorusGeometry(n), box, h, 1.0) if twisted else None
    s = GCStructure.complex_structure(n, box, twist=twist)
    return s, GeneralizedMetric.from_tensors(s.geometry, g_scale * np.eye(2 * n))


def _chunk_bytes(size, reps, stacks=1):
    """The ``hodge.CHUNK_BYTES`` at which a pass that holds ``stacks``
    complex (m, size, size) stacks goes ``reps`` representatives at a time."""
    return 16 * size * size * stacks * reps


@pytest.mark.parametrize("policy", ["strict", "drop"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_matrix_equals_the_sign_reference(n, policy):
    """The wedge by random forms, about half their monomials live, equals
    the monomial-sign reference bit for bit in its nonzero entries and its
    dropped mass; the wedge by a zero form, negated at mode zero, is all
    -0.0, the C of an untwisted d."""
    geometry, rng = TorusGeometry(n), np.random.default_rng(n)
    dropped = 0.0
    for K in (0, 1, 2):
        box = TruncationBox(K, policy=policy)
        for _ in range(4):
            form = random_spinor(rng, geometry, box, terms=2)
            if policy == "drop":
                form = scale_spinor(form, random_fourier_scalar(rng, geometry, box))
            form = Spinor(geometry, box, {m: f for m, f in form.comps.items() if rng.random() < 0.5})
            got = wedge_matrix(form)
            mats, mass = wedge_matrix_reference(form)
            assert sorted(map(tuple, got.modes.tolist())) == sorted(mats)
            for mode, coeffs in zip(got.modes.tolist(), got.coeffs):
                assert np.array_equal(coeffs, mats[tuple(mode)])
            assert np.array_equal(got.dropped_mass, mass)
            dropped += mass.sum()
    assert (dropped > 0) == (policy == "drop")
    zero = -wedge_matrix(Spinor.zero(geometry, box)).constant_values()
    assert zero.shape == (4 ** n, 4 ** n) and zero.dtype == complex and not zero.any()
    assert np.signbit(zero.real).all() and np.signbit(zero.imag).all()


@pytest.mark.parametrize(
    "n, K, twisted", [(1, 0, False), (1, 1, False), (2, 1, False), (2, 1, True)]
)
def test_stacked_operators_match_per_mode_reference(n, K, twisted, monkeypatch):
    """The stacked assembly and the chunked batched eigh agree with the
    per-mode constructions: 2^{2n} d_L probes and one eigh per mode and level."""
    from gentorus import hodge
    from gentorus.calculus import lie_derivation_dL
    from gentorus.deformation import AlgebroidHodge
    from gentorus.spinor import CliffordPoly

    # several chunks of 7 representatives in the blockwise passes, the last
    # one ragged
    monkeypatch.setattr(hodge, "CHUNK_BYTES", _chunk_bytes(4 ** n, 7))
    s, m = _case(n, K, twisted)
    ctx = HodgeContext(s, m)
    alg = AlgebroidHodge(s, m)
    lb = ctx.level_basis
    stacked = hodge._stack_linear(alg._const, alg._slopes, alg.level_basis.modes)
    wedge_twist = wedge_matrix_reference(s.twist)[0].get((0,) * s.dim, 0)
    wedge_axis = [constant_clifford_matrix(np.eye(2 * s.dim)[s.dim + a], s.dim) for a in range(s.dim)]
    for i, mode in enumerate(box_modes(ctx)):
        dmono = -wedge_twist + 2j * math.pi * sum(
            k * w for k, w in zip(mode, wedge_axis)
        )
        ref = lb.basis_inv @ dmono @ lb.basis
        assert np.abs(operator_matrix(ctx, "d", mode) - ref).max() < 1e-12

        probe = np.zeros((lb.size, lb.size), dtype=complex)
        phase = FourierScalar.mode(s.geometry, s.box, mode)
        index = monomial_index(s.dim)
        for j, key in enumerate(monomial_list(s.dim)):
            image = lie_derivation_dL(CliffordPoly(s.dual_frame, len(key), {key: phase}), s)
            for ikey, f in image.terms():
                probe[index[ikey], j] = mode_coefficient(f, mode)
        ref = alg.poly_basis_inv @ probe @ alg.poly_basis
        assert np.abs(stacked[i] - ref).max() < 1e-12

    for kind in ("dbar", "bc", "aeppli"):
        pk = ctx.package(kind)
        eigs = {}
        for mode in box_modes(ctx):
            lap = ctx._laplacian(kind, lb.positions([mode])[0])
            for k in s.levels():
                block = lap[lb.level_slices[k], lb.level_slices[k]]
                eigs[mode, k] = np.linalg.eigh((block + block.conj().T) / 2)[0]
        cutoff = _reference_cutoff(eigs.values())
        for (mode, k), vals in eigs.items():
            r, b = lb.rep[lb.positions([mode])[0]], lb.levels.index(k)
            held = pk.eigen(r)[b][0]
            assert pk.kernel[b][r] == int(np.sum(held <= cutoff)) == int(np.sum(vals <= cutoff))

    vals = [np.linalg.eigh(d @ d.conj().T + d.conj().T @ d)[0] for d in stacked]
    cutoff = _reference_cutoff(vals)
    # every mode of the box, each read at its representative, over every block
    sp, rep = alg._spectra, alg.level_basis.rep
    batched = sum(np.sum(v <= cutoff, axis=1) for v, _ in sp.eigen(rep))
    assert [int(np.sum(v <= cutoff)) for v in vals] == batched.tolist()
    assert sum(m[rep] for m in sp.kernel).tolist() == batched.tolist()


# ----------------------------------------------------------------------
# per-mode reference for the class checks: one SVD per block and mode
# ----------------------------------------------------------------------


def _ref_cut(s, rel, floor):
    if s.size == 0:
        return 0
    return int(np.sum(s > max(rel * s[0], floor)))


def _ref_rank(mat, rel=RANK_CUTOFF, floor=0.0):
    if mat.size == 0:
        return 0
    return _ref_cut(np.linalg.svd(mat, compute_uv=False), rel, floor)


def _ref_range_basis(mat, rel=RANK_CUTOFF, floor=0.0):
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat)
    return u[:, : _ref_cut(s, rel, floor)]


def _ref_null_basis(mat, rel=RANK_CUTOFF, floor=0.0):
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    if mat.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    return vh[_ref_cut(s, rel, floor):].conj().T


def _ref_contained(sub, sup, rel=RANK_CUTOFF, floor=0.0):
    if sub.shape[1] == 0:
        return True
    return _ref_rank(np.hstack([sup, sub]), rel, floor) == _ref_rank(sup, rel, floor)


def _ref_intersection_dim(a, b, rel=RANK_CUTOFF, floor=0.0):
    da, db = _ref_rank(a, rel, floor), _ref_rank(b, rel, floor)
    if da == 0 or db == 0:
        return 0
    return da + db - _ref_rank(np.hstack([a, b]), rel, floor)


def _ref_block(ctx, name, mode, row_level, col_level):
    mat = operator_matrix(ctx, name, mode)
    n = ctx.structure.n
    lb = ctx.level_basis
    rows = lb.level_slices[row_level] if -n <= row_level <= n else slice(0, 0)
    cols = lb.level_slices[col_level] if -n <= col_level <= n else slice(0, 0)
    return mat[rows, cols]


def reference_class_check(ctx, kind, k):
    """The class check decided mode by mode, one small SVD at a time."""
    holds = True
    dims = {"candidates": 0, "target": 0}
    for mode in box_modes(ctx):
        scale = max(1.0, float(np.abs(operator_matrix(ctx, "d", mode)).max()))
        floor = RANK_CUTOFF * scale

        def block(name, row_level, col_level):
            return _ref_block(ctx, name, mode, row_level, col_level)

        if kind == "ddbar_lemma":
            v1 = _ref_range_basis(block("del", k, k + 1), floor=floor)
            ker_dbar = _ref_null_basis(block("dbar", k + 1, k), floor=floor)
            v2 = _ref_range_basis(block("dbar", k, k - 1), floor=floor)
            ker_del = _ref_null_basis(block("del", k - 1, k), floor=floor)
            v3 = _ref_range_basis(block("deldbar", k, k), floor=floor * scale)
            d1 = _ref_intersection_dim(v1, ker_dbar, floor=RANK_CUTOFF)
            d2 = _ref_intersection_dim(v2, ker_del, floor=RANK_CUTOFF)
            d3 = _ref_rank(v3, floor=RANK_CUTOFF)
            dims["candidates"] += d1 + d2
            dims["target"] += 2 * d3
            holds = holds and d1 == d2 == d3
            continue
        del_down = block("del", k, k + 1)
        if del_down.shape[1] == 0:
            continue
        if kind in ("S_k", "B_k"):
            null = _ref_null_basis(block("dbar", k + 1, k) @ del_down, floor=floor * scale)
        else:
            dbar_up = block("dbar", k + 2, k + 1)
            if dbar_up.shape[0] == 0:
                null = np.eye(del_down.shape[1], dtype=complex)
            else:
                null = _ref_null_basis(dbar_up, floor=floor)
        w = del_down @ null if null.shape[1] else np.zeros((del_down.shape[0], 0), dtype=complex)
        w = _ref_range_basis(w, floor=floor)
        if kind in ("S_k", "Scal_k"):
            target = _ref_range_basis(block("dbar", k, k - 1), floor=floor)
        else:
            target = _ref_range_basis(
                block("dbar", k, k - 1) @ block("del", k - 1, k), floor=floor * scale
            )
        dims["candidates"] += _ref_rank(w, floor=RANK_CUTOFF)
        dims["target"] += _ref_rank(target, floor=RANK_CUTOFF)
        holds = holds and _ref_contained(w, target, floor=RANK_CUTOFF)
    return {"kind": kind, "level": k, "holds": holds, "dims": dims}


def _symplectic_case(n, K):
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    s = GCStructure.symplectic_structure(omega, TruncationBox(K))
    return s, GeneralizedMetric.from_tensors(s.geometry, np.eye(2 * n))


CLASS_CHECK_CASES = [
    lambda: _case(1, 1),
    lambda: _symplectic_case(1, 1),
    lambda: _case(2, 1),
    lambda: _case(2, 1, twisted=True),
    lambda: _symplectic_case(2, 1),
    lambda: _case(2, 2),
    # g = 1e-4 puts d at 7e5, where the absolute floors decide ranks: the
    # level-0 ddbar-lemma target reads 292, and 320 if the deldbar block
    # took the unscaled floor
    lambda: _case(2, 1, twisted=True, g_scale=1e-4),
    lambda: _sheared_case(2, 1),
    # untwisted, so the checks rank 313 of the 625 modes and weight them
    lambda: _sheared_case(2, 2),
    # the absolute floors bind on all 625 modes of a twisted box
    lambda: _case(2, 2, twisted=True, g_scale=1e-4),
    # an n = 3 twist that fails 15 of the 35 checks
    lambda: _case(3, 0, twisted=True, h=(0, 1, 3)),
    # 16 lattice symmetries, whose orbits mix modes of unequal metric weight
    lambda: _diagonal_metric_case(2),
]
CLASS_CHECK_IDS = [
    "t2", "t2-symplectic", "t4", "t4-twisted", "t4-symplectic", "t4-K2", "t4-twisted-floors",
    "t4-b-transform", "t4-b-transform-K2", "t4-twisted-floors-K2", "t6-twisted", "t4-g-1212-K2",
]
CHECK_KINDS = ("ddbar_lemma", "S_k", "B_k", "Scal_k", "Bcal_k")
CASES = range(len(CLASS_CHECK_CASES))


@functools.lru_cache(maxsize=None)
def _reference_case(case):
    """Structure, metric and the reference verdict of every (kind, level) of
    one ``CLASS_CHECK_CASES`` entry, built once per test session."""
    structure, metric = CLASS_CHECK_CASES[case]()
    ctx = HodgeContext(structure, metric)
    questions = [(kind, k) for k in structure.levels() for kind in CHECK_KINDS]
    return structure, metric, {q: reference_class_check(ctx, *q) for q in questions}


@pytest.mark.parametrize("case", CASES, ids=CLASS_CHECK_IDS)
def test_stacked_class_checks_match_per_mode_reference(case):
    structure, metric, want = _reference_case(case)
    ctx = HodgeContext(structure, metric)
    for (kind, k), verdict in want.items():
        assert ctx.class_check(kind, k) == verdict, (kind, k)


@pytest.mark.parametrize("case", CASES, ids=CLASS_CHECK_IDS)
def test_class_checks_do_not_depend_on_the_order_asked(case):
    """Asking the checks one at a time in reversed or shuffled order, on
    fresh contexts, gives the reference."""
    structure, metric, want = _reference_case(case)
    questions = list(want)
    shuffled = [questions[i] for i in np.random.default_rng(11).permutation(len(questions))]
    for order in (questions[::-1], shuffled):
        ctx = HodgeContext(structure, metric)
        for kind, k in order:
            assert ctx.class_check(kind, k) == want[kind, k], (kind, k)
        assert ctx.level_basis.check_counts["decided"] == len(questions)


def test_hodge_table_svd_count(monkeypatch):
    """hodge_table on T^4 K=1 makes 17 SVD calls (22 before the conjugate
    stacks were mirrored, 39 when the class checks built bases, 177 before
    they shared them): 10 values-only calls in the 25 class checks, 2 for
    d's parity blocks and 5 per-mode calls for the d kernel's levels, and
    one eigh, at the one mode with a d kernel.

    The checks read 26 stacks: del, dbar and dbar del on 5, 6 and 7
    levels, d's rows and columns on 3 each and M on 2, since a stack with
    an empty half is that of its other half.  They rank 16 of them: dbar on
    its 6 levels, dbar del, rows and columns at levels j <= 0 (4, 2 and 2)
    and M on 2.  The other 10 are the conjugates of ranked stacks, read
    through the mirror: del on 5 levels (those of dbar at -j), dbar del at
    j = 1, 2, 3, Row_1 and Col_1.  Of the 16 ranked, the 6 stacks of single
    rows or columns, or empty, take their vector norms (dbar_{-3}, dbar_{-2},
    dbar_1, dbar_2, Q_{-3}, Q_{-2}), so 10 take an SVD.  The kernel counts
    read 32 stacks, 10 each for dbar, bc and aeppli and d's two parity
    blocks, which are the only ones ranked anew: 18 ranked in all.

    Of the 113 lookups (81 by the checks, 32 by the kernel counts), 16
    rank their own stack, 10 read their partner's, 2 of which (del_{-1}
    and del_0) rank that partner first (dbar_1 and dbar_0), and the other
    87 find their stack kept: 16 + 2 = 18 ranked.  Six of the 26 stacks
    are zero by their levels, blocks to or from a level outside [-2, 2] or
    products through one: four of the ranked (dbar_{-3}, dbar_2, Q_{-3},
    Q_{-2}) and two of the mirrored (del_3, Q_3).  They have rank 0 with no
    pass, so 14 are counted as ranked and 8 as mirrored."""
    ctx = HodgeContext(*_case(2, 1))
    calls = {"svd": [], "eigh": []}
    for name in calls:

        def counting(*args, _real=getattr(np.linalg, name), _calls=calls[name], **kwargs):
            _calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    hodge_table(ctx)
    assert len(calls["svd"]) == 17 and len(calls["eigh"]) == 1
    assert ctx.level_basis.check_counts == {
        "decided": 25, "ranks_computed": 14, "ranks_mirrored": 8, "ranks_reused": 87,
    }


@settings(
    max_examples=30, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_any_batch_of_checks_equals_the_reference_and_single_checks(data):
    """Any questions, in any order and with repeats, asked as two batches on
    one context give the reference verdicts and what one-at-a-time checks
    on a fresh context give, with the same counts of decided checks and of
    rank stacks computed and reused."""
    case = data.draw(st.sampled_from(CASES), label="case")
    structure, metric, want = _reference_case(case)
    asked = data.draw(st.lists(st.sampled_from(sorted(want)), max_size=2 * len(want)))
    split = data.draw(st.integers(0, len(asked)), label="split")
    batched = HodgeContext(structure, metric)
    got = [batched.class_check(kind, k) for kind, k in asked[:split]]
    got += [batched.class_check(kind, k) for kind, k in asked[split:]]
    single = HodgeContext(structure, metric)
    assert got == [single.class_check(kind, k) for kind, k in asked]
    assert got == [want[q] for q in asked]
    assert batched.level_basis.check_counts == single.level_basis.check_counts


@pytest.mark.parametrize("case", CASES, ids=CLASS_CHECK_IDS)
def test_each_rank_stack_is_computed_once_per_context(case, monkeypatch):
    """Every question asked twice, in order, reversed or shuffled, as
    batches or one at a time: each rank stack is built once per context,
    one chunk of 7 of its ranked representatives after another, and the
    same stacks in every order.  It ranks the least representative of each
    orbit of the structure's lattice symmetries, and a stack that is its own
    partner the least of each orbit of those and -I together, all among the
    first M // 2 + 1 modes of a twisted box.  Of each conjugate pair only
    dbar and the member at level j <= 0 are built, and the other is read
    from it.  A stack through a level outside [-n, n], zero by its levels,
    is built by no pass."""
    structure, metric, want = _reference_case(case)
    monkeypatch.setattr(hodge, "CHUNK_BYTES", _chunk_bytes(2 ** structure.dim, 7))
    questions = list(want)
    shuffled = [questions[i] for i in np.random.default_rng(5).permutation(len(questions))]
    built = hodge._LevelBasis._rank_matrices
    stacks = []
    for order in (questions, questions[::-1], shuffled):
        chunks = []

        def recording(self, key, sel):
            chunks.append((key, tuple(sel.tolist())))
            return built(self, key, sel)

        monkeypatch.setattr(hodge._LevelBasis, "_rank_matrices", recording)
        ctx = HodgeContext(structure, metric)
        third = len(order) // 3
        for kind, k in order[:third]:
            ctx.class_check(kind, k)
        for kind, k in order[third:] + order:
            ctx.class_check(kind, k)
        lb = ctx.level_basis
        count = len(lb.weight)
        half = count // 2 + 1 if count == len(lb.modes) else count
        labels = lb.orbits()

        def cover(key):
            own = labels
            if hodge._partner(key) == key:
                own = np.minimum(labels, labels[lb.conjugates()])
            reps = np.flatnonzero(own == np.arange(count))
            assert reps.max() < half or hodge._partner(key) != key
            return [tuple(reps[sel].tolist()) for sel in hodge._chunks(len(reps), 7)]

        keys = list(dict.fromkeys(key for key, _ in chunks))
        assert sorted(chunks) == sorted((key, c) for key in keys for c in cover(key))
        assert all(name in ("dbar", "M", "d") or (name != "del" and j <= 0) for name, j in keys)
        # a stack that is zero by its levels is zero at every representative,
        # kept with rank 0 and built by no pass
        zero = {key for key in lb._rank_stacks if lb._zero(key)}
        assert not zero & set(keys)
        assert all(not built(lb, key, np.arange(count)).any() for key in zero)
        assert all(not lb._rank_stacks[key].any() for key in zero)
        mirrored = set(ctx.level_basis._rank_stacks) - set(keys) - zero
        assert all(hodge._partner(key) in set(keys) | zero for key in mirrored)
        assert ctx.level_basis.check_counts["ranks_computed"] == len(keys)
        assert ctx.level_basis.check_counts["ranks_mirrored"] == len(mirrored)
        assert ctx.level_basis.check_counts["decided"] == 2 * len(order)
        stacks.append(sorted(keys))
    assert stacks[0] == stacks[1] == stacks[2]


def _direct_ranks(ctx, key):
    """The ranks and gap count of the stack that ``key`` names by one pass
    over every representative, with no mirror and no half pass: the
    reference for ``_LevelBasis._ranks``."""
    lb = ctx.level_basis
    scale, floor = ctx.level_basis._floor()
    values = hodge._singular_values(ctx.level_basis._rank_matrices(key, slice(0, len(lb.weight))))
    ranks = hodge._cut(values[:, None], np.stack([floor, floor * scale], axis=-1))
    gap = int((ranks[:, 0] - hodge._cut(values, floor, margin=10.0)) @ lb.weight)
    return ranks, gap


@pytest.mark.parametrize("case", CASES, ids=CLASS_CHECK_IDS)
def test_mirrored_and_half_pass_ranks_equal_a_direct_pass(case):
    """Every stack the class checks and kernel counts can ask for, at the
    levels -n - 1 to n + 1 that they ask, read through its conjugate
    partner's ranks or ranked on half of a twisted box, has the ranks and
    gap count of a direct pass over all representatives.  This rests on
    ``_rank_key`` commuting with the partner map and, on a twisted box, on
    the rank scale being bitwise even in the mode, both asserted.  The
    scale, read from d's level blocks, is bitwise the largest entry of the
    whole d stacks."""
    structure, metric, _ = _reference_case(case)
    ctx = HodgeContext(structure, metric)
    n = structure.n
    keys = [(name, j) for j in range(-n - 1, n + 2)
            for name in ("del", "dbar", "dbar del", "row", "col", "M")]
    keys += [("d", 0), ("d", 1)]
    for key in keys:
        ranks, gap = _direct_ranks(ctx, ctx.level_basis._rank_key(key))
        got = ctx.level_basis._ranks(key)
        assert got.dtype == np.int16 and np.array_equal(got, ranks), key
        assert ctx.level_basis._rank_gaps[ctx.level_basis._rank_key(key)] == gap, key
        partner = hodge._partner(key)
        if partner is not None:
            assert hodge._partner(ctx.level_basis._rank_key(key)) == ctx.level_basis._rank_key(partner), key
    assert ctx.level_basis.check_counts["ranks_mirrored"] > 0
    lb = ctx.level_basis
    twisted = len(lb.weight) == len(lb.modes)
    reps = np.arange(len(lb.weight))
    assert np.array_equal(lb.conjugates(), reps[::-1] if twisted else reps)
    scale = ctx.level_basis._floor()[0]
    assert not twisted or scale.tobytes() == scale[::-1].tobytes()
    whole = np.concatenate([np.abs(lb.d(sel)).max(axis=(1, 2)) for sel in lb.rep_chunks(1)])
    assert scale.tobytes() == np.maximum(1.0, whole).tobytes()


def test_class_checks_hold_ranks_alone(monkeypatch):
    """The class checks build no basis, and what they leave on the context
    is one (R, 2) int16 rank stack per key and the rank scale at the least
    representative of each orbit of the structure's lattice symmetries."""
    ctx = HodgeContext(*_case(2, 1, twisted=True))
    for name in ("_range_basis", "_range_and_null", "_basis_rank"):
        monkeypatch.setattr(hodge, name, lambda *args, name=name: pytest.fail(name))
    for k in ctx.structure.levels():
        for kind in CHECK_KINDS:
            ctx.class_check(kind, k)
    assert ctx._packages == {}
    count = len(ctx.level_basis.weight)
    for stack in ctx.level_basis._rank_stacks.values():
        assert stack.shape == (count, 2) and stack.dtype == np.int16
    assert ctx.level_basis._scale.shape == hodge._orbit_index(ctx.level_basis.orbits())[0].shape


@pytest.mark.parametrize(
    "shape", [(5, 1), (1, 5), (1, 1), (0, 3), (3, 0), (0, 0)],
    ids=["column", "row", "scalar", "no-rows", "no-columns", "empty"],
)
def test_one_row_and_one_column_stacks_match_the_svd(shape):
    """Ranks of stacks of single rows or columns, or of empty matrices,
    agree with a per-matrix SVD under the same cut, on zero vectors, floors
    that bind and floors that do not."""
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(7,) + shape) + 1j * rng.normal(size=(7,) + shape)
    mats[0] = 0.0
    mats[1] *= 1e-13
    norms = np.linalg.norm(mats.reshape(7, -1), axis=1)
    # no floor, floors just below and just above the norm, a floor at the
    # noise level of a unit vector, a floor on a zero vector
    floors = np.array([0.0, 0.0, 0.5, 2.0, 1e-9, 0.0, 3.0]) * np.where(norms > 0, norms, 1.0)
    floors[4] = 1e-9
    rank = hodge._rank(mats, floors)
    assert rank.tolist() == [_ref_rank(mat, floor=floor) for mat, floor in zip(mats, floors)]
    if min(shape) == 1:
        assert rank.tolist() == [0, 1, 1, 0, 1, 1, 0]


@pytest.mark.parametrize("shape", [(4, 4), (12, 4), (4, 8)], ids=["square", "tall", "wide"])
def test_range_and_null_bases_match_the_svd(shape):
    """Range and null-space bases of a stack, zero past their rank and
    nullity, span what a per-matrix SVD spans, and ``_basis_rank`` reads the
    rank back; a stack of zero, rank-deficient and full-rank matrices."""
    rng = np.random.default_rng(7)
    rows, cols = shape
    mats = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
    mats[0] = 0.0
    mats[1:4] = mats[1:4, :, :2] @ mats[1:4, :2, :]  # rank 2
    mats[2] *= 1e-13
    span = hodge._range_basis(mats)
    shared_span, null = hodge._range_and_null(mats)
    assert span.shape == shared_span.shape == (6, rows, min(shape))
    assert null.shape == (6, cols, cols)

    def projector(basis):
        return basis @ basis.conj().T

    for mat, u, w, v in zip(mats, span, shared_span, null):
        ref_rank = _ref_rank(mat)
        assert hodge._basis_rank(u) == hodge._basis_rank(w) == ref_rank
        assert hodge._basis_rank(v) == cols - ref_rank
        want = projector(_ref_range_basis(mat))
        assert np.allclose(projector(u), want) and np.allclose(projector(w), want)
        assert np.allclose(projector(v), projector(_ref_null_basis(mat)))
    assert hodge._basis_rank(span).tolist() == [0, 2, 2, 2, 4, 4]


# ----------------------------------------------------------------------
# the Laplacians assembled per level block against the full-matrix formula
# ----------------------------------------------------------------------


def _full_matrix_laplacian(ctx, kind):
    """The Laplacian from products of whole masked operator matrices."""

    def adj(x):
        return x.conj().swapaxes(1, 2)

    every = slice(None)
    if kind in ("d", "del", "dbar"):
        a = ctx._op(kind, every)
        return a @ adj(a) + adj(a) @ a
    dl, db = ctx._op("del", every), ctx._op("dbar", every)
    if kind == "bc":
        t, s = dl @ db, adj(db) @ dl
        return (
            t @ adj(t) + adj(t) @ t + s @ adj(s) + adj(s) @ s + adj(db) @ db + adj(dl) @ dl
        )
    t, r = db @ dl, dl @ adj(db)
    return t @ adj(t) + adj(t) @ t + r @ adj(r) + adj(r) @ r + db @ adj(db) + dl @ adj(dl)


def _sheared_case(n, K):
    b = np.zeros((2 * n, 2 * n))
    b[0, 1], b[1, 0] = 0.7, -0.7
    s = GCStructure.complex_structure(n, TruncationBox(K)).b_transform(b)
    return s, GeneralizedMetric.from_tensors(s.geometry, np.eye(2 * n), b)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _case(1, 1),
        lambda: _case(1, 2),
        lambda: _symplectic_case(1, 1),
        lambda: _symplectic_case(1, 2),
        lambda: _case(2, 1, twisted=True),
        lambda: _sheared_case(2, 1),
    ],
    ids=["t2-K1", "t2-K2", "t2-symplectic-K1", "t2-symplectic-K2", "t4-twisted", "t4-sheared"],
)
def test_laplacian_is_zero_off_its_blocks_and_assembled_per_block(build):
    """The full-matrix products are exact zeros off the level blocks (off
    nothing for d, whose one block is the whole matrix), and the Laplacian
    assembled per level block equals them."""
    ctx = HodgeContext(*build())
    lb = ctx.level_basis
    for kind in KINDS:
        full = _full_matrix_laplacian(ctx, kind)
        off = np.ones((lb.size, lb.size), dtype=bool)
        for b in lb.blocks(kind):
            off[b, b] = False
        assert not full[:, off].any(), kind
        blocks = ctx._laplacian(kind, slice(None))
        scale = max(1.0, float(np.abs(full).max()))
        assert np.abs(blocks - full).max() <= 1e-12 * scale, kind


# ----------------------------------------------------------------------
# the +-k mirror: untwisted operators are odd in k
# ----------------------------------------------------------------------


def _deformed_context():
    """The Hodge context of complex T^4 K=1 sheared by a constant deformation."""
    s, _ = _case(2, 1)
    eps = CliffordPoly(s.dual_frame, 2, {(0, 2): FourierScalar.constant(s.geometry, s.box, 0.3)})
    return DeformedStructure(s, eps).context


MIRROR_CASES = {
    "t4-complex": lambda: HodgeContext(*_case(2, 1)),
    "t4-symplectic": lambda: HodgeContext(*_symplectic_case(2, 1)),
    "t4-b-transform": lambda: HodgeContext(*_sheared_case(2, 1)),
    "t4-deformed": _deformed_context,
}


@pytest.fixture(scope="module", params=sorted(MIRROR_CASES))
def mirrored(request):
    return MIRROR_CASES[request.param]()


def test_untwisted_d_is_odd_in_k_and_its_laplacians_even(mirrored):
    """d at -k is bitwise -d at k, and every Laplacian block at -k is
    bitwise the one at k; -k of mode i is mode P - 1 - i, so mode i is
    represented by min(i, P - 1 - i)."""
    ctx = mirrored
    lb = ctx.level_basis
    modes = box_modes(ctx)
    count = len(modes)
    assert all(modes[count - 1 - i] == tuple(-k for k in mode) for i, mode in enumerate(modes))
    d = lb.d(slice(None))
    assert np.array_equal(d[::-1], -d)
    for kind in KINDS:
        for block in hodge._laplacian_blocks(lb, d, kind):
            assert np.array_equal(block[::-1], block), kind
    assert lb.rep.tolist() == [min(i, count - 1 - i) for i in range(count)]
    assert lb.weight.tolist() == [2] * (count // 2) + [1]


def test_twisted_context_decomposes_every_mode(t4ctx_twisted):
    """-H^ is not zero, so d is not odd in k: every mode stands for itself,
    and a package reads its eigenvalues and eigenvectors at every mode.  Its
    kernel counts are ranked at the least mode of each orbit of the twisted
    structure's lattice symmetries alone, and are constant on the orbits."""
    from gentorus.deformation import AlgebroidHodge

    ctx = t4ctx_twisted
    lb = ctx.level_basis
    every = list(range(len(lb.modes)))
    assert lb.rep.tolist() == every and lb.weight.tolist() == [1] * len(every)
    pk = ctx.package("bc")
    labels = lb.orbits()
    least = np.flatnonzero(labels == every)
    assert 0 < len(least) < len(every)
    assert max(p["ranked"] for p in lb.rank_passes) == len(least)
    assert all(len(m) == len(every) and np.array_equal(m, m[labels]) for m in pk.kernel)
    assert all(len(vals) == len(vecs) == len(every) for vals, vecs in pk.eigen(lb.rep))
    alg = AlgebroidHodge(ctx.structure, ctx.metric)
    assert alg.level_basis.rep.tolist() == every


def _full_box_spectra(ctx, kind):
    """Every mode's eigendecomposition, per diagonal block, by one eigh over the box."""
    lb = ctx.level_basis
    return [
        np.linalg.eigh((block + block.conj().swapaxes(-1, -2)) / 2)
        for block in hodge._laplacian_blocks(lb, lb.d(slice(None)), kind)
    ]


def _apply_full(spectra, blocks, index, coords, weights, cutoff):
    """weights(L) applied to coordinate rows at box modes ``index``, the
    kernel at each mode its eigenvalues at most ``cutoff``."""
    out = np.zeros_like(coords)
    for (vals, vecs), b in zip(spectra, blocks):
        v = vecs[index]
        kernel = np.sum(vals[index] <= cutoff, axis=-1)
        inner = weights(vals[index], kernel)[..., None] * (v.conj().swapaxes(-1, -2) @ coords[:, b, None])
        out[:, b] = (v @ inner)[..., 0]
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_representative_spectra_equal_a_full_box_decomposition(mirrored, kind):
    """The package reads half the box and its kernel counts are ranked at
    one mode per orbit of the lattice symmetries, yet its eigenvalues,
    eigenvectors, kernel dimensions, harmonic bases and harmonic and Green
    applies are those of a decomposition of every mode, its kernel there
    the eigenvalues under the whole box's cutoff."""
    ctx = mirrored
    lb, pk = ctx.level_basis, ctx.package(kind)
    count = len(lb.modes)
    full = _full_box_spectra(ctx, kind)
    blocks = lb.blocks(kind)
    every = hodge._eigh(lb, kind, np.arange(len(lb.weight)), pk.chunk)
    cutoff = _reference_cutoff(vals for vals, _ in full)
    assert max(p["ranked"] for p in lb.rank_passes) < count // 2 + 1
    for (vals, vecs), m, (held_vals, held_vecs) in zip(full, pk.kernel, every, strict=True):
        assert len(held_vals) == len(held_vecs) == count // 2 + 1
        assert np.array_equal(held_vals[lb.rep], vals)
        assert np.array_equal(held_vecs[lb.rep], vecs)
        assert np.array_equal(m[lb.rep], np.sum(vals <= cutoff, axis=1))

    def kernel_dim(level, indices):
        if pk.blockwise:
            vals = full[lb.levels.index(level)][0]
            return int(np.sum(vals[indices] <= cutoff))
        total = 0
        for i in indices:
            vals, vecs = full[0][0][i], full[0][1][i]
            kern = vecs[lb.level_slices[level]][:, vals <= cutoff]
            if kern.shape[1]:
                s = np.linalg.svd(kern, compute_uv=False)
                total += int(np.sum(s > RANK_CUTOFF * s[0])) if s[0] > RANK_CUTOFF else 0
        return total

    for level in lb.levels:
        assert pk.kernel_dimension(level) == kernel_dim(level, range(count))

    for level in [None, *lb.levels]:
        want = []
        for i, mode in enumerate(box_modes(ctx)):
            for key, (vals, vecs), b in zip(pk._levels, full, blocks):
                if pk.blockwise and level is not None and key != level:
                    continue
                for j in np.flatnonzero(vals[i] <= cutoff):
                    row = np.zeros(lb.size, dtype=complex)
                    row[b] = vecs[i][:, j]
                    want.append(lb.spinor([mode], row[None]))
        got = pk.harmonic_basis(level)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert {m: f.coeffs for m, f in a.comps.items()} == {
                m: f.coeffs for m, f in b.comps.items()
            }

    rng = np.random.default_rng(41)
    coords = rng.normal(size=(count, lb.size)) + 1j * rng.normal(size=(count, lb.size))
    sigma = lb.spinor(lb.modes, coords)
    index = lb.positions(sigma.modes)
    for method, weights in ((pk.harmonic, pk.harmonic_weights), (pk.green, pk.green_weights)):
        want = lb.spinor(sigma.modes, _apply_full(full, blocks, index, lb.column_coords(sigma.stack), weights, cutoff))
        got = method(sigma)
        assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())


def test_algebroid_spectra_equal_a_full_box_decomposition():
    """The algebroid package of complex T^4 K=1 reads half the box, and its
    kernel counts are ranked at the least of the 6 orbits of the 32 lattice
    symmetries alone, yet its harmonic projector and Green operator are
    those of a decomposition of every mode, its kernel there the
    eigenvalues under the whole box's cutoff."""
    from gentorus.deformation import AlgebroidHodge
    from gentorus.spinor import _stack_linear, random_fourier_scalar

    alg = AlgebroidHodge(*_case(2, 1))
    lb = alg.level_basis
    sp, count = alg._spectra, len(lb.modes)
    assert lb.rep.tolist() == [min(i, count - 1 - i) for i in range(count)]
    d = _stack_linear(alg._const, alg._slopes, lb.modes)
    assert np.array_equal(d[::-1], -d)
    full = [
        np.linalg.eigh((block + block.conj().swapaxes(-1, -2)) / 2)
        for block in hodge._laplacian_blocks(lb, d, "dbar")
    ]
    levels = [lb.level_slices[k] for k in lb.levels]
    every = hodge._eigh(lb, "dbar", np.arange(len(lb.weight)), sp.chunk)
    cutoff = _reference_cutoff(vals for vals, _ in full)
    assert max(p["ranked"] for p in lb.rank_passes) == len(lb.orbit_reps()[0]) == 6
    for (vals, vecs), m, (full_vals, full_vecs) in zip(every, sp.kernel, full, strict=True):
        assert len(vals) == count // 2 + 1
        assert np.array_equal(vals[lb.rep], full_vals)
        assert np.array_equal(vecs[lb.rep], full_vecs)
        assert np.array_equal(m[lb.rep], np.sum(full_vals <= cutoff, axis=1))

    rng = np.random.default_rng(43)
    s = alg.structure
    for degree, keys in ((1, [(0,), (2,)]), (2, [(0, 2), (1, 3)])):
        terms = {key: random_fourier_scalar(rng, s.geometry, s.box, terms=12) for key in keys}
        poly = CliffordPoly(s.dual_frame, degree, terms)
        modes, coords = alg._coords(poly)
        index = hodge._mode_positions(s.box, s.dim, modes)
        for method, weights in ((alg.harmonic, sp.harmonic_weights), (alg.green, sp.green_weights)):
            rows = _apply_full(full, levels, index, coords, weights, cutoff)
            got, want = method(poly), alg._poly(modes, rows, degree)
            assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())


def _algebroid_structures():
    """Complex, twisted complex, symplectic and B-transformed T^4 at K=1."""
    om = np.zeros((4, 4))
    om[0, 1] = om[2, 3] = 1.0
    b = np.zeros((4, 4))
    b[0, 2] = 0.5
    return {
        "complex": _case(2, 1)[0],
        "twisted": _case(2, 1, twisted=True)[0],
        "symplectic": GCStructure.symplectic_structure(om - om.T, TruncationBox(1)),
        "b_transform": _case(2, 1)[0].b_transform(b - b.T),
    }


@pytest.mark.parametrize("name", sorted(_algebroid_structures()))
def test_algebroid_spectra_equal_the_dbar_package(name):
    """Under P -> P . rho0 d_L is dbar: the algebroid differential is d's
    raising blocks, exactly zero elsewhere, and its kernel counts and
    spectra are bitwise those of the context's dbar package."""
    from gentorus.deformation import AlgebroidHodge

    s = _algebroid_structures()[name]
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(s.dim))
    alg = AlgebroidHodge(s, m)
    lowered = ~s.shift_mask(+1)
    assert not alg._const[lowered].any()
    assert not alg._slopes[:, lowered].any()
    pk = HodgeContext(s, m).package("dbar")
    assert np.array_equal(alg.level_basis.rep, pk.level_basis.rep)
    alg_sp = alg._spectra
    assert len(alg_sp.kernel) == len(pk.kernel) == s.dim + 1
    reps = np.arange(len(pk.level_basis.weight))
    got = alg_sp.kernel + [a for pair in alg_sp.eigen(reps) for a in pair]
    want = pk.kernel + [a for pair in pk.eigen(reps) for a in pair]
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


def test_algebroid_package_makes_no_dL_calls(monkeypatch):
    """The algebroid operator comes from d's assembly, not from d_L probes."""
    from gentorus import calculus, deformation

    calls = []

    def counting(*args, _real=calculus.lie_derivation_dL, **kwargs):
        calls.append(1)
        return _real(*args, **kwargs)

    monkeypatch.setattr(calculus, "lie_derivation_dL", counting)
    monkeypatch.setattr(deformation, "lie_derivation_dL", counting)
    deformation.AlgebroidHodge(*_case(2, 1))
    assert calls == []


@pytest.mark.parametrize(
    "twisted, rows, orbits", [(False, 41, 6), (True, 81, 27)], ids=["untwisted", "twisted"]
)
def test_hodge_table_decomposes_only_the_representative_modes(twisted, rows, orbits, monkeypatch):
    """On T^4 K=1 (81 modes) the representatives are 41 modes untwisted and
    all 81 twisted, and the least modes of the orbits of the lattice
    symmetries are 6 and 27 of them.  With CHUNK_BYTES room for one chunk
    of 81 in every pass, the package builds hand eigh nothing and svd
    stacks of at most those least modes, their rank passes, and every mode
    stack that hodge_table hands to svd or eigh holds at most as many: its
    rank passes rank one mode per orbit, and the level content of the d
    kernel decomposes only the least modes whose orbits have a kernel."""
    monkeypatch.setattr(hodge, "CHUNK_BYTES", _chunk_bytes(16, 81, stacks=4))
    ctx = HodgeContext(*_case(2, 1, twisted))
    stacks = []
    for name in ("svd", "eigh"):

        def counting(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            if np.ndim(a) > 2:
                stacks.append((_name, len(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for kind in ("dbar", "bc", "aeppli", "d"):
        ctx.package(kind)
    builds = list(stacks)
    hodge_table(ctx)
    assert len(ctx.level_basis.weight) == rows
    assert builds and {name for name, _ in builds} == {"svd"}
    assert max(size for _, size in builds) == orbits
    assert ("eigh", orbits) not in stacks
    assert len(stacks) > len(builds) and max(size for _, size in stacks) == orbits


# ----------------------------------------------------------------------
# d built from C and the A_a at the modes asked for, never over the box
# ----------------------------------------------------------------------


ASSEMBLY_CASES = {
    f"{name}-K{K}": functools.partial(build, 2, K)
    for name, build in (
        ("complex", _case),
        ("twisted", lambda n, K: _case(n, K, twisted=True)),
        ("symplectic", _symplectic_case),
        ("b-transform", _sheared_case),
    )
    for K in (1, 2)
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
def test_d_built_per_level_block_and_mode_chunk_is_the_whole_box_stack(name, monkeypatch):
    """Every level block at the representatives, every chunk of d, of its
    masked operators and of its Laplacian blocks, d at scattered modes and
    at one mode, and the rank floors equal the slices of the whole-box
    ``_stack_linear`` stack bitwise, over ragged chunks of 7 modes."""
    monkeypatch.setattr(hodge, "CHUNK_BYTES", _chunk_bytes(16, 7))
    ctx = HodgeContext(*ASSEMBLY_CASES[name]())
    lb = ctx.level_basis
    whole = hodge._stack_linear(lb.const, lb.slopes, lb.modes)
    reps = slice(len(lb.weight))

    def same(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    n = ctx.structure.n
    for r in range(-n - 1, n + 2):
        for c in range(-n - 1, n + 2):
            want = whole[reps][:, lb.level(r), lb.level(c)]
            assert same(ctx.level_basis._block(r, c, reps), want), (r, c)

    chunks = list(lb.rep_chunks(1))
    assert len(chunks) > 1 and chunks[0].start == 0 and chunks[-1].stop == len(lb.weight)
    masked = {key: np.where(mask, whole, 0.0) for key, mask in ctx._masks.items()}
    masked["d"] = whole
    masked["deldbar"] = masked["del"] @ masked["dbar"]
    for sel in chunks:
        for op, stack in masked.items():
            assert same(ctx._op(op, sel), stack[sel]), op
        for kind in KINDS:
            want = hodge._laplacian_blocks(lb, whole[sel], kind)
            got = hodge._laplacian_blocks(lb, lb.d(sel), kind)
            assert all(same(g, w) for g, w in zip(got, want)) and len(got) == len(want), kind

    modes = box_modes(ctx)
    scattered = np.random.default_rng(3).permutation(len(modes))[:11]
    assert same(ctx._op("d", scattered), whole[scattered])
    for i in (0, len(modes) // 3, len(modes) - 1):
        assert same(operator_matrix(ctx, "d", modes[i]), whole[i])
        assert same(operator_matrix(ctx, "deldbar", modes[i]), masked["deldbar"][i])
    assert same(ctx._op("dbar", slice(None)), masked["dbar"])
    assert same(ctx.level_basis._floor()[0], np.maximum(1.0, np.abs(whole[reps]).max(axis=(1, 2))))


def _arrays(value):
    """The numpy arrays held by an attribute, through dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("twisted", [False, True], ids=["untwisted", "twisted"])
def test_no_operator_stack_over_the_box_outlives_hodge_table(twisted):
    """After hodge_table on T^4 K=2 (625 modes), what the context holds
    over the whole box is per-mode indices (the mirror map, the modes, the
    orbit labels, the ranks), never a stack of per-mode matrices, and it
    holds no package."""
    ctx = HodgeContext(*_case(2, 2, twisted))
    hodge_table(ctx)
    count = len(ctx.level_basis.modes)
    assert ctx._packages == {}
    box_wide = set()
    for holder in (ctx, ctx.level_basis):
        for attr, value in vars(holder).items():
            for a in _arrays(value):
                if a.ndim and len(a) == count:
                    box_wide.add(attr)
                    assert a.ndim <= 2 and not np.iscomplexobj(a), attr
    twisted_wide = {"rep", "modes", "_orbit_labels", "_rank_stacks", "weight"}
    assert box_wide == (twisted_wide if twisted else {"rep", "modes"})


def _traced_peak(run) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hodge_context_and_class_checks_peak_below_one_box_d_stack():
    """Building a context on complex T^4 K=2 and deciding hodge_table's 25
    class checks peaks below one whole-box d stack (0.7 of one; a context
    that kept d over the box held a whole one from the start)."""
    s, m = _case(2, 2)
    questions = [(kind, k) for k in s.levels() for kind in CHECK_KINDS]
    stack = len(list(s.box.modes(s.geometry))) * 16 * 16 * 16

    def checks():
        ctx = HodgeContext(s, m)
        for kind, k in questions:
            ctx.class_check(kind, k)

    assert _traced_peak(checks) < stack


def _representative_stack(s) -> int:
    """Bytes of one complex d stack over the representative modes of an
    untwisted box."""
    return (len(list(s.box.modes(s.geometry))) // 2 + 1) * 16 * (2 ** s.dim) ** 2


def test_hodge_table_peaks_below_two_box_d_stacks():
    """hodge_table on complex T^4 K=3, context included, peaks below 0.6
    of one d stack over the 1201 representatives (about a quarter of a
    whole-box stack: the rank stacks held, plus one chunk of CHUNK_BYTES in
    a pass).  It read 1.25 when passes went 256 modes at a time and a pass
    of the d Laplacian, which holds four such stacks, set the peak, and 4.8
    when d was kept over the box."""
    s, m = _case(2, 3)
    peak = _traced_peak(lambda: hodge_table(HodgeContext(s, m)))
    assert peak < 0.6 * _representative_stack(s)


def test_t6_hodge_table_peaks_below_a_sixth_of_a_representative_d_stack():
    """hodge_table on complex T^6 K=1 (365 representatives, N = 64), context
    included, peaks below a sixth of one d stack over the representatives
    (0.12 of one; 2.9 when a pass of the d Laplacian went 256 modes at a
    time)."""
    s, m = _case(3, 1)
    peak = _traced_peak(lambda: hodge_table(HodgeContext(s, m)))
    assert peak < _representative_stack(s) / 6


def test_packages_hold_their_eigenvalues_alone_after_kernel_counts():
    """After every level's kernel dimension is read from the dbar, bc,
    aeppli and d packages of complex T^4 K=2, they hold less than a
    twentieth of a d stack over the 313 representatives (their kernel
    counts and read slots, a few ints per representative; their
    first-pass eigenvalues took about an eighth of one, and two such
    stacks of eigenvectors when every package kept its own): the kernel
    counts read rank stacks alone, and the d kernel's eigenvectors are
    built at its kernel modes and dropped."""
    import gc
    import tracemalloc

    s, m = _case(2, 2)
    stack = (len(list(s.box.modes(s.geometry))) // 2 + 1) * 16 * 16 * 16
    tracemalloc.start()
    try:
        ctx = HodgeContext(s, m)
        for kind in ("dbar", "bc", "aeppli", "d"):
            pk = ctx.package(kind)
            for k in s.levels():
                pk.kernel_dimension(k)
        gc.collect()
        with_packages = tracemalloc.get_traced_memory()[0]
        ctx._packages.clear()
        gc.collect()
        held = with_packages - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < 0.05 * stack


ON_DEMAND_CASES = {
    "complex": lambda: _case(2, 1),
    "twisted": lambda: _case(2, 1, twisted=True),
}


@pytest.mark.parametrize("chunk", [7, 256])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(ON_DEMAND_CASES))
def test_on_demand_eigenvectors_equal_a_whole_box_eigh(name, kind, chunk, monkeypatch):
    """Eigenvalues and eigenvectors built at the representatives asked for,
    one at a time, scattered and repeated, in ragged chunks of 7 modes,
    with and without being kept, are bitwise those of one eigh over the
    whole box, at the least mode of each orbit too, and a package builds
    with none held.  The d kind's pass holds four stacks, a blockwise one's
    one, and the chunk is set in bytes for the kind's own."""
    stacks = 4 if kind == "d" else 1
    monkeypatch.setattr(hodge, "CHUNK_BYTES", _chunk_bytes(16, chunk, stacks))
    ctx = HodgeContext(*ON_DEMAND_CASES[name]())
    sp = ctx.package(kind)
    assert sp.chunk == chunk
    full = _full_box_spectra(ctx, kind)
    lb = ctx.level_basis
    count = len(lb.weight)

    def same(got, reps):
        return len(got) == len(full) and all(
            g.shape == v[reps].shape and g.tobytes() == v[reps].tobytes()
            for pair, want in zip(got, full) for g, v in zip(pair, want, strict=True)
        )

    assert not (sp._slot >= 0).any() and all(len(vals) == 0 for vals, _ in sp._held)
    for r in (count - 1, 0, count // 2, 0):
        assert same(sp.eigen(r), r)
    scattered = np.random.default_rng(5).permutation(count)[:19]
    assert same(sp.eigen(np.concatenate([scattered, scattered[:3]])),
                np.concatenate([scattered, scattered[:3]]))
    assert same(hodge._eigh(lb, kind, scattered, sp.chunk), scattered)
    least = lb.orbit_reps()[0]
    assert same(sp.eigen(least), least)
    assert same(sp.eigen(np.arange(count)), np.arange(count))
    assert same(hodge._eigh(lb, kind, np.arange(count), sp.chunk), np.arange(count))
    assert len(sp._held[0][0]) == len(sp._held[0][1]) == count


@pytest.mark.parametrize("chunk", [7, 256])
@pytest.mark.parametrize("twisted", [False, True], ids=["untwisted", "twisted"])
def test_repeated_single_mode_reads_decompose_each_representative_once(twisted, chunk, monkeypatch):
    """Green and harmonic reads at one mode at a time, repeated, at k and at
    -k, hand each representative to eigh once per package: one matrix per
    block, the first time it is read.  ``chunk`` is the blockwise passes'
    chunk length (256 at the default CHUNK_BYTES); the d kind's pass holds
    four stacks, so its chunk is a quarter of it, 1 or 64.  A package
    builds with no eigenvectors held, so every representative read is
    decomposed once, whatever the chunk."""
    monkeypatch.setattr(hodge, "CHUNK_BYTES", _chunk_bytes(16, chunk))
    ctx = HodgeContext(*_case(2, 1, twisted))
    lb = ctx.level_basis
    packages = {kind: ctx.package(kind) for kind in ("dbar", "bc", "d")}
    decomposed = []

    def counting(a, *args, _real=np.linalg.eigh, **kwargs):
        decomposed.append(len(a) if np.ndim(a) > 2 else 1)
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    rng = np.random.default_rng(7)
    modes = box_modes(ctx)
    positions = [1, 2, len(modes) - 2, 40, 1, 2, 40]
    for kind, pk in packages.items():
        decomposed.clear()
        first = {}
        for _ in range(3):
            for i in positions:
                sigma = lb.spinor([modes[i]], rng.normal(size=(1, lb.size)) + 0j)
                pk.green(sigma)
                pk.harmonic(sigma)
                first.setdefault(i, pk.matrix(i, pk.green_weights))
                assert np.array_equal(pk.matrix(i, pk.green_weights), first[i])
        assert pk.chunk == (chunk // 4 if kind == "d" else chunk)
        reps = {int(lb.rep[i]) for i in positions}
        assert reps and sum(decomposed) == len(reps) * len(pk.blocks), kind


def test_context_whose_packages_read_eigenvectors_dies_with_its_last_reference(monkeypatch):
    """The packages' spectra hold the level basis, which holds d's C, A_a
    and modes but not the context, so a context whose packages have built
    and kept eigenvectors is freed without the cyclic collector, and so is
    an algebroid package; a package kept alone still works."""
    import gc

    from gentorus.deformation import AlgebroidHodge

    # chunks of 5 representatives
    monkeypatch.setattr(hodge, "CHUNK_BYTES", _chunk_bytes(16, 5))
    s, m = _case(2, 1)
    gc.collect()
    gc.disable()
    try:
        ctx = HodgeContext(s, m)
        lb = ctx.level_basis
        sigma = lb.spinor(lb.modes[5:6], np.arange(lb.size)[None] + 1j)
        pk = ctx.package("bc")
        green = pk.green(sigma)
        ctx.package("d").kernel_dimension(0)
        ctx.package("d").harmonic(sigma)
        assert len(pk._held[0][0]) == 1
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
        assert (pk.green(sigma) - green).norm() == 0.0

        alg = AlgebroidHodge(s, m)
        poly = CliffordPoly(s.dual_frame, 1, {(0,): FourierScalar(s.geometry, s.box, {(1, 0, 0, 0): 0.5})})
        alg.green(poly)
        assert len(alg._spectra._held[0][0]) == 1
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# the hodge-table counted from rank stacks, against the packages
# ----------------------------------------------------------------------


TABLE_CASES = {
    "t2-K3": lambda: _case(1, 3),
    "t4-K1": lambda: _case(2, 1),
    "t4-K2": lambda: _case(2, 2),
    "t4-twisted-K1": lambda: _case(2, 1, twisted=True),
    "t4-twisted-K2": lambda: _case(2, 2, twisted=True),
    "t4-symplectic-K1": lambda: _symplectic_case(2, 1),
    "t4-b-transform-K1": lambda: _sheared_case(2, 1),
    "t6-K1": lambda: _case(3, 1),
    "t6-twisted-K1": lambda: _case(3, 1, twisted=True, h=(0, 1, 3)),
}


def _table_after_checks(ctx):
    """hodge_table on a context whose class checks were decided first, and
    the rank stacks that the table's kernel counts added."""
    for k in ctx.structure.levels():
        for kind in CHECK_KINDS:
            ctx.class_check(kind, k)
    before = set(ctx.level_basis._rank_stacks)
    table = hodge_table(ctx)
    assert ctx._packages == {}
    return table, set(ctx.level_basis._rank_stacks) - before


def _rank_kernel(ctx):
    """Per representative, N - 2 r(d) from d's two parity rank stacks."""
    return ctx.level_basis.size - 2 * sum(ctx.level_basis._ranks(("d", p))[:, 0] for p in (0, 1))


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_hodge_table_rank_counts_equal_the_packages(name):
    """hodge_table builds no package and no spectra, and ranks no stack
    beyond the class checks' but d's two parity blocks; its dbar, bc,
    aeppli and d rows equal the packages' kernel dimensions level by level,
    and N - 2 r(d), the d package's kernel count, equals the count of the
    d Laplacian's eigenvalues under the whole box's cutoff at every
    representative, read there and at the least representative of each
    orbit of the lattice symmetries."""
    ctx = HodgeContext(*TABLE_CASES[name]())
    table, added = _table_after_checks(ctx)
    assert added == {("d", 0), ("d", 1)}
    levels = list(ctx.structure.levels())
    for kind, dims in table["kernel_dimensions"].items():
        pk = ctx.package(kind)
        assert dims == {str(k): pk.kernel_dimension(k) for k in levels}, kind
    pk = ctx.package("d")
    assert np.array_equal(pk.kernel[0], _rank_kernel(ctx))
    own = pk.eigen(np.arange(len(ctx.level_basis.weight)))[0][0]
    cutoff = _reference_cutoff([own])
    least = ctx.level_basis.orbit_reps()[0]
    assert np.array_equal(_rank_kernel(ctx)[least], np.sum(own[least] <= cutoff, axis=1))
    assert np.array_equal(_rank_kernel(ctx), np.sum(own <= cutoff, axis=1))
    assert "warnings" not in table


def test_hodge_table_rank_counts_where_the_floors_bind():
    """With g = 1e-4 on twisted T^4 K=2, d reaches 7e5 and the absolute
    rank floors bind on every mode.  A cutoff of RANK_CUTOFF times the
    spectral radius over the box is then 500 and would take small nonzero
    eigenvalues of the low modes for kernel, while the rank counts are those
    of g = 1: a constant rescaling of the metric moves no cohomology, so the
    table and the per-mode d kernel are unchanged."""
    scaled = HodgeContext(*_case(2, 2, twisted=True, g_scale=1e-4))
    table, added = _table_after_checks(scaled)
    assert added == {("d", 0), ("d", 1)}
    plain = HodgeContext(*_case(2, 2, twisted=True))
    assert table == hodge_table(plain)
    assert table["kernel_dimensions"]["dbar"] == {"-2": 1, "-1": 3, "0": 4, "1": 3, "2": 1}
    assert np.array_equal(_rank_kernel(scaled), _rank_kernel(plain))


@pytest.mark.parametrize("case", CASES, ids=CLASS_CHECK_IDS)
def test_harmonic_rows_are_null_vectors_of_the_counted_pair(case):
    """On every class-check structure, the g = 1e-4 ones included, for every
    kind and level: each harmonic basis row v at mode m is a null vector of
    the pair A, B whose ker A cap ker B* the kind's kernel is
    (``_LevelBasis.kernel_terms``; d and d for the d kind), with
    |[A_m; B_m*] v| at most RANK_CUTOFF times the rank scale at m, and each
    package's kernel dimension is ``kernel_counts``, which counts as many
    rows."""
    ctx = HodgeContext(*CLASS_CHECK_CASES[case]())
    lb = ctx.level_basis
    scale = lb._floor()[0]

    def residual(a, b, v):
        out = np.einsum("mij,mj->mi", a, v)
        adj = np.einsum("mji,mj->mi", b.conj(), v)
        return np.sqrt(np.linalg.norm(out, axis=1) ** 2 + np.linalg.norm(adj, axis=1) ** 2)

    for kind in KINDS:
        pk = ctx.package(kind)
        counts = lb.kernel_counts([kind])[0][kind]
        assert {k: pk.kernel_dimension(k) for k in lb.levels} == counts, kind
        if kind == "d":
            index, rows = pk.harmonic_basis_rows()
            assert len(index) == int(pk.kernel[0] @ lb.weight)
            d = lb.d(index)
            worst = residual(d, d, rows) / (RANK_CUTOFF * scale[lb.rep[index]])
            assert np.all(worst <= 1.0), kind
            continue
        for level in lb.levels:
            index, rows = pk.harmonic_basis_rows(level)
            assert len(index) == counts[level], (kind, level)
            a, b = (lb._rank_matrices(key, index) for key in hodge.KERNEL_TERMS[kind](level))
            worst = residual(a, b, rows[:, lb.level_slices[level]]) / (RANK_CUTOFF * scale[lb.rep[index]])
            assert np.all(worst <= 1.0), (kind, level)


def _twisted_deform_config(K, g):
    """The benchmark's t4-deform experiments (two extends and a scan) on
    twisted complex T^4, H = dx0^dx1^dx2, at box size K and metric g I."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "t4-deform" / "t4_deform.json"
    config = json.loads(path.read_text("utf-8"))
    config["structure"] = {"type": "complex", "H": [{"indices": [0, 1, 2], "c": 1.0}]}
    config["torus"] = dict(config["torus"], K=K)
    config["metric"] = {"g": (g * np.eye(4)).tolist()}
    return config


def test_twisted_deform_verdicts_do_not_depend_on_the_metric_scale():
    """Kernel dimensions are dimensions of harmonic spaces, so a constant
    rescaling of the metric moves no verdict: the t4-deform experiments on
    twisted T^4 K=1 give the same statuses and findings at g = I and at
    g = 1e-4 I, finding, pass, finding (the second extend reported
    ``input is not dbar-closed`` at g = 1e-4 when the packages cut their
    kernels at a fraction of the spectral radius)."""
    from gentorus.scenario import run_scenario

    verdicts = []
    for g in (1.0, 1e-4):
        report = run_scenario(_twisted_deform_config(1, g))[0]
        verdicts.append([(e["status"], e.get("findings")) for e in report["experiments"]])
    assert verdicts[0] == verdicts[1]
    assert [status for status, _ in verdicts[0]] == ["finding", "pass", "finding"]


def test_unresolved_green_operator_errors_and_never_passes():
    """On twisted T^4 K=1 at g = 1e-4 I the bc and aeppli Laplacians reach
    2.5e23, and rounding leaves eigenvalues of 0 or less past the
    rank-counted kernel at modes such as (0, 0, 0, +-1), where a Green
    weight would be inf.  Their identity residuals raise LinAlgError or are
    finite, and the identity suite reports an error or finite entries,
    never a pass over a NaN."""
    from gentorus.scenario import run_scenario

    ctx = HodgeContext(*CLASS_CHECK_CASES[CLASS_CHECK_IDS.index("t4-twisted-floors")]())
    for kind in ("bc", "aeppli"):
        try:
            value = ctx.identity_residual(kind)
        except np.linalg.LinAlgError as err:
            assert "Green operator unresolved" in str(err), kind
        else:
            assert np.isfinite(value), kind

    config = _twisted_deform_config(1, 1e-4)
    config["experiments"] = [{"kind": "identity-suite", "samples": 2}]
    record = run_scenario(config)[0]["experiments"][0]
    if record["status"] == "error":
        assert "Green operator unresolved" in record["error"]
    else:
        assert all(np.isfinite(e["value"]) for e in record["entries"])


def test_identity_reductions_keep_a_nan(monkeypatch):
    """A NaN in a Green operator is never reduced away: ``identity_residual``
    raises, as its operator norm is an SVD, which does not converge on a
    NaN, and the Green commutation entries that read it are NaN and fail,
    rather than a max over the chunks dropping it and reporting the
    others' worst."""
    ctx = HodgeContext(*CLASS_CHECK_CASES[CLASS_CHECK_IDS.index("t4")]())
    for kind in ("bc", "aeppli"):
        pk = ctx.package(kind)
        monkeypatch.setattr(pk, "green_weights", lambda vals, m: np.full(vals.shape, np.nan))
    with pytest.raises(np.linalg.LinAlgError):
        ctx.identity_residual("bc")
    entries = {e["name"]: e for e in diagnostics._green_commutation(ctx)}
    for i in (5, 6, 7, 8):
        assert np.isnan(entries[f"green_identity_{i}"]["value"]), i
        assert not entries[f"green_identity_{i}"]["passed"], i


def _full_box_rank_stacks(ctx):
    """Every stack the table's kernel counts read, over every mode of the
    box, from the whole-box d: dbar_k, Col_k, Q_k and Row_k at each level
    and d's two parity blocks, each distinct stack once (a stack with an
    empty half is bitwise its other half)."""
    lb = ctx.level_basis
    whole = hodge._stack_linear(lb.const, lb.slopes, lb.modes)

    def block(r, c):
        return whole[:, lb.level(r), lb.level(c)]

    stacks = []
    for k in lb.levels:
        stacks += [
            block(k + 1, k), block(k, k - 1),
            np.concatenate([block(k - 1, k), block(k + 1, k)], axis=1),
            block(k, k - 1) @ block(k - 1, k),
            np.concatenate([block(k, k + 1), block(k, k - 1)], axis=2),
        ]
    odd = np.repeat([k % 2 for k in lb.levels], [lb.level(k).stop - lb.level(k).start for k in lb.levels])
    for p in (0, 1):
        stacks.append(whole[:, odd != p][:, :, odd == p])
    distinct = {(s.shape, s.tobytes()): s for s in stacks}
    return list(distinct.values()), np.maximum(1.0, np.abs(whole).max(axis=(1, 2)))


def test_rank_gap_warning_counts_every_mode_of_the_box(monkeypatch):
    """With a cutoff wide enough that singular values fall within 10x of
    the rank cut, the table warns with their count over every mode of the
    box, from each distinct stack it reads once: twice at a paired
    representative, once at mode 0.  On a twisted box, a stack that is its
    own conjugate partner counts the same way over the half it ranks."""
    monkeypatch.setattr(hodge, "RANK_CUTOFF", 0.1)
    for twisted in (False, True):
        ctx = HodgeContext(*_case(2, 1, twisted))
        stacks, scale = _full_box_rank_stacks(ctx)
        gap = 0
        for stack in stacks:
            if not stack.size:
                continue
            s = np.linalg.svd(stack, compute_uv=False)
            cut = np.maximum(0.1 * s[:, :1], 0.1 * scale[:, None])
            gap += int(np.sum((s > cut) & (s <= 10 * cut)))
        assert gap > 0
        assert hodge_table(ctx)["warnings"] == [
            f"rank gap warning: {gap} singular values within 10x of the rank cut"
        ], twisted


# ----------------------------------------------------------------------
# lattice symmetries: one rank per orbit
# ----------------------------------------------------------------------


def _diagonal_metric_case(K):
    """Complex T^4 with g = diag(1, 2, 1, 2): each complex line keeps its
    four rotations, but the two lines can no longer be exchanged."""
    s = GCStructure.complex_structure(2, TruncationBox(K))
    return s, GeneralizedMetric.from_tensors(s.geometry, np.diag([1.0, 2.0, 1.0, 2.0]))


SYMMETRY_CASES = dict(zip(CLASS_CHECK_IDS, CLASS_CHECK_CASES))
SYMMETRY_CASES["t6-K1"] = lambda: _case(3, 1)


def _group(generators, dim):
    """Every element of the group that the signed permutation matrices
    ``generators`` generate."""
    one = np.eye(dim, dtype=int)
    elements, todo = {one.tobytes(): one}, [one]
    while todo:
        p = todo.pop()
        for g in generators:
            q = g @ p
            if q.tobytes() not in elements:
                elements[q.tobytes()] = q
                todo.append(q)
    return list(elements.values())


def _preserves(structure, metric, p):
    """Whether P + P preserves J and G and P preserves H, each to 1e-10 of
    its largest entry, as matrix identities."""
    pp = np.kron(np.eye(2, dtype=int), p)
    h = structure._twist_tensor()
    moved = np.einsum("ai,bj,ck,ijk->abc", p, p, p, h)
    return all(
        np.abs(new - x).max() <= 1e-10 * np.abs(x).max()
        for new, x in ((pp @ structure.jmatrix @ pp.T, structure.jmatrix),
                       (pp @ metric.gmatrix @ pp.T, metric.gmatrix), (moved, h))
    )


def _form_action(p):
    """The action of the signed permutation P on forms, on the monomial
    basis: dx^a goes to s_a dx^{pi(a)}, and a monomial to the wedge of its
    factors' images."""
    dim = len(p)
    index = monomial_index(dim)
    target, signs = np.abs(p).argmax(axis=0), p.sum(axis=0)
    action = np.zeros((len(index), len(index)))
    for mono, col in index.items():
        image, sign = sort_monomial([target[a] for a in mono])
        action[index[image], col] = sign * np.prod(signs[list(mono)])
    return action


@pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
def test_symmetry_group_is_the_stabilizer_of_the_structure(name):
    """The generators generate a group of |G| signed permutations that
    contains I, is closed under composition, maps the box onto itself and
    preserves J, G and H; on T^2 and T^4 it is every signed permutation that
    does, found by listing them all.  -I belongs to it exactly when H = 0."""
    structure, metric = SYMMETRY_CASES[name]()
    dim = structure.dim
    generators, order = hodge._symmetry_group(structure, metric)
    group = _group(generators, dim)
    keys = {p.tobytes() for p in group}
    assert len(group) == order and np.eye(dim, dtype=int).tobytes() in keys
    assert all((p @ q).tobytes() in keys for p in group for q in group)
    assert all(_preserves(structure, metric, p) for p in group)
    lb = hodge._LevelBasis(structure, metric)
    for p in generators:
        image = lb.positions(lb.modes @ p.T)
        assert np.array_equal(np.sort(image), np.arange(len(lb.modes)))
    untwisted = not structure._twist_tensor().any()
    assert ((-np.eye(dim, dtype=int)).tobytes() in keys) == untwisted
    if dim <= 4:
        every = []
        for perm in itertools.permutations(range(dim)):
            for signs in itertools.product((1, -1), repeat=dim):
                p = np.zeros((dim, dim), dtype=int)
                p[list(perm), range(dim)] = signs
                if _preserves(structure, metric, p):
                    every.append(p.tobytes())
        assert sorted(every) == sorted(keys)


@pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
def test_each_symmetry_conjugates_d_by_a_level_block_unitary(name):
    """Each P of the group acts on forms (``_form_action``) by a matrix U
    in the level basis that is level-block-diagonal and unitary, and that
    carries d at m to d at P m: U C U^-1 = C and U A_a U^-1 = s_a A_{pi(a)},
    so U d_m U^-1 = d_{P m} at every m; for each generator this is checked
    at every mode of the box too, all to 1e-12 of the largest entry."""
    structure, metric = SYMMETRY_CASES[name]()
    lb = hodge._LevelBasis(structure, metric)
    generators, _ = hodge._symmetry_group(structure, metric)
    off = np.ones((lb.size, lb.size), dtype=bool)
    for k in lb.levels:
        off[lb.level(k), lb.level(k)] = False
    scale = max(1.0, float(np.abs(lb.slopes).max()), float(np.abs(lb.const).max()))
    for p in _group(generators, structure.dim):
        u = lb.basis_inv @ _form_action(p) @ lb.basis
        assert np.abs(u[off]).max(initial=0.0) <= 1e-12
        assert np.abs(u @ hodge._adjoint(u) - np.eye(lb.size)).max() <= 1e-12
        assert np.abs(u @ lb.const @ hodge._adjoint(u) - lb.const).max() <= 1e-12 * scale
        moved = np.einsum("ba,bij->aij", p, lb.slopes)
        assert np.abs(u @ lb.slopes @ hodge._adjoint(u) - moved).max() <= 1e-12 * scale
    for p in generators:
        u = lb.basis_inv @ _form_action(p) @ lb.basis
        image = lb.positions(lb.modes @ p.T)
        for sel in hodge._chunks(len(lb.modes), 64):
            d, want = lb.d(sel), lb.d(image[sel])
            assert np.abs(u @ d @ hodge._adjoint(u) - want).max() <= 1e-12 * max(1.0, np.abs(d).max())


@pytest.mark.parametrize(
    "build, order, orbits",
    [
        (lambda: _case(2, 3), 32, 91),
        (lambda: _case(3, 1), 384, 10),
        (lambda: _case(2, 2, twisted=True), 4, 175),
        (lambda: _sheared_case(2, 2), 4, 157),
        (lambda: _diagonal_metric_case(2), 16, 49),
    ],
    ids=["t4-K3", "t6-K1", "t4-twisted-K2", "t4-b-transform-K2", "t4-g-1212-K2"],
)
def test_symmetry_group_orders_and_orbit_counts(build, order, orbits):
    """The orders of the structures' symmetry groups, and the orbits of the
    box that a context ranks once each: complex T^4 has 32 symmetries (the
    four rotations of each complex line, and the exchange of the lines),
    which leave 91 of the 1201 representatives of K=3 to rank; complex T^6
    has 3! 4^3 = 384; the twist dx0^dx1^dx2 and the B-field leave 4; the
    metric diag(1, 2, 1, 2) forbids the exchange, leaving 16."""
    lb = HodgeContext(*build()).level_basis
    labels = lb.orbits()
    assert lb.group_order == order
    assert len(hodge._orbit_index(labels)[0]) == orbits
    assert np.array_equal(labels[labels], labels) and np.all(labels <= np.arange(len(labels)))


def test_mode_mirror_is_the_orbit_map_of_minus_identity():
    """``_mode_mirror`` labels each mode by the lesser of its index and its
    negative's, on a cube of any dimension and size, through the orbit map
    of the group {I, -I}; the trivial group leaves every mode its own."""
    for dim, K in ((2, 0), (2, 3), (4, 1), (3, 2)):
        modes = hodge._box_modes(TruncationBox(K), dim)
        index = np.arange(len(modes))
        assert np.array_equal(hodge._mode_mirror(modes, K, True), np.minimum(index, index[::-1]))
        assert np.array_equal(hodge._mode_mirror(modes, K, False), index)


def _complex_tensors(n):
    """J and G of the complex structure on T^{2n} with g = I, b = 0, and
    its zero twist, from their closed forms: J = -J_cx + J_cx^T with
    J_cx = [[0, -I], [I, 0]], and G = [[0, I], [I, 0]]."""
    rotation = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(n))
    structure = types.SimpleNamespace(
        dim=2 * n, jmatrix=np.kron(np.eye(2), rotation),
        _twist_tensor=lambda: np.zeros((2 * n,) * 3),
    )
    metric = types.SimpleNamespace(gmatrix=np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2 * n)))
    return structure, metric


def test_symmetry_search_and_orbits_on_t8_are_fast_and_linear_in_memory():
    """On complex T^8 K=1 (6561 modes, |G| = 4! 4^4 = 6144), finding the
    group and labelling the box's orbits take under 0.1 s and peak under
    eight integers per mode: the search never lists candidates or group
    elements, and the orbit map holds no array per generator.  The closed
    forms of J and G stand in for the structure, whose build at n = 4
    takes about 2 s and 240 MB (its (2n N, N) frame action's full SVD);
    they are the built ones at n = 2."""
    import time

    built, metric = _case(2, 0)
    closed, closed_metric = _complex_tensors(2)
    assert np.abs(closed.jmatrix - built.jmatrix).max() <= 1e-15
    assert np.abs(closed_metric.gmatrix - metric.gmatrix).max() <= 1e-15
    structure, metric = _complex_tensors(4)
    modes = hodge._box_modes(TruncationBox(1), 8)

    def run():
        generators, order = hodge._symmetry_group(structure, metric)
        return order, hodge._orbit_map(modes, 1, generators)

    times = []
    for _ in range(3):
        start = time.perf_counter()
        order, labels = run()
        times.append(time.perf_counter() - start)
    assert order == 6144 and np.count_nonzero(labels == np.arange(len(modes))) == 15
    assert min(times) < 0.1
    assert _traced_peak(run) < 8 * 8 * len(modes)


# ----------------------------------------------------------------------
# lattice symmetries: one eigendecomposition per orbit
# ----------------------------------------------------------------------


def _t4_deform_structures():
    """The structures and metrics of the six deformed contexts that the
    scan of the benchmark's t4-deform config builds: complex T^4 K=2
    deformed by its constant series at t = 0.05 to 0.3, each with 8
    lattice symmetries."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "t4-deform" / "t4_deform.json"
    config = json.loads(path.read_text("utf-8"))
    scenario = Scenario(config)
    (scan,) = [exp for exp in config["experiments"] if exp["kind"] == "scan"]

    def build(t):
        ctx = DeformedStructure(scenario.structure, scenario.series.eps_at(complex(t))).context
        return ctx.structure, ctx.metric

    return {f"t4-deform-t{t}": functools.partial(build, t) for t in scan["t_samples"]}


ORBIT_CASES = {**SYMMETRY_CASES, **_t4_deform_structures()}


def _direct_spectra(lb, kind):
    """Per block of the ``kind`` Laplacian, the eigenvalues and eigenvectors
    at every representative, from one eigh per chunk of 64 of them."""
    parts = [
        [np.linalg.eigh((block + hodge._adjoint(block)) / 2) for block in hodge._laplacian_blocks(lb, lb.d(sel), kind)]
        for sel in hodge._chunks(len(lb.weight), 64)
    ]
    return [tuple(np.concatenate(arrays) for arrays in zip(*per_block)) for per_block in zip(*parts)]


def _direct_kernel(ctx, kind):
    """Per block of the ``kind`` Laplacian, its kernel dimension at every
    representative from a direct rank pass over all of them, each at its
    own floor (``_direct_ranks``), with no orbit and no mirror."""
    lb = ctx.level_basis
    return [size - times * sum(_direct_ranks(ctx, lb._rank_key(key))[0][:, 0] for key in keys)
            for size, keys, times in lb.kernel_terms(kind)]


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_package_reads_equal_a_direct_eigh_with_direct_rank_counts(name, monkeypatch):
    """A package's kernel counts come from its rank passes, one
    representative per orbit of the structure's lattice symmetries: its
    build builds no d and
    hands eigh nothing, and what the package reads equals a direct eigh at
    every representative with the kernel its m eigenvectors of smallest
    eigenvalue, m from a direct rank pass over every representative at its
    own floor: the same kernel counts at every representative, the same
    kernel dimension at every level, bitwise the same harmonic basis rows
    at every level, and bitwise the same harmonic and Green applies and
    matrices at scattered modes, or, where the reference reads an
    eigenvalue of 0 or less past the kernel (bc and aeppli on the twisted
    boxes at g = 1e-4), a Green read that raises LinAlgError.  So each value
    a read weights with is its own representative's, none another orbit
    member's.  Those m are the
    eigenvalues under RANK_CUTOFF times the radius over all
    representatives, except on the twisted boxes at g = 1e-4, where that
    cutoff takes small nonzero eigenvalues for kernel.  The cases are the
    class checks' structures, complex T^6 K=1 and the six deformed
    structures of the t4-deform scan."""
    ctx = HodgeContext(*ORBIT_CASES[name]())
    lb = ctx.level_basis
    rng = np.random.default_rng(17)
    scattered = rng.permutation(len(lb.modes))[: min(23, len(lb.modes))]
    coords = rng.normal(size=(len(scattered), lb.size)) + 1j * rng.normal(size=(len(scattered), lb.size))
    for kind in KINDS:
        built, handed = [], []
        monkeypatch.setattr(lb, "d", lambda sel, _real=lb.d: built.append(np.array(sel)) or _real(sel))

        def counting(a, *args, _real=np.linalg.eigh, **kwargs):
            handed.append(len(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        pk = ctx.package(kind)
        monkeypatch.undo()
        assert built == [] and handed == [], kind

        full = _direct_spectra(lb, kind)
        kernel = _direct_kernel(ctx, kind)
        assert all(np.array_equal(m, want) for m, want in zip(pk.kernel, kernel, strict=True)), kind
        radius = max(float(vals.max()) for vals, _ in full)
        cutoff = RANK_CUTOFF * radius if radius > 0 else 1e-12
        cut = [np.sum(vals <= cutoff, axis=1) for vals, _ in full]
        agree = all(np.array_equal(c, m) for c, m in zip(cut, kernel))
        assert agree == ("floors" not in name), kind

        def harmonic(vals, m):
            return (np.arange(vals.shape[-1]) < m[:, None]).astype(float)

        def green(vals, m):
            kernel = np.arange(vals.shape[-1]) < m[:, None]
            return np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, vals))

        for level in lb.levels:
            if pk.blockwise:
                want = int(kernel[lb.levels.index(level)] @ lb.weight)
            else:
                want = 0
                for r in np.flatnonzero(kernel[0]):
                    kern = full[0][1][r][lb.level_slices[level], : kernel[0][r]]
                    s = np.linalg.svd(kern, compute_uv=False)
                    if len(s) and s[0] > RANK_CUTOFF:
                        want += int(lb.weight[r]) * int(np.sum(s > RANK_CUTOFF * s[0]))
            assert pk.kernel_dimension(level) == want, (kind, level)

        for level in [None, *lb.levels]:
            index, rows = [], []
            for i, r in enumerate(lb.rep):
                for key, (vals, vecs), m, b in zip(pk._levels, full, kernel, pk.blocks):
                    if pk.blockwise and level is not None and key != level:
                        continue
                    for j in range(m[r]):
                        row = np.zeros(lb.size, dtype=complex)
                        row[b] = vecs[r][:, j]
                        index.append(i)
                        rows.append(row)
            got_index, got_rows = pk.harmonic_basis_rows(level)
            assert got_index.tolist() == index, (kind, level)
            assert got_rows.tobytes() == np.array(rows, dtype=complex).reshape(-1, lb.size).tobytes()

        at = lb.rep[scattered]
        # at g = 1e-4 the bc and aeppli Laplacians reach 2.5e23, and rounding
        # leaves eigenvalues of 0 or less outside the rank counts' kernel at
        # some modes: there the package refuses the Green operator
        resolved = all(np.all(vals[at][np.arange(vals.shape[1]) >= m[at][:, None]] > 0)
                       for (vals, _), m in zip(full, kernel))
        assert resolved or "floors" in name, kind
        if not resolved:
            with pytest.raises(np.linalg.LinAlgError, match="Green operator unresolved"):
                pk.apply(scattered, coords, pk.green_weights)
            with pytest.raises(np.linalg.LinAlgError, match="Green operator unresolved"):
                pk.matrix(scattered, pk.green_weights)
        checked = ((harmonic, pk.harmonic_weights), (green, pk.green_weights))
        for weights, pk_weights in checked if resolved else checked[:1]:
            out = np.zeros_like(coords)
            mats = np.zeros((len(at), lb.size, lb.size), dtype=complex)
            for (vals, vecs), m, b in zip(full, kernel, pk.blocks):
                v, w = vecs[at], weights(vals[at], m[at])
                inner = w[..., None] * (hodge._adjoint(v) @ coords[:, b, None])
                out[:, b] = (v @ inner)[..., 0]
                mats[:, b, b] = (v * w[..., None, :]) @ hodge._adjoint(v)
            got_out, got_mats = pk.apply(scattered, coords, pk_weights), pk.matrix(scattered, pk_weights)
            assert got_out.tobytes() == out.tobytes(), kind
            assert got_mats.tobytes() == mats.tobytes(), kind
