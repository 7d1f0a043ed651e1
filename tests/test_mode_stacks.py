"""Stacked spinor and polynomial maps against their per-mode loops.

The reference functions below convert one Fourier mode at a time and apply
one matrix per mode, as the code did before the maps were stacked over the
modes.  The stacked maps must agree with them to 1e-12 relative on
multi-mode random inputs; kernel counts and harmonic bases must be equal.
Fourier matrices are checked the same way against the entrywise
object-array products and Neumann series they replaced, and the spinor
products (wedge, the Clifford action of sections and of polynomials, d_H
and the transport) against the loops over coefficient dicts they replaced;
frame polynomials and d_L are checked against the dict ring.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gentorus import diagnostics, fourier, hodge
from gentorus.calculus import del_op, delbar_op, lie_derivation_dL, twisted_d
from gentorus.deformation import (
    AlgebroidHodge,
    DeformationError,
    FrameMaps,
    Transport,
    _neumann_inverse,
)
from gentorus.diagnostics import _clifford_relation, clifford_suite, entry
from gentorus.fourier import (
    FourierMatrix,
    FourierScalar,
    TorusGeometry,
    TruncationBox,
    TruncationError,
)
from gentorus.hodge import (
    KINDS,
    RANK_CUTOFF,
    HodgeContext,
    _adjoint,
    _LevelBasis,
    _basis_rank,
    _mode_positions,
    _range_and_null,
    _range_basis,
)
from gentorus.metric import GeneralizedMetric
from gentorus.spinor import (
    CliffordPoly,
    Spinor,
    _merge_index,
    _stack_linear,
    monomial_index,
    monomial_list,
    random_fourier_scalar,
    random_spinor,
    random_terms,
    sort_monomial,
    wedge,
)
from gentorus.structure import GCStructure, natural_pairing_matrix

from reference import CourantVector, clifford_act, conj_scalar, constant_form, from_scalars
from reference import operator_matrix, pairing, random_courant_vector, scale_section, scale_spinor
from reference import section_stack, sections
from reference import mode_coefficient, poly_coefficient, spinor_coefficient

REL = 1e-12


def _build(name, policy="strict"):
    if name == "t2-K2":
        s = GCStructure.complex_structure(1, TruncationBox(2, policy))
    else:
        box = TruncationBox(1, policy)
        twist = constant_form(TorusGeometry(2), box, (0, 1, 2), 1.0)
        s = GCStructure.complex_structure(2, box, twist=twist)
    return s, GeneralizedMetric.from_tensors(s.geometry, np.eye(s.dim))


@pytest.fixture(scope="module", params=["t2-K2", "t4-twisted-K1"])
def case(request):
    s, m = _build(request.param)
    return s, m, HodgeContext(s, m)


def _spinors(s, seed, count=3):
    rng = np.random.default_rng(seed)
    return [random_spinor(rng, s.geometry, s.box, max_mode=s.box.K, terms=3) for _ in range(count)]


def _assert_close(got, want):
    assert (got - want).norm() <= REL * max(got.norm(), want.norm())


# ----------------------------------------------------------------------
# per-mode reference
# ----------------------------------------------------------------------


def ref_modes(sigma):
    return sorted({mode for f in sigma.comps.values() for mode in f.support()})


def ref_mode_vector(sigma, mode):
    idx = monomial_index(sigma.geometry.dim)
    out = np.zeros(len(idx), dtype=complex)
    for mono, f in sigma.comps.items():
        c = f.coeffs.get(mode)
        if c is not None:
            out[idx[mono]] = c
    return out


def ref_terms(geometry, box, vectors, keys):
    per_key = {}
    for mode, vec in vectors.items():
        for i, c in enumerate(vec):
            if c != 0:
                per_key.setdefault(keys[i], {})[mode] = c
    return {key: FourierScalar(geometry, box, cs) for key, cs in per_key.items()}


def ref_spinor(geometry, box, vectors):
    return Spinor(geometry, box, ref_terms(geometry, box, vectors, monomial_list(geometry.dim)))


def ref_map(sigma, per_mode):
    """Apply ``per_mode(mode, vector)`` at every mode of sigma."""
    vectors = {mode: per_mode(mode, ref_mode_vector(sigma, mode)) for mode in ref_modes(sigma)}
    return ref_spinor(sigma.geometry, sigma.box, vectors)


def every_eigen(spectra):
    """Every representative's eigenvalues and eigenvectors, one pair per
    block, from a direct eigh at each representative."""
    lb = spectra.level_basis
    return hodge._eigh(lb, spectra.kind, np.arange(len(lb.weight)), spectra.chunk)


def direct_kernel(spectra):
    """Per block, the kernel dimension at every representative from one
    rank pass over all of them, each at its own floor, with no orbit and
    no mirror."""
    lb = spectra.level_basis
    floor = lb._floor()[1]
    every = slice(0, len(lb.weight))
    return [
        size - times * sum(
            hodge._cut(hodge._singular_values(lb._rank_matrices(lb._rank_key(key), every)), floor)
            for key in keys
        )
        for size, keys, times in lb.kernel_terms(spectra.kind)
    ]


def forced_kernel(lb, kind, cut):
    """Per block of the ``kind`` Laplacian and representative, the count of
    eigenvalues at the least representative of its orbit that are at most
    ``cut(values)``, ``values`` all those eigenvalues: a kernel count to
    force in place of the rank counts, the same over each orbit."""
    least = lb.orbit_reps()[0]
    spectra = hodge._eigh(lb, kind, least, lb.spectra_chunk(kind))
    bound = cut(np.concatenate([vals.ravel() for vals, _ in spectra]))
    orbit = np.searchsorted(least, lb.orbits())
    return [np.sum(vals <= bound, axis=1)[orbit] for vals, _ in spectra]


def force_kernel(monkeypatch, lb, counts):
    """Make ``lb`` count the kernels of the kinds in ``counts`` as given,
    for the packages built after and for ``kernel_counts``; their rank
    stacks are ranked first, for the gap counts."""
    real = lb.kernel_sizes
    for kind in counts:
        real(kind)
    monkeypatch.setattr(lb, "kernel_sizes", lambda kind: counts[kind] if kind in counts else real(kind))


def box_modes(ctx):
    """The modes of a context's box, in order, as tuples."""
    return [tuple(mode) for mode in ctx.level_basis.modes.tolist()]


def ref_spectral(spectra, every, index, coords, weights):
    """weights(L) at box mode ``index``, from its representative's spectra
    and kernel counts; ``every`` is ``every_eigen(spectra)``, read once by
    the caller."""
    out = np.zeros_like(coords)
    index = spectra.level_basis.rep[index]
    for (vals, vecs), m, b in zip(every, spectra.kernel, spectra.blocks):
        v = vecs[index]
        out[b] = v @ (weights(vals[index], m[index]) * (v.conj().T @ coords[b]))
    return out


def ref_kernel_dimension(ctx, pk, kernel, every, level, indices):
    """The kernel dimension summed over box modes ``indices``, one mode at a
    time, each read at its own representative, whose kernel is its first
    ``kernel`` eigenvectors per block; ``every`` is ``every_eigen(pk)``,
    read once by the caller."""
    rep = pk.level_basis.rep
    if pk.blockwise:
        return sum(int(kernel[pk._levels.index(level)][rep[i]]) for i in indices)
    total = 0
    sl = ctx.level_basis.level_slices[level]
    vecs = every[0][1]
    for i in rep[list(indices)]:
        kern = vecs[i][:, : kernel[0][i]]
        if kern.shape[1] == 0:
            continue
        s = np.linalg.svd(kern[sl, :], compute_uv=False)
        if s[0] > RANK_CUTOFF:
            total += int(np.sum(s > RANK_CUTOFF * s[0]))
    return total


def ref_harmonic_basis(ctx, pk, kernel, every, level):
    """The kernel spinors mode by mode, each read at its own representative,
    whose kernel is its first ``kernel`` eigenvectors per block; ``every``
    is ``every_eigen(pk)``, read once by the caller."""
    out = []
    lb = pk.level_basis
    for i, mode in zip(lb.rep, box_modes(ctx)):
        for key, (vals, vecs), m, sl in zip(pk._levels, every, kernel, pk.blocks):
            if pk.blockwise and level is not None and key != level:
                continue
            for j in range(m[i]):
                coords = np.zeros(lb.size, dtype=complex)
                coords[sl] = vecs[i][:, j]
                out.append(ref_spinor(ctx.geometry, ctx.box, {mode: lb.basis @ coords}))
    return out


def gap_cutoff(vals):
    """A cutoff in the spectral gap just above the median of ``vals``:
    midway between the median and the least value above it by more than
    rounding.  The members of an orbit of the lattice symmetries share an
    eigenvalue only to rounding, so a cutoff at an eigenvalue could split
    them."""
    median = float(np.median(vals))
    above = vals[vals > median + 1e-9 * max(1.0, abs(median))]
    return (median + float(above.min())) / 2


def ref_frame_coordinates(s, sigma):
    return {mode: s._level_inverse @ ref_mode_vector(sigma, mode) for mode in ref_modes(sigma)}


# ----------------------------------------------------------------------
# Hodge context and packages
# ----------------------------------------------------------------------


def test_apply_matches_per_mode(case):
    s, _, ctx = case
    lb = ctx.level_basis
    for name in ctx.OPERATOR_NAMES:
        for sigma in _spinors(s, 11):
            want = ref_map(
                sigma,
                lambda mode, v: lb.basis @ (operator_matrix(ctx, name, mode) @ (lb.basis_inv @ v)),
            )
            _assert_close(ctx.apply(name, sigma), want)


def test_zero_spinor_maps_to_zero(case):
    """A spinor without components skips the stacked products and gives
    what the per-mode maps give: the zero spinor in the context's box."""
    s, _, ctx = case
    for box in (s.box, TruncationBox(s.box.K + 1)):
        zero = Spinor.zero(s.geometry, box)
        want = ref_map(zero, lambda mode, v: v)
        got = [ctx.apply(name, zero) for name in ctx.OPERATOR_NAMES]
        for kind in KINDS:
            pk = ctx.package(kind)
            got += [pk.harmonic(zero), pk.green(zero), pk.laplacian(zero)]
        for out in got:
            assert out.comps == want.comps == {}
            assert (out.geometry, out.box) == (ctx.geometry, ctx.box)
    with pytest.raises(ValueError, match="unknown operator"):
        ctx.apply("curl", Spinor.zero(s.geometry, s.box))


def test_apply_rejects_modes_outside_the_box(case):
    s, _, ctx = case
    big = TruncationBox(s.box.K + 1)
    mode = (s.box.K + 1,) + (0,) * (s.dim - 1)
    sigma = Spinor(s.geometry, big, {(0,): FourierScalar.mode(s.geometry, big, mode)})
    with pytest.raises(ValueError, match="outside the context box"):
        ctx.apply("d", sigma)


@pytest.mark.parametrize("kind", ["dbar", "bc", "aeppli", "d"])
def test_spectral_maps_match_per_mode(case, kind):
    s, _, ctx = case
    lb, pk = ctx.level_basis, ctx.package(kind)
    every = every_eigen(pk)
    maps = [
        (pk.harmonic, pk.harmonic_weights),
        (pk.green, pk.green_weights),
        (pk.laplacian, lambda vals, m: vals),
    ]
    for method, weights in maps:
        for sigma in _spinors(s, 13):
            want = ref_map(
                sigma,
                lambda mode, v: lb.basis
                @ ref_spectral(pk, every, lb.positions([mode])[0], lb.basis_inv @ v, weights),
            )
            _assert_close(method(sigma), want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("cutoff", ["package", "median"])
def test_kernel_counts_and_harmonic_bases_equal(case, kind, cutoff, monkeypatch):
    """The kernel dimensions, ranked at the least representative of each
    orbit of the lattice symmetries, and the harmonic bases equal a direct
    count and basis at every mode's own representative: with the package's
    rank counts, which equal a direct rank pass over every representative,
    and with a count forced to the eigenvalues under a cutoff in the gap
    around the median eigenvalue."""
    s, m, ctx = case
    if cutoff == "median":
        # kernels at many modes and in several blocks fix the basis order
        ctx = HodgeContext(s, m)
        kernel = forced_kernel(ctx.level_basis, kind, gap_cutoff)
        force_kernel(monkeypatch, ctx.level_basis, {kind: kernel})
    pk = ctx.package(kind)
    if cutoff == "package":
        kernel = direct_kernel(pk)
    assert all(np.array_equal(a, b) for a, b in zip(pk.kernel, kernel, strict=True))
    everywhere = range(len(ctx.level_basis.modes))
    every = every_eigen(pk)
    for k in s.levels():
        assert pk.kernel_dimension(k) == ref_kernel_dimension(ctx, pk, kernel, every, k, everywhere)
    for level in [None, *s.levels()]:
        got = pk.harmonic_basis(level)
        want = ref_harmonic_basis(ctx, pk, kernel, every, level)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert {m: f.coeffs for m, f in a.comps.items()} == {
                m: f.coeffs for m, f in b.comps.items()
            }


# ----------------------------------------------------------------------
# level grading, metric, transport
# ----------------------------------------------------------------------


def test_level_maps_match_per_mode(case):
    s, _, _ = case
    for sigma in _spinors(s, 17):
        coords = ref_frame_coordinates(s, sigma)
        weights = {}
        for k in s.levels():
            sl = s._level_slices[k]
            kept = {}
            for mode, c in coords.items():
                part = np.zeros_like(c)
                part[sl] = c[sl]
                kept[mode] = s._level_matrix @ part
            want = ref_spinor(s.geometry, s.box, kept)
            _assert_close(s.project_level(sigma, k), want)
            weights[k] = np.sqrt(sum(float(np.sum(np.abs(c[sl]) ** 2)) for c in coords.values()))
        got = s.level_weights(sigma)
        assert got.keys() == weights.keys()
        for k, w in weights.items():
            assert abs(got[k] - w) <= REL * w


def test_metric_maps_match_per_mode(case):
    s, m, _ = case
    spinors = _spinors(s, 19, count=4)
    for sigma in spinors:
        _assert_close(sigma.map_modes(m.star_matrix), ref_map(sigma, lambda mode, v: m.star_matrix @ v))
    for a, b in itertools.product(spinors, repeat=2):
        want = sum(
            ref_mode_vector(a, mode) @ m.bi_gram @ ref_mode_vector(b, mode).conj()
            for mode in set(ref_modes(a)) & set(ref_modes(b))
        )
        assert abs(m.bi_inner(a, b) - want) <= REL * max(abs(want), m.bi_norm(a) * m.bi_norm(b))


def _constant_eps(s, seed):
    rng = np.random.default_rng(seed)
    coeffs = {
        key: FourierScalar.constant(s.geometry, s.box, 0.1 * complex(rng.normal(), rng.normal()))
        for key in itertools.combinations(range(s.dim), 2)
    }
    return CliffordPoly(s.dual_frame, 2, coeffs)


def test_transport_matches_per_mode(case):
    s, _, _ = case
    tr = Transport(s, _constant_eps(s, 23))
    keys = monomial_list(s.dim)
    forward = tr.forward_words.constant_values()
    inverse = np.linalg.inv(forward)
    for sigma in _spinors(s, 29):
        coords = ref_frame_coordinates(s, sigma)
        column = s.frame_coordinates(sigma)
        got = {keys[j]: column[j, 0] for j in range(len(keys)) if column.coeffs[:, j].any()}
        want = ref_terms(s.geometry, s.box, coords, keys)
        assert got.keys() == want.keys()
        diff = sum((got[k] - want[k]).norm() ** 2 for k in want) ** 0.5
        assert diff <= REL * sum(f.norm() ** 2 for f in want.values()) ** 0.5

        want = ref_spinor(s.geometry, s.box, {mode: forward @ c for mode, c in coords.items()})
        _assert_close(tr.forward(sigma), want)
        want = ref_map(sigma, lambda mode, v: s._level_matrix @ (inverse @ v))
        _assert_close(tr.inverse(sigma), want)


# ----------------------------------------------------------------------
# algebroid Hodge package
# ----------------------------------------------------------------------


def ref_poly_coords(alg, poly):
    per_mode = {}
    index = monomial_index(alg.structure.dim)
    for key, f in poly.terms():
        for mode, c in f.coeffs.items():
            per_mode.setdefault(mode, np.zeros(alg.level_basis.size, dtype=complex))[index[key]] += c
    return {mode: alg.poly_basis_inv @ v for mode, v in per_mode.items()}


def ref_poly(alg, vectors, degree):
    s = alg.structure
    keys = monomial_list(s.dim)
    keep = np.array([len(key) == degree for key in keys])
    raw = {mode: (alg.poly_basis @ v) * keep for mode, v in vectors.items()}
    return CliffordPoly(s.dual_frame, degree, ref_terms(s.geometry, s.box, raw, keys))


def test_algebroid_maps_match_per_mode(case):
    s, m, _ = case
    alg = AlgebroidHodge(s, m)
    sp = alg._spectra
    every = every_eigen(sp)
    rng = np.random.default_rng(31)
    for degree in range(1, s.dim + 1):
        terms = {
            key: random_fourier_scalar(rng, s.geometry, s.box, terms=3)
            for key in itertools.combinations(range(s.dim), degree)
        }
        poly = CliffordPoly(s.dual_frame, degree, terms)
        coords = ref_poly_coords(alg, poly)
        for method, weights in [(alg.harmonic, sp.harmonic_weights), (alg.green, sp.green_weights)]:
            vectors = {
                mode: ref_spectral(sp, every, alg.level_basis.positions([mode])[0], c, weights)
                for mode, c in coords.items()
            }
            got, want = method(poly), ref_poly(alg, vectors, degree)
            assert (got - want).norm() <= REL * max(got.norm(), want.norm())
        vectors = {
            mode: _stack_linear(alg._const, alg._slopes, [mode])[0].conj().T @ c
            for mode, c in coords.items()
        }
        got, want = alg.dL_adjoint(poly), ref_poly(alg, vectors, degree - 1)
        assert (got - want).norm() <= REL * max(got.norm(), want.norm())


# ----------------------------------------------------------------------
# Fourier matrices: the object-array arithmetic they replaced
# ----------------------------------------------------------------------


def _fs_zero_matrix(geometry, box, shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = FourierScalar.zero(geometry, box)
    return out


def _fs_identity(geometry, box, size) -> np.ndarray:
    out = _fs_zero_matrix(geometry, box, (size, size))
    for i in range(size):
        out[i, i] = FourierScalar.constant(geometry, box, 1.0)
    return out


def _fs_mat_mul(a: np.ndarray, b: np.ndarray, policy=None) -> np.ndarray:
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    sample = a[0, 0]
    out = _fs_zero_matrix(sample.geometry, sample.box, (rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = out[i, j]
            for k in range(inner):
                if a[i, k].is_zero() or b[k, j].is_zero():
                    continue
                acc = acc.add(a[i, k].mul(b[k, j], policy=policy))
            out[i, j] = acc
    return out


def _fs_mat_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape, dtype=object)
    for idx in np.ndindex(*a.shape):
        out[idx] = a[idx].add(b[idx])
    return out


def _fs_mat_norm(a: np.ndarray) -> float:
    return math.sqrt(sum(a[idx].norm() ** 2 for idx in np.ndindex(*a.shape)))


def _fs_mat_is_constant(a: np.ndarray) -> bool:
    zero_mode = (0,) * a[0, 0].geometry.dim
    for idx in np.ndindex(*a.shape):
        for mode in a[idx].support():
            if mode != zero_mode:
                return False
    return True


def _fs_mat_constant_values(a: np.ndarray) -> np.ndarray:
    zero_mode = (0,) * a[0, 0].geometry.dim
    out = np.zeros(a.shape, dtype=complex)
    for idx in np.ndindex(*a.shape):
        out[idx] = mode_coefficient(a[idx], zero_mode)
    return out


def _fs_mat_from_constant(geometry, box, values: np.ndarray) -> np.ndarray:
    out = np.empty(values.shape, dtype=object)
    for idx in np.ndindex(*values.shape):
        out[idx] = FourierScalar.constant(geometry, box, values[idx])
    return out


def _fs_mat_neumann_inverse(
    a: np.ndarray, policy=None, rel_tol: float = 1e-14, max_terms: int = 200
) -> np.ndarray:
    """(1 - a)^{-1} by Neumann series; exact inversion on constant matrices."""
    sample = a[0, 0]
    geometry, box = sample.geometry, sample.box
    size = a.shape[0]
    if _fs_mat_is_constant(a):
        values = _fs_mat_constant_values(a)
        inv = np.linalg.inv(np.eye(size) - values)
        return _fs_mat_from_constant(geometry, box, inv)
    total = _fs_identity(geometry, box, size)
    term = _fs_identity(geometry, box, size)
    for _ in range(max_terms):
        term = _fs_mat_mul(term, a, policy=policy)
        tnorm = _fs_mat_norm(term)
        total = _fs_mat_add(total, term)
        if tnorm <= rel_tol * max(1.0, _fs_mat_norm(total)):
            return total
    raise DeformationError(
        "Neumann series for the frame inverse did not converge; "
        "deformation too large for this expansion"
    )


STACK_CASES = {"t2-K2": (1, 2), "t4-K1": (2, 1)}


@pytest.fixture(params=[(name, policy) for name in STACK_CASES for policy in ("strict", "drop")],
                ids=lambda p: "-".join(p))
def space(request):
    name, policy = request.param
    n, K = STACK_CASES[name]
    return TorusGeometry(n), TruncationBox(K, policy)


def _entries(geometry, box, rows):
    """Object array from nested rows of scalars, {mode: c} dicts or constants."""
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for idx in np.ndindex(*out.shape):
        cell = rows[idx[0]][idx[1]]
        if isinstance(cell, dict):
            cell = FourierScalar(geometry, box, cell)
        elif not isinstance(cell, FourierScalar):
            cell = FourierScalar.constant(geometry, box, cell)
        out[idx] = cell
    return out


def _random_entries(rng, geometry, box, shape, reach, density=0.7):
    """Random scalars with modes in [-reach, reach]; some entries are zero
    and some carry dropped mass."""
    rows = []
    for _ in range(shape[0]):
        row = []
        for _ in range(shape[1]):
            coeffs = {}
            if rng.random() < density:
                for _ in range(int(rng.integers(1, 4))):
                    mode = tuple(int(v) for v in rng.integers(-reach, reach + 1, geometry.dim))
                    coeffs[mode] = complex(rng.normal(), rng.normal())
            mass = float(rng.random()) if rng.random() < 0.3 else 0.0
            row.append(FourierScalar(geometry, box, coeffs, mass))
        rows.append(row)
    return _entries(geometry, box, rows)


def _stack(entries):
    return from_scalars(entries.tolist())


def _outcome(fn):
    try:
        return fn()
    except (TruncationError, DeformationError) as err:
        return type(err)


def _assert_stack_matches(got, want):
    """Coefficients to REL relative and dropped mass entry by entry, or the
    same exception type."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert got.shape == want.shape
    for idx in np.ndindex(*want.shape):
        g, w = got[idx], want[idx]
        assert (g - w).norm() <= REL * max(g.norm(), w.norm()), idx
        assert g.dropped_mass == pytest.approx(w.dropped_mass, rel=REL, abs=0.0), idx


def test_fourier_matrix_products_match_reference(space):
    geometry, box = space
    rng = np.random.default_rng(43)
    K, outcomes = box.K, set()
    for trial in range(12):
        # mode reaches that stay inside the box, and ones that escape it
        reach_a, reach_b = [(K, 0), (K // 2, K - K // 2), (K, K), (1, K)][trial % 4]
        a = _random_entries(rng, geometry, box, (3, 4), reach_a)
        b = _random_entries(rng, geometry, box, (4, 2), reach_b)
        want = _outcome(lambda: _fs_mat_mul(a, b, policy=box.policy))
        got = _outcome(lambda: _stack(a).matmul(_stack(b)))
        _assert_stack_matches(got, want)
        outcomes.add(want is TruncationError)
    assert outcomes == ({False, True} if box.policy == "strict" else {False})

    # the mode pair (K e_0, K e_0) leaves the box, but no product of two
    # nonzero entries pairs those modes: neither path raises
    edge = {(K,) + (0,) * (geometry.dim - 1): 0.5}
    a = _entries(geometry, box, [[edge, {}], [{}, 1.0]])
    b = _entries(geometry, box, [[1.0, {}], [{}, edge]])
    _assert_stack_matches(_stack(a).matmul(_stack(b)), _fs_mat_mul(a, b))


@pytest.fixture
def general_products(monkeypatch):
    """Counts the products that take FourierMatrix.matmul's general path,
    the one that sums mode pairs into their output modes."""
    calls = []
    real = fourier._add_rows

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fourier, "_add_rows", counted)
    return calls


def _at_mode(rng, geometry, box, shape, mode):
    """Object array whose nonzero entries have the one mode ``mode``; some
    entries are zero and some carry dropped mass."""
    rows = [[
        FourierScalar(
            geometry, box,
            {mode: complex(rng.normal(), rng.normal())} if rng.random() < 0.7 else {},
            float(rng.random()) if rng.random() < 0.3 else 0.0,
        ) for _ in range(shape[1])
    ] for _ in range(shape[0])]
    return _entries(geometry, box, rows)


def _escape_outcome(fn):
    """The product, or the mode of the TruncationError it raises."""
    try:
        return fn()
    except TruncationError as err:
        return err.mode


def test_one_mode_products_match_reference(space, general_products):
    """A factor with one mode, constant or at a single nonzero mode, on the
    left, on the right or on both sides: the same coefficients and dropped
    mass as the entrywise products, and no pair sums while every product
    mode stays inside the box."""
    geometry, box = space
    rng = np.random.default_rng(53)
    e0 = (1,) + (0,) * (geometry.dim - 1)
    for mode in ((0,) * geometry.dim, e0, tuple(-v for v in e0)):
        for _ in range(3):
            one = _at_mode(rng, geometry, box, (3, 4), mode)
            right = _random_entries(rng, geometry, box, (4, 2), box.K - 1)
            left = _random_entries(rng, geometry, box, (2, 3), box.K - 1)
            other_one = _at_mode(rng, geometry, box, (4, 2), tuple(-v for v in mode))
            for a, b in ((one, right), (left, one), (one, other_one)):
                want = _fs_mat_mul(a, b, policy=box.policy)
                _assert_stack_matches(_stack(a).matmul(_stack(b)), want)
    assert general_products == []


def test_one_mode_products_that_escape_take_the_general_path(space, general_products):
    """A one-mode factor whose shifts leave the box: under strict the same
    escaping mode is raised as by the entrywise products, under drop the
    same dropped mass, entry by entry, on top of the inputs' mass."""
    geometry, box = space
    K, dim = box.K, geometry.dim
    e0 = (1,) + (0,) * (dim - 1)
    edge = (K,) + (0,) * (dim - 1)
    zero = (0,) * dim
    one = FourierScalar(geometry, box, {edge: 0.5 - 0.2j}, dropped_mass=0.25)
    wide = FourierScalar(geometry, box, {zero: 2.0, e0: 1.0 + 1.0j, edge: -0.3})
    cases = [
        ([[one, {}], [{}, {edge: 0.7}]], [[wide, 1.0], [{edge: 0.1}, {}]]),
        ([[wide, {e0: 0.2}]], [[one], [{}]]),
    ]
    for a_rows, b_rows in cases:
        a, b = _entries(geometry, box, a_rows), _entries(geometry, box, b_rows)
        want = _escape_outcome(lambda: _fs_mat_mul(a, b, policy=box.policy))
        got = _escape_outcome(lambda: _stack(a).matmul(_stack(b)))
        if box.policy == "strict":
            assert got == want == (K + 1,) + (0,) * (dim - 1)
        else:
            _assert_stack_matches(got, want)
            assert got.dropped_mass.max() > 0.25
    assert (general_products != []) == (box.policy == "drop")


def test_one_mode_product_stores_no_cancelled_mode(space):
    """Products that cancel to exact zero at a mode, or everywhere, store
    no coefficient matrix there."""
    geometry, box = space
    rng = np.random.default_rng(59)
    f = FourierScalar(geometry, box, {(0,) * geometry.dim: 1.5, (1,) + (0,) * (geometry.dim - 1): -2.0})
    g = random_fourier_scalar(rng, geometry, box, max_mode=box.K, terms=3)
    ones = _stack(_entries(geometry, box, [[1.0, 1.0]]))
    cancelled = ones.matmul(_stack(_entries(geometry, box, [[f], [-f]])))
    assert len(cancelled.modes) == 0 and cancelled.shape == (1, 1)
    kept = ones.matmul(_stack(_entries(geometry, box, [[f + g], [-f]])))
    assert kept.coeffs.any(axis=(1, 2)).all()
    assert sorted(map(tuple, kept.modes.tolist())) == sorted(g.support())
    _assert_stack_matches(kept, _entries(geometry, box, [[g]]))


def ref_mode_sums(x, y, chunk):
    """One in-box product summed into its output modes the way the
    per-stack products did before they were stacked over samples: A's modes
    in chunks, one GEMM against B's matrices side by side per chunk, and
    per chunk the products of each output mode summed by ``reduceat`` in
    pair order and added to the running sums.  Returns the modes and sums,
    all-zero sums kept."""
    a, b = x.coeffs, y.coeffs
    (rows, inner), cols = a.shape[1:], b.shape[2]
    keys = (x.modes @ [5, 1])[:, None] + (y.modes @ [5, 1])
    pi, qi = np.divmod(np.arange(keys.size), len(b))
    pair_keys = keys.ravel()
    _, first, slot = np.unique(pair_keys, return_index=True, return_inverse=True)
    out = np.zeros((len(first), rows, cols), dtype=complex)
    b_wide = b.transpose(1, 0, 2).reshape(inner, -1)
    step, done = max(1, chunk // max(1, len(b) * rows * cols)), 0
    for lo in range(0, len(a), step):
        prod = (a[lo:lo + step].reshape(-1, inner) @ b_wide).reshape(-1, rows, len(b), cols)
        values = prod.transpose(0, 2, 1, 3).reshape(-1, rows, cols)
        slots = slot[done:done + len(values)]
        order = np.argsort(slots, kind="stable")
        starts = np.flatnonzero(np.concatenate(([True], np.diff(slots[order]) != 0)))
        out[slots[order[starts]]] += np.add.reduceat(values[order], starts, axis=0)
        done += len(values)
    return x.modes[pi[first]] + y.modes[qi[first]], out


@pytest.mark.parametrize("chunk", [1 << 18, 80, 1])
def test_stacked_products_match_per_stack_reference(monkeypatch, chunk):
    """Products stacked over samples equal, bit for bit, each sample's
    product summed as before: samples with one mode or many on either side,
    one with no modes, equal and unequal right-factor widths in one batch,
    and with a small ``PAIR_CHUNK`` several chunks per sample, rows padded
    to the longest chunk and batches split.  Modes in [-1, 1]^2 make many
    pairs share an output mode, within a chunk and across chunks."""
    monkeypatch.setattr(fourier, "PAIR_CHUNK", chunk)
    geometry, box = TorusGeometry(1), TruncationBox(2)
    rng = np.random.default_rng(61)

    def stack(modes, rows, cols):
        modes = rng.integers(-1, 2, size=(modes, geometry.dim))
        coeffs = rng.normal(size=(len(modes), rows, cols)) + 1j * rng.normal(size=(len(modes), rows, cols))
        return FourierMatrix(geometry, box, modes, coeffs)

    for rows, inner, cols in ((4, 4, 1), (2, 5, 2), (4, 1, 1)):
        sizes = [(1, 1), (1, 6), (6, 1), (9, 12), (3, 12), (12, 3), (0, 4), (7, 9)]
        lefts = [stack(p, rows, inner) for p, _ in sizes]
        rights = [stack(q, inner, cols) for _, q in sizes]
        sums, p, q, owner = fourier._stack_products(
            np.concatenate([x.coeffs for x in lefts]),
            np.concatenate([fourier._mode_keys(box, x.modes) for x in lefts]),
            [len(x.modes) for x in lefts],
            np.concatenate([y.coeffs for y in rights]),
            np.concatenate([fourier._mode_keys(box, y.modes) for y in rights]),
            [len(y.modes) for y in rights],
        )
        modes = np.concatenate([x.modes for x in lefts])[p] + np.concatenate([y.modes for y in rights])[q]
        for s, (x, y) in enumerate(zip(lefts, rights)):
            want_modes, want = ref_mode_sums(x, y, chunk)
            assert np.array_equal(modes[owner == s], want_modes)
            assert sums[owner == s].tobytes() == want.tobytes()
            product = x.matmul(y)
            live = want.any(axis=(1, 2))
            assert np.array_equal(product.modes, want_modes[live])
            assert product.coeffs.tobytes() == want[live].tobytes()


def _scaled(entries, c):
    out = np.empty(entries.shape, dtype=object)
    for idx in np.ndindex(*entries.shape):
        out[idx] = entries[idx].scale(c)
    return out


def test_fourier_matrix_neumann_matches_reference(space, monkeypatch):
    """Same sums, dropped mass and exceptions, after the same number of terms."""
    geometry, box = space
    rng = np.random.default_rng(47)
    e0, e1 = (np.eye(geometry.dim, dtype=int)[:2]).tolist()
    cases = []
    for _ in range(2):
        a = _random_entries(rng, geometry, box, (3, 3), reach=1)
        cases.append(_scaled(a, 0.3 / _fs_mat_norm(a)))
    # nilpotent: the series ends exactly, inside the box
    cases.append(_entries(geometry, box, [
        [{}, {tuple(e0): 0.4}, 0.2], [{}, {}, {tuple(e1): 0.3}], [{}, {}, {}],
    ]))
    # growing: 1.2^k on the diagonal, modes fixed; never converges
    cases.append(_entries(geometry, box, [[1.2, {tuple(e0): 0.5}], [{}, 1.2]]))
    cases.append(_entries(geometry, box, [[0.2, 0.1j], [-0.3, 0.4]]))

    counts = {"reference": 0, "stack": 0}
    matmul = FourierMatrix.matmul

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setitem(globals(), "_fs_mat_mul", counted("reference", _fs_mat_mul))
    monkeypatch.setattr(FourierMatrix, "matmul", counted("stack", matmul))
    seen = set()
    for a in cases:
        counts.update(reference=0, stack=0)
        want = _outcome(lambda: _fs_mat_neumann_inverse(a, policy=box.policy))
        got = _outcome(lambda: _neumann_inverse(_stack(a)))
        _assert_stack_matches(got, want)
        assert counts["stack"] == counts["reference"]
        seen.add(want if isinstance(want, type) else counts["reference"] > 0)
    assert DeformationError in seen and True in seen


# ----------------------------------------------------------------------
# spinor products: the loops over coefficient dicts they replaced
# ----------------------------------------------------------------------


def _dict_add(out, mono, term):
    out[mono] = out[mono].add(term) if mono in out else term


def ref_wedge(a, b, policy=None):
    out = {}
    for ma, fa in a.comps.items():
        for mb, fb in b.comps.items():
            sorted_sign = sort_monomial(ma + mb)
            if sorted_sign is not None:
                _dict_add(out, sorted_sign[0], fa.mul(fb, policy=policy).scale(sorted_sign[1]))
    return Spinor(a.geometry, a.box, out)


def ref_contract(a, sigma, policy=None):
    out = {}
    for mono, f in sigma.comps.items():
        for pos, j in enumerate(mono):
            if not a.tangent[j].is_zero():
                term = f.mul(a.tangent[j], policy=policy).scale(-1 if pos % 2 else 1)
                _dict_add(out, mono[:pos] + mono[pos + 1:], term)
    return Spinor(sigma.geometry, sigma.box, out)


def ref_cotangent_form(a):
    comps = {(j,): f for j, f in enumerate(a.cotangent) if not f.is_zero()}
    return Spinor(a.geometry, a.box, comps)


def ref_clifford_act(a, sigma, policy=None):
    return ref_contract(a, sigma, policy).add(ref_wedge(ref_cotangent_form(a), sigma, policy))


def ref_clifford_act_many(vectors, sigma, policy=None):
    for v in reversed(vectors):
        sigma = ref_clifford_act(v, sigma, policy)
    return sigma


def ref_scale_scalar(sigma, g, policy=None):
    return Spinor(sigma.geometry, sigma.box, {m: f.mul(g, policy=policy) for m, f in sigma.comps.items()})


def ref_exterior_derivative(sigma):
    out = {}
    for mono, f in sigma.comps.items():
        for axis in range(sigma.geometry.dim):
            df, merged = f.derive(axis), _merge_index(mono, axis)
            if not df.is_zero() and merged is not None:
                _dict_add(out, merged[0], df.scale(merged[1]))
    return Spinor(sigma.geometry, sigma.box, out)


def ref_act(poly, sigma, policy=None):
    out = Spinor.zero(poly.geometry, poly.box)
    frame = sections(poly.frame)
    for key, f in poly.coeffs.items():
        vecs = [frame[i] for i in key]
        out = out.add(ref_clifford_act_many(vecs, ref_scale_scalar(sigma, f, policy), policy))
    return out


def ref_twisted_d(sigma, s):
    out = ref_exterior_derivative(sigma)
    if not s.twist.is_zero():
        out = out.add(ref_wedge(s.twist, sigma).scale(-1))
    return out


def ref_project(s, sigma, k):
    """Level-k part of sigma from the per-mode frame coordinates."""
    sl, kept = s._level_slices[k], {}
    for mode, c in ref_frame_coordinates(s, sigma).items():
        part = np.zeros_like(c)
        part[sl] = c[sl]
        kept[mode] = s._level_matrix @ part
    return ref_spinor(s.geometry, s.box, kept)


def ref_shifted(sigma, s, shift):
    out = Spinor.zero(sigma.geometry, sigma.box)
    for k in s.levels():
        if -s.n <= k + shift <= s.n:
            out = out.add(ref_project(s, ref_twisted_d(ref_project(s, sigma, k), s), k + shift))
    return out


def ref_factorwise(tr, images, sigma, vacuum):
    s = tr.structure
    columns = sections(images)
    coeffs = ref_terms(s.geometry, s.box, ref_frame_coordinates(s, sigma), monomial_list(s.dim))
    out = Spinor.zero(s.geometry, s.box)
    for key, coeff in coeffs.items():
        word = ref_clifford_act_many([columns[i] for i in key], vacuum)
        out = out.add(ref_scale_scalar(word, coeff))
    return out


@pytest.fixture(scope="module", params=[
    (name, policy) for name in ("t2-K2", "t4-twisted-K1") for policy in ("strict", "drop")
], ids="-".join)
def policy_case(request):
    return _build(*request.param)[0]


def _massive(rng, sigma):
    """sigma with a random dropped mass on every component."""
    g, box = sigma.geometry, sigma.box
    return Spinor(g, box, {m: FourierScalar(g, box, f.coeffs, rng.random()) for m, f in sigma.comps.items()})


def _compare(got_fn, want_fn, mass=True):
    """Coefficients to REL relative and, with ``mass``, each component's
    dropped mass, or the same TruncationError; returns whether one was raised."""
    want, got = _outcome(want_fn), _outcome(got_fn)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want is TruncationError
        return True
    _assert_close(got, want)
    if mass:
        for mono in set(got.comps) | set(want.comps):
            lost = spinor_coefficient(got, mono).dropped_mass
            want_lost = spinor_coefficient(want, mono).dropped_mass
            assert lost == pytest.approx(want_lost, rel=REL, abs=0.0)
    return False


def test_spinor_products_match_dict_loops(policy_case):
    """wedge, clifford_act and scale_spinor are one product whose
    entries are single scalar products: the same coefficients, escapes and
    dropped mass as the loops (and conj, as the entrywise conjugate).  eps's action sums several words into one
    entry, so only its coefficients and escapes are compared."""
    s = policy_case
    g, box, K = s.geometry, s.box, s.box.K
    rng = np.random.default_rng(61)
    raised, dropped = set(), 0.0
    for trial in range(6):
        reach = (K, K // 2)[trial % 2]
        a, b = (_massive(rng, random_spinor(rng, g, box, max_mode=reach, terms=3)) for _ in range(2))
        v = random_courant_vector(rng, g, box, max_mode=reach)
        f = random_fourier_scalar(rng, g, box, max_mode=reach, terms=3)
        eps = CliffordPoly(s.dual_frame, 2, {
            key: random_fourier_scalar(rng, g, box, max_mode=reach, terms=2)
            for key in itertools.combinations(range(s.dim), 2)
        })
        raised.add(_compare(lambda: wedge(a, b), lambda: ref_wedge(a, b)))
        raised.add(_compare(lambda: clifford_act(v, b), lambda: ref_clifford_act(v, b)))
        raised.add(_compare(lambda: scale_spinor(b, f), lambda: ref_scale_scalar(b, f)))
        raised.add(_compare(lambda: eps.act(b), lambda: ref_act(eps, b), mass=False))
        _compare(b.conj, lambda: Spinor(g, box, {m: conj_scalar(f) for m, f in b.comps.items()}))
        if box.policy == "drop":
            dropped += clifford_act(v, b).dropped_mass() - b.dropped_mass()
    assert raised == ({False, True} if box.policy == "strict" else {False})
    assert box.policy == "strict" or dropped > 0


def test_scale_scalar_matches_componentwise_mul(policy_case):
    """g sigma is each component's FourierScalar.mul by g, for a constant g,
    a g at one nonzero mode and a general g: the same coefficients, the
    dropped mass of sigma and g, and, when a product leaves the box, the
    same escaping mode under strict and the same lost mass under drop."""
    s = policy_case
    g, box, K = s.geometry, s.box, s.box.K
    rng = np.random.default_rng(83)
    e0 = (1,) + (0,) * (s.dim - 1)
    scalars = [
        FourierScalar(g, box, {(0,) * s.dim: 0.4 - 0.3j}, dropped_mass=0.125),
        FourierScalar(g, box, {e0: 1.5j}, dropped_mass=0.5),
        random_fourier_scalar(rng, g, box, max_mode=K, terms=3),
    ]
    for reach in (K - 1, K):
        sigma = _massive(rng, random_spinor(rng, g, box, max_mode=reach, terms=3))
        for f in scalars:
            _compare(lambda: scale_spinor(sigma, f), lambda: ref_scale_scalar(sigma, f))
    edge = FourierScalar(g, box, {(K,) + (0,) * (s.dim - 1): 1.0, (0,) * s.dim: 0.5}, 0.25)
    sigma = Spinor(g, box, {(0,): edge, (1,): edge.scale(2.0)})
    want = _escape_outcome(lambda: ref_scale_scalar(sigma, scalars[1]))
    got = _escape_outcome(lambda: scale_spinor(sigma, scalars[1]))
    if box.policy == "strict":
        assert got == want == (K + 1,) + (0,) * (s.dim - 1)
    else:
        _compare(lambda: got, lambda: want)
        assert got.dropped_mass() > sigma.dropped_mass() + 2 * scalars[1].dropped_mass


def test_differentials_match_dict_loops(policy_case):
    """d_H, del and dbar move no mode."""
    s = policy_case
    for sigma in _spinors(s, 71):
        _assert_close(twisted_d(sigma, s), ref_twisted_d(sigma, s))
        _assert_close(del_op(sigma, s), ref_shifted(sigma, s, -1))
        _assert_close(delbar_op(sigma, s), ref_shifted(sigma, s, +1))


def test_transport_matches_dict_loops(policy_case):
    """forward and factorwise: one product of the word matrix with the frame
    coordinates, against the word-by-word loops, for a constant and a
    varying eps."""
    s = policy_case
    g, box = s.geometry, s.box
    f = FourierScalar(g, box, {(1,) + (0,) * (s.dim - 1): 0.05, (0,) * s.dim: 0.1})
    for eps in (_constant_eps(s, 73), CliffordPoly(s.dual_frame, 2, {(0, s.dim - 1): f})):
        tr = _outcome(lambda: Transport(s, eps))
        if isinstance(tr, type):
            assert tr is TruncationError and box.policy == "strict"
            continue
        plus = tr.maps.eta
        minus = tr.images_one_minus_epseps()
        for sigma in _spinors(s, 79, count=2):
            _compare(lambda: tr.forward(sigma), lambda: ref_factorwise(tr, plus, sigma, tr.exp_rho0),
                     mass=False)
            _compare(lambda: tr.factorwise(minus, sigma),
                     lambda: ref_factorwise(tr, minus, sigma, s.rho0), mass=False)


# ----------------------------------------------------------------------
# frame maps: the slot-pair conjugation and the image loops they replaced
# ----------------------------------------------------------------------
#
# eps* and the transport images are stack products.  Where every entry of a
# product has one nonzero frame term with an exact factor (complex frames,
# the standard omega) they equal the dict-ring references bit for bit;
# elsewhere the sums are taken in another order.


def ref_conjugate_poly(s, poly):
    """The conjugate of a polynomial over the dual frame, re-expanded over
    the frame slot tuple by slot tuple: conj(l^i) = sum_a C[a, i] l_a with
    C[a, i] = <l^a, conj(l^i)>."""
    coords = s._dual_vals.T @ natural_pairing_matrix(s.dim) @ s._dual_vals.conj()
    out = CliffordPoly.zero(s.frame, poly.degree)
    for key, f in poly.terms():
        fconj = conj_scalar(f)
        expansions = [coords[:, i] for i in key]
        for combo in itertools.product(range(s.dim), repeat=len(key)):
            coeff = 1.0 + 0.0j
            for pos, a in enumerate(combo):
                coeff *= expansions[pos][a]
            if coeff == 0:
                continue
            out = out.add(CliffordPoly(s.frame, poly.degree, {tuple(combo): fconj.scale(coeff)}))
    return out


def ref_dual_image(s, matrix, into_frame):
    """Images of the dual frame under a matrix, summed section by section."""
    targets = sections(s.frame if into_frame else s.dual_frame)
    out = []
    for p in range(s.dim):
        acc = CourantVector.zero(s.geometry, s.box)
        for i in range(s.dim):
            f = matrix[i, p]
            if not f.is_zero():
                acc = acc.add(scale_section(targets[i], f))
        out.append(acc)
    return out


def ref_frame_maps(s, eps):
    """[eps*] and the transport images as the dict ring built them."""
    slots = range(s.dim)
    star = ref_conjugate_poly(s, eps)
    eps_star = from_scalars([[poly_coefficient(star, (i, p)) for p in slots] for i in slots])
    epseps = from_scalars(
        [[poly_coefficient(eps, (i, p)) for p in slots] for i in slots]
    ).matmul(eps_star)
    inv = _neumann_inverse(epseps)
    ident = FourierMatrix.identity(s.geometry, s.box, s.dim)
    images = {
        "eta": [
            l.add(v) for l, v in zip(sections(s.dual_frame), ref_dual_image(s, eps_star, True))
        ],
        "images_one_minus_epseps": ref_dual_image(s, ident - epseps, False),
        "images_inverse_one_minus_epseps": ref_dual_image(s, inv, False),
    }
    return eps_star, {name: section_stack(vectors) for name, vectors in images.items()}


_OMEGA = np.array([[0, 1, 0, 0.5], [-1, 0, 0.3, 0], [0, -0.3, 0, 2], [-0.5, 0, -2, 0]])
_SHEAR = np.array([[1, 0.3, 0, 0], [0, 1, 0.2, 0], [0, 0, 1, 0.5], [0.1, 0, 0, 1]])
_JCX = _SHEAR @ np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]) @ np.linalg.inv(_SHEAR)
_B = np.array([[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 0, 0.3], [0, 0, -0.3, 0]])

# name: (structure on a box, whether the products are exact)
FRAME_CASES = {
    "t2-complex": (lambda box: GCStructure.complex_structure(1, box), True),
    "t4-complex": (lambda box: GCStructure.complex_structure(2, box), True),
    "t6-complex": (lambda box: GCStructure.complex_structure(3, box), True),
    "t2-symplectic": (lambda box: GCStructure.symplectic_structure([[0, 1], [-1, 0]], box), True),
    "t4-symplectic-omega": (lambda box: GCStructure.symplectic_structure(_OMEGA, box), False),
    "t4-complex-jcx": (lambda box: GCStructure.complex_structure(2, box, jcx=_JCX), False),
    "t4-b-transform": (lambda box: GCStructure.complex_structure(2, box).b_transform(_B), False),
}


def _assert_same_stack(got, want, exact):
    """Bitwise equal coefficients, or equal to 1e-15 relative."""
    if exact:
        assert np.array_equal(got.modes, want.modes)
        assert np.array_equal(got.coeffs, want.coeffs)
    else:
        assert (got - want).norm() <= 1e-15 * want.norm()


@pytest.mark.parametrize("name", FRAME_CASES)
def test_frame_maps_match_dict_ring(name):
    """[eps*] and every transport image against the slot-pair conjugation
    and the dict-ring image loop, for a constant and a varying eps."""
    build, exact = FRAME_CASES[name]
    s = build(TruncationBox(1 if name.startswith("t6") else 2, "drop"))
    e0 = (1,) + (0,) * (s.dim - 1)
    f = FourierScalar(s.geometry, s.box, {e0: 0.05, (0,) * s.dim: 0.1 - 0.02j})
    varying = CliffordPoly(s.dual_frame, 2, {(0, s.dim - 1): f, (0, 1): conj_scalar(f).scale(0.5j)})
    for eps in (_constant_eps(s, 101), varying):
        tr = Transport(s, eps)
        eps_star, images = ref_frame_maps(s, eps)
        _assert_same_stack(tr.maps.eps_star_matrix, eps_star, exact)
        for name, want in images.items():
            got = tr.maps.eta if name == "eta" else getattr(tr, name)()
            _assert_same_stack(got, want, exact)


def test_transport_makes_no_scalar_products_or_entry_views(monkeypatch):
    """Frame maps, the transport, the dressings, a factorwise map and the
    constant inverse are stack products throughout: no FourierScalar.mul and
    no entry view of a FourierMatrix, for a constant and a varying eps."""
    box = TruncationBox(2, "drop")
    s = GCStructure.complex_structure(2, box)
    sigma = _spinors(s, 103, count=1)[0]
    varying = CliffordPoly(s.dual_frame, 2, {(0, 2): FourierScalar(s.geometry, box, {(1, 0, 0, 0): 0.3})})
    counts = {"mul": 0, "entry": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FourierScalar, "mul", counted("mul", FourierScalar.mul))
    monkeypatch.setattr(FourierMatrix, "__getitem__", counted("entry", FourierMatrix.__getitem__))
    for eps in (_constant_eps(s, 107), varying):
        counts.update(mul=0, entry=0)
        FrameMaps(s, eps)
        tr = Transport(s, eps)
        tr.forward(sigma)
        tr.dress(sigma)
        tr.undress(sigma)
        tr.factorwise(tr.maps.eta - s.dual_frame.matmul(tr.maps.eps_eps_star), sigma)
        if tr._constant:
            tr.inverse(sigma)
        assert counts == {"mul": 0, "entry": 0}
    assert not Transport(s, varying)._constant


# ----------------------------------------------------------------------
# frame polynomials: the dict ring they replaced
# ----------------------------------------------------------------------
#
# A polynomial's coefficients are one stack row over its degree's keys, and
# d_L is the frame-coordinate dbar block.  The references below are the
# dict-ring code: a polynomial as a dict from keys to FourierScalars, and d_L
# as the anchor derivatives plus the structure-constant sums.


def ref_anchor_derivative(v, f):
    """Directional derivative of f along the tangent projection of v.

    Frames are constant, so only constant tangent components appear.
    """
    vals = v.constant_values()
    out = FourierScalar.zero(f.geometry, f.box)
    for a in range(v.geometry.dim):
        c = vals[a]
        if c != 0:
            out = out.add(f.derive(a).scale(c))
    return out


def ref_lie_derivation_dL(a, structure):
    """(d_L a)(x_0, .., x_k) = sum_i (-1)^i p(x_i) a(.., x_i omitted, ..)
    + sum_{i<j} (-1)^{i+j} a([x_i, x_j]_H, ..), on the structure frame."""
    dim = structure.dim
    p = a.degree
    out = {}
    c = structure.structure_constants
    frame = sections(structure.frame)
    for args in itertools.combinations(range(dim), p + 1):
        val = FourierScalar.zero(structure.geometry, structure.box)
        for i, xi in enumerate(args):
            rest = args[:i] + args[i + 1:]
            coeff = poly_coefficient(a, rest)
            if not coeff.is_zero():
                term = ref_anchor_derivative(frame[xi], coeff)
                if i % 2:
                    term = term.scale(-1)
                val = val.add(term)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                rest = tuple(x for t, x in enumerate(args) if t not in (i, j))
                sign = -1 if (i + j) % 2 else 1
                for k in range(dim):
                    ck = c[args[i], args[j], k]
                    if ck == 0:
                        continue
                    coeff = poly_coefficient(a, (k,) + rest)
                    if coeff.is_zero():
                        continue
                    val = val.add(coeff.scale(sign * ck))
        if not val.is_zero():
            out[args] = val
    return CliffordPoly(structure.dual_frame, p + 1, out)


def _twisted(n, K, mono):
    box = TruncationBox(K)
    return GCStructure.complex_structure(
        n, box, twist=constant_form(TorusGeometry(n), box, mono, 1.0)
    )


# complex, twisted complex (H = dx0 dx1 dx2), symplectic and B-transformed
# T^4; complex T^6 and two twisted complex T^6
DL_CASES = {
    "t4-complex": lambda: GCStructure.complex_structure(2, TruncationBox(2)),
    "t4-twisted": lambda: _twisted(2, 2, (0, 1, 2)),
    "t4-symplectic": lambda: GCStructure.symplectic_structure(_OMEGA, TruncationBox(2)),
    "t4-b-transform": lambda: GCStructure.complex_structure(2, TruncationBox(2)).b_transform(_B),
    "t6-complex": lambda: GCStructure.complex_structure(3, TruncationBox(1)),
    "t6-twisted-013": lambda: _twisted(3, 1, (0, 1, 3)),
    "t6-twisted-245": lambda: _twisted(3, 1, (2, 4, 5)),
}


def _random_poly(rng, s, degree, terms=3):
    return CliffordPoly(s.dual_frame, degree, {
        key: random_fourier_scalar(rng, s.geometry, s.box, terms=terms)
        for key in itertools.combinations(range(s.dim), degree)
    })


@pytest.mark.parametrize("name", DL_CASES)
def test_dL_matches_the_dict_ring(name):
    """The assembled d_L against the anchor-derivative and structure-constant
    loop at every degree, on random multi-mode polynomials: 1e-14 relative."""
    s = DL_CASES[name]()
    rng = np.random.default_rng(151)
    for degree in range(s.dim + 1):
        poly = _random_poly(rng, s, degree)
        got, want = lie_derivation_dL(poly, s), ref_lie_derivation_dL(poly, s)
        assert got.degree == want.degree == degree + 1
        assert (got - want).norm() <= 1e-14 * max(1.0, want.norm())
        if degree == s.dim:
            assert got.is_zero() and want.is_zero()


def test_dL_matches_the_dict_ring_on_unit_mode_terms():
    """Each of the 24 single terms 0.3 e^{2 pi i x_a} on one of the six slots
    of complex T^4: the frame-coordinate operator must sit between the
    polynomial's coefficients and the frame words, not between components."""
    s = DL_CASES["t4-complex"]()
    for key in itertools.combinations(range(4), 2):
        for axis in range(4):
            mode = tuple(int(a == axis) for a in range(4))
            f = FourierScalar.mode(s.geometry, s.box, mode, 0.3)
            poly = CliffordPoly(s.dual_frame, 2, {key: f})
            got, want = lie_derivation_dL(poly, s), ref_lie_derivation_dL(poly, s)
            assert (got - want).norm() <= 1e-15 * max(1.0, want.norm()), (key, mode)


def test_poly_stack_matches_the_dict_ring():
    """The stack row holds the dict's coefficients: the read views, add,
    scale, norm, coefficient and the Clifford action against the dict-ring
    versions, with dropped mass carried through the views, add and scale."""
    s = GCStructure.complex_structure(2, TruncationBox(2, "drop"))
    g, box = s.geometry, s.box
    rng = np.random.default_rng(157)
    keys = list(itertools.combinations(range(4), 2))
    # keys out of order, one given reversed, one with dropped mass alone
    terms = {
        (1, 3): random_fourier_scalar(rng, g, box, terms=4),
        (2, 0): random_fourier_scalar(rng, g, box, terms=4),
        (0, 1): random_fourier_scalar(rng, g, box, terms=4),
        (2, 3): FourierScalar(g, box, {}, dropped_mass=0.25),
    }
    a = CliffordPoly(s.dual_frame, 2, terms)
    want = {(1, 3): terms[(1, 3)], (0, 2): terms[(2, 0)].scale(-1), (0, 1): terms[(0, 1)],
            (2, 3): terms[(2, 3)]}
    assert a.keys == keys and a.stack.shape == (1, 6)
    assert list(a.coeffs) == sorted(want)
    for key, f in a.terms():
        assert f.coeffs == want[key].coeffs and f.dropped_mass == want[key].dropped_mass
    for key in itertools.product(range(5), repeat=2):
        sorted_sign = sort_monomial(key)
        ref = FourierScalar.zero(g, box)
        if sorted_sign is not None and sorted_sign[0] in want:
            ref = want[sorted_sign[0]].scale(sorted_sign[1])
        got = poly_coefficient(a, key)
        assert got.coeffs == ref.coeffs and got.dropped_mass == ref.dropped_mass
    assert poly_coefficient(a, (0, 1, 2)).is_zero()

    b = _random_poly(rng, s, 2, terms=2)
    summed = a.add(b)
    for key in keys:
        ref = want[key].add(poly_coefficient(b, key)) if key in want else poly_coefficient(b, key)
        assert poly_coefficient(summed, key).coeffs == ref.coeffs
        assert poly_coefficient(summed, key).dropped_mass == pytest.approx(ref.dropped_mass)
    # a real factor scales bitwise; numpy's complex product may differ from
    # Python's in the last bit
    for c in (-0.5, 0.0, 0.3 - 0.4j):
        scaled = a.scale(c)
        for key, f in want.items():
            ref, got = f.scale(c), poly_coefficient(scaled, key)
            assert got.dropped_mass == ref.dropped_mass
            if isinstance(c, float):
                assert got.coeffs == ref.coeffs
            for mode, value in ref.coeffs.items():
                assert abs(mode_coefficient(got, mode) - value) <= 1e-15 * abs(value)
    ref_norm = math.sqrt(sum(f.norm() ** 2 for f in want.values()))
    assert a.norm() == pytest.approx(ref_norm, rel=1e-15)
    assert a.is_zero(1e3) and not a.is_zero(1e-3) and not a.is_zero()
    assert CliffordPoly(s.dual_frame, 2, {(2, 3): terms[(2, 3)]}).is_zero()

    for sigma in _spinors(s, 163, count=2):
        _assert_close(a.act(sigma), ref_act(a, sigma))
        _assert_close(b.act(sigma), ref_act(b, sigma))


@pytest.mark.parametrize("name", ["t4-complex", "t4-symplectic", "t6-twisted-013"])
def test_eps_matrix_scatter_matches_the_coefficient_entries(name):
    """[eps] is the antisymmetric scatter of eps's row: bitwise the matrix of
    the entries poly_coefficient(eps, (i, p)), dropped mass included."""
    s = DL_CASES[name]()
    rng = np.random.default_rng(167)
    eps = _random_poly(rng, s, 2, terms=3)
    eps = eps.add(CliffordPoly(s.dual_frame, 2, {(0, 1): FourierScalar(s.geometry, s.box, {}, 0.5)}))
    slots = range(s.dim)
    want = from_scalars([[poly_coefficient(eps, (i, p)) for p in slots] for i in slots])
    got = FrameMaps(s, eps).eps_matrix
    assert np.array_equal(got.modes, want.modes)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.array_equal(got.dropped_mass, want.dropped_mass)


def test_algebroid_maps_and_eps_matrix_build_no_scalars(monkeypatch):
    """AlgebroidHodge.harmonic, green and dL_adjoint, d_L and
    FrameMaps.eps_matrix read and write coefficient stacks: they construct
    no FourierScalar."""
    s = DL_CASES["t4-twisted"]()
    m = GeneralizedMetric.from_tensors(s.geometry, np.eye(s.dim))
    alg = AlgebroidHodge(s, m)
    rng = np.random.default_rng(173)
    polys = [_random_poly(rng, s, degree) for degree in (1, 2, 3)]
    built = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            built.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FourierScalar, "__init__", counted(FourierScalar.__init__))
    monkeypatch.setattr(FourierScalar, "_from_clean", classmethod(counted(
        FourierScalar._from_clean.__func__
    )))
    for poly in polys:
        for out in (alg.harmonic(poly), alg.green(poly), alg.dL_adjoint(poly),
                    lie_derivation_dL(poly, s)):
            assert isinstance(out, CliffordPoly)
    FrameMaps(s, polys[1])
    assert built == []
    poly_coefficient(polys[0], (0,))
    assert built


# ----------------------------------------------------------------------
# identity suites: the per-sample and per-mode loops they replaced
# ----------------------------------------------------------------------
#
# The stacked suites must reproduce these references bit for bit: the
# reports print their residuals to 12 significant digits.


def ref_random_spinor(rng, geometry, box, max_mode=None, terms=1):
    comps = {}
    for size in range(geometry.dim + 1):
        for mono in itertools.combinations(range(geometry.dim), size):
            comps[mono] = random_fourier_scalar(rng, geometry, box, max_mode, terms)
    return Spinor(geometry, box, comps)


def _ref_clifford_half(rng, geometry, box, samples, constant):
    mm = 0 if constant else max(1, box.K // 3)
    worst = 0.0
    for _ in range(samples):
        a = random_courant_vector(rng, geometry, box, max_mode=mm)
        b = random_courant_vector(rng, geometry, box, max_mode=mm)
        sigma = ref_random_spinor(rng, geometry, box, max_mode=mm)
        lhs = clifford_act(a, clifford_act(b, sigma)) + clifford_act(b, clifford_act(a, sigma))
        rhs = scale_spinor(sigma, pairing(a, b))
        scale = max(1.0, a.norm() * b.norm() * sigma.norm())
        worst = max(worst, (lhs - rhs).norm() / scale)
    return worst


def ref_clifford_suite(geometry, box, seed=0, samples=100):
    rng = np.random.default_rng(seed)
    if box.K < 3:
        box = TruncationBox(3, policy="strict")
    return [
        entry("clifford_relation_constant",
              _ref_clifford_half(rng, geometry, box, samples, True), 1e-12),
        entry("clifford_relation_fourier",
              _ref_clifford_half(rng, geometry, box, samples, False), 1e-9),
    ]


def _suite_box(K):
    return TruncationBox(3, "strict") if K < 3 else TruncationBox(K, "strict")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("terms", [1, 2, 5])
def test_random_spinor_matches_dict_built(n, terms):
    """Drawn straight into its stack, a random spinor is bitwise the one
    built from a dict of random scalars, and takes the same draws."""
    geometry = TorusGeometry(n)
    for K, max_mode, seed in itertools.product((0, 1, 3), (None, 0, 1), range(3)):
        box = TruncationBox(K)
        if max_mode is not None and max_mode > K:
            continue
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_spinor(rng, geometry, box, max_mode, terms).stack
        want = ref_random_spinor(ref_rng, geometry, box, max_mode, terms).stack
        assert np.array_equal(got.modes, want.modes)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.dropped_mass.tobytes() == want.dropped_mass.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _seeds_and_samples(n):
    """Seeds 0-4 at 1 and 7 samples, and seed 0 at 100 samples; T^6 takes one
    sample per seed, because its Fourier half costs about 70 ms a sample in
    either form."""
    if n == 3:
        return [(seed, 1) for seed in range(5)]
    return [(seed, samples) for seed in range(5) for samples in (1, 7)] + [(0, 100)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("K", [0, 1, 5])
def test_clifford_constant_half_matches_per_sample_reference(n, K):
    """The constant half, stacked samples of max mode 0, equals the
    per-sample products exactly, and leaves the generator where they leave
    it."""
    geometry, box = TorusGeometry(n), _suite_box(K)
    for seed, samples in [(seed, s) for seed in range(5) for s in (1, 7)] + [(0, 100)]:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _clifford_relation(rng, geometry, box, [0] * samples).max()
        assert got == _ref_clifford_half(ref_rng, geometry, box, samples, True)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("K", [0, 1, 5])
def test_clifford_suite_matches_per_sample_reference(n, K):
    """Both halves of the suite equal the per-sample loop exactly."""
    geometry = TorusGeometry(n)
    for seed, samples in _seeds_and_samples(n):
        want = ref_clifford_suite(geometry, TruncationBox(K), seed, samples)
        assert clifford_suite(geometry, TruncationBox(K), seed, samples) == want


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 2),
    K=st.integers(0, 7),
    policy=st.sampled_from(["strict", "drop"]),
    seed=st.integers(0, 2 ** 32 - 1),
    samples=st.integers(1, 12),
)
def test_clifford_suite_property(n, K, policy, seed, samples):
    geometry, box = TorusGeometry(n), TruncationBox(K, policy)
    assert clifford_suite(geometry, box, seed, samples) == ref_clifford_suite(
        geometry, box, seed, samples
    )


@pytest.mark.parametrize("n, K", [(1, 1), (2, 4)])
def test_clifford_suite_without_samples_reads_zero(n, K):
    """With no samples both entries read the per-sample loop's 0: summing
    the empty stacks of an empty run gives an empty stack."""
    geometry, box = TorusGeometry(n), TruncationBox(K)
    got = clifford_suite(geometry, box, 0, 0)
    assert got == ref_clifford_suite(geometry, box, 0, 0)
    assert [e["value"] for e in got] == [0.0, 0.0]


def test_clifford_suite_products_and_conversions(monkeypatch):
    """On T^2 K=1 with 100 samples the Fourier half is one run of stacks:
    three stacked products (b.sigma with a.sigma, a.(b.sigma) with
    b.(a.sigma), and <a, b> sigma), no ``FourierMatrix`` product, and no
    scalar converted to a stack."""
    counts = {"matmul": 0, "from_entries": 0, "stacked": 0}
    matmul, from_entries = FourierMatrix.matmul, FourierMatrix.from_entries.__func__
    stacked = fourier._stack_products

    def counted_matmul(self, other, policy=None):
        counts["matmul"] += 1
        return matmul(self, other, policy)

    def counted_from_entries(cls, *args, **kwargs):
        counts["from_entries"] += 1
        return from_entries(cls, *args, **kwargs)

    def counted_stacked(*args):
        counts["stacked"] += 1
        return stacked(*args)

    monkeypatch.setattr(FourierMatrix, "matmul", counted_matmul)
    monkeypatch.setattr(FourierMatrix, "from_entries", classmethod(counted_from_entries))
    monkeypatch.setattr(fourier, "_stack_products", counted_stacked)
    clifford_suite(TorusGeometry(1), TruncationBox(1), seed=0, samples=100)
    assert counts == {"matmul": 0, "from_entries": 0, "stacked": 3}


class _PinnedModes:
    """A generator for the Fourier half whose mode draws read 0 in chosen
    parts of chosen samples, so that their stacks have one mode: ``pins``
    maps a sample to "sections" (a and b), "spinor" or "all".  Every draw
    still advances the wrapped generator, and the reference and the stacked
    half make the same calls, so both see the same triples."""

    def __init__(self, seed, dim, pins):
        self.rng = np.random.default_rng(seed)
        self.section_calls = 2 * (2 * dim) * dim
        self.per_sample = self.section_calls + 2 ** dim * dim
        self.pins, self.calls = pins, 0

    def integers(self, low, high):
        sample, at = divmod(self.calls, self.per_sample)
        self.calls += 1
        value = self.rng.integers(low, high)
        part = "sections" if at < self.section_calls else "spinor"
        return 0 if self.pins.get(sample) in (part, "all") else value

    def normal(self):
        return self.rng.normal()


@pytest.mark.parametrize("n, K", [(1, 3), (1, 7), (2, 3), (2, 6)])
def test_clifford_fourier_half_matches_reference_on_every_shape(n, K):
    """One run of stacks that holds every product shape at once: one-mode
    spinors (b.sigma is a gemv), one-mode sections (a one-mode <a, b> and
    one-mode actions), both, and free samples with multi-mode factors on
    both sides; also each kind alone as a single sample.  The residual is
    bitwise the per-sample reference's.  At n=2, K=6 the modes reach 2."""
    geometry, box = TorusGeometry(n), TruncationBox(K)
    kinds = ["spinor", "sections", "all", None]
    pins = {s: kinds[s % 4] for s in range(12)}
    cases = [(seed, pins, 12) for seed in range(3)]
    cases += [(seed, {0: kind}, 1) for seed in range(2) for kind in kinds]
    for seed, pinned, samples in cases:
        rng, ref_rng = _PinnedModes(seed, geometry.dim, pinned), _PinnedModes(seed, geometry.dim, pinned)
        got = _clifford_relation(rng, geometry, box, [max(1, K // 3)] * samples).max()
        want = _ref_clifford_half(ref_rng, geometry, box, samples, False)
        assert got == want
        assert rng.calls == ref_rng.calls
        assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state


def test_clifford_relation_interleaves_constant_and_fourier_samples():
    """Constant and Fourier samples alternating in one pass on T^4 K=6:
    each residual is bitwise the per-sample reference's, drawn one sample
    at a time in the same order, and the generator ends where it does."""
    geometry, box = TorusGeometry(2), TruncationBox(6)
    max_modes = [0, 2, 2, 0, 0, 2, 0, 2, 2, 2, 0]
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _clifford_relation(rng, geometry, box, max_modes)
        want = [_ref_clifford_half(ref_rng, geometry, box, 1, mm == 0) for mm in max_modes]
        assert got.tolist() == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("terms", [1, 2, 3])
def test_random_terms_at_max_mode_zero_draws_no_modes(dim, terms):
    """At max mode 0 the skipped mode draws change nothing: the same
    coefficients, and the generator where the per-draw loop leaves it."""
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = {}
        for _ in range(terms):
            mode = tuple(int(ref_rng.integers(0, 1)) for _ in range(dim))
            want[mode] = want.get(mode, 0.0) + complex(ref_rng.normal(), ref_rng.normal())
        assert list(random_terms(rng, dim, 0, terms).items()) == list(want.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _hodge_case(name):
    box = TruncationBox(1)
    if name == "symplectic":
        omega = np.array([[0.0, 1.0, 0, 0], [-1.0, 0, 0, 0], [0, 0, 0, 1.0], [0, 0, -1.0, 0]])
        s = GCStructure.symplectic_structure(omega, box)
        return HodgeContext(s, GeneralizedMetric.from_tensors(s.geometry, np.eye(4)))
    if name == "b-transform":
        b = np.zeros((4, 4))
        b[0, 1], b[1, 0] = 0.7, -0.7
        s = GCStructure.complex_structure(2, box).b_transform(b)
        return HodgeContext(s, GeneralizedMetric.from_tensors(s.geometry, np.eye(4), b))
    twist = constant_form(TorusGeometry(2), box, (0, 1, 2), 1.0) if name == "twisted" else None
    s = GCStructure.complex_structure(2, box, twist=twist)
    return HodgeContext(s, GeneralizedMetric.from_tensors(s.geometry, np.eye(4)))


def ref_matrix_identities(ctx):
    worst = {"del_squared": 0.0, "dbar_squared": 0.0, "anticommute": 0.0, "d_split": 0.0}
    for mode in box_modes(ctx):
        dl = operator_matrix(ctx, "del", mode)
        db = operator_matrix(ctx, "dbar", mode)
        d = operator_matrix(ctx, "d", mode)
        scale = max(1.0, np.abs(d).max()) ** 2
        worst["del_squared"] = max(worst["del_squared"], np.abs(dl @ dl).max() / scale)
        worst["dbar_squared"] = max(worst["dbar_squared"], np.abs(db @ db).max() / scale)
        worst["anticommute"] = max(worst["anticommute"], np.abs(dl @ db + db @ dl).max() / scale)
        worst["d_split"] = max(worst["d_split"], np.abs(d - dl - db).max() / max(1.0, np.abs(d).max()))
    return [entry(k, v, 1e-9) for k, v in worst.items()]


def ref_kernel_characterizations(ctx):
    out = []
    size = ctx.level_basis.size
    dl, db, t = (ctx._op(name, slice(None)) for name in ("del", "dbar", "deldbar"))
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
        null = _range_and_null(stack)[1]
        hmat = pk.matrix(slice(None), pk.harmonic_weights)
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


def ref_green_commutation(ctx):
    worst = {f"green_identity_{i}": 0.0 for i in range(1, 9)}
    bc = ctx.package("bc")
    ae = ctx.package("aeppli")
    every = slice(None)
    laps = zip(box_modes(ctx), ctx._laplacian("bc", every), ctx._laplacian("aeppli", every))
    for mode, lbc, la in laps:
        dl = operator_matrix(ctx, "del", mode)
        db = operator_matrix(ctx, "dbar", mode)
        t = dl @ db
        t2 = db @ dl
        index = ctx.level_basis.positions([mode])[0]
        gbc = bc.matrix(index, bc.green_weights)
        ga = ae.matrix(index, ae.green_weights)
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


def ref_star_conjugation(ctx):
    lb = ctx.level_basis
    star = lb.basis_inv @ ctx.metric.star_matrix @ lb.basis
    star_inv = np.linalg.inv(star)
    worst = 0.0
    worst_del = 0.0
    for mode in box_modes(ctx):
        db_adj = operator_matrix(ctx, "dbar_adj", mode)
        dl_adj = operator_matrix(ctx, "del_adj", mode)
        dl = operator_matrix(ctx, "del", mode)
        db = operator_matrix(ctx, "dbar", mode)
        scale = max(1.0, np.abs(dl).max(), np.abs(db).max())
        worst = max(worst, float(np.abs(db_adj - star @ dl @ star_inv).max()) / scale)
        worst_del = max(worst_del, float(np.abs(dl_adj - star @ db @ star_inv).max()) / scale)
    return [
        entry("star_conjugation_dbar_adj", worst, 1e-9),
        entry("star_conjugation_del_adj", worst_del, 1e-9),
    ]


@pytest.mark.parametrize("name", ["complex", "symplectic", "b-transform", "twisted"])
@pytest.mark.parametrize("cutoff", ["package", "median"])
def test_hodge_suite_matches_per_mode_reference(name, cutoff, monkeypatch):
    """Over the representative modes, stacked, the Hodge diagnostics equal
    the per-mode loops over the whole box exactly; on the twisted torus every
    mode is its own representative.  A kernel count forced to the
    eigenvalues at most the median makes the kernel-dimension counts
    nonzero, so the weights of the representatives show.  With ``hodge.CHUNK_BYTES`` set so that the diagnostics' passes
    go 7 or 1 representatives at a time, the chunks end mid-box and the
    values stay the same."""
    ctx = _hodge_case(name)
    assert (len(ctx.level_basis.weight) == len(ctx.level_basis.modes)) == (name == "twisted")
    if cutoff == "median":
        lb = ctx.level_basis
        counts = {kind: forced_kernel(lb, kind, np.median) for kind in ("bc", "aeppli")}
        force_kernel(monkeypatch, lb, counts)
    want = (
        ref_matrix_identities(ctx) + ref_kernel_characterizations(ctx)
        + ref_green_commutation(ctx) + ref_star_conjugation(ctx)
    )
    counts = [e["value"] for e in want if e["name"].startswith(("kernel_char", "decomposition_dims"))]
    assert any(counts) == (cutoff == "median")
    size = ctx.level_basis.size
    for chunk in (None, 7, 1):
        if chunk:
            # the diagnostics' passes hold four (m, N, N) stacks
            monkeypatch.setattr(hodge, "CHUNK_BYTES", 16 * size * size * 4 * chunk)
            assert next(diagnostics._rep_chunks(ctx)) == slice(0, chunk)
        got = (
            diagnostics._matrix_identities(ctx) + diagnostics._kernel_characterizations(ctx)
            + diagnostics._green_commutation(ctx) + diagnostics._star_conjugation(ctx)
        )
        assert got == want


# ----------------------------------------------------------------------
# the Born-Infeld inner product and the box's mode order
# ----------------------------------------------------------------------


def ref_bi_inner(metric, alpha, beta):
    """bi_inner as it was: beta read at alpha's modes through np.unique."""
    _, slot = np.unique(np.concatenate([alpha.modes, beta.modes]), axis=0, return_inverse=True)
    slot = slot.reshape(-1)
    b = np.zeros((len(slot), beta.rows.shape[1]), dtype=complex)
    b[slot[len(alpha.modes):]] = beta.rows
    return complex(np.sum((alpha.rows @ metric.bi_gram) * b[slot[: len(alpha.modes)]].conj()))


def test_bi_inner_matches_the_unique_formula_bitwise(case):
    """Matching beta's rows to alpha's modes by their keys gathers the same
    rows, so every product and sum is the same: overlapping supports,
    disjoint ones (only mode zero against only nonzero modes) and empty
    ones give bitwise the old values."""
    s, m, _ = case
    zero = Spinor.zero(s.geometry, s.box)
    rng = np.random.default_rng(7)
    spinors = [
        random_spinor(rng, s.geometry, s.box, max_mode=s.box.K, terms=3) for _ in range(4)
    ]
    constant = random_spinor(rng, s.geometry, s.box, max_mode=0)
    live = spinors[0].modes.any(axis=1)
    varying = Spinor.from_modes(s.geometry, s.box, spinors[0].modes[live], spinors[0].rows[live])
    assert not set(map(tuple, constant.modes)) & set(map(tuple, varying.modes))
    overlapping = [(a, b) for a in spinors for b in spinors]
    pairs = overlapping + [
        (constant, varying), (varying, constant), (zero, spinors[1]), (spinors[1], zero),
        (zero, zero), (constant, spinors[2]),
    ]
    for a, b in pairs:
        assert m.bi_inner(a, b) == ref_bi_inner(m, a, b)
    assert m.bi_inner(constant, varying) == 0


@pytest.mark.parametrize("n, K", [(1, 0), (1, 2), (2, 1), (3, 1)])
def test_box_modes_run_lexicographically(n, K):
    """The box's modes are the lexicographic product order that
    ``_mode_positions`` indexes."""
    geometry = TorusGeometry(n)
    modes = list(TruncationBox(K).modes(geometry))
    assert modes == sorted(itertools.product(range(-K, K + 1), repeat=geometry.dim))
    assert all(isinstance(mode, tuple) for mode in modes)
    assert len(modes) == (2 * K + 1) ** geometry.dim


@pytest.mark.parametrize("K", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_level_basis_modes_run_lexicographically(n, K):
    """The level basis's (M, 2n) mode array is in the box's lexicographic
    order: ``_mode_positions`` maps it to 0..M-1, and mode M - 1 - i is
    minus mode i, which ``_mode_mirror`` relies on."""
    box = TruncationBox(K)
    s = GCStructure.complex_structure(n, box)
    lb = _LevelBasis(s, GeneralizedMetric.from_tensors(s.geometry, np.eye(2 * n)))
    assert lb.modes.shape == ((2 * K + 1) ** (2 * n), 2 * n)
    assert np.array_equal(_mode_positions(box, s.dim, lb.modes), np.arange(len(lb.modes)))
    assert np.array_equal(lb.modes[::-1], -lb.modes)
