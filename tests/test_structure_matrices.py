"""A structure built from its frame matrices, against the dict-ring code it
replaced.

The references below are the earlier implementation, kept as oracles: the
named constructors built lists of ``CourantVector`` sections, and the
structure constants and the validation residuals came from
``courant_bracket`` and ``pairing`` (now in ``tests/reference.py``) on those
sections (``FourierScalar`` dict arithmetic); del and dbar were masked level
blocks of d, rebuilt on every call.  The matrices must come out bitwise equal, and the residuals
within 1e-15.
"""

import itertools

import numpy as np
import pytest

from gentorus.fourier import FourierScalar, TorusGeometry, TruncationBox
from gentorus.metric import GeneralizedMetric
from gentorus.spinor import (
    Spinor,
    clifford_generators,
    constant_clifford_matrix,
    wedge_matrix,
)
from gentorus.structure import GCStructure, StructureError, natural_pairing_matrix

from reference import CourantVector, constant_form, courant_bracket, pairing

BOX = TruncationBox(2)
T4 = TorusGeometry(2)


# ---------------------------------------------------------------------------
# reference frames: the named constructors as sections
# ---------------------------------------------------------------------------


def _section(geometry, values):
    dim = geometry.dim
    return CourantVector.constant(geometry, BOX, values[:dim], values[dim:])


def _complex_frames(n):
    geometry = TorusGeometry(n)
    dim = geometry.dim
    frame, dual = [], []
    for j in range(n):
        dz_cot = [0.0] * dim
        dz_cot[j] = 1.0
        dz_cot[n + j] = 1.0j
        frame.append(CourantVector.constant(geometry, BOX, [0.0] * dim, dz_cot))
    for j in range(n):
        dzb_tan = [0.0] * dim
        dzb_tan[j] = 0.5
        dzb_tan[n + j] = 0.5j
        frame.append(CourantVector.constant(geometry, BOX, dzb_tan, [0.0] * dim))
    for j in range(n):
        dz_tan = [0.0] * dim
        dz_tan[j] = 0.5
        dz_tan[n + j] = -0.5j
        dual.append(CourantVector.constant(geometry, BOX, dz_tan, [0.0] * dim))
    for j in range(n):
        dzb_cot = [0.0] * dim
        dzb_cot[j] = 1.0
        dzb_cot[n + j] = -1.0j
        dual.append(CourantVector.constant(geometry, BOX, [0.0] * dim, dzb_cot))
    return frame, dual


def _symplectic_frames(omega):
    dim = omega.shape[0]
    geometry = TorusGeometry(dim // 2)
    frame = []
    for j in range(dim):
        tan = [0.0] * dim
        tan[j] = 1.0
        frame.append(CourantVector.constant(geometry, BOX, tan, [-1j * omega[j, k] for k in range(dim)]))
    om_inv = np.linalg.inv(omega)
    dual = []
    for i in range(dim):
        values = np.zeros(2 * dim, dtype=complex)
        for a in range(dim):
            coeff = om_inv[i, a] / 2j
            values[a] += coeff
            for k in range(dim):
                values[dim + k] += coeff * 1j * omega[a, k]
        dual.append(_section(geometry, values))
    return frame, dual


def _jcx_frames(jcx):
    geometry = TorusGeometry(len(jcx) // 2)
    dim = geometry.dim
    jgc = np.zeros((2 * dim, 2 * dim))
    jgc[:dim, :dim] = -jcx
    jgc[dim:, dim:] = jcx.T
    vals, vecs = np.linalg.eig(jgc)
    frame_vals = vecs[:, [i for i, v in enumerate(vals) if v.imag > 0.5]]
    frame = []
    for i in range(dim):
        v = frame_vals[:, i]
        pivot = np.argmax(np.abs(v))
        frame.append(_section(geometry, v * (abs(v[pivot]) / v[pivot])))
    q = natural_pairing_matrix(dim)
    conj_vals = np.column_stack([v.constant_values().conj() for v in frame])
    p = conj_vals.T @ q @ np.column_stack([v.constant_values() for v in frame])
    pinv = np.linalg.inv(p)
    dual = [_section(geometry, conj_vals @ pinv[i, :]) for i in range(dim)]
    return frame, dual


def _b_transform_frames(frames, bmatrix):
    geometry = frames[0][0].geometry
    dim = geometry.dim
    tmat = np.eye(2 * dim)
    tmat[dim:, :dim] = bmatrix.T
    return tuple(
        [_section(geometry, tmat @ v.constant_values()) for v in vectors] for vectors in frames
    )


def _jstd(n):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


_CONJ = np.array([[1.0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
JCX = _CONJ @ _jstd(2) @ np.linalg.inv(_CONJ)
OMEGA = np.array([[0, 0, 2.0, 0], [0, 0, 0, 0.5], [-2.0, 0, 0, 0], [0, -0.5, 0, 0]])
B01 = np.array([[0, 1.0, 0, 0], [-1.0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
H012 = constant_form(T4, BOX, (0, 1, 2), 1.0)

# name -> (the structure, its reference frames, its twist)
CASES = {
    "t4-complex": (
        lambda: GCStructure.complex_structure(2, BOX), lambda: _complex_frames(2), None,
    ),
    "t4-twisted": (
        lambda: GCStructure.complex_structure(2, BOX, twist=H012), lambda: _complex_frames(2), H012,
    ),
    "t4-jcx": (
        lambda: GCStructure.complex_structure(2, BOX, jcx=JCX), lambda: _jcx_frames(JCX), None,
    ),
    "t4-symplectic-omega": (
        lambda: GCStructure.symplectic_structure(OMEGA, BOX), lambda: _symplectic_frames(OMEGA), None,
    ),
    "t4-b-transform": (
        lambda: GCStructure.complex_structure(2, BOX).b_transform(B01),
        lambda: _b_transform_frames(_complex_frames(2), B01),
        None,
    ),
    "t6-complex": (
        lambda: GCStructure.complex_structure(3, BOX), lambda: _complex_frames(3), None,
    ),
    "t2-symplectic": (
        lambda: GCStructure.symplectic_structure(_jstd(1).T, BOX),
        lambda: _symplectic_frames(_jstd(1).T),
        None,
    ),
}


# ---------------------------------------------------------------------------
# reference structure: everything from the sections, by the dict ring
# ---------------------------------------------------------------------------


def _values(vectors):
    return np.column_stack([v.constant_values() for v in vectors])


def _jmatrix(frame_vals, dual_vals):
    dim = frame_vals.shape[1]
    q = natural_pairing_matrix(dim)
    j = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for i in range(dim):
        li, ld = frame_vals[:, i], dual_vals[:, i]
        j += 1j * np.outer(li, q @ ld) - 1j * np.outer(ld, q @ li)
    return j.real if np.abs(j.imag).max() < 1e-9 else j


def _level_matrix(frame, dual):
    dim = len(frame)
    frame_cliff = [constant_clifford_matrix(v.constant_values(), dim) for v in frame]
    dual_cliff = [constant_clifford_matrix(v.constant_values(), dim) for v in dual]
    _, _, vh = np.linalg.svd(np.vstack(frame_cliff))
    rho0 = vh[-1].conj()
    for c in rho0:
        if abs(c) > 1e-10:
            rho0 = rho0 * (abs(c) / c)
            break
    geometry = frame[0].geometry
    rho0 = Spinor.from_modes(geometry, BOX, np.zeros((1, dim)), (rho0 / np.linalg.norm(rho0))[None])
    rho0 = rho0.stack.constant_values()[:, 0]
    columns = []
    for size in range(dim + 1):
        for subset in itertools.combinations(range(dim), size):
            vec = rho0
            for i in reversed(subset):
                vec = dual_cliff[i] @ vec
            columns.append(vec)
    return np.column_stack(columns), frame_cliff, rho0


def _structure_constants(frame, dual, twist):
    dim = len(frame)
    c = np.zeros((dim, dim, dim), dtype=complex)
    offframe = 0.0
    for i in range(dim):
        for j in range(i + 1, dim):
            br = courant_bracket(frame[i], frame[j], H=twist)
            for k in range(dim):
                coeff = pairing(dual[k], br).integrate()
                c[i, j, k] = coeff
                c[j, i, k] = -coeff
                offframe = max(offframe, abs(pairing(frame[k], br).integrate()))
    return c, offframe


def _residuals(frame, dual, twist, jmatrix, level, frame_cliff, rho0, offframe):
    dim = len(frame)
    q = natural_pairing_matrix(dim)
    frame_vals, dual_vals = _values(frame), _values(dual)
    res = {}
    res["j_squared"] = float(np.abs(jmatrix @ jmatrix + np.eye(2 * dim)).max())
    res["j_real"] = float(np.abs(jmatrix.imag).max()) if np.iscomplexobj(jmatrix) else 0.0
    res["pairing_preserved"] = float(np.abs(jmatrix.T @ q @ jmatrix - q).max())
    iso = dual_err = 0.0
    for i in range(dim):
        for k in range(dim):
            iso = max(iso, abs(pairing(frame[i], frame[k]).integrate()))
            iso = max(iso, abs(pairing(dual[i], dual[k]).integrate()))
            want = 1.0 if i == k else 0.0
            dual_err = max(dual_err, abs(pairing(dual[i], frame[k]).integrate() - want))
    res["isotropy"] = float(iso)
    res["duality"] = float(dual_err)
    res["integrability"] = float(offframe)
    eig = 0.0
    for i in range(dim):
        eig = max(eig, float(np.abs(jmatrix @ frame_vals[:, i] - 1j * frame_vals[:, i]).max()))
        eig = max(eig, float(np.abs(jmatrix @ dual_vals[:, i] + 1j * dual_vals[:, i]).max()))
    res["frame_eigen"] = eig
    res["annihilator"] = max(float(np.abs(m @ rho0).max()) for m in frame_cliff)
    res["twist_closed"] = 0.0 if twist is None else float(
        max(f.derive(a).norm() for f in twist.comps.values() for a in range(dim))
    )
    res["twist_real"] = 0.0 if twist is None or all(
        f.is_real() for f in twist.comps.values()
    ) else 1.0
    res["level_basis_rank"] = 0.0 if np.linalg.matrix_rank(level) == 2 ** dim else 1.0
    return res


def _differentials(structure, twist):
    """d as C = -H ^ and A_a = dx^a ^, its level parts as the masked
    level blocks of C and of the A_a, and d_L as the masked raising blocks
    in frame coordinates."""
    dim = structure.dim
    zero = Spinor.zero(structure.geometry, structure.box)
    const = -wedge_matrix(zero if twist is None else twist).constant_values()
    slopes = clifford_generators(dim)[dim:]
    out = {"d": (const, slopes)}
    words, coords = structure._level_matrix, structure._level_inverse
    frame = coords @ np.concatenate([const[None], slopes]) @ words
    for name, shift in (("del", -1), ("dbar", 1)):
        parts = words @ (structure.shift_mask(shift) * frame) @ coords
        out[name] = (parts[0], parts[1:])
    raising = structure.shift_mask(+1) * frame
    out["dL"] = (raising[0], raising[1:])
    return out


def _reference(name):
    _, frames, twist = CASES[name]
    frame, dual = frames()
    frame_vals, dual_vals = _values(frame), _values(dual)
    jmatrix = _jmatrix(frame_vals, dual_vals)
    level, frame_cliff, rho0 = _level_matrix(frame, dual)
    c, offframe = _structure_constants(frame, dual, twist)
    return {
        "frame": frame_vals,
        "dual": dual_vals,
        "jmatrix": jmatrix,
        "level": level,
        "c": c,
        "validation": _residuals(frame, dual, twist, jmatrix, level, frame_cliff, rho0, offframe),
    }


@pytest.fixture(scope="module", params=sorted(CASES))
def built(request):
    return request.param, CASES[request.param][0](), _reference(request.param)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_matrices_bitwise_equal_to_the_dict_ring(built):
    """Frames, J, the level matrix, the structure constants and the d, del
    and dbar matrices are bitwise those of the section-based code."""
    name, s, ref = built
    assert _same_bits(s._frame_vals, ref["frame"])
    assert _same_bits(s._dual_vals, ref["dual"])
    assert _same_bits(s.frame.constant_values(), ref["frame"])
    assert _same_bits(s.dual_frame.constant_values(), ref["dual"])
    assert np.shares_memory(s.frame.coeffs, s._frame_vals)
    assert np.shares_memory(s.dual_frame.coeffs, s._dual_vals)
    assert _same_bits(s.jmatrix, ref["jmatrix"])
    assert _same_bits(s._level_matrix, ref["level"])
    assert _same_bits(s.structure_constants, ref["c"])
    want = _differentials(s, CASES[name][2])
    assert sorted(s.differentials) == sorted(want)
    for key, (const, slopes) in want.items():
        assert _same_bits(s.differentials[key][0], const)
        assert _same_bits(s.differentials[key][1], slopes)


def test_validation_agrees_with_the_dict_ring(built):
    """Every validation key is there, in the same order, each within 1e-15
    of the pairings and brackets computed on the sections."""
    _, s, ref = built
    assert list(s.validation) == list(ref["validation"])
    for key, value in ref["validation"].items():
        assert abs(s.validation[key] - value) <= 1e-15, key


def test_twisted_symplectic_t4_names_its_worst_bracket_pair():
    """The standard symplectic T^4 twisted by dx0 ^ dx1 ^ dx2 is not
    involutive: [d/dx0, d/dx1]_H = dx2 leaves the eigenbundle, as the
    message says."""
    omega = np.zeros((4, 4))
    omega[0, 2] = omega[1, 3] = 1.0
    omega -= omega.T
    with pytest.raises(StructureError) as err:
        GCStructure.symplectic_structure(omega, BOX, twist=H012)
    assert str(err.value) == (
        "structure 'symplectic(T4)' failed validation: integrability=1.000e+00 "
        "(worst bracket pair: frame 0, frame 1)"
    )


def test_building_a_structure_makes_no_fourier_products(monkeypatch):
    """Validation is matrix products and the frames are stacks over the
    frame matrices: building complex T^2, T^4 and T^6 at K=2 and their
    compatible metrics makes no FourierScalar at all (section frames made
    24, 96 and 216 scalars, and the dict ring's validation 772 products
    on T^4).  A scalar is made by the constructor or by ``_from_clean``."""
    made = []
    init, from_clean = FourierScalar.__init__, FourierScalar._from_clean.__func__

    def counted_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def counted_from_clean(cls, *args, **kwargs):
        made.append(1)
        return from_clean(cls, *args, **kwargs)

    monkeypatch.setattr(FourierScalar, "__init__", counted_init)
    monkeypatch.setattr(FourierScalar, "_from_clean", classmethod(counted_from_clean))
    for n in (1, 2, 3):
        GeneralizedMetric.compatible_with(GCStructure.complex_structure(n, TruncationBox(2)))
        assert made == [], n
    _structure_constants(*_complex_frames(2), None)
    assert made  # the reference does go through the dict ring
