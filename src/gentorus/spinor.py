"""Spinors and the Clifford module over T + T*.

A spinor is an element of the full exterior algebra of the cotangent bundle
with :class:`~gentorus.fourier.FourierScalar` coefficients.  Sections of
T + T* act on spinors by interior contraction plus wedge,

    (X + xi) . sigma = i_X sigma + xi ^ sigma,

which satisfies the Clifford relation a.b.sigma + b.a.sigma = <a, b> sigma
for the pairing <X + xi, Y + eta> = xi(Y) + eta(X) (no 1/2 factor).

Monomials are stored as strictly increasing tuples of 0-based cotangent
generator indices; every sign in the package is derived from sorting
permutations against this one canonical order.

Linear maps that act mode by mode (Hodge operators, level projections, the
metric pairing, the transport) work on arrays: :func:`mode_stack` lays a
coefficient dict out as one row per Fourier mode and one column per key of
:func:`monomial_list`, and :func:`from_mode_stack` turns such rows back into
a coefficient dict.  These two are the only conversions between the dicts
and per-mode arrays.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .fourier import (
    FourierScalar,
    GeometryMismatch,
    TorusGeometry,
    TruncationBox,
)

Monomial = Tuple[int, ...]


def _merge_index(indices: Monomial, j: int) -> Tuple[Monomial, int] | None:
    """Insert generator j into a sorted monomial; None if it already occurs."""
    if j in indices:
        return None
    pos = 0
    while pos < len(indices) and indices[pos] < j:
        pos += 1
    sign = -1 if pos % 2 else 1
    return indices[:pos] + (j,) + indices[pos:], sign


def sort_monomial(indices: Sequence[int]) -> Tuple[Monomial, int] | None:
    """Sort a generator tuple, returning (sorted tuple, permutation sign).

    Returns None when an index repeats (the monomial vanishes).
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort; parity of the number of transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class Spinor:
    """Element of the exterior algebra with FourierScalar coefficients.

    ``comps`` maps strictly increasing index tuples to coefficients; zero
    coefficients are not stored.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        box: TruncationBox,
        comps: Dict[Monomial, FourierScalar] | None = None,
    ):
        self.geometry = geometry
        self.box = box
        clean: Dict[Monomial, FourierScalar] = {}
        if comps:
            for mono, f in comps.items():
                mono = tuple(int(i) for i in mono)
                if any(not 0 <= i < geometry.dim for i in mono):
                    raise ValueError(f"monomial {mono} out of range")
                if tuple(sorted(mono)) != mono or len(set(mono)) != len(mono):
                    raise ValueError(f"monomial {mono} is not strictly increasing")
                if f.geometry != geometry or f.box != box:
                    raise GeometryMismatch("spinor coefficient in a different space")
                # zero coefficients are dropped unless they carry truncation
                # mass, which must stay auditable
                if not f.is_zero() or f.dropped_mass > 0:
                    if mono in clean:
                        clean[mono] = clean[mono].add(f)
                    else:
                        clean[mono] = f
        self.comps = {
            m: f for m, f in clean.items() if not f.is_zero() or f.dropped_mass > 0
        }

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, geometry: TorusGeometry, box: TruncationBox) -> "Spinor":
        return cls(geometry, box, {})

    @classmethod
    def scalar(cls, f: FourierScalar) -> "Spinor":
        return cls(f.geometry, f.box, {(): f})

    @classmethod
    def constant_form(
        cls, geometry: TorusGeometry, box: TruncationBox, mono: Sequence[int], c=1.0
    ) -> "Spinor":
        key = tuple(int(i) for i in mono)
        return cls(geometry, box, {key: FourierScalar.constant(geometry, box, c)})

    # ------------------------------------------------------------------
    # linear structure
    # ------------------------------------------------------------------

    def add(self, other: "Spinor") -> "Spinor":
        if self.geometry != other.geometry or self.box != other.box:
            raise GeometryMismatch("spinors live in different spaces")
        out = dict(self.comps)
        for mono, f in other.comps.items():
            out[mono] = out[mono].add(f) if mono in out else f
        return Spinor(self.geometry, self.box, out)

    def scale(self, c) -> "Spinor":
        return Spinor(
            self.geometry, self.box, {m: f.scale(c) for m, f in self.comps.items()}
        )

    def scale_scalar(self, g: FourierScalar, policy: str | None = None) -> "Spinor":
        return Spinor(
            self.geometry,
            self.box,
            {m: f.mul(g, policy=policy) for m, f in self.comps.items()},
        )

    def __add__(self, other: "Spinor") -> "Spinor":
        return self.add(other)

    def __sub__(self, other: "Spinor") -> "Spinor":
        return self.add(other.scale(-1))

    def __neg__(self) -> "Spinor":
        return self.scale(-1)

    def __rmul__(self, c) -> "Spinor":
        return self.scale(c)

    def conj(self) -> "Spinor":
        return Spinor(
            self.geometry, self.box, {m: f.conj() for m, f in self.comps.items()}
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def coefficient(self, mono: Sequence[int]) -> FourierScalar:
        key = tuple(int(i) for i in mono)
        if key in self.comps:
            return self.comps[key]
        return FourierScalar.zero(self.geometry, self.box)

    def norm(self) -> float:
        return math.sqrt(sum(f.norm() ** 2 for f in self.comps.values()))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(f.is_zero(tol) for f in self.comps.values())

    def dropped_mass(self) -> float:
        return sum(f.dropped_mass for f in self.comps.values())

    def embed(self, box: TruncationBox) -> "Spinor":
        return Spinor(
            self.geometry, box, {m: f.embed(box) for m, f in self.comps.items()}
        )

    def __repr__(self) -> str:
        if not self.comps:
            return "Spinor(0)"
        parts = [f"dx{list(m)}: {f!r}" for m, f in sorted(self.comps.items())]
        return "Spinor({" + ", ".join(parts) + "})"


def wedge(a: Spinor, b: Spinor, policy: str | None = None) -> Spinor:
    """Exterior product a ^ b."""
    out: Dict[Monomial, FourierScalar] = {}
    for ma, fa in a.comps.items():
        for mb, fb in b.comps.items():
            sorted_sign = sort_monomial(ma + mb)
            if sorted_sign is None:
                continue
            mono, sign = sorted_sign
            term = fa.mul(fb, policy=policy).scale(sign)
            out[mono] = out[mono].add(term) if mono in out else term
    return Spinor(a.geometry, a.box, out)


def form_reversal(a: Spinor) -> Spinor:
    """Reversal anti-automorphism: degree-p parts pick up (-1)^{p(p-1)/2}."""
    out: Dict[Monomial, FourierScalar] = {}
    for m, f in a.comps.items():
        p = len(m)
        sign = -1 if (p * (p - 1) // 2) % 2 else 1
        out[m] = f.scale(sign)
    return Spinor(a.geometry, a.box, out)


class CourantVector:
    """Section X + xi of T + T*, components as FourierScalars.

    ``tangent`` and ``cotangent`` are length-2n tuples indexed by coordinate
    axis.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        box: TruncationBox,
        tangent: Sequence[FourierScalar],
        cotangent: Sequence[FourierScalar],
    ):
        if len(tangent) != geometry.dim or len(cotangent) != geometry.dim:
            raise ValueError("component count must be 2n for each of X and xi")
        self.geometry = geometry
        self.box = box
        self.tangent = tuple(tangent)
        self.cotangent = tuple(cotangent)

    @classmethod
    def zero(cls, geometry: TorusGeometry, box: TruncationBox) -> "CourantVector":
        z = [FourierScalar.zero(geometry, box) for _ in range(geometry.dim)]
        return cls(geometry, box, z, list(z))

    @classmethod
    def constant(
        cls,
        geometry: TorusGeometry,
        box: TruncationBox,
        tangent: Sequence[complex],
        cotangent: Sequence[complex],
    ) -> "CourantVector":
        tan = [FourierScalar.constant(geometry, box, c) for c in tangent]
        cot = [FourierScalar.constant(geometry, box, c) for c in cotangent]
        return cls(geometry, box, tan, cot)

    @classmethod
    def basis_vector(
        cls, geometry: TorusGeometry, box: TruncationBox, axis: int
    ) -> "CourantVector":
        tan = [0.0] * geometry.dim
        tan[axis] = 1.0
        return cls.constant(geometry, box, tan, [0.0] * geometry.dim)

    @classmethod
    def basis_form(
        cls, geometry: TorusGeometry, box: TruncationBox, axis: int
    ) -> "CourantVector":
        cot = [0.0] * geometry.dim
        cot[axis] = 1.0
        return cls.constant(geometry, box, [0.0] * geometry.dim, cot)

    def add(self, other: "CourantVector") -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.add(b) for a, b in zip(self.tangent, other.tangent)],
            [a.add(b) for a, b in zip(self.cotangent, other.cotangent)],
        )

    def scale(self, c) -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.scale(c) for a in self.tangent],
            [a.scale(c) for a in self.cotangent],
        )

    def scale_scalar(self, f: FourierScalar, policy: str | None = None) -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.mul(f, policy=policy) for a in self.tangent],
            [a.mul(f, policy=policy) for a in self.cotangent],
        )

    def conj(self) -> "CourantVector":
        return CourantVector(
            self.geometry,
            self.box,
            [a.conj() for a in self.tangent],
            [a.conj() for a in self.cotangent],
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, c):
        return self.scale(c)

    def is_constant(self, tol: float = 0.0) -> bool:
        zero_mode = (0,) * self.geometry.dim
        for f in self.tangent + self.cotangent:
            for m, c in f.coeffs.items():
                if m != zero_mode and abs(c) > tol:
                    return False
        return True

    def constant_values(self) -> np.ndarray:
        """Components as a complex vector (X then xi); constant sections only."""
        zero_mode = (0,) * self.geometry.dim
        vals = [f.coefficient(zero_mode) for f in self.tangent + self.cotangent]
        return np.asarray(vals, dtype=complex)

    def norm(self) -> float:
        return math.sqrt(sum(f.norm() ** 2 for f in self.tangent + self.cotangent))

    def __repr__(self) -> str:
        return f"CourantVector(X={list(self.tangent)}, xi={list(self.cotangent)})"


def pairing(a: CourantVector, b: CourantVector, policy: str | None = None) -> FourierScalar:
    """<X + xi, Y + eta> = xi(Y) + eta(X); symmetric, no 1/2 factor."""
    if a.geometry != b.geometry or a.box != b.box:
        raise GeometryMismatch("pairing of sections in different spaces")
    out = FourierScalar.zero(a.geometry, a.box)
    for j in range(a.geometry.dim):
        out = out.add(a.cotangent[j].mul(b.tangent[j], policy=policy))
        out = out.add(b.cotangent[j].mul(a.tangent[j], policy=policy))
    return out


def contract(a: CourantVector, sigma: Spinor, policy: str | None = None) -> Spinor:
    """Interior product i_X sigma by the tangent part of a."""
    out: Dict[Monomial, FourierScalar] = {}
    for mono, f in sigma.comps.items():
        for pos, j in enumerate(mono):
            comp = a.tangent[j]
            if comp.is_zero():
                continue
            sign = -1 if pos % 2 else 1
            rest = mono[:pos] + mono[pos + 1 :]
            term = f.mul(comp, policy=policy).scale(sign)
            out[rest] = out[rest].add(term) if rest in out else term
    return Spinor(sigma.geometry, sigma.box, out)


def cotangent_form(a: CourantVector) -> Spinor:
    """The degree-1 spinor built from the cotangent part of a."""
    comps = {
        (j,): a.cotangent[j]
        for j in range(a.geometry.dim)
        if not a.cotangent[j].is_zero()
    }
    return Spinor(a.geometry, a.box, comps)


def clifford_act(a: CourantVector, sigma: Spinor, policy: str | None = None) -> Spinor:
    """Clifford action (X + xi) . sigma = i_X sigma + xi ^ sigma."""
    return contract(a, sigma, policy=policy).add(
        wedge(cotangent_form(a), sigma, policy=policy)
    )


def clifford_act_many(
    vectors: Sequence[CourantVector], sigma: Spinor, policy: str | None = None
) -> Spinor:
    """Iterated action v1 . v2 . ... . vk . sigma (rightmost acts first)."""
    out = sigma
    for v in reversed(vectors):
        out = clifford_act(v, out, policy=policy)
    return out


def exterior_derivative(sigma: Spinor) -> Spinor:
    """Coordinate exterior derivative d sigma."""
    out: Dict[Monomial, FourierScalar] = {}
    for mono, f in sigma.comps.items():
        for axis in range(sigma.geometry.dim):
            df = f.derive(axis)
            if df.is_zero():
                continue
            merged = _merge_index(mono, axis)
            if merged is None:
                continue
            new_mono, sign = merged
            term = df.scale(sign)
            out[new_mono] = out[new_mono].add(term) if new_mono in out else term
    return Spinor(sigma.geometry, sigma.box, out)


def lie_derivative(X: CourantVector, eta: Spinor, policy: str | None = None) -> Spinor:
    """Cartan formula L_X eta = d(i_X eta) + i_X(d eta) on forms."""
    return exterior_derivative(contract(X, eta, policy=policy)).add(
        contract(X, exterior_derivative(eta), policy=policy)
    )


def courant_bracket(
    a: CourantVector,
    b: CourantVector,
    H: Spinor | None = None,
    policy: str | None = None,
) -> CourantVector:
    """H-twisted Courant bracket of sections of T + T*.

    [X + xi, Y + eta]_H = [X, Y] + L_X eta - L_Y xi
                          - 1/2 d(i_X eta - i_Y xi) + i_Y i_X H.
    """
    geom, box = a.geometry, a.box
    dim = geom.dim

    # vector-field bracket [X, Y]^j = X^k d_k Y^j - Y^k d_k X^j
    lie_tan: List[FourierScalar] = []
    for j in range(dim):
        acc = FourierScalar.zero(geom, box)
        for k in range(dim):
            acc = acc.add(a.tangent[k].mul(b.tangent[j].derive(k), policy=policy))
            acc = acc.add(
                b.tangent[k].mul(a.tangent[j].derive(k), policy=policy).scale(-1)
            )
        lie_tan.append(acc)

    eta = cotangent_form(b)
    xi = cotangent_form(a)
    one_forms = lie_derivative(a, eta, policy=policy).add(
        lie_derivative(b, xi, policy=policy).scale(-1)
    )

    # -1/2 d(i_X eta - i_Y xi)
    ix_eta = contract(a, eta, policy=policy).coefficient(())
    iy_xi = contract(b, xi, policy=policy).coefficient(())
    half_term = ix_eta.add(iy_xi.scale(-1))
    exact = Spinor.scalar(half_term)
    one_forms = one_forms.add(exterior_derivative(exact).scale(-0.5))

    if H is not None and not H.is_zero():
        one_forms = one_forms.add(contract(b, contract(a, H, policy=policy), policy=policy))

    cot = [one_forms.coefficient((j,)) for j in range(dim)]
    return CourantVector(geom, box, lie_tan, cot)


class CliffordPoly:
    """Antisymmetric polynomial over an ordered frame of T + T* sections.

    Stored as a map from strictly increasing slot-index tuples to
    FourierScalar coefficients; every slot is resolved to a frame
    :class:`CourantVector`.  The coefficient convention follows the
    evaluation rule  a(l_{j1}, ..., l_{jp}) = a_{j1...jp}  with the full
    antisymmetric extension to unordered tuples.
    """

    def __init__(
        self,
        frame: Sequence[CourantVector],
        degree: int,
        coeffs: Dict[Tuple[int, ...], FourierScalar] | None = None,
    ):
        if not frame:
            raise ValueError("frame must be nonempty")
        self.frame = tuple(frame)
        self.geometry = frame[0].geometry
        self.box = frame[0].box
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        # degrees above the frame size are allowed and identically zero
        # (every slot tuple would repeat an index)
        clean: Dict[Tuple[int, ...], FourierScalar] = {}
        if coeffs:
            for key, f in coeffs.items():
                key = tuple(int(i) for i in key)
                if len(key) != self.degree:
                    raise ValueError(f"tuple {key} has wrong arity")
                if any(not 0 <= i < len(self.frame) for i in key):
                    raise ValueError(f"slot index out of range in {key}")
                sorted_sign = sort_monomial(key)
                if sorted_sign is None:
                    continue
                skey, sign = sorted_sign
                term = f.scale(sign)
                clean[skey] = clean[skey].add(term) if skey in clean else term
        self.coeffs = {
            k: f for k, f in clean.items() if not f.is_zero() or f.dropped_mass > 0
        }

    @classmethod
    def zero(cls, frame: Sequence[CourantVector], degree: int) -> "CliffordPoly":
        return cls(frame, degree, {})

    @classmethod
    def constant(
        cls, frame: Sequence[CourantVector], key: Sequence[int], c=1.0
    ) -> "CliffordPoly":
        geom = frame[0].geometry
        box = frame[0].box
        return cls(
            frame,
            len(tuple(key)),
            {tuple(key): FourierScalar.constant(geom, box, c)},
        )

    def add(self, other: "CliffordPoly") -> "CliffordPoly":
        if other.degree != self.degree or len(other.frame) != len(self.frame):
            raise ValueError("cannot add polynomials of different shapes")
        out = dict(self.coeffs)
        for k, f in other.coeffs.items():
            out[k] = out[k].add(f) if k in out else f
        return CliffordPoly(self.frame, self.degree, out)

    def scale(self, c) -> "CliffordPoly":
        return CliffordPoly(
            self.frame, self.degree, {k: f.scale(c) for k, f in self.coeffs.items()}
        )

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, c):
        return self.scale(c)

    def norm(self) -> float:
        return math.sqrt(sum(f.norm() ** 2 for f in self.coeffs.values()))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(f.is_zero(tol) for f in self.coeffs.values())

    def coefficient(self, key: Sequence[int]) -> FourierScalar:
        """Fully antisymmetric coefficient a_{j1...jp} for any index tuple."""
        sorted_sign = sort_monomial(tuple(int(i) for i in key))
        if sorted_sign is None:
            return FourierScalar.zero(self.geometry, self.box)
        skey, sign = sorted_sign
        if skey not in self.coeffs:
            return FourierScalar.zero(self.geometry, self.box)
        return self.coeffs[skey].scale(sign)

    def act(self, sigma: Spinor, policy: str | None = None) -> Spinor:
        """Iterated Clifford action, slots applied in increasing tuple order."""
        out = Spinor.zero(self.geometry, self.box)
        for key, f in self.coeffs.items():
            vecs = [self.frame[i] for i in key]
            term = clifford_act_many(vecs, sigma.scale_scalar(f, policy=policy), policy=policy)
            out = out.add(term)
        return out

    def wedge(self, other: "CliffordPoly", policy: str | None = None) -> "CliffordPoly":
        """Exterior product over a common frame.

        For polynomials over an isotropic frame the Clifford product of the
        slot words equals the wedge, so acting with the product matches the
        iterated action up to the usual graded sign.
        """
        if other.frame != self.frame:
            raise ValueError("wedge needs a common frame")
        out = CliffordPoly.zero(self.frame, self.degree + other.degree)
        for ka, fa in self.coeffs.items():
            for kb, fb in other.coeffs.items():
                sorted_sign = sort_monomial(ka + kb)
                if sorted_sign is None:
                    continue
                key, sign = sorted_sign
                out = out.add(
                    CliffordPoly(
                        self.frame,
                        out.degree,
                        {key: fa.mul(fb, policy=policy).scale(sign)},
                    )
                )
        return out

    def terms(self) -> Iterable[Tuple[Tuple[int, ...], FourierScalar]]:
        return self.coeffs.items()

    def partial_eval(self, v: CourantVector, argument_duals: Sequence[CourantVector],
                     policy: str | None = None) -> CourantVector:
        """Clifford partial evaluation a(v) for degree-2 polynomials.

        For eps = (1/2) eps_{ij} f^i f^j over an isotropic frame {f^i} whose
        arguments f_p are extracted by pairing with ``argument_duals`` (so
        <argument_duals[p], f_q> = delta_pq), the commutator rule
        eps . v . rho = eps(v) . rho + v . eps . rho resolves to
        eps(f_p) = eps_{ip} f^i; sections outside the argument span are
        killed.
        """
        if self.degree != 2:
            raise ValueError("partial evaluation implemented for degree 2 only")
        out = CourantVector.zero(self.geometry, self.box)
        for p, dual in enumerate(argument_duals):
            cp = pairing(dual, v, policy=policy)
            if cp.is_zero():
                continue
            for i in range(len(self.frame)):
                cf = self.coefficient((i, p))
                if cf.is_zero():
                    continue
                out = out.add(self.frame[i].scale_scalar(cf.mul(cp, policy=policy),
                                                         policy=policy))
        return out

    def __repr__(self) -> str:
        return f"CliffordPoly(degree={self.degree}, terms={len(self.coeffs)})"


def reversal(vectors: Sequence[CourantVector]) -> List[CourantVector]:
    """Reversed composition order of a Clifford factor list."""
    return list(reversed(vectors))


_MONOMIAL_CACHE: Dict[int, List[Monomial]] = {}
_MONOMIAL_INDEX_CACHE: Dict[int, Dict[Monomial, int]] = {}


def monomial_list(dim: int) -> List[Monomial]:
    """All monomials of the dim generators, ordered by (degree, lex)."""
    if dim not in _MONOMIAL_CACHE:
        monos: List[Monomial] = []
        for size in range(dim + 1):
            monos.extend(itertools.combinations(range(dim), size))
        _MONOMIAL_CACHE[dim] = monos
        _MONOMIAL_INDEX_CACHE[dim] = {m: i for i, m in enumerate(monos)}
    return _MONOMIAL_CACHE[dim]


def monomial_index(dim: int) -> Dict[Monomial, int]:
    monomial_list(dim)
    return _MONOMIAL_INDEX_CACHE[dim]


def mode_stack(
    terms: Dict[Monomial, FourierScalar],
    dim: int,
    modes: Sequence[Tuple[int, ...]] | None = None,
) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
    """Per-mode coefficient rows of a ``Spinor.comps`` or ``CliffordPoly.coeffs`` dict.

    Returns ``(modes, rows)``: ``rows[i, j]`` is the coefficient at
    ``modes[i]`` of the j-th key of ``monomial_list(dim)``.  ``modes``
    defaults to the sorted union of the supports; coefficients at modes not
    listed are left out.
    """
    if modes is None:
        modes = sorted({mode for f in terms.values() for mode in f.coeffs})
    row = {mode: i for i, mode in enumerate(modes)}
    col = monomial_index(dim)
    rows = np.zeros((len(modes), len(col)), dtype=complex)
    for key, f in terms.items():
        for mode, c in f.coeffs.items():
            if mode in row:
                rows[row[mode], col[key]] = c
    return list(modes), rows


def from_mode_stack(
    geometry: TorusGeometry,
    box: TruncationBox,
    modes: Sequence[Tuple[int, ...]],
    rows: np.ndarray,
) -> Dict[Monomial, FourierScalar]:
    """The coefficient dict of per-mode rows laid out as by :func:`mode_stack`.

    Exact zeros are dropped, so a key appears only where its column has a
    nonzero entry.
    """
    keys = monomial_list(geometry.dim)
    terms: Dict[Monomial, FourierScalar] = {}
    for j in np.flatnonzero(np.any(rows, axis=0)):
        live = np.flatnonzero(rows[:, j])
        terms[keys[j]] = FourierScalar(geometry, box, {modes[i]: rows[i, j] for i in live})
    return terms


def constant_spinor_vector(sigma: Spinor) -> np.ndarray:
    """Coefficient vector of a constant-coefficient spinor."""
    return mode_stack(sigma.comps, sigma.geometry.dim, [(0,) * sigma.geometry.dim])[1][0]


def spinor_from_constant_vector(
    geometry: TorusGeometry, box: TruncationBox, vec: np.ndarray
) -> Spinor:
    rows = np.asarray(vec, dtype=complex)[None]
    return Spinor(geometry, box, from_mode_stack(geometry, box, [(0,) * geometry.dim], rows))


def constant_clifford_matrix(values: np.ndarray, dim: int) -> np.ndarray:
    """Matrix of the Clifford action of a constant section on the monomial basis.

    ``values`` holds the 4n components (tangent first, then cotangent).
    """
    values = np.asarray(values, dtype=complex)
    monos = monomial_list(dim)
    idx = monomial_index(dim)
    size = len(monos)
    out = np.zeros((size, size), dtype=complex)
    for col, mono in enumerate(monos):
        # interior product by the tangent part
        for pos, j in enumerate(mono):
            comp = values[j]
            if comp != 0:
                rest = mono[:pos] + mono[pos + 1 :]
                out[idx[rest], col] += comp * (-1 if pos % 2 else 1)
        # wedge by the cotangent part
        for j in range(dim):
            comp = values[dim + j]
            if comp == 0:
                continue
            merged = _merge_index(mono, j)
            if merged is None:
                continue
            new_mono, sign = merged
            out[idx[new_mono], col] += comp * sign
    return out


def random_fourier_scalar(
    rng: np.random.Generator,
    geometry: TorusGeometry,
    box: TruncationBox,
    max_mode: int | None = None,
    terms: int = 2,
) -> FourierScalar:
    """Small random trigonometric polynomial for randomized identity tests."""
    if max_mode is None:
        max_mode = box.K
    coeffs: Dict[Tuple[int, ...], complex] = {}
    for _ in range(terms):
        mode = tuple(int(rng.integers(-max_mode, max_mode + 1)) for _ in range(geometry.dim))
        coeffs[mode] = coeffs.get(mode, 0.0) + complex(rng.normal(), rng.normal())
    return FourierScalar(geometry, box, coeffs)


def random_spinor(
    rng: np.random.Generator,
    geometry: TorusGeometry,
    box: TruncationBox,
    max_mode: int | None = None,
    terms: int = 1,
) -> Spinor:
    comps = {}
    for size in range(geometry.dim + 1):
        for mono in itertools.combinations(range(geometry.dim), size):
            comps[mono] = random_fourier_scalar(rng, geometry, box, max_mode, terms)
    return Spinor(geometry, box, comps)


def random_courant_vector(
    rng: np.random.Generator,
    geometry: TorusGeometry,
    box: TruncationBox,
    max_mode: int | None = None,
    constant: bool = False,
) -> CourantVector:
    if constant:
        tan = [complex(rng.normal(), rng.normal()) for _ in range(geometry.dim)]
        cot = [complex(rng.normal(), rng.normal()) for _ in range(geometry.dim)]
        return CourantVector.constant(geometry, box, tan, cot)
    tan = [random_fourier_scalar(rng, geometry, box, max_mode, 1) for _ in range(geometry.dim)]
    cot = [random_fourier_scalar(rng, geometry, box, max_mode, 1) for _ in range(geometry.dim)]
    return CourantVector(geometry, box, tan, cot)
