"""Former ``gentorus`` code that only the tests use, kept verbatim (a
method as a function of its ``self``) as inputs and oracles: the Clifford
suite's residuals must be bitwise those of ``clifford_act``, ``pairing``
and ``scale_spinor``, the structure constants those of
``courant_bracket`` and ``pairing``, and the metric's Born-Infeld Gram
matrix that of ``gram_from``.  These oracles take sections of
T + T* as :class:`CourantVector` lists of ``FourierScalar`` components;
``sections`` reads them off a (4n, 2n) stack such as a structure's
``frame``.  pytest does not collect this module.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np

from gentorus.fourier import FourierMatrix, FourierScalar, GeometryMismatch, TorusGeometry, TruncationBox
from gentorus.hodge import _adjoint
from gentorus.metric import _complement_sign
from gentorus.spinor import (
    CliffordPoly, Spinor, _action, clifford_generators, monomial_index, monomial_list,
    random_fourier_scalar, sort_monomial,
)


def mode_coefficient(f: FourierScalar, mode: Sequence[int]) -> complex:
    return f.coeffs.get(tuple(int(k) for k in mode), 0.0 + 0.0j)


def spinor_coefficient(sigma: Spinor, mono: Sequence[int]) -> FourierScalar:
    j = monomial_index(sigma.geometry.dim).get(tuple(int(i) for i in mono))
    if j is None:
        return FourierScalar.zero(sigma.geometry, sigma.box)
    return sigma.stack[j, 0]


def poly_coefficient(poly: CliffordPoly, key: Sequence[int]) -> FourierScalar:
    """Fully antisymmetric coefficient a_{j1...jp} for any index tuple."""
    sorted_sign = sort_monomial(tuple(int(i) for i in key))
    keys = poly.keys
    if sorted_sign is None or sorted_sign[0] not in keys:
        return FourierScalar.zero(poly.geometry, poly.box)
    return poly.stack[0, keys.index(sorted_sign[0])].scale(sorted_sign[1])


def conj_scalar(f: FourierScalar) -> FourierScalar:
    """Complex conjugate; flips every frequency."""
    return FourierScalar(
        f.geometry,
        f.box,
        {tuple(-k for k in m): c.conjugate() for m, c in f.coeffs.items()},
        f.dropped_mass,
    )


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

    def constant_values(self) -> np.ndarray:
        """Components as a complex vector (X then xi); constant sections only."""
        zero_mode = (0,) * self.geometry.dim
        vals = [mode_coefficient(f, zero_mode) for f in self.tangent + self.cotangent]
        return np.asarray(vals, dtype=complex)

    def norm(self) -> float:
        return math.sqrt(sum(f.norm() ** 2 for f in self.tangent + self.cotangent))


def section_stack(vectors: Sequence[CourantVector]) -> FourierMatrix:
    """The (4n, k) stack whose column i holds section i's components."""
    return from_scalars(
        [list(comps) for comps in zip(*(v.tangent + v.cotangent for v in vectors))]
    )


def sections(stack: FourierMatrix) -> Tuple[CourantVector, ...]:
    """The sections whose components are the columns of a (4n, k) stack,
    tangent rows first."""
    dim = stack.geometry.dim
    return tuple(
        CourantVector(
            stack.geometry, stack.box,
            [stack[r, i] for r in range(dim)], [stack[dim + r, i] for r in range(dim)],
        )
        for i in range(stack.shape[1])
    )


def from_scalars(entries: Sequence[Sequence[FourierScalar]]) -> FourierMatrix:
    """The stack of a nested (rows, cols) sequence of scalars."""
    sample = entries[0][0]
    cells = (((i, j), f) for i, row in enumerate(entries) for j, f in enumerate(row))
    return FourierMatrix.from_entries(sample.geometry, sample.box, (len(entries), len(entries[0])), cells)



def scalar_spinor(f: FourierScalar) -> Spinor:
    return Spinor(f.geometry, f.box, {(): f})


def constant_form(
    geometry: TorusGeometry, box: TruncationBox, mono: Sequence[int], c=1.0
) -> Spinor:
    key = tuple(int(i) for i in mono)
    return Spinor(geometry, box, {key: FourierScalar.constant(geometry, box, c)})


def scale_spinor(sigma: Spinor, g: FourierScalar) -> Spinor:
    """g sigma: one product of the column with the 1 x 1 stack of g."""
    return Spinor.from_stack(sigma.stack.matmul(from_scalars([[g]])))



def scale_section(v: CourantVector, f: FourierScalar, policy: str | None = None) -> CourantVector:
    return CourantVector(
        v.geometry,
        v.box,
        [a.mul(f, policy=policy) for a in v.tangent],
        [a.mul(f, policy=policy) for a in v.cotangent],
    )


def pairing(a: CourantVector, b: CourantVector, policy: str | None = None) -> FourierScalar:
    """<X + xi, Y + eta> = xi(Y) + eta(X); symmetric, no 1/2 factor."""
    if a.geometry != b.geometry or a.box != b.box:
        raise GeometryMismatch("pairing of sections in different spaces")
    out = FourierScalar.zero(a.geometry, a.box)
    for j in range(a.geometry.dim):
        out = out.add(a.cotangent[j].mul(b.tangent[j], policy=policy))
        out = out.add(b.cotangent[j].mul(a.tangent[j], policy=policy))
    return out


def clifford_matrix(a: CourantVector) -> FourierMatrix:
    """The matrix of the Clifford action of a section on the monomial basis."""
    weights = from_scalars([a.tangent + a.cotangent])
    return _action(weights, clifford_generators(a.geometry.dim))


def clifford_act(a: CourantVector, sigma: Spinor) -> Spinor:
    """Clifford action (X + xi) . sigma = i_X sigma + xi ^ sigma."""
    return Spinor.from_stack(clifford_matrix(a).matmul(sigma.stack))


def courant_bracket(
    a: CourantVector,
    b: CourantVector,
    H: Spinor | None = None,
    policy: str | None = None,
) -> CourantVector:
    """H-twisted Courant bracket of sections of T + T*.

    [X + xi, Y + eta]_H = [X, Y] + L_X eta - L_Y xi
                          - 1/2 d(i_X eta - i_Y xi) + i_Y i_X H.

    By the Cartan formula L_X eta = d(i_X eta) + i_X d eta, the 1-form part
    is, with s = i_X eta - i_Y xi and sums over repeated indices,
        1/2 d_j s + X^k (d_k eta_j - d_j eta_k) - Y^k (d_k xi_j - d_j xi_k)
        + H_klj X^k Y^l.
    """
    geom, box = a.geometry, a.box
    dim = geom.dim
    X, xi, Y, eta = a.tangent, a.cotangent, b.tangent, b.cotangent
    zero = FourierScalar.zero(geom, box)

    def grad(f: FourierScalar) -> List[FourierScalar | None]:
        """d_0 f .. d_{dim-1} f; all None for a constant f."""
        return [f.derive(k) for k in range(dim)] if any(map(any, f.coeffs)) else [None] * dim

    def total(terms) -> FourierScalar:
        """The sum of c f g over (c, f, g) terms, zero and None factors skipped."""
        out = zero
        for c, f, g in terms:
            if f is not None and g is not None and f.coeffs and g.coeffs:
                out = out.add(f.mul(g, policy=policy).scale(c))
        return out

    # dX[j][k] is d_k X^j
    dX, dY, dxi, deta = ([grad(f) for f in v] for v in (X, Y, xi, eta))

    # vector-field bracket [X, Y]^j = X^k d_k Y^j - Y^k d_k X^j
    lie_tan = [
        total([(c, f[k], g[j][k]) for c, f, g in ((1, X, dY), (-1, Y, dX)) for k in range(dim)])
        for j in range(dim)
    ]
    s = total([(1, eta[k], X[k]) for k in range(dim)] + [(-1, xi[k], Y[k]) for k in range(dim)])
    cot = []
    for j in range(dim):
        terms = []
        for k in range(dim):
            if k != j:
                terms += [(1, X[k], deta[j][k]), (-1, X[k], deta[k][j]),
                          (-1, Y[k], dxi[j][k]), (1, Y[k], dxi[k][j])]
        cot.append(s.derive(j).scale(0.5).add(total(terms)))

    if H is not None:
        for mono, h in H.comps.items():
            if len(mono) == 3:
                for k, l, j in itertools.permutations(mono):
                    sign = sort_monomial((k, l, j))[1]
                    cot[j] = cot[j].add(total([(sign, total([(1, X[k], Y[l])]), h)]))
    return CourantVector(geom, box, lie_tan, cot)


def random_courant_vector(
    rng: np.random.Generator,
    geometry: TorusGeometry,
    box: TruncationBox,
    max_mode: int | None = None,
) -> CourantVector:
    """A random section: one one-term :func:`random_fourier_scalar` per
    component, tangent then cotangent; constant at max mode 0."""
    tan = [random_fourier_scalar(rng, geometry, box, max_mode, 1) for _ in range(geometry.dim)]
    cot = [random_fourier_scalar(rng, geometry, box, max_mode, 1) for _ in range(geometry.dim)]
    return CourantVector(geometry, box, tan, cot)



def level_spinors(structure, k: int) -> List[Spinor]:
    """Constant frame spinors spanning the level-k slice."""
    structure._check_level(k)
    sl = structure._level_slices[k]
    return [structure._constant_spinor(col) for col in structure._level_matrix[:, sl].T]



def operator_matrix(ctx, name: str, mode: Tuple[int, ...]) -> np.ndarray:
    """The matrix of a named operator of a Hodge context at one mode."""
    if name.endswith("_adj"):
        return _adjoint(operator_matrix(ctx, name[:-4], mode))
    return ctx._op(name, ctx.level_basis.positions([mode])[0])


def gram_from(star: np.ndarray, dim: int) -> np.ndarray:
    """``GeneralizedMetric._gram_from`` as the double loop it was:
    Gram[mu, nu] = top coefficient of mon_mu ^ rev(star mon_nu)."""
    monos = monomial_list(dim)
    size = len(monos)
    gram = np.zeros((size, size), dtype=complex)
    comp_data = [_complement_sign(m, dim) for m in monos]
    index = {m: i for i, m in enumerate(monos)}
    for nu in range(size):
        image = star[:, nu].copy()
        for i, m in enumerate(monos):
            p = len(m)
            if (p * (p - 1) // 2) % 2:
                image[i] = -image[i]
        for mu, mono in enumerate(monos):
            comp, sign = comp_data[mu]
            gram[mu, nu] = sign * image[index[comp]]
    return gram
