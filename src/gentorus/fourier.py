"""Truncated Fourier series on the real torus T^{2n}.

This is the coefficient ring for everything else in the package: a scalar is
a finite trigonometric polynomial

    f(x) = sum_k c_k exp(2*pi*i <k, x>),

with integer frequency vectors k supported inside a symmetric truncation box
|k_j| <= K.  Products are convolutions; frequencies escaping the box are
either an error (``strict`` policy) or dropped with their squared magnitude
accumulated in ``dropped_mass`` (``drop`` policy).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

Mode = Tuple[int, ...]

_ZERO_TOL = 0.0  # coefficients are pruned only when exactly zero


class TruncationError(ValueError):
    """A product frequency left the truncation box under strict policy."""

    def __init__(self, mode: Mode):
        self.mode = mode
        super().__init__(f"frequency {mode} escapes the truncation box")


class GeometryMismatch(ValueError):
    """Operands live on different tori or in different boxes."""


class TorusGeometry:
    """Flat torus R^{2n}/Z^{2n} with unit periods.

    Parameters
    ----------
    n : int
        Complex dimension; the real dimension is 2n.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("complex dimension n must be >= 1")
        self.n = int(n)
        self.dim = 2 * self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusGeometry) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("TorusGeometry", self.n))

    def __repr__(self) -> str:
        return f"TorusGeometry(n={self.n})"


class TruncationBox:
    """Admissible frequency set {k : |k_j| <= K for all j}.

    The box also carries the multiplication policy: ``strict`` raises
    :class:`TruncationError` when a product frequency escapes, ``drop``
    discards it and accounts for the lost spectral mass.
    """

    def __init__(self, K: int, policy: str = "strict"):
        if K < 0:
            raise ValueError("box bound K must be >= 0")
        if policy not in ("strict", "drop"):
            raise ValueError(f"unknown truncation policy {policy!r}")
        self.K = int(K)
        self.policy = policy

    def contains(self, mode: Sequence[int]) -> bool:
        return all(abs(int(k)) <= self.K for k in mode)

    def modes(self, geometry: TorusGeometry) -> Iterator[Mode]:
        """All admissible modes in lexicographic order."""
        rng = range(-self.K, self.K + 1)

        def rec(prefix, depth):
            if depth == geometry.dim:
                yield tuple(prefix)
                return
            for k in rng:
                prefix.append(k)
                yield from rec(prefix, depth + 1)
                prefix.pop()

        yield from rec([], 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncationBox)
            and other.K == self.K
            and other.policy == self.policy
        )

    def __hash__(self) -> int:
        return hash(("TruncationBox", self.K, self.policy))

    def __repr__(self) -> str:
        return f"TruncationBox(K={self.K}, policy={self.policy!r})"


def _check_same_space(f: "FourierScalar", g: "FourierScalar") -> None:
    if f.geometry != g.geometry:
        raise GeometryMismatch("scalars live on different tori")
    if f.box != g.box:
        raise GeometryMismatch("scalars live in different truncation boxes")


class FourierScalar:
    """A truncated Fourier series with double-precision complex coefficients.

    Values are immutable after construction; all operations return new
    scalars.  ``dropped_mass`` accumulates, additively through compositions,
    the squared magnitude of every coefficient lost to ``drop``-policy
    truncation.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        box: TruncationBox,
        coeffs: Dict[Mode, complex] | None = None,
        dropped_mass: float = 0.0,
    ):
        self.geometry = geometry
        self.box = box
        clean: Dict[Mode, complex] = {}
        if coeffs:
            for mode, c in coeffs.items():
                mode = tuple(int(k) for k in mode)
                if len(mode) != geometry.dim:
                    raise ValueError(
                        f"mode {mode} has length {len(mode)}, expected {geometry.dim}"
                    )
                if not box.contains(mode):
                    raise TruncationError(mode)
                c = complex(c)
                if c != 0:
                    clean[mode] = clean.get(mode, 0.0) + c
        self.coeffs = {m: c for m, c in clean.items() if c != 0}
        self.dropped_mass = float(dropped_mass)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, geometry: TorusGeometry, box: TruncationBox) -> "FourierScalar":
        return cls(geometry, box, {})

    @classmethod
    def constant(cls, geometry: TorusGeometry, box: TruncationBox, c) -> "FourierScalar":
        zero_mode = (0,) * geometry.dim
        return cls(geometry, box, {zero_mode: complex(c)})

    @classmethod
    def mode(
        cls, geometry: TorusGeometry, box: TruncationBox, k: Sequence[int], c=1.0
    ) -> "FourierScalar":
        return cls(geometry, box, {tuple(int(v) for v in k): complex(c)})

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def add(self, other: "FourierScalar") -> "FourierScalar":
        _check_same_space(self, other)
        out = dict(self.coeffs)
        for mode, c in other.coeffs.items():
            out[mode] = out.get(mode, 0.0) + c
        return FourierScalar(
            self.geometry, self.box, out, self.dropped_mass + other.dropped_mass
        )

    def scale(self, c) -> "FourierScalar":
        c = complex(c)
        if c == 0:
            return FourierScalar(self.geometry, self.box, {}, self.dropped_mass)
        return FourierScalar(
            self.geometry,
            self.box,
            {m: v * c for m, v in self.coeffs.items()},
            self.dropped_mass,
        )

    def mul(self, other: "FourierScalar", policy: str | None = None) -> "FourierScalar":
        """Convolution product under the given (or the box's) policy."""
        _check_same_space(self, other)
        if policy is None:
            policy = self.box.policy
        if policy not in ("strict", "drop"):
            raise ValueError(f"unknown truncation policy {policy!r}")
        out: Dict[Mode, complex] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mode = tuple(a + b for a, b in zip(m1, m2))
                out[mode] = out.get(mode, 0.0) + c1 * c2
        dropped = self.dropped_mass + other.dropped_mass
        kept: Dict[Mode, complex] = {}
        for mode, c in out.items():
            if self.box.contains(mode):
                kept[mode] = c
            elif policy == "strict":
                raise TruncationError(mode)
            else:
                dropped += abs(c) ** 2
        return FourierScalar(self.geometry, self.box, kept, dropped)

    def conj(self) -> "FourierScalar":
        """Complex conjugate; flips every frequency."""
        return FourierScalar(
            self.geometry,
            self.box,
            {tuple(-k for k in m): c.conjugate() for m, c in self.coeffs.items()},
            self.dropped_mass,
        )

    def derive(self, axis: int) -> "FourierScalar":
        """Coordinate derivative d/dx^axis; multiplies mode k by 2*pi*i*k_axis."""
        if not 0 <= axis < self.geometry.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.geometry.dim}")
        tau = 2.0j * math.pi
        return FourierScalar(
            self.geometry,
            self.box,
            {m: c * (tau * m[axis]) for m, c in self.coeffs.items() if m[axis] != 0},
            self.dropped_mass,
        )

    def integrate(self) -> complex:
        """Integral over the torus (unit volume): the zero-mode coefficient."""
        return self.coeffs.get((0,) * self.geometry.dim, 0.0 + 0.0j)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def coefficient(self, mode: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(int(k) for k in mode), 0.0 + 0.0j)

    def norm(self) -> float:
        """l2 norm of the coefficient vector (spectral norm of the scalar)."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self.coeffs
        return all(abs(c) <= tol for c in self.coeffs.values())

    def is_real(self, tol: float = 1e-12) -> bool:
        """True iff the coefficient at -k conjugates the one at k, for all k."""
        for m, c in self.coeffs.items():
            neg = tuple(-k for k in m)
            if abs(self.coeffs.get(neg, 0.0 + 0.0j) - c.conjugate()) > tol:
                return False
        return True

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at spatial points, shape (..., 2n) -> complex array (...)."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1], dtype=complex)
        tau = 2.0j * math.pi
        for m, c in self.coeffs.items():
            out += c * np.exp(tau * (points @ np.asarray(m, dtype=float)))
        return out

    def embed(self, box: TruncationBox) -> "FourierScalar":
        """Re-home the scalar in a different (usually larger) box."""
        return FourierScalar(self.geometry, box, dict(self.coeffs), self.dropped_mass)

    def support(self) -> Iterable[Mode]:
        return self.coeffs.keys()

    # ------------------------------------------------------------------
    # operator sugar
    # ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, FourierScalar):
            return self.add(other)
        return self.add(FourierScalar.constant(self.geometry, self.box, other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, FourierScalar):
            return self.add(other.scale(-1))
        return self.add(FourierScalar.constant(self.geometry, self.box, -other))

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, FourierScalar):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "FourierScalar(0)"
        parts = [f"{m}: {c:.6g}" for m, c in sorted(self.coeffs.items())]
        return "FourierScalar({" + ", ".join(parts) + "})"

