"""Truncated Fourier series on the real torus T^{2n}.

This is the coefficient ring for everything else in the package: a scalar is
a finite trigonometric polynomial

    f(x) = sum_k c_k exp(2*pi*i <k, x>),

with integer frequency vectors k supported inside a symmetric truncation box
|k_j| <= K.  Products are convolutions; frequencies escaping the box are
either an error (``strict`` policy) or dropped with their squared magnitude
accumulated in ``dropped_mass`` (``drop`` policy).

A matrix of such scalars is held as one mode stack, :class:`FourierMatrix`:
integer modes (P, 2n) and coefficient matrices (P, rows, cols).  Its product
is the same direct convolution, every mode pair in one batched product whose
results are summed into their output modes; no FFT, so exact zeros stay
exact and the ``strict`` escapes and per-entry dropped mass come out as for
the entrywise scalar products.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

Mode = Tuple[int, ...]


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
        return itertools.product(range(-self.K, self.K + 1), repeat=geometry.dim)

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


def _check_same_space(f, g) -> None:
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

    @classmethod
    def _from_clean(
        cls,
        geometry: TorusGeometry,
        box: TruncationBox,
        coeffs: Dict[Mode, complex],
        dropped_mass: float,
    ) -> "FourierScalar":
        """The scalar of ``coeffs`` whose keys are already int tuples inside
        the box and whose values are nonzero Python complex numbers; nothing
        is checked."""
        out = cls.__new__(cls)
        out.geometry, out.box = geometry, box
        out.coeffs = coeffs
        out.dropped_mass = dropped_mass
        return out

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


# ---------------------------------------------------------------------------
# matrices of truncated Fourier series, stacked over their modes
# ---------------------------------------------------------------------------

# complex entries in one transient block of pair products in FourierMatrix.matmul
PAIR_CHUNK = 1 << 18


def _mode_keys(box: TruncationBox, modes: np.ndarray) -> np.ndarray:
    """Integer keys of modes whose entries lie in [-2K, 2K].

    The keys are additive (the key of a sum of modes is the sum of their
    keys) and ordered as the modes are, lexicographically.
    """
    base = 4 * box.K + 1
    return modes @ base ** np.arange(modes.shape[1] - 1, -1, -1, dtype=np.int64)


def _key_modes(box: TruncationBox, keys: np.ndarray, dim: int) -> np.ndarray:
    """The (len(keys), dim) modes whose :func:`_mode_keys` are ``keys``:
    the keys' balanced digits in base 4K + 1, most significant first."""
    base = 4 * box.K + 1
    modes = np.zeros((len(keys), dim), dtype=np.int64)
    rest = np.asarray(keys, dtype=np.int64)
    for axis in range(dim - 1, -1, -1):
        modes[:, axis] = (rest + 2 * box.K) % base - 2 * box.K
        rest = (rest - modes[:, axis]) // base
    return modes


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array."""
    if not len(keys):
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _unique(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` of 1-D
    integer keys from one stable sort, without the ``numpy.ma`` import that
    the first ``np.unique`` call in a process makes."""
    order = np.argsort(keys, kind="stable")
    starts = _group_starts(keys[order])
    slot = np.empty(len(keys), dtype=np.intp)
    slot[order] = np.searchsorted(starts, np.arange(len(keys)), side="right") - 1
    return keys[order[starts]], order[starts], slot


def _add_rows(out: np.ndarray, slots: np.ndarray, values: np.ndarray) -> None:
    """out[slots[i]] += values[i], repeated slots summed."""
    if (slots[1:] > slots[:-1]).all():
        out[slots] += values
        return
    order = np.argsort(slots, kind="stable")
    starts = _group_starts(slots[order])
    out[slots[order[starts]]] += np.add.reduceat(values[order], starts, axis=0)


def _live(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(rows, inner, cols) mask of the triples (i, k, j) at which the
    entries a[i, k] and b[k, j] of two stacks are both nonzero."""
    return np.any(a, axis=0)[:, :, None] & np.any(b, axis=0)[None, :, :]


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each sample's run starts, for runs of the given lengths."""
    return np.cumsum(counts) - counts


def _runs_within_chunk(cost: np.ndarray) -> List[slice]:
    """Consecutive runs of items whose costs sum to at most ``PAIR_CHUNK``,
    an item above it on its own."""
    if cost.sum() <= PAIR_CHUNK:
        return [slice(0, len(cost))]
    out, lo, total = [], 0, 0
    for i, c in enumerate(cost.tolist()):
        if i > lo and total + c > PAIR_CHUNK:
            out.append(slice(lo, i))
            lo, total = i, 0
        total += c
    out.append(slice(lo, len(cost)))
    return out


def _stack_pairs(
    a: np.ndarray, a_counts: np.ndarray, b: np.ndarray, b_counts: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The products a[p] @ b[q] of every pair of coefficient matrices of each
    sample of a batch of stack pairs.

    Sample s holds the a_counts[s] matrices of A and the b_counts[s] of B
    that follow those of the samples before it.  Pairs are numbered sample
    by sample, (p, q) in row-major order; yields (pairs, products) with
    products[i] the product of pair pairs[i].

    Each sample's A matrices go in chunks of at most ``PAIR_CHUNK`` complex
    entries of products, and chunk r of every sample comes before chunk
    r + 1 of any.  A chunk's products are one GEMM of its rows against
    b_wide, B's matrices side by side.  The chunks of a round whose b_wide
    are equally wide share one batched matmul, rows padded to the longest
    chunk, in batches of at most ``PAIR_CHUNK`` padded entries.  Neither
    moves a bit of a product: a slice of a batched matmul is the 2-D
    product of its shape, and rows added to the left factor leave the other
    rows alone, while a wider right factor would change them.
    """
    (rows, inner), cols = a.shape[1:], b.shape[2]
    if len(a_counts) == 1:
        # one sample: its chunks in turn
        width = len(b)
        step = max(1, PAIR_CHUNK // max(1, width * rows * cols))
        b_wide = b.transpose(1, 0, 2).reshape(inner, -1)
        for lo in range(0, len(a) if width else 0, step):
            prod = (a[lo:lo + step].reshape(-1, inner) @ b_wide).reshape(-1, rows, width, cols)
            pairs = slice(lo * width, (lo + len(prod)) * width)
            yield pairs, prod.transpose(0, 2, 1, 3).reshape(-1, rows, cols)
        return
    a_counts = np.asarray(a_counts, dtype=np.int64)
    b_counts = np.asarray(b_counts, dtype=np.int64)
    step = np.maximum(1, PAIR_CHUNK // np.maximum(1, b_counts * rows * cols))
    a_start, b_start = _starts(a_counts), _starts(b_counts)
    pair_start = _starts(a_counts * b_counts)
    chunks = np.where(b_counts > 0, -(-a_counts // step), 0)
    for r in range(int(chunks.max(initial=0))):
        s = np.flatnonzero(chunks > r)
        lo = r * step[s]
        m = np.minimum(step[s], a_counts[s] - lo)
        widths, _, group = _unique(b_counts[s])
        longest = np.zeros(len(widths), dtype=np.int64)
        np.maximum.at(longest, group, m)
        cost = longest[group] * rows * widths[group] * cols
        for batch in _runs_within_chunk(cost):
            pairs, products = [], []
            for g in _unique(group[batch])[0]:
                sel = np.flatnonzero(group[batch] == g) + batch.start
                su, lu, mu, w = s[sel], lo[sel], m[sel], widths[g]
                j = np.arange(mu.max())
                valid = j < mu[:, None]
                rows_at = a_start[su, None] + lu[:, None] + np.where(valid, j, 0)
                b_wide = b[b_start[su, None] + np.arange(w)].transpose(0, 2, 1, 3)
                prod = a[rows_at].reshape(len(su), -1, inner) @ b_wide.reshape(len(su), inner, -1)
                prod = prod.reshape(len(su), len(j), rows, w, cols).transpose(0, 1, 3, 2, 4)
                prod = prod.reshape(-1, w, rows, cols)
                first = (pair_start[su, None] + (lu[:, None] + j) * w).ravel()
                if not valid.all():
                    valid = valid.ravel()
                    prod, first = prod[valid], first[valid]
                products.append(prod.reshape(-1, rows, cols))
                pairs.append((first[:, None] + np.arange(w)).ravel())
            if len(pairs) == 1:
                yield pairs[0], products[0]
            else:
                yield np.concatenate(pairs), np.concatenate(products)


def _stack_products(
    a: np.ndarray,
    a_keys: np.ndarray,
    a_counts: np.ndarray,
    b: np.ndarray,
    b_keys: np.ndarray,
    b_counts: np.ndarray,
    keep: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pair products of each sample of a batch (see :func:`_stack_pairs`)
    summed into their output modes, those of pairs that the mask ``keep``
    over the pairs rejects left out.

    The key of pair (p, q) is a_keys[p] + b_keys[q], mode keys as
    :func:`_mode_keys` makes them.  Returns (sums, p, q, owner): sample by
    sample, its distinct keys in ascending order, each with the sum of its
    products, the first pair (p, q) with that key, and the sample.  A key's
    products are summed by :func:`_add_rows` per chunk of
    :func:`_stack_pairs` in pair order, and the chunk sums added in chunk
    order, so each sample's sums are bitwise those of its product alone.
    """
    a_counts = np.asarray(a_counts, dtype=np.int64)
    b_counts = np.asarray(b_counts, dtype=np.int64)
    (rows, _), cols = a.shape[1:], b.shape[2]
    if len(a_counts) == 1:
        p, q = np.divmod(np.arange(a_counts[0] * b_counts[0]), b_counts[0])
        owner = np.zeros(len(p), dtype=np.intp)
        keys = a_keys[p] + b_keys[q]
    else:
        counts = a_counts * b_counts
        owner = np.repeat(np.arange(len(counts)), counts)
        p, q = np.divmod(np.arange(len(owner)) - _starts(counts)[owner], b_counts[owner])
        p += _starts(a_counts)[owner]
        q += _starts(b_counts)[owner]
        # offset each sample's keys past the one before: one sort then
        # orders the pairs by sample, then by mode
        keys = a_keys[p] + b_keys[q]
        low = int(keys.min(initial=0))
        span = int(keys.max(initial=0)) - low + 1
        if len(counts) * span < 2 ** 62:
            keys = owner * span + (keys - low)
        else:
            keys = owner * len(keys) + _unique(keys)[2]
    if keep is not None:
        p, q, owner, keys = p[keep], q[keep], owner[keep], keys[keep]
    if (keys[1:] > keys[:-1]).all():
        first = slot = np.arange(len(keys))
    else:
        _, first, slot = _unique(keys)
    if keep is not None:
        full = np.zeros(len(keep), dtype=np.intp)
        full[keep] = slot
        slot = full
    out = np.zeros((len(first), rows, cols), dtype=complex)
    for pairs, products in _stack_pairs(a, a_counts, b, b_counts):
        slots = slot[pairs]
        if keep is not None:
            kept = keep[pairs]
            slots, products = slots[kept], products[kept]
        _add_rows(out, slots, products)
    return out, p[first], q[first], owner[first]


# ---------------------------------------------------------------------------
# one Fourier stack per sample, held end to end
# ---------------------------------------------------------------------------

# A batch of samples, each a FourierMatrix, is one array of coefficient
# matrices with the samples' matrices in sample order.  The helpers below
# form per sample what the FourierMatrix operations form for it alone, bit
# for bit, so that a loop over samples becomes a few stacked passes; a pass
# over many samples goes in runs of _runs_within_chunk.


class _Stacks(NamedTuple):
    """One Fourier stack per sample, held end to end: the coefficient
    matrices (T, rows, cols), their mode keys (T,) (see :func:`_mode_keys`),
    ascending within each sample, and each sample's number of matrices (S,).
    As in a ``FourierMatrix``, no matrix is all zero."""

    coeffs: np.ndarray
    keys: np.ndarray
    counts: np.ndarray


def _owners(stacks: _Stacks) -> np.ndarray:
    """The sample of each matrix."""
    return np.repeat(np.arange(len(stacks.counts)), stacks.counts)


def _without_zeros(stacks: _Stacks) -> _Stacks:
    """The stacks less their all-zero matrices, as the ``FourierMatrix``
    constructors drop them."""
    live = stacks.coeffs.any(axis=(1, 2))
    if live.all():
        return stacks
    counts = np.bincount(_owners(stacks)[live], minlength=len(stacks.counts))
    return _Stacks(stacks.coeffs[live], stacks.keys[live], counts)


def _split(stacks: _Stacks, count: int) -> Tuple[_Stacks, _Stacks]:
    """The first ``count`` samples' stacks and the rest's."""
    cut = int(stacks.counts[:count].sum())
    return (
        _Stacks(stacks.coeffs[:cut], stacks.keys[:cut], stacks.counts[:count]),
        _Stacks(stacks.coeffs[cut:], stacks.keys[cut:], stacks.counts[count:]),
    )


def _join(first: _Stacks, second: _Stacks) -> _Stacks:
    """The samples of ``first``, then those of ``second``."""
    return _Stacks(*(np.concatenate(pair) for pair in zip(first, second)))


def _products(left: _Stacks, right: _Stacks) -> _Stacks:
    """Per sample, the product of its two stacks as ``FourierMatrix.matmul``
    forms it inside the box (see :func:`_stack_products`)."""
    sums, p, q, owner = _stack_products(
        left.coeffs, left.keys, left.counts, right.coeffs, right.keys, right.counts
    )
    counts = np.bincount(owner, minlength=len(left.counts))
    return _without_zeros(_Stacks(sums, left.keys[p] + right.keys[q], counts))


def _sum(first: _Stacks, second: _Stacks) -> _Stacks:
    """Per sample, the sum of its two stacks as ``FourierMatrix.add`` forms
    it: both stacks' matrices sorted stably by mode, those at one mode
    summed by ``reduceat``.  Two empty stacks sum to an empty one."""
    owner = np.concatenate([_owners(first), _owners(second)])
    keys = np.concatenate([first.keys, second.keys])
    order = np.lexsort((keys, owner))
    owner, keys = owner[order], keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (owner[1:] != owner[:-1]) | (keys[1:] != keys[:-1])))
    )[: len(keys)]
    coeffs = np.add.reduceat(np.concatenate([first.coeffs, second.coeffs])[order], starts, axis=0)
    counts = np.bincount(owner[starts], minlength=len(first.counts))
    return _without_zeros(_Stacks(coeffs, keys[starts], counts))


def _norms(stacks: _Stacks) -> np.ndarray:
    """Per sample, ``FourierMatrix.norm``: the root of one sum over the
    sample's contiguous squared magnitudes, whose pairwise order a sum over
    a longer run would change."""
    squares = np.abs(stacks.coeffs) ** 2
    ends = np.cumsum(stacks.counts).tolist()
    return np.sqrt([np.sum(squares[end - n:end]) for end, n in zip(ends, stacks.counts.tolist())])


class FourierMatrix:
    """A matrix of truncated Fourier series, held as one stack over its modes.

    ``modes`` is an integer (P, 2n) array in lexicographic order and
    ``coeffs`` the (P, rows, cols) coefficient matrices at those modes; a
    mode whose coefficient matrix is exactly zero is not stored.
    ``dropped_mass`` (rows, cols) is the ``dropped_mass`` of each entry as a
    :class:`FourierScalar`, and ``m[i, j]`` returns that scalar.  Values are
    immutable after construction.
    """

    def __init__(
        self,
        geometry: TorusGeometry,
        box: TruncationBox,
        modes,
        coeffs,
        dropped_mass=None,
    ):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3:
            raise ValueError("coefficients must be a (modes, rows, cols) stack")
        modes = np.asarray(modes, dtype=np.int64).reshape(len(coeffs), geometry.dim)
        if len(modes) and np.abs(modes).max() > box.K:
            outside = np.abs(modes).max(axis=1) > box.K
            raise TruncationError(tuple(int(k) for k in modes[np.argmax(outside)]))
        # sort by mode, sum repeated modes, drop all-zero coefficient matrices
        if len(modes) > 1:
            keys = _mode_keys(box, modes)
            if not (keys[1:] > keys[:-1]).all():
                order = np.argsort(keys, kind="stable")
                starts = _group_starts(keys[order])
                coeffs = np.add.reduceat(coeffs[order], starts, axis=0)
                modes = modes[order[starts]]
        live = coeffs.any(axis=(1, 2))
        if not live.all():
            modes, coeffs = modes[live], coeffs[live]
        self.geometry = geometry
        self.box = box
        self.modes = modes
        self.coeffs = coeffs
        shape = coeffs.shape[1:]
        self.dropped_mass = (
            np.zeros(shape) if dropped_mass is None
            else np.array(dropped_mass, dtype=float).reshape(shape)
        )

    @classmethod
    def _from_sorted(
        cls,
        geometry: TorusGeometry,
        box: TruncationBox,
        modes: np.ndarray,
        coeffs: np.ndarray,
        dropped_mass: np.ndarray,
    ) -> "FourierMatrix":
        """The stack of distinct int64 ``modes`` (P, 2n) already in
        lexicographic order and inside the box, complex ``coeffs`` and a float
        (rows, cols) ``dropped_mass``; only the all-zero coefficient matrices
        are dropped."""
        live = coeffs.any(axis=(1, 2))
        if not live.all():
            modes, coeffs = modes[live], coeffs[live]
        out = cls.__new__(cls)
        out.geometry, out.box = geometry, box
        out.modes, out.coeffs = modes, coeffs
        out.dropped_mass = dropped_mass
        return out

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, geometry: TorusGeometry, box: TruncationBox, values) -> "FourierMatrix":
        values = np.asarray(values, dtype=complex)
        return cls(geometry, box, np.zeros((1, geometry.dim), dtype=np.int64), values[None])

    @classmethod
    def zero(cls, geometry: TorusGeometry, box: TruncationBox, shape: Tuple[int, int]) -> "FourierMatrix":
        """The zero matrix of the given (rows, cols) shape: no mode."""
        return cls._from_sorted(
            geometry, box, np.zeros((0, geometry.dim), dtype=np.int64),
            np.zeros((0,) + tuple(shape), dtype=complex), np.zeros(shape),
        )

    @classmethod
    def identity(cls, geometry: TorusGeometry, box: TruncationBox, size: int) -> "FourierMatrix":
        return cls.constant(geometry, box, np.eye(size))

    @classmethod
    def from_entries(
        cls,
        geometry: TorusGeometry,
        box: TruncationBox,
        shape: Tuple[int, int],
        entries: Iterable[Tuple[Tuple[int, int], FourierScalar]],
    ) -> "FourierMatrix":
        """The stack of a matrix given by ((i, j), scalar) pairs.

        Absent entries are zero and scalars given for the same entry are
        summed, dropped mass included.
        """
        index: Dict[Mode, int] = {}
        cells = []
        dropped = np.zeros(shape)
        for (i, j), f in entries:
            if f.geometry != geometry or f.box != box:
                raise GeometryMismatch("matrix entry lives in a different space")
            dropped[i, j] += f.dropped_mass
            for mode, c in f.coeffs.items():
                cells.append((index.setdefault(mode, len(index)), i, j, c))
        coeffs = np.zeros((len(index),) + tuple(shape), dtype=complex)
        if cells:
            p, i, j, c = zip(*cells)
            np.add.at(coeffs, (p, i, j), c)
        return cls(geometry, box, list(index), coeffs, dropped)

    @classmethod
    def block(cls, blocks: Sequence[Sequence["FourierMatrix"]]) -> "FourierMatrix":
        """The block matrix of a nested (rows, cols) sequence of blocks."""
        first = blocks[0][0]
        rows = np.cumsum([0] + [row[0].shape[0] for row in blocks])
        cols = np.cumsum([0] + [b.shape[1] for b in blocks[0]])
        modes, coeffs = [], []
        for r, row in enumerate(blocks):
            for c, b in enumerate(row):
                _check_same_space(first, b)
                wide = np.zeros((len(b.modes), rows[-1], cols[-1]), dtype=complex)
                wide[:, rows[r]:rows[r + 1], cols[c]:cols[c + 1]] = b.coeffs
                modes.append(b.modes)
                coeffs.append(wide)
        return cls(
            first.geometry, first.box, np.concatenate(modes), np.concatenate(coeffs),
            np.block([[b.dropped_mass for b in row] for row in blocks]),
        )

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def add(self, other: "FourierMatrix") -> "FourierMatrix":
        _check_same_space(self, other)
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        return FourierMatrix(
            self.geometry,
            self.box,
            np.concatenate([self.modes, other.modes]),
            np.concatenate([self.coeffs, other.coeffs]),
            self.dropped_mass + other.dropped_mass,
        )

    def scale(self, c) -> "FourierMatrix":
        return FourierMatrix._from_sorted(
            self.geometry, self.box, self.modes, self.coeffs * complex(c), self.dropped_mass
        )

    def matmul(self, other: "FourierMatrix", policy: str | None = None) -> "FourierMatrix":
        """Matrix product under the given (or the box's) policy.

        Entry (i, j) is the sum over k of the scalar products of ``self[i, k]``
        and ``other[k, j]`` with zero factors skipped, so coefficients agree
        with the entrywise products up to rounding, and escapes and dropped
        mass agree exactly: under ``strict`` a product of two nonzero
        coefficients outside the box raises, under ``drop`` each escaping
        frequency of each scalar product adds its squared magnitude.

        When one factor has one mode and no product mode leaves the box, the
        product modes are the other factor's shifted by it, and the pair
        products are stored as they come, without sorting or summing.
        """
        _check_same_space(self, other)
        if policy is None:
            policy = self.box.policy
        if policy not in ("strict", "drop"):
            raise ValueError(f"unknown truncation policy {policy!r}")
        (rows, inner), cols = self.shape, other.shape[1]
        if other.shape[0] != inner:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not chain")
        a, b, K = self.coeffs, other.coeffs, self.box.K
        dropped = np.zeros((rows, cols))
        if self.dropped_mass.any() or other.dropped_mass.any():
            dropped = np.sum(
                _live(a, b) * (self.dropped_mass[:, :, None] + other.dropped_mass[None, :, :]),
                axis=1,
            )
        if not (len(a) and len(b)):
            zero = np.zeros((0, rows, cols), dtype=complex)
            return FourierMatrix._from_sorted(self.geometry, self.box, self.modes[:0], zero, dropped)
        if len(a) == 1 or len(b) == 1:
            # shifts keep the other side's order; any escape takes the
            # general path, which raises or drops it
            modes = (self.modes[:, None] + other.modes).reshape(-1, self.geometry.dim)
            if np.abs(modes).max() <= K:
                out = np.zeros((len(a) * len(b), rows, cols), dtype=complex)
                for pairs, products in _stack_pairs(a, [len(a)], b, [len(b)]):
                    out[pairs] += products
                return FourierMatrix._from_sorted(self.geometry, self.box, modes, out, dropped)

        # every pair of modes, keyed by the mode of its product
        ka, kb = _mode_keys(self.box, self.modes), _mode_keys(self.box, other.modes)
        keys = ka[:, None] + kb
        inside = np.ones(keys.shape, dtype=bool)
        for axis in range(self.geometry.dim):
            inside &= np.abs(self.modes[:, axis, None] + other.modes[:, axis]) <= K
        escaped = ~inside
        if policy == "strict" and escaped.any():
            # a pair escapes only through a nonzero coefficient on both sides
            reach = np.any(a, axis=1).astype(int) @ np.any(b, axis=2).T.astype(int) > 0
            hit = escaped & reach
            if hit.any():
                p, q = np.unravel_index(np.argmax(hit), hit.shape)
                raise TruncationError(tuple(int(k) for k in self.modes[p] + other.modes[q]))

        # the products of the pairs inside the box, summed by output mode
        out, p, q, _ = _stack_products(
            a, ka, [len(a)], b, kb, [len(b)], None if inside.all() else inside.ravel()
        )

        live = _live(a, b) if policy == "drop" and escaped.any() else None
        if live is not None and live.any():
            # each scalar product a[i, k] b[k, j] drops its own escaping
            # frequencies: sums are squared per (i, k, j), over live triples
            i, k, j = np.nonzero(live)
            left, right = a[:, i, k], b[:, k, j]
            pe, qe = np.nonzero(escaped)
            order = np.argsort(keys[pe, qe], kind="stable")
            pe, qe = pe[order], qe[order]
            group = np.cumsum(np.concatenate(([0], np.diff(keys[pe, qe]) != 0)))
            lost = np.zeros((group[-1] + 1, len(i)), dtype=complex)
            step = max(1, PAIR_CHUNK // len(i))
            for lo in range(0, len(pe), step):
                g = group[lo:lo + step]
                starts = _group_starts(g)
                terms = left[pe[lo:lo + step]] * right[qe[lo:lo + step]]
                lost[g[starts]] += np.add.reduceat(terms, starts, axis=0)
            np.add.at(dropped, (i, j), np.sum(lost.real ** 2 + lost.imag ** 2, axis=0))
        return FourierMatrix._from_sorted(
            self.geometry, self.box, self.modes[p] + other.modes[q], out, dropped
        )

    def conj(self) -> "FourierMatrix":
        """Entrywise complex conjugate; flips every frequency."""
        return FourierMatrix(
            self.geometry, self.box, -self.modes, self.coeffs.conj(), self.dropped_mass
        )

    @property
    def T(self) -> "FourierMatrix":
        return FourierMatrix._from_sorted(
            self.geometry, self.box, self.modes, self.coeffs.transpose(0, 2, 1),
            self.dropped_mass.T,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return self.coeffs.shape[1:]

    def __getitem__(self, index) -> FourierScalar:
        i, j = index
        column = self.coeffs[:, i, j]
        live = np.flatnonzero(column)
        return FourierScalar._from_clean(
            self.geometry,
            self.box,
            # + 0.0 clears signed zeros, as the checked constructor's sums do
            dict(zip(map(tuple, self.modes[live].tolist()), (column[live] + 0.0).tolist())),
            float(self.dropped_mass[i, j]),
        )

    def norm(self) -> float:
        """l2 norm of all coefficients: the root sum of squared entry norms."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def column_norms(self) -> List[float]:
        """Per column, the l2 norm of its coefficients: for one column,
        ``norm`` itself, bitwise."""
        if self.shape[1] == 1:
            return [self.norm()]
        return np.sqrt(np.sum(np.abs(self.coeffs) ** 2, axis=(0, 1))).tolist()

    def entry_norms(self) -> np.ndarray:
        """(rows, cols) array of the entries' l2 norms."""
        return np.sqrt(np.sum(np.abs(self.coeffs) ** 2, axis=0))

    def is_constant(self) -> bool:
        return not self.modes.any()

    def constant_values(self) -> np.ndarray:
        """The coefficient matrix at mode zero."""
        return self.coeffs[~self.modes.any(axis=1)].sum(axis=0)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at spatial points, shape (..., 2n) -> complex (..., rows, cols)."""
        points = np.asarray(points, dtype=float)
        phases = np.exp(2.0j * math.pi * (points @ self.modes.T))
        return np.tensordot(phases, self.coeffs, axes=1)

    # ------------------------------------------------------------------
    # operator sugar
    # ------------------------------------------------------------------

    def __add__(self, other: "FourierMatrix") -> "FourierMatrix":
        return self.add(other)

    def __sub__(self, other: "FourierMatrix") -> "FourierMatrix":
        return self.add(other.scale(-1))

    def __neg__(self) -> "FourierMatrix":
        return self.scale(-1)

    def __repr__(self) -> str:
        return f"FourierMatrix(shape={self.shape}, modes={len(self.modes)})"
