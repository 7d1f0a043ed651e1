"""Finite-dimensional Hodge theory for the level-graded spinor complex.

Constant structures make every operator block-diagonal over Fourier modes.
On a Born-Infeld-orthonormal constant basis the twisted differential at
mode k is C + 2 pi i sum_a k_a A_a, with C and the A_a those of
``GCStructure.differentials["d"]`` changed to that basis.  One object per
box, the level basis (``_LevelBasis``), holds C, the A_a, the box's modes,
their orbits and the rank stacks; contexts, packages and the algebroid
read them there and copy none.  Each reader builds d at exactly the modes
it asks for (``_LevelBasis.d``), a chunk of modes, the modes of a spinor,
or one level block at a chunk of modes, and these are bitwise the rows and
blocks of a stack over the whole box, which is never held.  A pass over
modes goes by chunks bounded in bytes, not modes: ``_chunk_length`` gives
the modes whose (m, N, N) stacks, as many as the pass holds at once, fit
in CHUNK_BYTES.
Adjoints are conjugate transposes in that basis (exact on the truncation).
The Laplacians are assembled per diagonal block from products of the level
blocks of d (one block per level; the whole matrix for the level-mixing d
Laplacian), so their entries off the blocks are exact zeros, and each
block is eigendecomposed by batched ``eigh``, one chunk of modes at a
time; the Green operator is the pseudo-inverse on the kernel complement,
refused (LinAlgError) where an eigenvalue past the kernel reads 0 or less.
The class checks (the
ddbar-lemma and the solvability classes) are rank identities, as
del^2 = dbar^2 = del dbar + dbar del = 0, so every verdict is decided
from numerical ranks alone: of level blocks of d, of dbar del on a level,
and of d's rows or columns of a level, built one chunk of modes at a
time.  A rank is one values-only SVD per chunk, or the vector norm for a
stack of single rows or columns; no basis is built.  A spinor enters and
leaves as the coefficient rows of its mode stack, so every operator,
projector and Green operator acts by one product batched over its modes;
a stack of E spinor columns enters as E rows per mode, so a batch of
spinors is one such product too.
The Lie-algebroid complex (``deformation.AlgebroidHodge``) is the dbar
complex in polynomial coordinates (P maps to P . rho0), so it holds no
operator of its own: its differential is the raising blocks of the level
basis's d, and its spectra are those of the dbar Laplacian, which reads
only those blocks.

There is one kernel rule.  The kernel of each kind of Laplacian is
ker A cap ker B* for a pair A, B of rank stacks with A B = 0, so its
dimension at a mode is a rank identity, N_k - r(A) - r(B)
(``_LevelBasis.kernel_sizes``), with d ranked by its two parity blocks.
No eigenvalue is compared with a cutoff: a cutoff scaled to the spectrum
reads a kernel that moves with the scale of the metric, while a kernel
dimension, the dimension of a space of harmonic forms, does not.  The
kernel dimensions over the box (``_LevelBasis.kernel_counts``) weight
these counts by the modes of each orbit (below), so a hodge-table builds
no package and no Laplacian spectra: it eigendecomposes the d Laplacian
only at the least member of each orbit that has a kernel, once per level
basis, for the kernel's level content.  A package is the spectra of its
kind (``HodgePackage`` subclasses ``_ModeSpectra``): its kernel at a mode
is the m eigenvectors of smallest eigenvalue, m that rank count, and its
kernel dimensions are those same counts.  It eigendecomposes, by the same
batched ``eigh``, each mode that its projector, Green operator or harmonic
basis reads, at that mode itself, once, and keeps it.  What a level basis
holds over the box is one orbit index per mode, and its rank stacks, one
int per orbit and cut.

The box is folded once, by the lattice symmetries.  A signed permutation P
of the lattice axes whose P + P preserves J and the generalized metric,
and which preserves H, acts on forms by a unitary U that keeps the levels,
with d at P m equal to U d_m U^-1: every rank of a level block of d, or of
a product of them, is constant on the orbits of the group G of such P
(``_symmetry_group``; the irreducible Brillouin zone of band-structure
codes), up to rounding.  The level basis labels the orbits of the box once
(``_LevelBasis.orbits``, from ``_orbit_map``), ranks each stack at the
least member of each orbit alone, keeps the ranks per orbit, and weights
each orbit by its modes; complex T^4 K=3 ranks 91 orbits of its 2401
modes.  On an untwisted torus C = -H^ is exactly zero, so d at -k is
bitwise -d at k and -I is in G; the identity passes, which build every
term of a mode, walk the first half of such a box alone
(``_LevelBasis.mirror_chunks``).  U moves the eigenvectors' bits, so what a reader weights
with comes from the ``eigh`` at its own mode.

H is real, so d is real, and conjugation maps level j to level -j: a
level block of d at -k is the conjugate of its partner's at k, with the
levels exchanged (``_partner``).  The partner of del_j is dbar_{-j}; that
of dbar del on level j is dbar del on level -j, as del dbar = -dbar del;
those of d's rows or columns of level j are d's rows or columns of level
-j; d's two parity blocks are their own.  Conjugation keeps singular
values, so a partner's ranks at -k are those at k, and of each pair of rank
stacks one is ranked, the dbar member or the one at level j <= 0, and the
other is its ranks read at the orbit of -k per orbit of k: the identity on
an untwisted box, where -I is in G.  A stack that is its own partner is
ranked once per orbit of G and -I together, so twisted or not, each pair
of a stack and a mode is ranked once with its conjugate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .fourier import FourierMatrix, TruncationBox
from .metric import GeneralizedMetric
from .spinor import Spinor, _stack_linear
from .structure import GCStructure

KINDS = ("d", "del", "dbar", "bc", "aeppli")

RANK_CUTOFF = 1e-9

# relative tolerance of the entries of J, G and H that a lattice symmetry
# must preserve (``_symmetry_group``)
SYMMETRY_RTOL = 1e-10

# bytes of the complex (m, N, N) stacks that one chunk of a pass over
# modes holds at once (``_chunk_length``)
CHUNK_BYTES = 1 << 20

CHECK_KINDS = ("ddbar_lemma", "S_k", "B_k", "Scal_k", "Bcal_k")

# per blockwise Laplacian kind, the rank keys A and B whose ker A cap ker B*
# is its kernel on level k (``_LevelBasis.kernel_terms``)
KERNEL_TERMS = {
    "dbar": lambda k: [("dbar", k), ("dbar", k - 1)],
    "del": lambda k: [("del", k), ("del", k + 1)],
    "bc": lambda k: [("col", k), ("dbar del", k)],
    "aeppli": lambda k: [("dbar del", k), ("row", k)],
}

# HodgeContext.check_counts: class checks decided, and rank stacks computed,
# read from their conjugate partner's, and served from the context's cache
CHECK_COUNTERS = ("decided", "ranks_computed", "ranks_mirrored", "ranks_reused")


class ObstructionError(ValueError):
    """A solvability condition failed; carries the offending norms."""

    def __init__(self, message: str, data: Dict[str, float] | None = None):
        super().__init__(message)
        self.data = data or {}


def _cut(s: np.ndarray, floor, margin: float = 1.0) -> np.ndarray:
    """Per matrix, the number of singular values above the cut
    max(RANK_CUTOFF * s_max, floor), or above ``margin`` times it.

    ``s`` holds descending singular values along its last axis and ``floor``
    broadcasts against the rest.  The absolute floor matters when a matrix
    is pure float noise: its own largest singular value is then a
    meaningless reference.
    """
    bound = np.maximum(RANK_CUTOFF * s[..., :1], np.asarray(floor)[..., None])
    return np.sum(s > margin * bound, axis=-1)


def _below(rank: np.ndarray, width: int) -> np.ndarray:
    """Per matrix, a (..., 1, width) mask of the columns before its rank."""
    return (np.arange(width) < rank[..., None])[..., None, :]


def _singular_values(mats: np.ndarray) -> np.ndarray:
    """The descending singular values, (..., min(r, c)), of each matrix of an
    (..., r, c) stack.  A stack of single rows or columns takes no SVD: its
    one singular value per matrix is the vector's norm (none when empty)."""
    rows, cols = mats.shape[-2:]
    if min(rows, cols) > 1:
        return np.linalg.svd(mats, compute_uv=False)
    norms = np.linalg.norm(mats.reshape(mats.shape[:-2] + (rows * cols,)), axis=-1)
    return norms[..., None][..., : min(rows, cols)]


def _rank(mats: np.ndarray, floor=0.0) -> np.ndarray:
    """Numerical rank of each matrix of an (..., r, c) stack."""
    return _cut(_singular_values(mats), floor)


def _range_basis(mats: np.ndarray) -> np.ndarray:
    """Orthonormal range bases of a stack, (..., r, min(r, c)).

    Columns past each matrix's rank are exact zeros, and every kept column
    is a unit vector, so ``_basis_rank`` reads the rank back.  Zero columns
    add only zero singular values, so every rank and containment is
    unchanged.
    """
    u, s = np.linalg.svd(mats, full_matrices=False)[:2]
    u *= _below(_cut(s, 0.0), s.shape[-1])
    return u


def _range_and_null(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The range basis, as ``_range_basis`` gives it, and the orthonormal
    null-space basis, (..., c, c) and zero past the nullity, of a stack
    from one SVD."""
    rows, cols = mats.shape[-2:]
    u, s, vh = np.linalg.svd(mats, full_matrices=rows < cols)
    rank = _cut(s, 0.0)
    u *= _below(rank, s.shape[-1])
    null = np.conjugate(vh, out=vh).swapaxes(-1, -2)
    null *= ~_below(rank, cols)
    return u, null


def _basis_rank(basis: np.ndarray) -> np.ndarray:
    """Per matrix, the rank of a basis from ``_range_basis`` or ``_range_and_null``:
    its count of nonzero columns."""
    return np.count_nonzero(basis.any(axis=-2), axis=-1)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _mode_positions(box: TruncationBox, dim: int, modes) -> np.ndarray:
    """Indices of ``modes`` in ``box.modes``, which run lexicographically.

    Raises ValueError for a mode outside the box.
    """
    k = np.array(modes, dtype=int).reshape(-1, dim)
    outside = np.abs(k).max(axis=1, initial=0) > box.K
    if outside.any():
        mode = tuple(int(v) for v in k[np.argmax(outside)])
        raise ValueError(f"spinor mode {mode} outside the context box")
    return np.ravel_multi_index(tuple(k.T + box.K), (2 * box.K + 1,) * dim)


def _box_modes(box: TruncationBox, dim: int) -> np.ndarray:
    """The modes of ``box``, an (M, dim) int array in the lexicographic
    order of ``box.modes``, filled axis by axis from broadcast ranges, so
    no per-mode object is built."""
    side = (2 * box.K + 1,) * dim
    modes = np.empty(side + (dim,), dtype=int)
    for a, axis in enumerate(np.indices(side, sparse=True)):
        modes[..., a] = axis - box.K
    return modes.reshape(-1, dim)


def _chunks(count: int, size: int) -> Iterator[slice]:
    """Consecutive slices of ``size`` items covering range(count), the last ragged."""
    for start in range(0, count, size):
        yield slice(start, min(start + size, count))


def _chunk_length(size: int, stacks: int) -> int:
    """Modes per chunk of a pass that holds ``stacks`` complex
    (m, size, size) stacks at once: as many as keep them within CHUNK_BYTES,
    and at least one.  Batched ``eigh``, ``svd``, ``matmul`` and ``einsum``
    give each matrix bitwise the same result in any sub-batch, so the
    chunk length moves no value."""
    return max(1, CHUNK_BYTES // (16 * size * size * stacks))


def _orbit_map(modes: np.ndarray, K: int, generators: List[np.ndarray]) -> np.ndarray:
    """Per mode of a box, the least index of a mode in its orbit under the
    group that the signed permutation matrices ``generators`` generate.

    ``modes`` is the box of size K in lexicographic order (``_box_modes``),
    which a signed permutation P maps onto itself, m to P m.  The labels
    start at the modes' own indices; each round takes, for each generator
    P, the least label of mode i and of P m_i, then each label's own label,
    and stops when no label moves.  P has finite order, so its cycles carry
    the least index of an orbit to every member.  A round builds the index
    of P m from m's digits on the fly, so the pass holds a few integers per
    mode, never an array per group element or per generator.
    """
    dim = modes.shape[1]
    strides = (2 * K + 1) ** np.arange(dim)[::-1]
    offset = K * int(strides.sum())
    label = np.arange(len(modes))
    while True:
        new = label
        for p in generators:
            # the index of P m is (P m + K) . strides = m . (P^T strides) + K sum(strides)
            new = np.minimum(new, new[modes @ (p.T @ strides) + offset])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _pair_tensor(x: np.ndarray, dim: int) -> np.ndarray:
    """An endomorphism of T + T*, a (2 dim, 2 dim) matrix, as a (dim, dim,
    4) tensor: entry [a, c] holds its four entries between axis a and axis
    c (tangent and cotangent each), so that P + P, for a signed permutation
    P of the axes, acts on it by P on each of the first two indices."""
    return x.reshape(2, dim, 2, dim).transpose(1, 3, 0, 2).reshape(dim, dim, 4)


def _symmetry_group(structure: GCStructure, metric: GeneralizedMetric) -> Tuple[List[np.ndarray], int]:
    """Generators of the group G of the lattice's signed permutations P, as
    (2n, 2n) integer matrices, and the order of G.

    P e_a = s_a e_{pi(a)} belongs to G when P + P preserves J and the
    generalized metric and P preserves the twist H, entry by entry:
    X[pi(a), pi(c)] = s_a s_c X[a, c] for J and G, and the same with three
    indices for H, to SYMMETRY_RTOL times the tensor's largest entry.  Such
    a P acts on forms by dx^a -> s_a dx^{pi(a)}; the action fixes the line
    of rho0 and H, so it keeps the level grading and the Born-Infeld inner
    product, and conjugates d at m into d at P m by a level-block-diagonal
    unitary: every rank of a level block of d, or of a product of them, is
    constant on the orbits of G.

    The images of the axes are assigned depth first, axis by axis, and a
    partial assignment is cut as soon as one entry between its axes fails
    (``extensions``), so the (2n)! 4^n candidates are never listed.  G is
    searched along its stabilizer chain: G_i fixes the axes before i, and
    for each image of axis i that the generators found so far do not yet
    reach, one completion with those axes fixed is searched for and, when
    found, added as a generator.  The generators then generate G, and |G| is
    the product over i of the orbit lengths of axis i under G_i.
    """
    dim = structure.dim
    pairs = np.concatenate([_pair_tensor(structure.jmatrix, dim),
                            _pair_tensor(metric.gmatrix, dim)], axis=-1)
    twist = structure._twist_tensor()
    pair_tol, twist_tol = (SYMMETRY_RTOL * float(np.abs(x).max()) for x in (pairs, twist))
    image = np.arange(dim)
    sign = np.ones(dim, dtype=int)
    diagonal = np.arange(dim)
    flips = np.array([1, -1])[:, None, None]

    def extensions(i: int) -> np.ndarray:
        """The images of axis i that agree with those of the axes before it
        on every entry between them: a (dim, 2) mask over the target axis b
        and the sign, + then -."""
        a, s = image[:i], sign[:i]
        # per b, the entries of J and G between b and the images of the axes
        # before i, row then column, and what they must equal up to b's sign
        moved = np.concatenate([pairs[:, a], pairs[a].swapaxes(0, 1)], axis=1)
        fixed = np.concatenate([pairs[i, :i], pairs[:i, i]]) * np.tile(s, 2)[:, None]
        ok = (np.abs(moved[:, None] - flips * fixed) <= pair_tol).all(axis=(2, 3))
        ok &= (np.abs(pairs[diagonal, diagonal] - pairs[i, i]) <= pair_tol).all(axis=1)[:, None]
        moved = twist[:, a][:, :, a]
        fixed = np.outer(s, s) * twist[i, :i, :i]
        ok &= (np.abs(moved[:, None] - flips * fixed) <= twist_tol).all(axis=(2, 3))
        ok[a] = False
        return ok

    def complete(i: int) -> bool:
        """Assign the axes from i on, depth first; False when no
        assignment extends those before i."""
        if i == dim:
            return True
        for b, col in zip(*np.nonzero(extensions(i))):
            image[i], sign[i] = b, 1 - 2 * col
            if complete(i + 1):
                return True
        return False

    def orbit(i: int, gens: List[Tuple[np.ndarray, np.ndarray]]) -> set:
        """The signed axes (b, s) that the group ``gens`` generates maps axis i to."""
        seen, todo = {(i, 1)}, [(i, 1)]
        while todo:
            b, s = todo.pop()
            for perm, signs in gens:
                point = (int(perm[b]), s * int(signs[b]))
                if point not in seen:
                    seen.add(point)
                    todo.append(point)
        return seen

    gens: List[Tuple[np.ndarray, np.ndarray]] = []
    order = 1
    for i in reversed(range(dim)):
        image[:i], sign[:i] = np.arange(i), 1
        reached = orbit(i, gens)
        for b, col in zip(*np.nonzero(extensions(i))):
            if (int(b), 1 - 2 * int(col)) in reached:
                continue
            image[i], sign[i] = b, 1 - 2 * col
            if complete(i + 1):
                gens.append((image.copy(), sign.copy()))
                reached = orbit(i, gens)
        order *= len(reached)
    matrices = []
    for perm, signs in gens:
        p = np.zeros((dim, dim), dtype=int)
        p[perm, np.arange(dim)] = signs
        matrices.append(p)
    return matrices, order


def _orbit_index(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For per-item labels that name the least item of each item's orbit
    (``_orbit_map``), those least items in ascending order, and per item
    the position of its orbit's among them."""
    reps = np.flatnonzero(labels == np.arange(len(labels)))
    return reps, np.searchsorted(reps, labels)


def _partner(key: Tuple[str, int]) -> Tuple[str, int] | None:
    """The rank key (``_LevelBasis._rank_matrices``) of the stack whose
    ranks at -m are those of ``key``'s at m, or None.  d is real and
    conjugation maps level j to level -j, so the conjugate of del_j at m is
    dbar_{-j} at -m; as del dbar = -dbar del, that of Q_j is Q_{-j}, and
    those of Row_k and Col_j are Row_{-k} and Col_{-j}, halves swapped.  d's
    parity blocks are their own partners; M_k has no partner among the
    stacks ranked."""
    name, j = key
    if name == "M":
        return None
    if name == "d":
        return key
    return {"del": "dbar", "dbar": "del"}.get(name, name), -j


class _LevelBasis:
    """The per-box data of the Hodge layer, and level-basis coordinates of
    spinors stacked over the modes of the box.

    The constant basis is Born-Infeld orthonormal and aligned with the level
    grading; ``level_slices[k]`` picks level k's columns.  ``modes`` holds
    the box's modes, an (M, 2n) int array in lexicographic order, and a
    spinor's coordinates are one row per mode of its support, which
    ``positions`` finds among them.  ``const`` and ``slopes`` are C and the
    A_a of d_H = C + 2 pi i sum_a k_a A_a in this basis, those of
    ``structure.differentials["d"]`` changed to it, and ``d(sel)`` builds d
    from them at the modes that ``sel`` picks.  ``orbits`` is the one map
    of the modes to the orbits of the structure's lattice symmetries, and
    every array of the Hodge layer over the box runs over its M modes or
    over those orbits.  It keeps the rank stacks (``_ranks``), one row per
    orbit, which the class checks and every kernel count read
    (``kernel_sizes``, ``kernel_counts``), with their counters
    (``check_counts``) and passes (``rank_passes``), and ``decomposed``
    counts the modes handed to ``eigh`` over this basis.  Contexts,
    packages and the algebroid read these here and copy none of them.  It
    holds the structure and metric, for the symmetry search, but no
    context or package, so a context and its packages form no reference
    cycle and are freed as soon as the context is dropped.
    """

    def __init__(self, structure: GCStructure, metric: GeneralizedMetric):
        self._structure, self._metric = structure, metric
        self.geometry = structure.geometry
        self.box = structure.box
        self.dim = structure.dim
        self.size = 2 ** structure.dim
        self.levels = list(structure.levels())
        cols = []
        slices: Dict[int, slice] = {}
        start = 0
        for k in self.levels:
            raw = structure._level_matrix[:, structure._level_slices[k]]
            ortho = metric.orthonormalize_columns(raw)
            cols.append(ortho)
            slices[k] = slice(start, start + ortho.shape[1])
            start += ortho.shape[1]
        self.basis = np.hstack(cols)
        self.level_slices = slices
        self.basis_inv = np.linalg.inv(self.basis)

        # gram[i, j] = constant_inner(basis[:, i], basis[:, j]), as one product
        gram = self.basis.T @ metric.bi_gram @ self.basis.conj()
        residual = float(np.abs(gram - np.eye(self.size)).max())
        if residual > 1e-10:
            raise ValueError(f"level basis failed orthonormalization ({residual:.3e})")
        self.modes = _box_modes(self.box, self.dim)

        # d at mode k is -H^ + 2 pi i sum_a k_a dx^a^ in the level basis
        const, slopes = structure.differentials["d"]
        self.const = self.basis_inv @ const @ self.basis
        self.slopes = self.basis_inv @ slopes @ self.basis
        # found at the first read of ``orbits``: per mode the position of its
        # orbit, and per orbit its least mode and its count of modes
        self._orbit: np.ndarray | None = None
        self._least = self._sizes = np.zeros(0, dtype=int)
        self.group_order = 0
        self.decomposed = 0
        # the rank stacks, by key, and per key the singular values within
        # 10x of the cut, weighted by the modes (``_ranks``)
        self._rank_stacks: Dict[Tuple[str, int], np.ndarray] = {}
        self._rank_gaps: Dict[Tuple[str, int], int] = {}
        # the rank scale at the least mode of each orbit, found at
        # the first rank pass (``_orbit_scale``), and the level content of
        # the d kernel, at its first count (``_d_content``)
        self._scale: np.ndarray | None = None
        self._d_levels: Dict[int, int] | None = None
        self.check_counts = dict.fromkeys(CHECK_COUNTERS, 0)
        # per rank stack computed: its key, the symmetry group's order, the
        # modes it ranked, chunk length and chunks
        self.rank_passes: List[Dict] = []

    def orbits(self) -> np.ndarray:
        """Per mode of the box, the position of its orbit under the group G
        of the structure's lattice symmetries (``_symmetry_group``,
        ``_orbit_map``) among the orbits of ``orbit_reps``: the index through
        which a rank stack, kept per orbit, is read at a mode.  Found at the
        first read and kept, with |G| as ``group_order``."""
        if self._orbit is None:
            generators, self.group_order = _symmetry_group(self._structure, self._metric)
            self._least, self._orbit = _orbit_index(_orbit_map(self.modes, self.box.K, generators))
            self._sizes = np.bincount(self._orbit)
        return self._orbit

    def orbit_reps(self) -> Tuple[np.ndarray, np.ndarray]:
        """The least mode of each orbit (``orbits``), in ascending order,
        and the box modes each orbit holds."""
        self.orbits()
        return self._least, self._sizes

    def mirror_chunks(self, stacks: int) -> Iterator[Tuple[slice, np.ndarray]]:
        """The modes that an identity pass walks, one chunk at a time for a
        pass that holds ``stacks`` complex (m, N, N) stacks at once
        (``_chunk_length``), each with the number of box modes it stands
        for.  Untwisted, C is exactly zero, so d at -k, mode M - 1 - i of
        mode i, is bitwise -d at k: the walk is the first M // 2 + 1 modes,
        each standing for itself and its mirror, and mode 0 (the last) for
        itself alone.  Twisted, it is the whole box, one mode each."""
        count = len(self.modes)
        half = count if self.const.any() else count // 2 + 1
        for sel in _chunks(half, _chunk_length(self.size, stacks)):
            yield sel, np.where(np.arange(sel.start, sel.stop) < count - half, 2, 1)

    def level(self, k: int) -> slice:
        """Coordinates of level k; empty outside [-n, n]."""
        return self.level_slices.get(k, slice(0, 0))

    def blocks(self, kind: str) -> List[slice]:
        """The diagonal blocks of the ``kind`` Laplacian: the levels, or the
        whole matrix for the level-mixing ``d``."""
        if kind == "d":
            return [slice(0, self.size)]
        return [self.level_slices[k] for k in self.levels]

    def spectra_chunk(self, kind: str) -> int:
        """Modes per chunk of a pass that eigendecomposes the
        ``kind`` Laplacian: the level-mixing ``d`` holds four whole (m, N, N)
        stacks (d, its adjoint, the Laplacian and the eigenvectors), a
        blockwise kind about one, the d it builds."""
        return _chunk_length(self.size, 4 if kind == "d" else 1)

    def d(self, sel) -> np.ndarray:
        """d at the box modes picked by ``sel`` (index, slice or indices),
        built from C and the A_a: bitwise the rows of a whole-box stack."""
        modes = self.modes[sel]
        d = _stack_linear(self.const, self.slopes, modes)
        return d.reshape(modes.shape[:-1] + d.shape[-2:])

    def positions(self, modes) -> np.ndarray:
        """Indices into the mode stacks; ValueError for a mode outside the box."""
        return _mode_positions(self.box, self.dim, modes)

    def spinor(self, modes, coords: np.ndarray) -> Spinor:
        """The spinor with level-basis coordinate rows ``coords`` at ``modes``."""
        return Spinor.from_stack(self.columns(modes, coords, 1))

    def column_coords(self, stack: FourierMatrix) -> np.ndarray:
        """The level-basis coordinate rows of the columns of a (P, N, E)
        stack of spinors, (P E, N): mode by mode, and the E columns in turn
        within a mode.  For a spinor's one column, its rows at its modes."""
        modes, size, columns = stack.coeffs.shape
        return stack.coeffs.transpose(0, 2, 1).reshape(modes * columns, size) @ self.basis_inv.T

    def columns(self, modes, coords: np.ndarray, count: int) -> FourierMatrix:
        """The stack of ``count`` spinor columns at ``modes`` whose
        level-basis coordinate rows ``coords`` are laid out as
        ``column_coords`` lays them out; ``spinor`` is its one column."""
        rows = (coords @ self.basis.T).reshape(len(modes), count, self.size)
        return FourierMatrix(self.geometry, self.box, modes, rows.transpose(0, 2, 1))

    def kernel_terms(self, kind: str) -> List[Tuple[int, List[Tuple[str, int]], int]]:
        """Per diagonal block of the ``kind`` Laplacian (``blocks``), its
        size, the rank keys (``_rank_matrices``) and how many times their
        ranks its kernel falls short of that size by, per mode:
        with N_k the size of level k and the names of
        ``HodgeContext.class_check``,

        - dbar: N_k - r(dbar_k) - r(dbar_{k-1});
        - del: N_k - r(del_k) - r(del_{k+1});
        - bc: N_k - r(Col_k) - r(Q_k);
        - aeppli: N_k - r(Q_k) - r(Row_k);
        - d: N - 2 r(d).  d flips the parity of the level, so its rank is
          the sum of those of its two parity blocks.

        For the pair A, B of keys, ker A cap ker B* is the Laplacian's
        kernel, and as A B = 0 its dimension is dim ker A - r(B)."""
        if kind == "d":
            return [(self.size, [("d", 0), ("d", 1)], 2)]
        if kind not in KERNEL_TERMS:
            raise ValueError(f"unknown Laplacian kind {kind!r}")
        return [(self.level_slices[k].stop - self.level_slices[k].start, KERNEL_TERMS[kind](k), 1)
                for k in self.levels]

    def kernel_sizes(self, kind: str) -> List[np.ndarray]:
        """Per diagonal block of the ``kind`` Laplacian, the dimension of
        its kernel at every orbit (``orbits``), counted from the rank stacks
        (``kernel_terms``)."""
        return [size - times * sum(self._ranks(key)[:, 0] for key in keys)
                for size, keys, times in self.kernel_terms(kind)]

    def kernel_counts(self, kinds: Iterable[str]) -> Tuple[Dict[str, Dict[int, int]], int]:
        """Per kind of ``kinds`` and level, the dimension of the kernel of
        its Laplacian over the box, counted from the rank stacks
        (``kernel_sizes``) with each orbit weighted by its modes; and how
        many singular values of the stacks read lie above the rank cut but
        within 10x of it, each stack counted once (a stack read from its
        conjugate partner has its partner's singular values, so its
        partner's count).  The level-mixing d kernel is
        counted level by level (``_d_content``).  The stacks of dbar, bc and
        aeppli are those the class checks read, so after the checks only
        the two parity blocks of d are ranked anew, each its own conjugate
        partner."""
        dims: Dict[str, Dict[int, int]] = {}
        read = set()
        for kind in kinds:
            read.update(self._rank_key(key) for _, keys, _ in self.kernel_terms(kind) for key in keys)
            dims[kind] = (self._d_content() if kind == "d" else
                          {k: int(m @ self.orbit_reps()[1])
                           for k, m in zip(self.levels, self.kernel_sizes(kind))})
        return dims, sum(self._rank_gaps[key] for key in read)

    def _d_content(self) -> Dict[int, int]:
        """Per level, the dimension of the level content of the d kernel: at
        the least mode of each orbit (``orbits``) that has a
        kernel, the d Laplacian is eigendecomposed whole and its m
        eigenvectors of smallest eigenvalue, m the kernel's dimension there
        (``kernel_sizes``), are counted level by level (``_level_content``),
        weighted by the orbit's modes.  Found at the first read and kept; no
        eigenvector is kept."""
        if self._d_levels is None:
            kernel = self.kernel_sizes("d")[0]
            least, weight = self.orbit_reps()
            rows = np.flatnonzero(kernel > 0)
            vecs = _eigh(self, "d", least[rows], self.spectra_chunk("d"))[0][1] if len(rows) else []
            kernels = (v[:, :m] for v, m in zip(vecs, kernel[rows]))
            self._d_levels = _level_content(self, kernels, weight[rows])
        return dict(self._d_levels)

    def _block(self, row_level: int, col_level: int, sel: slice) -> np.ndarray:
        """The level block of d at the modes picked by ``sel``:
        del one level down, dbar one up.  Built from the same block of C and
        the A_a, so bitwise that block of d, and no larger."""
        rows, cols = self.level(row_level), self.level(col_level)
        return _stack_linear(self.const[rows, cols], self.slopes[:, rows, cols], self.modes[sel])

    def _floor(self, modes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """At the box modes ``modes`` (an index array), the operator scale
        and the absolute rank floor tied to it.  The scale is the largest
        entry of d, read one level block (k +- 1, k) at a time (``_block``):
        d moves the level by one, so these blocks hold all of d, and no
        whole d stack is built.  The rank passes read it at the least modes
        of the orbits (``_orbit_scale``)."""
        blocks = [(k + s, k) for k in self.levels for s in (-1, 1) if k + s in self.level_slices]
        scale = np.maximum(1.0, np.concatenate([
            np.max([np.abs(self._block(*b, modes[sel])).max(axis=(1, 2)) for b in blocks], axis=0)
            for sel in _chunks(len(modes), _chunk_length(self.size, 1))
        ]))
        return scale, RANK_CUTOFF * scale

    def _orbit_scale(self) -> np.ndarray:
        """The rank scale (``_floor``) at the least mode of each orbit of
        the structure's lattice symmetries (``orbits``), found at the first
        rank pass and kept, so a level basis that ranks nothing pays
        nothing."""
        if self._scale is None:
            self._scale = self._floor(self.orbit_reps()[0])[0]
        return self._scale

    def _rank_matrices(self, key: Tuple[str, int], sel) -> np.ndarray:
        """The stack that a rank key names, at the modes picked by ``sel``:
        ("del", j), ("dbar", j), ("dbar del", j), ("row", k), ("col", j) or
        ("M", k), in the notation of ``HodgeContext.class_check``, or ("d",
        p), d's block from the levels of parity p to the others."""
        name, j = key

        def block(row_level, col_level):
            return self._block(row_level, col_level, sel)

        if name == "d":
            odd = np.zeros(self.size, dtype=int)
            for k in self.levels:
                odd[self.level_slices[k]] = k % 2
            rows, cols = np.flatnonzero(odd != j), np.flatnonzero(odd == j)
            const, slopes = self.const[np.ix_(rows, cols)], self.slopes[:, rows][:, :, cols]
            return _stack_linear(const, slopes, self.modes[sel])
        if name == "del":
            return block(j - 1, j)
        if name == "dbar":
            return block(j + 1, j)
        if name == "dbar del":
            return block(j, j - 1) @ block(j - 1, j)
        if name == "col":
            return np.concatenate([block(j - 1, j), block(j + 1, j)], axis=-2)
        row = np.concatenate([block(j, j + 1), block(j, j - 1)], axis=-1)
        if name == "row":
            return row
        # M: d's rows of level j over dbar_{j+1} and an explicit zero block
        below = block(j + 2, j + 1)
        zero = np.zeros(below.shape[:-1] + (row.shape[-1] - below.shape[-1],), complex)
        return np.concatenate([row, np.concatenate([below, zero], axis=-1)], axis=-2)

    def _rank_key(self, key: Tuple[str, int]) -> Tuple[str, int]:
        """The key under which ``_ranks`` keeps a stack: a stack with an
        empty half is the stack of its other half."""
        name, j = key
        has = self.level_slices.__contains__
        if name == "M" and not has(j - 1):
            name, j = "col", j + 1
        elif name == "M" and not has(j + 2):
            name = "row"
        if name == "row" and not has(j - 1):
            name, j = "del", j + 1
        elif name == "row" and not has(j + 1):
            name, j = "dbar", j - 1
        if name == "col" and not has(j + 1):
            name = "del"
        elif name == "col" and not has(j - 1):
            name = "dbar"
        return name, j

    def _zero(self, key: Tuple[str, int]) -> bool:
        """Whether the stack that ``key`` names is zero by its levels alone:
        del_j, dbar_j, or dbar del on level j, with a level that it joins
        outside [-n, n].  A row, col or M key with an empty half is already
        that of its other half (``_rank_key``)."""
        name, j = key
        other = j + 1 if name == "dbar" else j - 1
        has = self.level_slices.__contains__
        return name in ("del", "dbar", "dbar del") and not (has(j) and has(other))

    def _ranks(self, key: Tuple[str, int]) -> np.ndarray:
        """Per orbit of the structure's lattice symmetries (``orbits``), the
        ranks of the stack that ``key`` names (``_rank_matrices``), an (O, 2)
        int16 array, read at a mode through its orbit: cut at the floor,
        then at floor * scale, both from one values-only SVD.  Kept under
        ``_rank_key``, once per level basis, with the count of singular
        values above the first cut but within 10x of it, each orbit
        weighted by its modes (``_rank_gaps``).

        A ranked stack is ranked at the least mode of each orbit
        (``_rank_pass``).  d is real, so a stack at -m is the conjugate of
        its partner's at m (``_partner``), and of each pair only "dbar" and
        the member at level j <= 0 are ranked: the other is that stack read
        at the orbit of -m per orbit of m, with its gap count, so the same
        stacks are ranked whichever member is asked first.  The singular
        values of a stack at the members of an orbit, and at its partner's,
        agree to rounding (about 1e-14), not bitwise, and the rank floor is
        read at the member ranked, so a value at the cut could rank apart; a
        direct pass over every mode, each at its own floor, is kept in the
        tests as the reference, on the floor-binding cases too.  A stack
        that is zero by its levels (``_zero``) is kept as one row of zeros,
        which broadcasts over the orbits, with no orbits, scale or pass, and
        is counted neither as computed nor as mirrored."""
        key = self._rank_key(key)
        if key in self._rank_stacks:
            self.check_counts["ranks_reused"] += 1
            return self._rank_stacks[key]
        name, j = key
        if self._zero(key):
            self._rank_stacks[key] = np.zeros((1, 2), dtype=np.int16)
            self._rank_gaps[key] = 0
        elif name != "del" and (name not in ("dbar del", "row", "col") or j <= 0):
            self._rank_pass(key)
        else:
            partner = _partner(key)
            if partner not in self._rank_stacks:
                self._ranks(partner)
            self.check_counts["ranks_mirrored"] += 1
            ranks = self._rank_stacks[partner]
            if not self._zero(partner):
                # -m is mode M - 1 - i of mode i
                orbit = self.orbits()
                ranks = ranks[orbit[len(orbit) - 1 - self._least]]
            self._rank_stacks[key] = ranks
            self._rank_gaps[key] = self._rank_gaps[partner]
        return self._rank_stacks[key]

    def _rank_pass(self, key: Tuple[str, int]) -> None:
        """Rank the stack that ``key`` names at the least mode of each orbit
        of the structure's lattice symmetries G (``orbits``), over chunks of
        ``_chunk_length`` of them for one d stack (its blocks of d are
        smaller than d), and keep its ranks per orbit and its gap count
        (``_ranks``).  A symmetry P conjugates d at m into d at P m by a
        level-block-diagonal unitary, so every stack has the same ranks over
        an orbit, and each ranked mode is weighted by the modes of its
        orbit.  A stack that is its own partner has the same ranks at a
        mode and at its conjugate, so it is ranked once per orbit of G and
        -I together: -I commutes with G, so that orbit's least member is the
        lesser of those of the orbits of k and -k.  On an untwisted box -I
        is in G already."""
        self.check_counts["ranks_computed"] += 1
        # the orbits and the scale first, so that nothing of this pass is
        # held during their passes
        orbit = self.orbits()
        scale = self._orbit_scale()
        least = self._least
        labels = least[orbit]
        if _partner(key) == key:
            # -m is mode M - 1 - i of mode i
            labels = np.minimum(labels, labels[::-1])
        reps, index = _orbit_index(labels)
        scale = scale[np.searchsorted(least, reps)]
        floor = RANK_CUTOFF * scale
        floors = np.stack([floor, floor * scale], axis=-1)
        weight = np.bincount(index)
        # int16, a quarter of int64: the stacks are held for the basis's life
        ranks = np.empty((len(reps), 2), dtype=np.int16)
        gap, chunk = 0, _chunk_length(self.size, 1)
        chunks = list(_chunks(len(reps), chunk))
        for sel in chunks:
            values = _singular_values(self._rank_matrices(key, reps[sel]))
            ranks[sel] = _cut(values[:, None], floors[sel])
            gap += int((ranks[sel, 0] - _cut(values, floor[sel], margin=10.0)) @ weight[sel])
        self._rank_stacks[key], self._rank_gaps[key] = ranks[index[least]], gap
        self.rank_passes.append({
            "stack": key[0], "level": key[1],
            "group": self.group_order, "ranked": len(reps), "chunk": chunk, "chunks": len(chunks),
        })


def _laplacian_blocks(lb: _LevelBasis, d: np.ndarray, kind: str) -> List[np.ndarray]:
    """The diagonal blocks of the ``kind`` Laplacian of the stack ``d`` of
    differentials in the level basis ``lb``: one per level, or the whole
    matrix for the level-mixing ``d``.

    Each block is assembled from level blocks of d: del is the block one
    level down, dbar the block one level up.  Every term of the del,
    dbar, bc and aeppli Laplacians is X X* or X* X of such blocks, so the
    entries off the level blocks are exact zeros.
    """
    if kind == "d":
        return [d @ _adjoint(d) + _adjoint(d) @ d]
    if kind not in KINDS:
        raise ValueError(f"unknown Laplacian kind {kind!r}")

    def block(row_level, col_level):
        return d[..., lb.level(row_level), lb.level(col_level)]

    out = []
    for k in lb.levels:
        if kind in ("del", "dbar"):
            # a maps into level k, b out of it
            step = -1 if kind == "del" else 1
            a, b = block(k, k - step), block(k + step, k)
            out.append(a @ _adjoint(a) + _adjoint(b) @ b)
            continue
        dl_out, db_out = block(k - 1, k), block(k + 1, k)
        if kind == "bc":
            t = block(k, k + 1) @ db_out  # del dbar on level k
            # dbar* del from level k + 2 into k, and from k into k - 2
            s_in = _adjoint(db_out) @ block(k + 1, k + 2)
            s_out = _adjoint(block(k - 1, k - 2)) @ dl_out
            out.append(
                t @ _adjoint(t) + _adjoint(t) @ t
                + s_in @ _adjoint(s_in) + _adjoint(s_out) @ s_out
                + _adjoint(db_out) @ db_out + _adjoint(dl_out) @ dl_out
            )
        else:
            db_in, dl_in = block(k, k - 1), block(k, k + 1)
            t = db_in @ dl_out  # dbar del on level k
            # del dbar* from level k + 2 into k, and from k into k - 2
            r_in = dl_in @ _adjoint(block(k + 2, k + 1))
            r_out = block(k - 2, k - 1) @ _adjoint(db_in)
            out.append(
                t @ _adjoint(t) + _adjoint(t) @ t
                + r_in @ _adjoint(r_in) + _adjoint(r_out) @ r_out
                + db_in @ _adjoint(db_in) + dl_in @ _adjoint(dl_in)
            )
    return out


def _eigh(lb: _LevelBasis, kind: str, modes: np.ndarray, chunk: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The eigenvalues and eigenvectors of the ``kind`` Laplacians at the
    box modes ``modes``, a nonempty index array, in ascending order of
    eigenvalue: one pair of (len(modes), n_b) and (len(modes), n_b, n_b)
    stacks per diagonal block, by batched ``eigh`` over ``chunk`` of them at
    a time, counted in ``lb.decomposed``.  Batched ``eigh`` gives each
    matrix bitwise the same result in any sub-batch, so these are bitwise
    those of any other pass over the same modes."""
    parts: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in lb.blocks(kind)]
    for sel in _chunks(len(modes), chunk):
        for part, block in zip(parts, _laplacian_blocks(lb, lb.d(modes[sel]), kind)):
            part.append(np.linalg.eigh((block + _adjoint(block)) / 2))
    lb.decomposed += len(modes)
    return [part[0] if len(part) == 1 else tuple(map(np.concatenate, zip(*part))) for part in parts]


def _level_content(
    lb: _LevelBasis, kernels: Iterable[np.ndarray], weight: np.ndarray
) -> Dict[int, int]:
    """Per level, the dimension of the level content of level-mixing
    kernels: ``kernels`` holds one (N, m) orthonormal kernel basis per
    mode, weighted by ``weight``, and each counts the rank of its
    basis projected to the level."""
    counts = dict.fromkeys(lb.levels, 0)
    for w, basis in zip(weight, kernels):
        for level in lb.levels:
            s = np.linalg.svd(basis[lb.level_slices[level]], compute_uv=False)
            if s[0] > RANK_CUTOFF:
                counts[level] += int(w) * int(np.sum(s > RANK_CUTOFF * s[0]))
    return counts


class _ModeSpectra:
    """The per-mode Hermitian ``kind`` Laplacians of d in the level basis
    ``lb``, by diagonal block: their kernel dimensions at every orbit of
    the box (``lb.orbits``), and their eigenvalues and eigenvectors at the
    modes a reader asks for.

    ``kernel[b]`` holds, per orbit, the dimension m of the kernel of
    ``blocks[b]``, counted from the rank stacks of ``lb``
    (``_LevelBasis.kernel_sizes``), the rule of ``kernel_counts`` and of
    the class checks, and read at a mode through its orbit: the kernel at
    a mode is the m eigenvectors of smallest eigenvalue of its ``eigh``,
    and no eigenvalue is compared with a cutoff, so the harmonic and Green
    weights take the eigenvalues and m.  Eigenvalues and eigenvectors come
    from the ``eigh`` at the mode itself, never from another member of its
    orbit, whose unitary moves the eigenvectors' bits: each mode is
    eigendecomposed by ``_eigh``, ``chunk`` (``lb.spectra_chunk(kind)``)
    at a time, when first read (``eigen``), and kept.  ``_slot[i]`` is
    mode i's row in ``_held``, -1 before i is read.  The spectra hold
    ``lb``, never a context, so spectra that outlive their context keep
    none alive.
    """

    def __init__(self, lb: _LevelBasis, kind: str):
        self.level_basis = lb
        self.kind = kind
        self.blocks = lb.blocks(kind)
        self.chunk = lb.spectra_chunk(kind)
        self.kernel = lb.kernel_sizes(kind)
        self._slot = np.full(len(lb.modes), -1)
        self._held = [(np.empty((0, b.stop - b.start)),
                       np.empty((0, b.stop - b.start, b.stop - b.start), complex))
                      for b in self.blocks]

    def eigen(self, modes) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The eigenvalues and eigenvectors at the box modes ``modes`` (an
        index or an index array), one pair per block, from the ``eigh`` at
        each mode itself.  Those not yet held are decomposed once and
        kept."""
        slots = self._slot[modes]
        missing = slots < 0
        if np.any(missing):
            new = np.zeros(len(self._slot), dtype=bool)
            new[np.asarray(modes)[missing]] = True
            new = np.flatnonzero(new)
            held = len(self._held[0][0])
            self._slot[new] = np.arange(held, held + len(new))
            self._held = [
                (np.concatenate([vals, more_vals]), np.concatenate([vecs, more_vecs]))
                for (vals, vecs), (more_vals, more_vecs)
                in zip(self._held, _eigh(self.level_basis, self.kind, new, self.chunk))
            ]
            slots = self._slot[modes]
        return [(vals[slots], vecs[slots]) for vals, vecs in self._held]

    @staticmethod
    def harmonic_weights(vals: np.ndarray, m) -> np.ndarray:
        """1 on the first m eigenvalues of each row, the kernel, else 0."""
        return (np.arange(vals.shape[-1]) < np.asarray(m)[..., None]).astype(float)

    @staticmethod
    def green_weights(vals: np.ndarray, m) -> np.ndarray:
        """0 on the first m eigenvalues of each row, the kernel, else 1 / vals.

        The Laplacian is positive semi-definite with an m-dimensional
        kernel, so every eigenvalue past the kernel is positive.  ``eigh``
        resolves eigenvalues only to about eps times the largest, so on a
        Laplacian that spans many decades (bc and aeppli on twisted T^4 at
        g = 1e-4 I reach 2.5e23) one can read 0 or less; its weight would be
        inf and the Green operator NaN, so LinAlgError is raised instead."""
        kernel = np.arange(vals.shape[-1]) < np.asarray(m)[..., None]
        rest = vals[~kernel]
        if not np.all(rest > 0):
            raise np.linalg.LinAlgError(
                f"Green operator unresolved: an eigenvalue outside the rank-counted kernel "
                f"reads {rest.min():.3g} against a largest eigenvalue of {vals.max():.3g}"
            )
        return np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, vals))

    def apply(self, index: np.ndarray, coords: np.ndarray, weights) -> np.ndarray:
        """weights(L) applied to coordinate rows; row i sits at mode
        ``index[i]``.  ``weights`` takes the eigenvalues and the kernel
        dimensions at the rows' modes."""
        out = np.zeros_like(coords)
        orbit = self.level_basis.orbits()[index]
        for (vals, v), b, m in zip(self.eigen(index), self.blocks, self.kernel):
            inner = weights(vals, m[orbit])[..., None] * (_adjoint(v) @ coords[:, b, None])
            out[:, b] = (v @ inner)[..., 0]
        return out

    def matrix(self, sel, weights) -> np.ndarray:
        """weights(L) at the modes picked by ``sel`` (an index or a slice)."""
        sel = np.arange(len(self._slot))[sel]
        orbit = self.level_basis.orbits()[sel]
        size = self.blocks[-1].stop
        out = np.zeros(np.shape(sel) + (size, size), dtype=complex)
        for (vals, v), b, m in zip(self.eigen(sel), self.blocks, self.kernel):
            out[..., b, b] = (v * weights(vals, m[orbit])[..., None, :]) @ _adjoint(v)
        return out


class HodgePackage(_ModeSpectra):
    """The spectra of one kind of Laplacian (``_ModeSpectra``), with its
    kernel dimensions, harmonic basis, projector and Green operator on
    spinors.  The level-mixing ``d`` kind decomposes whole per-mode
    matrices, the others their level blocks.  Its kernel dimensions are
    ``kernel_counts`` of the level basis, the counts of ``hodge-table``.  A
    package holds the context's level basis, never the context, so the two
    form no reference cycle.
    """

    def __init__(self, context: "HodgeContext", kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown operator kind {kind!r}; expected one of {KINDS}")
        super().__init__(context.level_basis, kind)
        self.blockwise = kind != "d"
        self._levels = self.level_basis.levels if self.blockwise else [None]

    # ------------------------------------------------------------------

    def kernel_dimension(self, level: int) -> int:
        """The kernel's dimension at ``level`` over the box
        (``_LevelBasis.kernel_counts``)."""
        return self.level_basis.kernel_counts([self.kind])[0][self.kind][level]

    def harmonic_basis(self, level: int | None = None) -> List[Spinor]:
        """Orthonormal kernel spinors (at one level for blockwise kinds)."""
        lb = self.level_basis
        index, rows = self.harmonic_basis_rows(level)
        return [lb.spinor([lb.modes[i]], row[None]) for i, row in zip(index, rows)]

    def harmonic_basis_rows(self, level: int | None = None) -> Tuple[np.ndarray, np.ndarray]:
        """``harmonic_basis`` as level-basis coordinates: each spinor's box
        mode index and its one coordinate row, in the same order: the kernel
        eigenvectors of each mode's own ``eigh``, at the modes whose block
        has a kernel."""
        lb = self.level_basis
        orbit = lb.orbits()
        index = [np.zeros(0, dtype=int)]
        rows = [np.zeros((0, lb.size), dtype=complex)]
        for b, (key, m, sl) in enumerate(zip(self._levels, self.kernel, self.blocks)):
            if self.blockwise and level is not None and key != level:
                continue
            visited = np.flatnonzero(m[orbit] > 0)
            own, vecs = self.eigen(visited)[b]
            modes, cols = np.nonzero(self.harmonic_weights(own, m[orbit[visited]]))
            coords = np.zeros((len(modes), lb.size), dtype=complex)
            coords[:, sl] = vecs[modes, :, cols]
            index.append(visited[modes])
            rows.append(coords)
        # mode by mode, then block by block, then eigenvector by eigenvector
        index = np.concatenate(index)
        order = np.argsort(index, kind="stable")
        return index[order], np.concatenate(rows)[order]

    def _apply_spectral(self, sigma: Spinor | FourierMatrix, weights) -> Spinor | FourierMatrix:
        """weights(L) applied to a spinor, or to each column of an E-column
        stack of them, by one ``apply`` over its rows (``column_coords``)."""
        if isinstance(sigma, Spinor):
            return Spinor.from_stack(self._apply_spectral(sigma.stack, weights))
        lb = self.level_basis
        if not len(sigma.modes):
            return FourierMatrix.zero(lb.geometry, lb.box, sigma.shape)
        count = sigma.shape[1]
        index = np.repeat(lb.positions(sigma.modes), count)
        return lb.columns(sigma.modes, self.apply(index, lb.column_coords(sigma), weights), count)

    def harmonic(self, sigma: Spinor | FourierMatrix) -> Spinor | FourierMatrix:
        """Projection onto the kernel, of a spinor or of each column of a
        stack of them."""
        return self._apply_spectral(sigma, self.harmonic_weights)

    def green(self, sigma: Spinor | FourierMatrix) -> Spinor | FourierMatrix:
        """Pseudo-inverse on the kernel complement, of a spinor or of each
        column of a stack of them."""
        return self._apply_spectral(sigma, self.green_weights)

    def laplacian(self, sigma: Spinor) -> Spinor:
        return self._apply_spectral(sigma, lambda vals, m: vals)


class HodgeContext:
    """Operators on a Born-Infeld-orthonormal level basis, built per mode
    from C and the A_a at the modes asked for."""

    OPERATOR_NAMES = (
        "d", "del", "dbar", "d_adj", "del_adj", "dbar_adj",
        "deldbar", "deldbar_adj",
    )

    def __init__(self, structure: GCStructure, metric: GeneralizedMetric):
        if metric.compatibility(structure) > 1e-9:
            raise ValueError("metric does not commute with the structure")
        self.structure = structure
        self.metric = metric
        self.box = structure.box
        self.geometry = structure.geometry
        # the modes, d's C and A_a, and the orbits
        self.level_basis = _LevelBasis(structure, metric)
        self._packages: Dict[str, HodgePackage] = {}
        self._masks = {"del": structure.shift_mask(-1), "dbar": structure.shift_mask(+1)}

    # ------------------------------------------------------------------
    # matrix assembly
    # ------------------------------------------------------------------

    def _op(self, name: str, sel) -> np.ndarray:
        """d, del, dbar or deldbar at the modes picked by ``sel`` (index, slice or indices)."""
        if name == "deldbar":
            return self._op("del", sel) @ self._op("dbar", sel)
        if name != "d" and name not in self._masks:
            raise ValueError(f"unknown operator {name!r}")
        d = self.level_basis.d(sel)
        return d if name == "d" else np.where(self._masks[name], d, 0.0)

    def _laplacian(self, kind: str, sel) -> np.ndarray:
        """The ``kind`` Laplacian at the modes picked by ``sel`` (index or slice):
        its blocks placed on the diagonal."""
        lb = self.level_basis
        blocks = _laplacian_blocks(lb, lb.d(sel), kind)
        out = np.zeros(blocks[0].shape[:-2] + (lb.size, lb.size), dtype=complex)
        for block, b in zip(blocks, lb.blocks(kind)):
            out[..., b, b] = block
        return out

    # ------------------------------------------------------------------
    # spinor transport
    # ------------------------------------------------------------------

    def apply(self, name: str, sigma: Spinor | FourierMatrix) -> Spinor | FourierMatrix:
        """The operator ``name`` applied to a spinor, or to each column of an
        E-column stack of them: one product per row of ``column_coords``,
        with the operator built at each row's mode."""
        if name not in self.OPERATOR_NAMES:
            raise ValueError(f"unknown operator {name!r}")
        if isinstance(sigma, Spinor):
            return Spinor.from_stack(self._apply_columns(name, sigma.stack))
        return self._apply_columns(name, sigma)

    def _apply_columns(self, name: str, stack: FourierMatrix) -> FourierMatrix:
        if not len(stack.modes):
            return FourierMatrix.zero(self.geometry, self.box, stack.shape)
        lb = self.level_basis
        count = stack.shape[1]
        adjoint = name.endswith("_adj")
        ops = self._op(name[:-4] if adjoint else name, np.repeat(lb.positions(stack.modes), count))
        if adjoint:
            ops = _adjoint(ops)
        return lb.columns(stack.modes, np.einsum("mij,mj->mi", ops, lb.column_coords(stack)), count)

    def package(self, kind: str) -> HodgePackage:
        if kind not in self._packages:
            self._packages[kind] = HodgePackage(self, kind)
        return self._packages[kind]

    def identity_residual(self, kind: str) -> float:
        """Operator-norm residual of (harmonic + laplacian o green - 1) for the
        ``kind`` package, worst mode, over the modes of
        ``_LevelBasis.mirror_chunks``: a mode and its mirror have
        bitwise-equal Laplacians and spectra."""
        lb, pk = self.level_basis, self.package(kind)
        worst = 0.0
        for sel, _ in lb.mirror_chunks(4):
            resid = (
                pk.matrix(sel, pk.harmonic_weights)
                + self._laplacian(kind, sel) @ pk.matrix(sel, pk.green_weights)
                - np.eye(lb.size)
            )
            worst = max(worst, float(np.linalg.norm(resid, 2, axis=(1, 2)).max()))
        return worst

    # ------------------------------------------------------------------
    # solvers
    # ------------------------------------------------------------------

    def solve_ddbar_minimal(self, y: Spinor, tol: float = 1e-9) -> Spinor:
        """Minimum-norm solution of (del o dbar) x = y via the BC Green operator.

        Raises ObstructionError when y is not in the image (nonzero BC-harmonic
        projection or exactness residual).
        """
        bc = self.package("bc")
        scale = max(y.norm(), 1e-300)
        harm = bc.harmonic(y).norm()
        x = self.apply("deldbar_adj", bc.green(y))
        resid = (self.apply("deldbar", x) - y).norm()
        if not (harm <= tol * scale and resid <= tol * scale):
            raise ObstructionError(
                "right-hand side is not in the image of del dbar",
                {"harmonic_norm": harm, "residual": resid, "scale": scale},
            )
        return x

    def d_closed_representative(
        self, sigma: Spinor | FourierMatrix, tol: float = 1e-9
    ) -> Tuple[Spinor, Spinor] | Tuple[FourierMatrix, FourierMatrix]:
        """gamma = sigma + dbar beta with d gamma = 0, same raising-cohomology class.

        beta = -(del dbar)^* G_bc (del sigma); requires dbar sigma = 0 and the
        exactness class condition for del sigma.  ``sigma`` is a spinor, or
        an E-column stack of them, whose columns are checked one by one: the
        first column to fail raises its own error.
        """
        if isinstance(sigma, Spinor):
            gamma, beta = self._d_closed_columns(sigma.stack, tol)
            return Spinor.from_stack(gamma), Spinor.from_stack(beta)
        return self._d_closed_columns(sigma, tol)

    def _d_closed_columns(self, sigma: FourierMatrix, tol: float) -> Tuple[FourierMatrix, FourierMatrix]:
        scales = [max(norm, 1e-300) for norm in sigma.column_norms()]
        for closed, scale in zip(self.apply("dbar", sigma).column_norms(), scales):
            if not closed <= tol * scale:
                raise ObstructionError(
                    "input is not dbar-closed", {"dbar_norm": closed, "scale": scale}
                )
        del_sigma = self.apply("del", sigma)
        # the bc package is built only for a del sigma it has to invert
        if len(del_sigma.modes):
            del_sigma = self.package("bc").green(del_sigma)
        beta = self.apply("deldbar_adj", del_sigma).scale(-1)
        gamma = sigma.add(self.apply("dbar", beta))
        for d_res, scale in zip(self.apply("d", gamma).column_norms(), scales):
            if not d_res <= tol * scale:
                raise ObstructionError(
                    "class condition failed: no d-closed representative on this truncation",
                    {"d_residual": d_res, "scale": scale},
                )
        return gamma, beta

    def solve_dbar_minimal(self, tau: Spinor, tol: float = 1e-9) -> Spinor:
        """Minimum-norm solution of dbar x = tau via the dbar Green operator."""
        pk = self.package("dbar")
        scale = max(tau.norm(), 1e-300)
        harm = pk.harmonic(tau).norm()
        closed = self.apply("dbar", tau).norm()
        x = self.apply("dbar_adj", pk.green(tau))
        resid = (self.apply("dbar", x) - tau).norm()
        if not (harm <= tol * scale and resid <= tol * scale):
            raise ObstructionError(
                "right-hand side is not dbar-exact",
                {"harmonic_norm": harm, "residual": resid, "closed": closed, "scale": scale},
            )
        return x

    # ------------------------------------------------------------------
    # class checks
    # ------------------------------------------------------------------

    def class_check(self, kind: str, k: int) -> Dict:
        """Rank verdicts for the ddbar-lemma and the solvability classes.

        Kinds: 'ddbar_lemma', 'B_k', 'S_k', 'Bcal_k', 'Scal_k'.  The two
        S/B families quantify over phi in the level above k with
        dbar(del phi) = 0 (plain) or dbar phi = 0 (calligraphic); the B
        variants additionally demand a del-exact solution.

        With del_j and dbar_j the level blocks (j - 1, j) and (j + 1, j) of
        d, Q_j = dbar_{j-1} del_j (dbar del on level j), d's rows of level k
        Row_k = [del_{k+1} | dbar_{k-1}], its columns of level j
        Col_j = [del_j ; dbar_j], and M_k = [[del_{k+1}, dbar_{k-1}],
        [dbar_{k+1}, 0]]; r the rank at the per-mode floor of
        ``_LevelBasis._floor`` and
        r_s at floor * scale.  As dim(im A cap ker B) = r(A) - r(BA) and
        del^2 = dbar^2 = del dbar + dbar del = 0, each verdict is a rank
        identity at every mode, decided per orbit (``_LevelBasis.orbits``):

        - ddbar_lemma: d1 = r(del_{k+1}) - r(Q_{k+1}), d2 = r(dbar_{k-1}) -
          r(Q_{k-1}) and d3 = r_s(Q_k); it holds iff d1 = d2 = d3, with dims
          d1 + d2 and 2 d3.
        - S_k: candidates c = r(del_{k+1}) - r_s(Q_{k+1}), target
          t = r(dbar_{k-1}); it holds iff r(Row_k) = t + r_s(Q_{k+1}).
        - Scal_k: c = r(Col_{k+1}) - r(dbar_{k+1}), t = r(dbar_{k-1}); it
          holds iff r(M_k) = t + r(dbar_{k+1}).
        - B_k, Bcal_k: c as for S_k, Scal_k; t = r_s(Q_k), whose image lies
          in the candidates, and it holds iff c = t.

        With no level k + 1 the four S/B kinds hold, with dims 0 and 0.
        ``dims`` sums c and t over the modes, each orbit weighted by its
        modes.  Each rank stack is ranked once per level basis, or read from
        its conjugate partner's ranks (``_LevelBasis._ranks``); every call
        returns a fresh dict.
        """
        if kind not in CHECK_KINDS:
            raise ValueError(f"unknown class check {kind!r}")
        lb = self.level_basis
        lb.check_counts["decided"] += 1

        def r(name: str, j: int, scaled: bool = False) -> np.ndarray:
            return lb._ranks((name, j))[:, int(scaled)]

        if kind == "ddbar_lemma":
            d1 = r("del", k + 1) - r("dbar del", k + 1)
            d2 = r("dbar", k - 1) - r("dbar del", k - 1)
            d3 = r("dbar del", k, scaled=True)
            holds, candidates, target = (d1 == d2) & (d2 == d3), d1 + d2, 2 * d3
        elif k + 1 not in lb.level_slices:
            # no level above k: nothing to check
            holds, candidates, target = True, 0, 0
        else:
            plain = kind in ("S_k", "B_k")
            # the rank by which the candidates' domain falls short of level k + 1
            short = r("dbar del", k + 1, scaled=True) if plain else r("dbar", k + 1)
            candidates = r("del" if plain else "col", k + 1) - short
            if kind in ("B_k", "Bcal_k"):
                target = r("dbar del", k, scaled=True)
                holds = candidates == target
            else:
                target = r("dbar", k - 1)
                holds = r("row" if plain else "M", k) == target + short
        sizes = lb.orbit_reps()[1]
        return {
            "kind": kind,
            "level": k,
            "holds": bool(np.all(holds)),
            "dims": {
                "candidates": int(np.sum(candidates * sizes)),
                "target": int(np.sum(target * sizes)),
            },
        }
