"""Complex vector/matrix arithmetic, operator execution and distribution distance.

Matrices use the transition-table convention: row ``i`` holds the image of
basis state ``i``, so a matrix applied to a state vector is ``v @ m``.  All
arithmetic is double precision; the default tolerance for unitarity and
probability checks is 1e-9, closed-form comparisons use 1e-12.

Besides dense ``numpy`` matrices, a few structured unitary operators are
provided (identity, tensor power, permutation, block diagonal, composition,
plane rotation).  Large composite automata are built from these so that a
matrix never has to be materialized beyond a few thousand rows.  Both kinds
run only through ``lower``, which turns an operator into a vector function.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
# most copies a TensorPowerOp takes; checked before the dimension is formed
MAX_TENSOR_COPIES = 20
# most rows of one fused round of a lowered tensor power (see _fused_runs);
# 16 and 32 were fastest in a sweep of 2 ... 128 on the amplified mod-p QFA
_FUSED_ROWS = 32

# Gram-Schmidt residuals below this are treated as linearly dependent.
_GS_THRESHOLD = 1e-6


class NotCompletableError(ValueError):
    """Specified rows cannot be extended to a unitary matrix."""


class CapacityError(RuntimeError):
    """A configurable size cap was exceeded."""


def as_state_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"state vector must be one-dimensional, got shape {v.shape}")
    return v


def as_matrix(values) -> np.ndarray:
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_operator(m):
    """A dense matrix as a complex square array; a structured operator as it is."""
    return as_matrix(m) if isinstance(m, np.ndarray) else m


def norm_squared(v: np.ndarray) -> float:
    return float(np.vdot(v, v).real)


def lower(m, pos):
    """Return ``m`` as a function that maps a state vector to a new full one,
    never writing to its argument.

    ``pos`` is the layout of the vectors: state i of ``m`` sits at
    ``pos[i]``, so the natural order is ``np.arange(dim)``.  The function
    also takes a residue: a vector shorter than ``dim`` stands for its
    leading positions, with the rest zero.  Every position is resolved here,
    once: a dense matrix keeps its rows in that order, so a step is one
    ``dot`` with its leading rows, and a structured operator runs on slices
    and one composed scatter per stage.
    """
    pos = np.asarray(pos)
    dim = len(pos)
    if isinstance(m, np.ndarray):
        if m.shape != (dim, dim):
            raise ValueError(f"dimension mismatch: matrix {m.shape} vs vector {(dim,)}")
        m = _in_order(m, pos)[0]
        heads = [m[:j] for j in range(dim + 1)]
        return lambda v: v.dot(heads[len(v)])
    if m.dim != dim:
        raise ValueError(f"dimension mismatch: operator dim {m.dim} vs vector {(dim,)}")
    stages = [_Stage(f, pos) for f in _factors(m)]

    def run(v):
        for stage in stages:
            v = stage(v)
        return v

    return run


def operator_dim(m) -> int:
    if isinstance(m, np.ndarray):
        return m.shape[0]
    return m.dim


def to_dense(m) -> np.ndarray:
    if isinstance(m, np.ndarray):
        return m
    return m.dense()


def unitarity_defect(m) -> float:
    """Max-norm deviation of m^H m from the identity."""
    if isinstance(m, np.ndarray):
        m = as_matrix(m)
        if not np.all(np.isfinite(m.view(float))):
            return float("inf")
        gram = m.conj().T @ m
        return float(np.abs(gram - np.eye(m.shape[0])).max())
    return m.unitarity_defect()


def complete_unitary(partial, specified_rows) -> np.ndarray:
    """Extend a partially specified transition matrix to a full unitary.

    ``specified_rows`` are indices of basis states whose images are given in
    ``partial``; they must be pairwise orthonormal within ``DEFAULT_TOL``.  The
    remaining rows are filled with an orthonormal basis of the complement,
    built by Gram-Schmidt over basis vectors in index order, which makes the
    completion reproducible bit for bit.
    """
    m = as_matrix(partial)
    n = m.shape[0]
    specified = sorted(set(specified_rows))
    if any(i < 0 or i >= n for i in specified):
        raise ValueError("specified row index out of range")
    given = m[specified]
    if specified:
        gram = given.conj() @ given.T
        defect = float(np.abs(gram - np.eye(len(specified))).max())
        if defect > DEFAULT_TOL:
            raise NotCompletableError(
                f"specified rows are not orthonormal (deviation {defect:.3e} > {DEFAULT_TOL:.1e})"
            )

    basis = list(given)
    extension = []
    for pivot in range(n):
        if len(extension) == n - len(specified):
            break
        cand = np.zeros(n, dtype=complex)
        cand[pivot] = 1.0
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        residual = np.sqrt(norm_squared(cand))
        if residual <= _GS_THRESHOLD:
            continue
        cand = cand / residual
        # second pass keeps orthogonality at the 1e-12 level
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        cand = cand / np.sqrt(norm_squared(cand))
        basis.append(cand)
        extension.append(cand)
    if len(extension) != n - len(specified):
        raise NotCompletableError("could not find enough orthonormal complement vectors")

    out = np.zeros((n, n), dtype=complex)
    out[specified] = given
    taken = set(specified)
    unspecified = [i for i in range(n) if i not in taken]
    for i, row in zip(unspecified, extension):
        out[i] = row
    return out


def tv_distance(d1, d2) -> float:
    """Variational distance of two run outcomes (anything with ``p_acc``,
    ``p_rej`` and ``p_non``): sum of absolute differences, range [0, 2]."""
    return (
        abs(d1.p_acc - d2.p_acc)
        + abs(d1.p_rej - d2.p_rej)
        + abs(d1.p_non - d2.p_non)
    )


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal matrix assembled from square blocks."""
    mats = [as_matrix(b) for b in blocks]
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    offset = 0
    for m in mats:
        k = m.shape[0]
        out[offset : offset + k, offset : offset + k] = m
        offset += k
    return out


# ---------------------------------------------------------------------------
# Structured unitary operators: plain data exposing dim, dense() and
# unitarity_defect(), executed through ``lower``.  They follow the same row
# convention as dense matrices: basis state i is sent to the i-th row of the
# dense form.
# ---------------------------------------------------------------------------


class IdentityOp:
    def __init__(self, dim: int):
        self.dim = int(dim)

    def dense(self):
        return np.eye(self.dim, dtype=complex)

    def unitarity_defect(self):
        return 0.0


class TensorPowerOp:
    """d-fold tensor power of a small square matrix."""

    def __init__(self, base, copies: int):
        self.base = as_matrix(base)
        self.copies = int(copies)
        if self.copies < 1:
            raise ValueError("tensor power needs at least one copy")
        if self.copies > MAX_TENSOR_COPIES:
            raise ValueError(
                f"tensor-power operator has {self.copies} copies, more than {MAX_TENSOR_COPIES}"
            )
        self.dim = self.base.shape[0] ** self.copies

    def dense(self):
        out = self.base
        for _ in range(self.copies - 1):
            out = np.kron(out, self.base)
        return out

    def unitarity_defect(self):
        """Exact defect of the power, from the base's Gram matrix G.

        The Gram matrix of the power is G tensored d times: its diagonal holds
        products of d diagonal entries of G, and every off-diagonal entry has
        at least one off-diagonal factor.
        """
        if not np.all(np.isfinite(self.base.view(float))):
            return float("inf")
        gram = self.base.conj().T @ self.base
        d = self.copies
        diag = np.real(np.diag(gram))
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        return float(max(
            off * np.abs(gram).max() ** (d - 1),
            abs(diag.max() ** d - 1.0),
            abs(diag.min() ** d - 1.0),
        ))


def _fused_runs(k: int, copies: int) -> list:
    """Factor counts of the rounds that contract a ``copies``-fold power of a
    k x k base: runs of the largest r with k**r <= _FUSED_ROWS (at least
    one factor), the last run possibly shorter."""
    r = 1
    while r < copies and k ** (r + 1) <= _FUSED_ROWS:
        r += 1
    return [min(r, copies - i) for i in range(0, copies, r)]


def _kron_powers(mats, r: int) -> np.ndarray:
    """r-fold Kronecker powers of a (g, k, k) stack of matrices, as a
    (g, k**r, k**r) stack."""
    g, k, _ = mats.shape
    out = mats
    for _ in range(r - 1):
        rows = out.shape[1] * k
        out = (out[:, :, None, :, None] * mats[:, None, :, None, :]).reshape(g, rows, rows)
    return out


def _tensor_powers(rounds, t) -> np.ndarray:
    """Apply g tensor powers to g blocks at once, in place.

    ``t`` holds the blocks as a C-contiguous complex (g, n) array and is
    overwritten with the result.  ``rounds`` lists, for each fused run of
    factors, the run's transposed power stacked over the group as a (g, K, K)
    array; the K's multiply to n.  Each round contracts the leading K-sized
    axis with the run's power and moves the new axis to the back, so after
    the last round every factor is contracted once and the order is restored.
    """
    g = t.shape[0]
    for power_t in rounds:
        rows = power_t.shape[1]
        t.reshape(g, -1, rows)[...] = np.matmul(power_t, t.reshape(g, rows, -1)).transpose(0, 2, 1)
    return t


class PermutationOp:
    """Maps basis state i to basis state dest[i]."""

    def __init__(self, dest):
        dest = np.asarray(dest)
        if dest.size and dest.dtype.kind not in "iu":
            raise ValueError(f"permutation dest must hold integers, got dtype {dest.dtype}")
        self.dest = dest.astype(int)
        self.dim = self.dest.shape[0]
        if sorted(self.dest.tolist()) != list(range(self.dim)):
            raise ValueError("dest is not a permutation")

    def dense(self):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[np.arange(self.dim), self.dest] = 1.0
        return out

    def unitarity_defect(self):
        return 0.0


class BlockDiagOp:
    """Direct sum of operators, in block order."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.offsets = []
        off = 0
        for b in self.blocks:
            self.offsets.append(off)
            off += operator_dim(b)
        self.dim = off

    def dense(self):
        return direct_sum([to_dense(b) for b in self.blocks])

    def unitarity_defect(self):
        return max((unitarity_defect(b) for b in self.blocks), default=0.0)


class ComposedOp:
    """Product of unitaries, applied left to right."""

    def __init__(self, factors):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("composition needs at least one factor")
        self.dim = operator_dim(self.factors[0])
        for f in self.factors:
            if operator_dim(f) != self.dim:
                raise ValueError("composed factors must share a dimension")

    def dense(self):
        out = np.eye(self.dim, dtype=complex)
        for f in self.factors:
            out = out @ to_dense(f)
        return out

    def unitarity_defect(self):
        return float(sum(unitarity_defect(f) for f in self.factors))


class PlaneRotationOp:
    """Rotation by 90 degrees in the plane of a basis axis and a unit vector.

    Sends the basis state ``axis`` to ``target`` (which must be a unit vector
    orthogonal to the axis) and acts as the identity on the orthogonal
    complement of the plane.  Used to spread a distinguished start state over
    the entry states of a composite automaton.
    """

    def __init__(self, axis: int, target):
        self.axis = int(axis)
        self.target = as_state_vector(target)
        self.dim = self.target.shape[0]
        if not 0 <= self.axis < self.dim:
            raise ValueError("axis out of range")
        if abs(norm_squared(self.target) - 1.0) > 1e-12:
            raise ValueError("target must be a unit vector")
        if abs(self.target[self.axis]) > 1e-12:
            raise ValueError("target must be orthogonal to the rotation axis")

    def dense(self):
        out = np.eye(self.dim, dtype=complex)
        support = np.flatnonzero(self.target)
        for row in out:
            _rotate(row, self.axis, support, self.target[support])
        return out

    def unitarity_defect(self):
        return float(abs(norm_squared(self.target) - 1.0))


def _rotate(v, axis, support, values):
    """Overwrite ``v`` with its image under the rotation sending the basis
    state ``axis`` to the unit vector that holds ``values`` at ``support``
    (e -> u and u -> -e); positions outside the plane are not read."""
    e_amp = v[axis]
    u_amp = np.vdot(values, v[support])
    v[axis] = 0.0
    v[support] += (e_amp - u_amp) * values
    v[axis] += -u_amp


def _factors(op) -> list:
    """``op`` as factors applied in order, with no ComposedOp inside a block.

    A direct sum of products is the product of direct sums, so the factor
    lists of the blocks are padded with identities to a common length and
    zipped into one block-diagonal stage per position.
    """
    if isinstance(op, ComposedOp):
        return [g for f in op.factors for g in _factors(f)]
    if isinstance(op, BlockDiagOp):
        lists = [_factors(b) for b in op.blocks]
        depth = max((len(fs) for fs in lists), default=1)
        for fs in lists:
            fs += [IdentityOp(operator_dim(fs[0]))] * (depth - len(fs))
        return [BlockDiagOp([fs[i] for fs in lists]) for i in range(depth)]
    return [op]


def _leaves(op, offset: int, out: list):
    """Flatten nested direct sums into (offset, leaf operator) pairs."""
    if isinstance(op, BlockDiagOp):
        for off, b in zip(op.offsets, op.blocks):
            _leaves(b, offset + off, out)
    else:
        out.append((offset, op))


def _in_order(m, at):
    """The dense matrix ``m`` with its states sorted by their positions
    ``at``, and the sorted positions."""
    order = np.argsort(at, kind="stable")
    return m[np.ix_(order, order)], at[order]


def _span(at):
    """Positions ``at`` as a slice when they form one ascending run, else as
    they are."""
    start = int(at.flat[0]) if at.size else 0
    if np.array_equal(at.reshape(-1), np.arange(start, start + at.size)):
        return slice(start, start + at.size)
    return at


class _Stage:
    """One lowered factor: called on a state vector or a residue (its
    leading positions, the rest zero), returns the image as a full vector.

    The factor's leaves are placed through the position map ``pos`` once.
    Identity leaves are skipped and permutation leaves merge into one
    scatter composed with the map, which also places the residue in a
    zeroed output.  Tensor powers of equal shape run as one batched
    kernel in fused runs of factors of at most ``_FUSED_ROWS`` rows; when
    their positions form one ascending run, the kernel works in place on that
    slice of the output.  A dense leaf has its states sorted by position and
    multiplies its slice, and a plane rotation touches only its axis and the
    support of its target.  Positions that form no run are gathered and
    scattered.
    """

    def __init__(self, op, pos):
        leaves = []
        _leaves(op, 0, leaves)
        self.dim, self.into = len(pos), None
        groups = {}
        self.dense = []
        self.rotations = []
        for off, leaf in leaves:
            at = pos[off : off + operator_dim(leaf)]
            if isinstance(leaf, IdentityOp):
                continue
            if isinstance(leaf, PermutationOp):
                if self.into is None:
                    self.into = np.arange(len(pos))
                self.into[at] = at[leaf.dest]
            elif isinstance(leaf, TensorPowerOp):
                groups.setdefault((leaf.base.shape[0], leaf.copies), []).append((at, leaf))
            elif isinstance(leaf, PlaneRotationOp):
                support = np.flatnonzero(leaf.target)
                self.rotations.append((at[leaf.axis], at[support], leaf.target[support]))
            else:
                leaf, at = _in_order(as_matrix(leaf), at)
                self.dense.append((leaf, _span(at)))
        self.groups = []
        for (k, copies), members in groups.items():
            runs = _fused_runs(k, copies)
            bases_t = np.stack([leaf.base.T for _, leaf in members])
            powers = {r: _kron_powers(bases_t, r) for r in set(runs)}
            where = _span(np.stack([at for at, _ in members]))
            self.groups.append(([powers[r] for r in runs], where))

    def __call__(self, v):
        out = np.zeros(self.dim, dtype=complex)
        out[slice(len(v)) if self.into is None else self.into[: len(v)]] = v
        # leaves are disjoint and only permutation leaves move, so each
        # other leaf's part of out still holds its input
        for rounds, where in self.groups:
            if isinstance(where, slice):
                _tensor_powers(rounds, out[where].reshape(rounds[0].shape[0], -1))
            else:
                out[where] = _tensor_powers(rounds, out[where])
        for leaf, where in self.dense:
            out[where] = out[where] @ leaf
        for rotation in self.rotations:
            _rotate(out, *rotation)
        return out
