"""Complex vector/matrix arithmetic, measurement, and distribution distance.

Matrices use the transition-table convention: row ``i`` holds the image of
basis state ``i``, so a matrix applied to a state vector is ``v @ m``.  All
arithmetic is double precision; the default tolerance for unitarity and
probability checks is 1e-9, closed-form comparisons use 1e-12.

Besides dense ``numpy`` matrices, a few structured unitary operators are
provided (identity, tensor power, permutation, block diagonal, composition,
plane rotation).  Large composite automata are built from these so that a
matrix never has to be materialized beyond a few thousand rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

# Gram-Schmidt residuals below this are treated as linearly dependent.
_GS_THRESHOLD = 1e-6


class NotCompletableError(ValueError):
    """Specified rows cannot be extended to a unitary matrix."""


class CapacityError(RuntimeError):
    """A configurable size cap was exceeded."""


@dataclass(frozen=True)
class OutcomeDistribution:
    """Accept/reject/non-halt probability triple of one observation."""

    p_acc: float
    p_rej: float
    p_non: float

    def as_tuple(self):
        return (self.p_acc, self.p_rej, self.p_non)


@dataclass(frozen=True)
class MeasureResult:
    distribution: OutcomeDistribution
    accepted: np.ndarray
    rejected: np.ndarray
    non_halting: np.ndarray


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


def norm_squared(v: np.ndarray) -> float:
    return float(np.real(np.vdot(v, v)))


def apply(m, v: np.ndarray) -> np.ndarray:
    """Apply a transition matrix (or structured operator) to a state vector."""
    if isinstance(m, np.ndarray):
        if m.shape[0] != v.shape[0]:
            raise ValueError(f"dimension mismatch: matrix {m.shape} vs vector {v.shape}")
        return v @ m
    if m.dim != v.shape[0]:
        raise ValueError(f"dimension mismatch: operator dim {m.dim} vs vector {v.shape}")
    return m.apply(v)


def operator_dim(m) -> int:
    if isinstance(m, np.ndarray):
        return m.shape[0]
    return m.dim


def to_dense(m) -> np.ndarray:
    if isinstance(m, np.ndarray):
        return m
    return m.dense()


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the max-norm deviation of m^H m from the identity is <= tol."""
    return unitarity_defect(m) <= tol


def unitarity_defect(m) -> float:
    """Max-norm deviation of m^H m from the identity."""
    if isinstance(m, np.ndarray):
        m = as_matrix(m)
        if not np.all(np.isfinite(m.view(float))):
            return float("inf")
        gram = m.conj().T @ m
        return float(np.abs(gram - np.eye(m.shape[0])).max())
    return m.unitarity_defect()


def complete_unitary(partial, specified_rows, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend a partially specified transition matrix to a full unitary.

    ``specified_rows`` are indices of basis states whose images are given in
    ``partial``; they must be pairwise orthonormal within ``tol``.  The
    remaining rows are filled with an orthonormal basis of the complement,
    built by Gram-Schmidt over basis vectors in index order, which makes the
    completion reproducible bit for bit.
    """
    m = as_matrix(partial)
    n = m.shape[0]
    specified = sorted(set(specified_rows))
    if any(i < 0 or i >= n for i in specified):
        raise ValueError("specified row index out of range")
    rows = [m[i] for i in specified]
    if rows:
        gram = np.array([[np.vdot(a, b) for b in rows] for a in rows])
        defect = float(np.abs(gram - np.eye(len(rows))).max())
        if defect > tol:
            raise NotCompletableError(
                f"specified rows are not orthonormal (deviation {defect:.3e} > {tol:.1e})"
            )

    basis = list(rows)
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
    for i in specified:
        out[i] = m[i]
    unspecified = [i for i in range(n) if i not in set(specified)]
    for i, row in zip(unspecified, extension):
        out[i] = row
    return out


def measure(v: np.ndarray, accepting, rejecting, non_halting=None) -> MeasureResult:
    """Project a state vector onto the accept/reject/non-halt subspaces.

    Class probabilities are squared norms of the projections.  The collapsed
    vectors are returned un-renormalized; renormalization is the caller's
    choice because sub-normalized residues are first-class here.
    """
    n = v.shape[0]
    acc = frozenset(accepting)
    rej = frozenset(rejecting)
    if acc & rej:
        raise ValueError(f"overlapping partition: {sorted(acc & rej)}")
    if non_halting is None:
        non = frozenset(range(n)) - acc - rej
    else:
        non = frozenset(non_halting)
        if (acc | rej) & non:
            raise ValueError("overlapping partition")
        if acc | rej | non != frozenset(range(n)):
            raise ValueError("partition does not cover all state indices")
    parts = []
    probs = []
    for cls in (acc, rej, non):
        proj = np.zeros_like(v)
        idx = sorted(cls)
        proj[idx] = v[idx]
        parts.append(proj)
        probs.append(norm_squared(proj))
    dist = OutcomeDistribution(p_acc=probs[0], p_rej=probs[1], p_non=probs[2])
    return MeasureResult(dist, parts[0], parts[1], parts[2])


def tv_distance(d1: OutcomeDistribution, d2: OutcomeDistribution) -> float:
    """Variational distance: sum of absolute coordinate differences, range [0, 2]."""
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
# Structured unitary operators.  Each exposes dim, apply(v), dense() and
# unitarity_defect(); apply() follows the same row convention as dense
# matrices (basis state i is sent to the i-th row of the dense form) and,
# like ``v @ m``, always returns a new array.
# ---------------------------------------------------------------------------


class IdentityOp:
    def __init__(self, dim: int):
        self.dim = int(dim)

    def apply(self, v):
        return v.copy()

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
        self.dim = self.base.shape[0] ** self.copies

    def apply(self, v):
        t = np.array(v, dtype=complex).reshape(1, self.dim)
        return _tensor_powers(self.base.T[np.newaxis], t, self.copies).reshape(self.dim)

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


def _tensor_powers(bases_t, t, copies: int) -> np.ndarray:
    """Apply g tensor powers of k x k bases to g blocks at once, in place.

    ``bases_t`` holds the transposed bases as a (g, k, k) array and ``t`` the
    blocks as a C-contiguous complex (g, k**copies) array, which is
    overwritten with the result.  Each round contracts the leading tensor axis
    with the base rows and moves the new axis to the back, so after
    ``copies`` rounds every axis is contracted once and the order is restored.
    """
    g, k, _ = bases_t.shape
    rest = t.shape[1] // k
    prod = np.empty((g, k, rest), dtype=complex)
    for _ in range(copies):
        np.matmul(bases_t, t.reshape(g, k, rest), out=prod)
        t.reshape(g, rest, k)[...] = prod.transpose(0, 2, 1)
    return t


class PermutationOp:
    """Maps basis state i to basis state dest[i]."""

    def __init__(self, dest):
        self.dest = np.asarray(dest, dtype=int)
        self.dim = self.dest.shape[0]
        if sorted(self.dest.tolist()) != list(range(self.dim)):
            raise ValueError("dest is not a permutation")

    def apply(self, v):
        out = np.zeros_like(v)
        out[self.dest] = v
        return out

    def dense(self):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[np.arange(self.dim), self.dest] = 1.0
        return out

    def unitarity_defect(self):
        return 0.0


class BlockDiagOp:
    """Direct sum of operators, in block order.

    The first ``apply`` lowers the operator into a short list of stages,
    cached on the op; see ``_factors`` and ``_Stage``.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.offsets = []
        off = 0
        for b in self.blocks:
            self.offsets.append(off)
            off += operator_dim(b)
        self.dim = off
        self._stages = None

    def apply(self, v):
        if self._stages is None:
            self._stages = [_Stage(f) for f in _factors(self)]
        for stage in self._stages:
            v = stage.apply(v)
        return v

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

    def apply(self, v):
        for f in self.factors:
            v = apply(f, v)
        return v

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

    def apply(self, v):
        e_amp = v[self.axis]
        u_amp = np.vdot(self.target, v)
        out = np.array(v, dtype=complex)
        out[self.axis] = 0.0
        # e -> u, u -> -e; updated in place to keep one temporary
        out += (e_amp - u_amp) * self.target
        out[self.axis] += -u_amp
        return out

    def dense(self):
        n = self.dim
        out = np.empty((n, n), dtype=complex)
        for i in range(n):
            basis = np.zeros(n, dtype=complex)
            basis[i] = 1.0
            out[i] = self.apply(basis)
        return out

    def unitarity_defect(self):
        return float(abs(norm_squared(self.target) - 1.0))


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


class _Stage:
    """One lowered factor of a block-diagonal operator.

    Identity leaves are skipped, permutation leaves merge into one gather,
    tensor powers of equal shape run as one batched kernel, and any other
    leaf (dense, plane rotation) applies itself to its slice.
    """

    def __init__(self, op):
        leaves = []
        _leaves(op, 0, leaves)
        self.gather = None
        groups = {}
        self.others = []
        for off, leaf in leaves:
            if isinstance(leaf, IdentityOp):
                continue
            if isinstance(leaf, PermutationOp):
                if self.gather is None:
                    self.gather = np.arange(op.dim)
                self.gather[off + leaf.dest] = off + np.arange(leaf.dim)
            elif isinstance(leaf, TensorPowerOp):
                groups.setdefault((leaf.base.shape[0], leaf.copies), []).append((off, leaf))
            else:
                self.others.append((off, leaf))
        self.groups = []
        for (_, copies), members in groups.items():
            bases_t = np.stack([leaf.base.T for _, leaf in members])
            offsets = np.array([off for off, _ in members])
            index = offsets[:, np.newaxis] + np.arange(members[0][1].dim)
            self.groups.append((bases_t, index, copies))

    def apply(self, v):
        v = np.asarray(v, dtype=complex)
        out = v.copy() if self.gather is None else v[self.gather]
        for bases_t, index, copies in self.groups:
            out[index] = _tensor_powers(bases_t, v[index], copies)
        for off, leaf in self.others:
            k = operator_dim(leaf)
            seg = v[off : off + k]
            out[off : off + k] = seg @ leaf if isinstance(leaf, np.ndarray) else leaf.apply(seg)
        return out
