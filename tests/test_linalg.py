import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfa import linalg
from qfa.linalg import (
    BlockDiagOp,
    ComposedOp,
    IdentityOp,
    NotCompletableError,
    OutcomeDistribution,
    PermutationOp,
    PlaneRotationOp,
    TensorPowerOp,
)

R2 = 1.0 / math.sqrt(2.0)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def worked_example_v_a():
    partial = np.zeros((4, 4), dtype=complex)
    partial[0] = (0.5, 0.5, 0.0, R2)
    partial[1] = (0.5, 0.5, 0.0, -R2)
    return linalg.complete_unitary(partial, {0, 1})


class TestApply:
    def test_identity(self):
        v = np.array([0.3, 0.4j, -0.5], dtype=complex)
        assert np.array_equal(linalg.apply(np.eye(3, dtype=complex), v), v)

    def test_worked_example_row(self):
        m = worked_example_v_a()
        out = linalg.apply(m, np.array([1, 0, 0, 0], dtype=complex))
        assert np.allclose(out, [0.5, 0.5, 0.0, R2], atol=1e-12)

    def test_worked_example_fixed_point(self):
        m = worked_example_v_a()
        v = np.array([0.5, 0.5, 0, 0], dtype=complex)
        assert np.allclose(linalg.apply(m, v), v, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.apply(np.eye(3, dtype=complex), np.zeros(2, dtype=complex))


class TestIsUnitary:
    def test_identity(self):
        assert linalg.is_unitary(np.eye(5, dtype=complex), 1e-9)

    def test_completed_example(self):
        assert linalg.is_unitary(worked_example_v_a(), 1e-9)

    def test_scaled_identity(self):
        assert not linalg.is_unitary(2.0 * np.eye(3, dtype=complex), 1e-9)


class TestCompleteUnitary:
    def test_full_matrix_unchanged(self):
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        out = linalg.complete_unitary(m, {0, 1})
        assert np.array_equal(out, m)

    def test_partial_worked_example(self):
        m = worked_example_v_a()
        assert linalg.is_unitary(m, 1e-9)
        assert np.allclose(m[0], [0.5, 0.5, 0, R2], atol=0)
        assert np.allclose(m[1], [0.5, 0.5, 0, -R2], atol=0)

    def test_identical_rows_rejected(self):
        partial = np.zeros((3, 3), dtype=complex)
        partial[0] = (1, 0, 0)
        partial[1] = (1, 0, 0)
        with pytest.raises(NotCompletableError):
            linalg.complete_unitary(partial, {0, 1})

    def test_deterministic(self):
        partial = np.zeros((4, 4), dtype=complex)
        partial[2] = (0, R2, R2, 0)
        a = linalg.complete_unitary(partial, {2})
        b = linalg.complete_unitary(partial, {2})
        assert np.array_equal(a, b)

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_completion_is_unitary_and_agrees(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        u = random_unitary(rng, n)
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        partial = np.zeros((n, n), dtype=complex)
        for i in keep:
            partial[i] = u[i]
        out = linalg.complete_unitary(partial, set(keep))
        assert linalg.is_unitary(out, 1e-9)
        for i in keep:
            assert np.array_equal(out[i], u[i])


class TestMeasure:
    def test_mid_word_collapse(self):
        v = np.array([0.5, 0.5, 0.0, R2], dtype=complex)
        res = linalg.measure(v, accepting={2}, rejecting={3})
        assert res.distribution.p_non == pytest.approx(0.5, abs=1e-12)
        assert res.distribution.p_rej == pytest.approx(0.5, abs=1e-12)
        assert res.distribution.p_acc == 0.0
        assert np.allclose(res.non_halting, [0.5, 0.5, 0, 0], atol=0)

    def test_final_collapse(self):
        v = np.array([0.0, 0.0, 0.5, 0.5], dtype=complex)
        res = linalg.measure(v, accepting={2}, rejecting={3})
        assert res.distribution.p_acc == pytest.approx(0.25, abs=1e-12)
        assert res.distribution.p_rej == pytest.approx(0.25, abs=1e-12)

    def test_non_halting_only(self):
        v = np.array([1.0, 0.0], dtype=complex)
        res = linalg.measure(v, accepting=set(), rejecting={1})
        assert res.distribution.p_non == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            linalg.measure(np.ones(2, dtype=complex), accepting={0}, rejecting={0})

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            linalg.measure(
                np.ones(3, dtype=complex), accepting={0}, rejecting={1}, non_halting=set()
            )

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_norm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = v / np.linalg.norm(v) * rng.uniform(0.1, 1.0)
        acc = set(range(0, n, 3))
        rej = set(range(1, n, 3))
        res = linalg.measure(v, acc, rej)
        total = res.distribution.p_acc + res.distribution.p_rej + res.distribution.p_non
        assert total == pytest.approx(linalg.norm_squared(v), abs=1e-9)
        # projections are mutually orthogonal
        assert np.vdot(res.accepted, res.rejected) == 0
        assert np.vdot(res.accepted, res.non_halting) == 0


class TestTvDistance:
    def test_zero_on_equal(self):
        d = OutcomeDistribution(0.2, 0.3, 0.5)
        assert linalg.tv_distance(d, d) == 0.0

    def test_disjoint(self):
        assert linalg.tv_distance(
            OutcomeDistribution(1, 0, 0), OutcomeDistribution(0, 1, 0)
        ) == pytest.approx(2.0)

    def test_direct_formula(self):
        got = linalg.tv_distance(
            OutcomeDistribution(0.25, 0.75, 0.0), OutcomeDistribution(0.75, 0.25, 0.0)
        )
        assert got == pytest.approx(1.0, abs=1e-15)


class TestTensorAndDirectSum:
    def test_identity_tensor(self):
        out = linalg.TensorPowerOp(np.eye(2, dtype=complex), 3).dense()
        assert np.array_equal(out, np.eye(8, dtype=complex))

    def test_rotation_corner_entry(self):
        phi = 0.7
        r = np.array(
            [[math.cos(phi), 1j * math.sin(phi)], [1j * math.sin(phi), math.cos(phi)]]
        )
        out = linalg.TensorPowerOp(r, 2).dense()
        assert out[0, 0] == pytest.approx(math.cos(phi) ** 2, abs=1e-15)

    def test_dimensions_multiply(self):
        assert linalg.TensorPowerOp(np.ones((3, 3), dtype=complex), 2).dense().shape == (9, 9)
        out = np.kron(np.eye(2, dtype=complex), np.ones((3, 3), dtype=complex))
        assert out.shape == (6, 6)

    def test_direct_sum_single(self):
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(linalg.direct_sum([m]), m)

    def test_direct_sum_two_scalars(self):
        out = linalg.direct_sum([np.array([[2.0]]), np.array([[3.0]])])
        assert np.array_equal(out, np.diag([2.0 + 0j, 3.0]))

    def test_direct_sum_dims_add(self):
        out = linalg.direct_sum([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
        assert out.shape == (5, 5)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_unitarity_closure(self, seed):
        rng = np.random.default_rng(seed)
        a = random_unitary(rng, int(rng.integers(1, 4)))
        b = random_unitary(rng, int(rng.integers(1, 4)))
        assert linalg.is_unitary(np.kron(a, b), 1e-9)
        assert linalg.is_unitary(linalg.TensorPowerOp(a, 2).dense(), 1e-9)
        assert linalg.is_unitary(linalg.direct_sum([a, b]), 1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    u = random_unitary(rng, n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = linalg.apply(u, v)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-9


def test_nearby_vectors_give_nearby_measurements():
    # tv distance of the two induced distributions is at most 4 eps
    rng = np.random.default_rng(7)
    n = 6
    acc, rej = {0, 1}, {2}
    for _ in range(2000):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta *= rng.uniform(0, 0.5) / np.linalg.norm(delta)
        phi = psi + delta
        phi /= max(1.0, np.linalg.norm(phi))
        eps = np.linalg.norm(psi - phi)
        tv = linalg.tv_distance(
            linalg.measure(psi, acc, rej).distribution,
            linalg.measure(phi, acc, rej).distribution,
        )
        assert tv <= 4.0 * eps + 1e-12


class TestStructuredOps:
    def test_identity_matches_dense(self):
        op = IdentityOp(4)
        v = np.arange(4, dtype=complex)
        assert np.array_equal(op.apply(v), v)
        assert np.array_equal(op.dense(), np.eye(4, dtype=complex))

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_tensor_power_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        base = random_unitary(rng, 2)
        d = int(rng.integers(1, 5))
        op = TensorPowerOp(base, d)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        assert np.allclose(op.apply(v), linalg.apply(op.dense(), v), atol=1e-12)
        assert op.unitarity_defect() <= 1e-12

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_permutation_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        dest = rng.permutation(n)
        op = PermutationOp(dest)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(op.apply(v), linalg.apply(op.dense(), v), atol=0)

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            PermutationOp([0, 0, 1])

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_block_diag_and_composed_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        blocks = [random_unitary(rng, int(rng.integers(1, 4))) for _ in range(3)]
        op = BlockDiagOp(blocks)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        assert np.allclose(op.apply(v), linalg.apply(op.dense(), v), atol=1e-12)
        comp = ComposedOp([op, PermutationOp(rng.permutation(op.dim))])
        assert np.allclose(comp.apply(v), linalg.apply(comp.dense(), v), atol=1e-12)
        assert linalg.is_unitary(comp.dense(), 1e-9)

    def test_plane_rotation_spreads_axis(self):
        target = np.zeros(5, dtype=complex)
        target[1:] = 0.5
        op = PlaneRotationOp(0, target)
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        assert np.allclose(op.apply(e0), target, atol=1e-12)
        assert np.allclose(op.apply(op.apply(e0)), -e0, atol=1e-12)
        assert linalg.is_unitary(op.dense(), 1e-9)

    def test_plane_rotation_matches_dense(self):
        rng = np.random.default_rng(3)
        target = np.zeros(6, dtype=complex)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        target[1:] = raw / np.linalg.norm(raw)
        op = PlaneRotationOp(0, target)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(op.apply(v), linalg.apply(op.dense(), v), atol=1e-12)


def random_operator(rng, dim, depth):
    """Random structured operator of the given dimension, nested up to ``depth``."""
    kinds = ["identity", "dense", "permutation"]
    if dim >= 2:
        kinds.append("rotation")
    powers = [(k, c) for k in (2, 3) for c in range(1, 5) if k**c == dim]
    if powers:
        kinds += ["tensor", "tensor"]
    if depth > 0:
        kinds += ["blocks", "blocks", "composed"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "identity":
        return IdentityOp(dim)
    if kind == "dense":
        return random_unitary(rng, dim)
    if kind == "permutation":
        return PermutationOp(rng.permutation(dim))
    if kind == "rotation":
        axis = int(rng.integers(dim))
        target = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        target[axis] = 0.0
        return PlaneRotationOp(axis, target / np.linalg.norm(target))
    if kind == "tensor":
        k, c = powers[int(rng.integers(len(powers)))]
        return TensorPowerOp(random_unitary(rng, k), c)
    if kind == "composed":
        count = int(rng.integers(1, 4))
        return ComposedOp([random_operator(rng, dim, depth - 1) for _ in range(count)])
    # direct sum: cut dim into parts, often repeating one part size so that
    # equal-shape tensor powers share a batch
    parts = []
    left = dim
    while left:
        size = min(left, int(rng.choice([1, 2, 4, 4, 8, 9])))
        parts += [size] * min(int(rng.integers(1, 4)), left // size)
        left = dim - sum(parts)
    return BlockDiagOp([random_operator(rng, size, depth - 1) for size in parts])


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_structured_trees_match_dense(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 40))
    second = int(rng.integers(1, 20))
    op = BlockDiagOp([random_operator(rng, dim, 3), random_operator(rng, second, 3)])
    v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    before = v.copy()
    expected = v @ op.dense()
    for _ in range(2):  # the second apply runs the cached lowering
        got = linalg.apply(op, v)
        assert np.abs(got - expected).max() <= 1e-12
    assert np.array_equal(v, before)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_tensor_power_defect_is_exact(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    base = random_unitary(rng, k) + rng.uniform(0, 0.1) * (
        rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    )
    for d in range(1, 5):
        op = TensorPowerOp(base, d)
        dense = linalg.unitarity_defect(op.dense())
        assert op.unitarity_defect() == pytest.approx(dense, rel=1e-9, abs=1e-15)


def test_tensor_power_defect_grows_with_copies():
    base = np.diag([1.01, 1.0]).astype(complex)
    assert TensorPowerOp(base, 4).unitarity_defect() == pytest.approx(1.01**8 - 1.0, rel=1e-12)
