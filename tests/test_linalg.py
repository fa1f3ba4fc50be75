import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfa import linalg
from qfa.automata import RunOutcome
from qfa.linalg import (
    BlockDiagOp,
    ComposedOp,
    IdentityOp,
    NotCompletableError,
    PermutationOp,
    PlaneRotationOp,
    TensorPowerOp,
)
from tests_support import random_operator, random_unitary

R2 = 1.0 / math.sqrt(2.0)


def worked_example_v_a():
    partial = np.zeros((4, 4), dtype=complex)
    partial[0] = (0.5, 0.5, 0.0, R2)
    partial[1] = (0.5, 0.5, 0.0, -R2)
    return linalg.complete_unitary(partial, {0, 1})


class TestApply:
    def test_identity(self):
        v = np.array([0.3, 0.4j, -0.5], dtype=complex)
        assert np.array_equal(linalg.lower(np.eye(3, dtype=complex), np.arange(len(v)))(v), v)

    def test_worked_example_row(self):
        m = worked_example_v_a()
        out = linalg.lower(m, np.arange(4))(np.array([1, 0, 0, 0], dtype=complex))
        assert np.allclose(out, [0.5, 0.5, 0.0, R2], atol=1e-12)

    def test_worked_example_fixed_point(self):
        m = worked_example_v_a()
        v = np.array([0.5, 0.5, 0, 0], dtype=complex)
        assert np.allclose(linalg.lower(m, np.arange(len(v)))(v), v, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.lower(np.eye(3, dtype=complex), np.arange(2))


class TestIsUnitary:
    def test_identity(self):
        assert linalg.unitarity_defect(np.eye(5, dtype=complex)) <= 1e-9

    def test_completed_example(self):
        assert linalg.unitarity_defect(worked_example_v_a()) <= 1e-9

    def test_scaled_identity(self):
        assert not linalg.unitarity_defect(2.0 * np.eye(3, dtype=complex)) <= 1e-9


class TestCompleteUnitary:
    def test_full_matrix_unchanged(self):
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        out = linalg.complete_unitary(m, {0, 1})
        assert np.array_equal(out, m)

    def test_partial_worked_example(self):
        m = worked_example_v_a()
        assert linalg.unitarity_defect(m) <= 1e-9
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
        assert linalg.unitarity_defect(out) <= 1e-9
        for i in keep:
            assert np.array_equal(out[i], u[i])


class TestTvDistance:
    def test_zero_on_equal(self):
        d = RunOutcome(0.2, 0.3, 0.5)
        assert linalg.tv_distance(d, d) == 0.0

    def test_disjoint(self):
        assert linalg.tv_distance(
            RunOutcome(1, 0, 0), RunOutcome(0, 1, 0)
        ) == pytest.approx(2.0)

    def test_direct_formula(self):
        got = linalg.tv_distance(
            RunOutcome(0.25, 0.75, 0.0), RunOutcome(0.75, 0.25, 0.0)
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

    def test_copies_capped_before_the_dimension_is_formed(self):
        base = np.eye(2, dtype=complex)
        assert linalg.TensorPowerOp(base, linalg.MAX_TENSOR_COPIES).dim == 2**linalg.MAX_TENSOR_COPIES
        with pytest.raises(ValueError, match="10000000 copies, more than 20"):
            linalg.TensorPowerOp(base, 10000000)

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
        assert linalg.unitarity_defect(np.kron(a, b)) <= 1e-9
        assert linalg.unitarity_defect(linalg.TensorPowerOp(a, 2).dense()) <= 1e-9
        assert linalg.unitarity_defect(linalg.direct_sum([a, b])) <= 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    u = random_unitary(rng, n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = linalg.lower(u, np.arange(len(v)))(v)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-9


def test_nearby_vectors_give_nearby_measurements():
    # tv distance of the two induced distributions is at most 4 eps
    rng = np.random.default_rng(7)
    n = 6
    classes = ([0, 1], [2], [3, 4, 5])  # accepting, rejecting, non-halting

    def measure(v):
        return RunOutcome(*(linalg.norm_squared(v[idx]) for idx in classes))

    for _ in range(2000):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta *= rng.uniform(0, 0.5) / np.linalg.norm(delta)
        phi = psi + delta
        phi /= max(1.0, np.linalg.norm(phi))
        eps = np.linalg.norm(psi - phi)
        tv = linalg.tv_distance(measure(psi), measure(phi))
        assert tv <= 4.0 * eps + 1e-12


class TestStructuredOps:
    def test_identity_matches_dense(self):
        op = IdentityOp(4)
        v = np.arange(4, dtype=complex)
        assert np.array_equal(linalg.lower(op, np.arange(len(v)))(v), v)
        assert np.array_equal(op.dense(), np.eye(4, dtype=complex))

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_tensor_power_matches_dense(self, seed):
        # every split of a power into fused rounds of at most 32 rows: 2 x 2
        # bases up to 5+3 factors, 3 x 3 up to 3+2, 4 x 4 at two factors a
        # round and 6 x 6 at one; alone and batched with a second base
        rng = np.random.default_rng(seed)
        shapes = [(2, d) for d in range(1, 9)] + [(3, d) for d in range(1, 6)]
        shapes += [(4, d) for d in range(1, 5)] + [(6, d) for d in range(1, 4)]
        for k, d in shapes:
            op = TensorPowerOp(random_unitary(rng, k), d)
            pair = BlockDiagOp([op, TensorPowerOp(random_unitary(rng, k), d)])
            for o in (op, pair):
                v = rng.normal(size=o.dim) + 1j * rng.normal(size=o.dim)
                assert np.abs(linalg.lower(o, np.arange(len(v)))(v) - v @ o.dense()).max() <= 1e-12
            assert op.unitarity_defect() <= 1e-12

    def test_top_level_tensor_power_runs_on_one_copy(self):
        # X tensored 14 times reverses a vector; lowered, it holds one copy
        # of the input and one kernel buffer of the same size
        op = TensorPowerOp(np.array([[0, 1], [1, 0]]), 14)
        rng = np.random.default_rng(0)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        before = v.copy()
        tracemalloc.start()
        try:
            got = linalg.lower(op, np.arange(op.dim))(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, v[::-1])
        assert np.array_equal(v, before)
        assert peak <= 2 * v.nbytes + 64 * 1024

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_permutation_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        dest = rng.permutation(n)
        op = PermutationOp(dest)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(linalg.lower(op, np.arange(len(v)))(v), linalg.lower(op.dense(), np.arange(len(v)))(v), atol=0)

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            PermutationOp([0, 0, 1])

    @pytest.mark.parametrize(
        "dest", [[1.9, 0, 2], [1.0, 0.0], ["0", "1"], [True, False]], ids=["float", "whole-float", "str", "bool"]
    )
    def test_permutation_rejects_non_integers(self, dest):
        with pytest.raises(ValueError, match="must hold integers"):
            PermutationOp(dest)

    def test_permutation_accepts_unsigned_integers(self):
        assert PermutationOp(np.array([1, 0], dtype=np.uint8)).dest.tolist() == [1, 0]

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_block_diag_and_composed_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        blocks = [random_unitary(rng, int(rng.integers(1, 4))) for _ in range(3)]
        op = BlockDiagOp(blocks)
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        assert np.allclose(linalg.lower(op, np.arange(len(v)))(v), linalg.lower(op.dense(), np.arange(len(v)))(v), atol=1e-12)
        comp = ComposedOp([op, PermutationOp(rng.permutation(op.dim))])
        assert np.allclose(linalg.lower(comp, np.arange(len(v)))(v), linalg.lower(comp.dense(), np.arange(len(v)))(v), atol=1e-12)
        assert linalg.unitarity_defect(comp.dense()) <= 1e-9

    def test_plane_rotation_spreads_axis(self):
        target = np.zeros(5, dtype=complex)
        target[1:] = 0.5
        op = PlaneRotationOp(0, target)
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        rotate = linalg.lower(op, np.arange(len(e0)))
        assert np.allclose(rotate(e0), target, atol=1e-12)
        assert np.allclose(rotate(rotate(e0)), -e0, atol=1e-12)
        assert linalg.unitarity_defect(op.dense()) <= 1e-9

    def test_plane_rotation_matches_dense(self):
        rng = np.random.default_rng(3)
        target = np.zeros(6, dtype=complex)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        target[1:] = raw / np.linalg.norm(raw)
        op = PlaneRotationOp(0, target)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(linalg.lower(op, np.arange(len(v)))(v), linalg.lower(op.dense(), np.arange(len(v)))(v), atol=1e-12)


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
    run = linalg.lower(op, np.arange(op.dim))
    for _ in range(2):  # a lowered operator can be run again
        got = run(v)
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
