import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raymoments.symtensor import (
    SymTensor,
    contract,
    eval_power,
    monomials,
    multi_indices,
    multiplicity,
    mult_weights,
    sym_dim,
    sym_inner,
    sym_mult,
    sym_mult_matrix,
    symmetrize,
)


def full_inner(a: SymTensor, b: SymTensor) -> float:
    return float((a.to_full() * b.to_full()).sum())


class TestSymDim:
    def test_examples(self):
        assert sym_dim(3, 2) == 6
        assert sym_dim(2, 3) == 4
        for n in (1, 2, 3, 5):
            assert sym_dim(n, 0) == 1

    def test_matches_index_count(self):
        for n in (1, 2, 3):
            for m in range(5):
                assert sym_dim(n, m) == len(multi_indices(n, m))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sym_dim(0, 1)
        with pytest.raises(ValueError):
            sym_dim(2, -1)


class TestMultiIndices:
    def test_non_decreasing(self):
        for alpha in multi_indices(3, 3):
            assert list(alpha) == sorted(alpha)

    def test_colexicographic_order(self):
        idx = multi_indices(3, 2)
        assert idx == ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))

    def test_multiplicity(self):
        assert multiplicity((0, 0)) == 1
        assert multiplicity((0, 1)) == 2
        assert multiplicity((0, 1, 2)) == 6
        assert multiplicity((0, 0, 1)) == 3
        for n, m in [(2, 3), (3, 2), (3, 4)]:
            # multiplicities of all packed indices partition the n^m table
            assert mult_weights(n, m).sum() == n ** m


class TestSymmetrize:
    def test_off_diagonal_average(self):
        raw = np.zeros((2, 2))
        raw[0, 1] = 1.0
        t = symmetrize(raw)
        assert t[(0, 1)] == pytest.approx(0.5)
        assert t[(0, 0)] == 0.0

    def test_diagonal_fixed_point(self):
        raw = np.zeros((2, 2))
        raw[0, 0] = 3.0
        assert symmetrize(raw)[(0, 0)] == pytest.approx(3.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(3, 3, 3))
        once = symmetrize(raw)
        twice = symmetrize(once.to_full())
        np.testing.assert_allclose(once.coeffs, twice.coeffs, atol=1e-15)

    def test_symmetric_input_unchanged(self):
        rng = np.random.default_rng(1)
        t = SymTensor(3, 2, rng.normal(size=6))
        np.testing.assert_allclose(symmetrize(t.to_full()).coeffs, t.coeffs)


class TestSymMult:
    def test_scalar_base(self):
        u = SymTensor(2, 0, np.array([1.0]))
        out = sym_mult(u, np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(out.coeffs, [1.0, 0.0])

    def test_k_zero_identity(self):
        u = SymTensor(2, 1, np.array([2.0, -1.0]))
        assert sym_mult(u, np.array([5.0, 5.0]), 0) is u

    def test_rank_one_example(self):
        # sigma(x (x) u) for x = e_1, u = (a, b)
        a, b = 1.7, -0.3
        u = SymTensor(2, 1, np.array([a, b]))
        out = sym_mult(u, np.array([1.0, 0.0]), 1)
        assert out[(0, 0)] == pytest.approx(a)
        assert out[(0, 1)] == pytest.approx(b / 2)
        assert out[(1, 1)] == 0.0

    def test_matches_brute_force_symmetrization(self):
        rng = np.random.default_rng(2)
        u = SymTensor(3, 2, rng.normal(size=6))
        x = rng.normal(size=3)
        raw = np.einsum("i,jk->ijk", x, u.to_full())
        np.testing.assert_allclose(sym_mult(u, x, 1).coeffs,
                                   symmetrize(raw).coeffs, atol=1e-14)

    def test_matrix_agrees_with_operator(self):
        rng = np.random.default_rng(3)
        for n, m, k in [(2, 1, 1), (3, 1, 2), (3, 2, 1)]:
            u = SymTensor(n, m, rng.normal(size=sym_dim(n, m)))
            x = rng.normal(size=n)
            np.testing.assert_allclose(sym_mult_matrix(n, m, k, x) @ u.coeffs,
                                       sym_mult(u, x, k).coeffs, atol=1e-14)
            xs = rng.normal(size=(2, 3, n))          # batched over leading axes
            batch = sym_mult_matrix(n, m, k, xs)
            for i, j in np.ndindex(2, 3):
                np.testing.assert_allclose(batch[i, j],
                                           sym_mult_matrix(n, m, k, xs[i, j]))


class TestContract:
    def test_k_zero_identity(self):
        w = SymTensor(2, 2, np.array([1.0, 2.0, 3.0]))
        assert contract(w, np.ones(2), 0) is w

    def test_rank_one_dot_product(self):
        w = SymTensor(3, 1, np.array([1.0, -2.0, 0.5]))
        x = np.array([0.3, 0.1, 4.0])
        assert contract(w, x, 1).coeffs[0] == pytest.approx(w.coeffs @ x)

    def test_excess_order_rejected(self):
        w = SymTensor(2, 1, np.ones(2))
        with pytest.raises(ValueError):
            contract(w, np.ones(2), 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_duality(self, seed):
        # <i_{x^(k)} u, w>_sym = <u, j_{x^(k)} w>_sym
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(0, 3))
        k = int(rng.integers(1, 3))
        u = SymTensor(n, m, rng.normal(size=sym_dim(n, m)))
        w = SymTensor(n, m + k, rng.normal(size=sym_dim(n, m + k)))
        x = rng.normal(size=n)
        lhs = sym_inner(sym_mult(u, x, k), w)
        rhs = sym_inner(u, contract(w, x, k))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestFullTableReference:
    """The packed table against full n^m tables, symmetrized by brute force."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sym_mult(self, n, m, k):
        rng = np.random.default_rng(100 * n + 10 * m + k)
        u = SymTensor(n, m, rng.normal(size=sym_dim(n, m)))
        x = rng.normal(size=n)
        raw = u.to_full()
        for _ in range(k):
            raw = np.multiply.outer(x, raw)
        np.testing.assert_allclose(sym_mult(u, x, k).coeffs, symmetrize(raw).coeffs,
                                   rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_contract(self, n, m, k):
        rng = np.random.default_rng(100 * n + 10 * m + k)
        w = SymTensor(n, m + k, rng.normal(size=sym_dim(n, m + k)))
        x = rng.normal(size=n)
        full = w.to_full()
        for _ in range(k):
            full = np.tensordot(full, x, axes=([-1], [0]))
        np.testing.assert_allclose(contract(w, x, k).coeffs, symmetrize(full).coeffs,
                                   rtol=1e-13, atol=1e-13)


TABLE_OPS = {
    "sym_mult": lambda x, k: sym_mult(SymTensor(2, 2, np.ones(3)), x, k),
    "contract": lambda x, k: contract(SymTensor(2, 2, np.ones(3)), x, k),
    "sym_mult_matrix": lambda x, k: sym_mult_matrix(2, 2, k, x),
}


class TestValidation:
    @pytest.mark.parametrize("op", sorted(TABLE_OPS))
    @pytest.mark.parametrize("x, k, message", [
        (np.ones(2), -1, "order k must be non-negative"),
        (np.array([1.0, 1j]), 1, "x must be real"),
    ], ids=["negative-k", "complex-x"])
    def test_bad_argument_named(self, op, x, k, message):
        with pytest.raises(ValueError, match=message):
            TABLE_OPS[op](x, k)

    @pytest.mark.parametrize("x", [np.ones(3), np.ones((2, 2))])
    def test_wrong_shape_rejected(self, x):
        t = SymTensor(2, 1, np.ones(2))
        with pytest.raises(ValueError, match="x must have shape"):
            sym_mult(t, x, 1)
        with pytest.raises(ValueError, match="x must have shape"):
            contract(t, x, 1)


class TestEvalPower:
    def test_diagonal(self):
        f = SymTensor.from_components(2, 2, {(0, 0): 1.0})
        assert eval_power(f, np.array([0.6, 0.8])) == pytest.approx(0.36)

    def test_multiplicity_two(self):
        f = SymTensor.from_components(2, 2, {(0, 1): 1.0})
        assert eval_power(f, np.array([0.6, 0.8])) == pytest.approx(0.96)

    def test_scalar_rank(self):
        f = SymTensor(3, 0, np.array([4.2]))
        assert eval_power(f, np.ones(3)) == pytest.approx(4.2)

    def test_equals_full_contraction(self):
        rng = np.random.default_rng(4)
        f = SymTensor(3, 3, rng.normal(size=10))
        xi = rng.normal(size=3)
        got = eval_power(f, xi)
        want = contract(f, xi, 3).coeffs[0]
        assert got == pytest.approx(want, rel=1e-12)


class TestPackedStorage:
    def test_full_round_trip(self):
        rng = np.random.default_rng(5)
        for n, m in [(2, 2), (3, 3), (2, 4)]:
            t = SymTensor(n, m, rng.normal(size=sym_dim(n, m)))
            np.testing.assert_allclose(symmetrize(t.to_full()).coeffs, t.coeffs)

    def test_permuted_lookup(self):
        rng = np.random.default_rng(6)
        t = SymTensor(3, 3, rng.normal(size=10))
        for alpha in multi_indices(3, 3):
            for perm in itertools.permutations(alpha):
                assert t[perm] == t[alpha]

    def test_inner_product_matches_full(self):
        rng = np.random.default_rng(7)
        a = SymTensor(3, 2, rng.normal(size=6))
        b = SymTensor(3, 2, rng.normal(size=6))
        assert sym_inner(a, b) == pytest.approx(full_inner(a, b), rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SymTensor(2, 2, np.zeros(4))

    def test_json_round_trip(self):
        t = SymTensor.from_components(2, 2, {(0, 0): 1.0, (0, 1): 0.5})
        back = SymTensor.from_json(t.to_json())
        np.testing.assert_allclose(back.coeffs, t.coeffs)
        assert '"11"' in t.to_json() and '"12"' in t.to_json()

    def test_json_rejects_complex_coefficients(self):
        real = SymTensor(2, 1, np.array([1.0 + 0j, 2.0]))
        assert SymTensor.from_json(real.to_json()).coeffs.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="not real"):
            SymTensor(2, 1, np.array([1.0, 2.0 - 0.5j])).to_json()

    @pytest.mark.parametrize("text, key", [
        ('{"n": 2, "coeffs": {"11": 1.0}}', "'m'"),
        ('{"n": 2, "m": 2, "coeffs": {"13": 1.0}}', "'13'"),
        ('{"n": 2, "m": 2, "coeffs": {"1": 1.0}}', "'1'"),
    ], ids=["missing-m", "axis-beyond-n", "key-length"])
    def test_json_bad_key_named(self, text, key):
        with pytest.raises(ValueError, match=key):
            SymTensor.from_json(text)


class TestMonomials:
    EXPS = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 1], [3, 1, 2], [0, 0, 3]])

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (4, 2, 3)])
    def test_matches_direct_powers(self, shape):
        x = np.random.default_rng(8).normal(size=shape)
        got = monomials(x, self.EXPS)
        want = np.prod(x[..., None, :] ** self.EXPS, axis=-1)
        assert got.shape == shape[:-1] + (len(self.EXPS),)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert np.all(got[..., 0] == 1.0)

    def test_integer_input_gives_floats(self):
        # (2^21)^3 = 2^63 wraps in int64; the table is built in floats
        x = np.array([2 ** 21, -3, 1], dtype=np.int64)
        got = monomials(x, self.EXPS)
        want = np.prod(x.astype(float)[None, :] ** self.EXPS, axis=-1)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert got[3] == 2.0 ** 63 * -3 * 1
