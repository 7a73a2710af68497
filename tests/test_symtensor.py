import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raymoments.fields import GaussPolyField, apply_symbol, d_symbol, delta_symbol
from raymoments.symtensor import (
    _json_real,
    json_index,
    json_keys,
    monomials,
    multi_indices,
    multiplicity,
    mult_weights,
    sym_dim,
    sym_mult_matrix,
    symmetric_products,
    xi_power_weights,
)

from references import contract_power, sym_mult_power, symmetrize, to_full


def one_vector(x, n):
    if np.shape(x) != (n,):
        raise ValueError(f"x must have shape ({n},), got {np.shape(x)}")
    return x


def sym_mult(u, n, m, x, k):
    """i_{x^(k)} u for packed rank-m u at one vector x, through the reference product."""
    return sym_mult_power(n, m, k, one_vector(x, n)) @ u


def contract(w, n, m, x, k):
    """j_{x^(k)} w for packed rank-m w at one vector x, through the reference adjoint."""
    return contract_power(n, m, k, one_vector(x, n)) @ w


def sym_inner(a, b, n, m):
    return (mult_weights(n, m) * a * b).sum()


def at(t, n, m, alpha):
    """The packed entry of t at the multi-index alpha, in any order."""
    return t[multi_indices(n, m).index(tuple(sorted(alpha)))]


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
    """The brute-force symmetrization that the table tests compare against."""

    def test_off_diagonal_average(self):
        raw = np.zeros((2, 2))
        raw[0, 1] = 1.0
        t = symmetrize(raw)
        assert at(t, 2, 2, (0, 1)) == pytest.approx(0.5)
        assert at(t, 2, 2, (0, 0)) == 0.0

    def test_diagonal_fixed_point(self):
        raw = np.zeros((2, 2))
        raw[0, 0] = 3.0
        assert at(symmetrize(raw), 2, 2, (0, 0)) == pytest.approx(3.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(3, 3, 3))
        once = symmetrize(raw)
        twice = symmetrize(to_full(once, 3, 3))
        np.testing.assert_allclose(once, twice, atol=1e-15)

    def test_symmetric_input_unchanged(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=6)
        np.testing.assert_allclose(symmetrize(to_full(t, 3, 2)), t)


class TestSymMult:
    def test_scalar_base(self):
        out = sym_mult(np.array([1.0]), 2, 0, np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_k_zero_identity(self):
        # the order-0 symbol is exactly the identity, so a k = 0 peel leaves g = 0
        u = np.array([2.0, -1.0])
        assert np.array_equal(apply_symbol(u, 2, d_symbol(2, 1, 0), [5.0, 5.0]), u)
        assert np.array_equal(sym_mult(u, 2, 1, np.array([5.0, 5.0]), 0), u)

    def test_rank_one_example(self):
        # sigma(x (x) u) for x = e_1, u = (a, b)
        a, b = 1.7, -0.3
        out = sym_mult(np.array([a, b]), 2, 1, np.array([1.0, 0.0]), 1)
        assert at(out, 2, 2, (0, 0)) == pytest.approx(a)
        assert at(out, 2, 2, (0, 1)) == pytest.approx(b / 2)
        assert at(out, 2, 2, (1, 1)) == 0.0

    def test_matches_brute_force_symmetrization(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=6)
        x = rng.normal(size=3)
        raw = np.einsum("i,jk->ijk", x, to_full(u, 3, 2))
        np.testing.assert_allclose(sym_mult(u, 3, 2, x, 1), symmetrize(raw), atol=1e-14)

    def test_matrix_agrees_with_operator(self):
        rng = np.random.default_rng(3)
        for n, m, k in [(2, 1, 1), (3, 1, 2), (3, 2, 1)]:
            u = rng.normal(size=sym_dim(n, m))
            x = rng.normal(size=n)
            np.testing.assert_allclose(
                apply_symbol(u, sym_dim(n, m + k), d_symbol(n, m, k), x.tolist()),
                sym_mult(u, n, m, x, k), atol=1e-14)
            xs = rng.normal(size=(2, 3, n))          # batched over leading axes
            batch = sym_mult_matrix(n, m, xs)
            for i, j in np.ndindex(2, 3):
                np.testing.assert_allclose(batch[i, j], sym_mult_matrix(n, m, xs[i, j]))


class TestContract:
    def test_k_zero_identity(self):
        w = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(apply_symbol(w, 3, delta_symbol(2, 2, 0), [1.0, 1.0]), w)
        assert np.array_equal(contract(w, 2, 2, np.ones(2), 0), w)

    def test_rank_one_dot_product(self):
        w = np.array([1.0, -2.0, 0.5])
        x = np.array([0.3, 0.1, 4.0])
        assert contract(w, 3, 1, x, 1)[0] == pytest.approx(w @ x)

    def test_excess_order_rejected(self):
        with pytest.raises(ValueError, match="contraction order 2 exceeds rank 1"):
            contract(np.ones(2), 2, 1, np.ones(2), 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_duality(self, seed):
        # <i_{x^(k)} u, w>_sym = <u, j_{x^(k)} w>_sym
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        m = int(rng.integers(0, 3))
        k = int(rng.integers(1, 3))
        u = rng.normal(size=sym_dim(n, m))
        w = rng.normal(size=sym_dim(n, m + k))
        x = rng.normal(size=n)
        lhs = sym_inner(sym_mult(u, n, m, x, k), w, n, m + k)
        rhs = sym_inner(u, contract(w, n, m + k, x, k), n, m)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestFullTableReference:
    """The packed table against full n^m tables, symmetrized by brute force."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sym_mult(self, n, m, k):
        rng = np.random.default_rng(100 * n + 10 * m + k)
        u = rng.normal(size=sym_dim(n, m))
        x = rng.normal(size=n)
        raw = to_full(u, n, m)
        for _ in range(k):
            raw = np.multiply.outer(x, raw)
        np.testing.assert_allclose(sym_mult(u, n, m, x, k), symmetrize(raw),
                                   rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_contract(self, n, m, k):
        rng = np.random.default_rng(100 * n + 10 * m + k)
        w = rng.normal(size=sym_dim(n, m + k))
        x = rng.normal(size=n)
        full = to_full(w, n, m + k)
        for _ in range(k):
            full = np.tensordot(full, x, axes=([-1], [0]))
        np.testing.assert_allclose(contract(w, n, m + k, x, k), symmetrize(full),
                                   rtol=1e-13, atol=1e-13)


TABLE_OPS = {
    "sym_mult": lambda x, k: sym_mult(np.ones(3), 2, 2, x, k),
    "contract": lambda x, k: contract(np.ones(3), 2, 2, x, k),
    "sym_mult_matrix": lambda x, k: sym_mult_power(2, 2, k, x),
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

    @pytest.mark.parametrize("call", [
        lambda: mult_weights(2, -1),
        lambda: xi_power_weights(2, -1, np.array([0.6, 0.8])),
        lambda: sym_mult_matrix(2, -1, np.array([0.6, 0.8])),
        lambda: symmetric_products(2, -1, np.eye(2)),
    ], ids=["mult_weights", "xi_power_weights", "sym_mult_matrix", "symmetric_products"])
    def test_negative_rank_named(self, call):
        with pytest.raises(ValueError, match="rank must be non-negative, got m=-1"):
            call()

    @pytest.mark.parametrize("x", [np.ones(3), np.ones((2, 2))])
    def test_wrong_shape_rejected(self, x):
        with pytest.raises(ValueError, match="x must have shape"):
            sym_mult(np.ones(2), 2, 1, x, 1)
        with pytest.raises(ValueError, match="x must have shape"):
            contract(np.ones(2), 2, 1, x, 1)


class TestEvalPower:
    """<f, xi^(x)m>: xi_power_weights paired with the packed coefficients of f."""

    def test_diagonal(self):
        f = np.array([1.0, 0.0, 0.0])                # f_00 = 1
        assert xi_power_weights(2, 2, np.array([0.6, 0.8])) @ f == pytest.approx(0.36)

    def test_multiplicity_two(self):
        f = np.array([0.0, 1.0, 0.0])                # f_01 = f_10 = 1
        assert xi_power_weights(2, 2, np.array([0.6, 0.8])) @ f == pytest.approx(0.96)

    def test_scalar_rank(self):
        assert xi_power_weights(3, 0, np.ones(3)) @ np.array([4.2]) == pytest.approx(4.2)

    def test_equals_full_contraction(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=10)
        xi = rng.normal(size=3)
        got = xi_power_weights(3, 3, xi) @ f
        want = contract(f, 3, 3, xi, 3)[0]
        assert got == pytest.approx(want, rel=1e-12)
        full = np.einsum("ijk,i,j,k->", to_full(f, 3, 3), xi, xi, xi)
        assert got == pytest.approx(full, rel=1e-12)


class TestPackedStorage:
    def test_full_round_trip(self):
        rng = np.random.default_rng(5)
        for n, m in [(2, 2), (3, 3), (2, 4)]:
            t = rng.normal(size=sym_dim(n, m))
            np.testing.assert_allclose(symmetrize(to_full(t, n, m)), t)

    def test_permuted_lookup(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=10)
        full = to_full(t, 3, 3)
        for p, alpha in enumerate(multi_indices(3, 3)):
            for perm in itertools.permutations(alpha):
                assert full[perm] == t[p]

    def test_inner_product_matches_full(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        full = (to_full(a, 3, 2) * to_full(b, 3, 2)).sum()
        assert sym_inner(a, b, 3, 2) == pytest.approx(full, rel=1e-12)

    def test_json_round_trip(self):
        # component keys are the multi-index in 1-based axis labels
        f = GaussPolyField.from_components(2, 2, 1.0, {(0, 0): {(0, 0): 1.0},
                                                       (1, 0): {(1, 0): 0.5}})
        text = f.to_json()
        assert '"11"' in text and '"12"' in text
        back = GaussPolyField.from_json(text)
        assert np.array_equal(back.exps, f.exps) and np.array_equal(back.coef, f.coef)

    def test_json_rejects_complex_coefficients(self):
        assert _json_real(1.0 + 0j) == 1.0
        with pytest.raises(ValueError, match="not real"):
            _json_real(2.0 - 0.5j)

    @pytest.mark.parametrize("read, key", [
        (lambda: json_keys(json.loads('{"n": 2, "coeffs": {}}'),
                           {"n": int, "m": int, "coeffs": dict}, "JSON"),
         "'m'"),
        (lambda: json_index("13", 2, 2, "JSON"), "'13'"),
        (lambda: json_index("1", 2, 2, "JSON"), "'1'"),
        (lambda: json_index("1x", 2, 2, "JSON"), "'1x'"),
        (lambda: json_index("\u06612", 2, 2, "JSON"), "'\u06612'"),
    ], ids=["missing-m", "axis-beyond-n", "key-length", "not-a-digit", "non-ascii-digit"])
    def test_json_bad_key_named(self, read, key):
        with pytest.raises(ValueError, match=key):
            read()


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
