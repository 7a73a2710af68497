import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from numpy.polynomial.hermite import hermval

import raymoments
from raymoments.fields import (
    GaussPolyField,
    GridField,
    GridSpec,
    apply_symbol,
    d_symbol,
    delta_symbol,
    random_field,
)
from raymoments.symtensor import multi_indices, mult_weights, sym_dim, sym_mult_matrix

from references import (
    comps,
    contract_power,
    field_from_comps,
    grid_norm_full_array,
    grid_operator,
    half_norm_full_array,
    poly_dtype,
    poly_eval,
    scalar_field,
    sym_mult_power,
    symmetrize,
    zero_field,
)


def comps_scan_radius(f, cutoff):
    """effective_radius with its bound and degree scanned from the dict components."""
    bound = max(sum(abs(c) for c in p.values()) for p in comps(f)) or 1.0
    deg = max(max((sum(e) for e in p), default=0) for p in comps(f))
    r = 1.0
    while bound * max(r, 1.0) ** deg * math.exp(-f.a * r * r) >= cutoff:
        r *= 1.25
    return r


def term_by_term_sample(f, spec):
    """GaussPolyField.sample's grid data, its coefficient tensor filled per dict term."""
    cs = comps(f)
    deg = max((max(e) for p in cs for e in p), default=0)
    data = np.zeros((len(cs),) + (deg + 1,) * f.n, poly_dtype(*cs))
    for col, p in enumerate(cs):
        for e, c in p.items():
            data[(col,) + e] = c
    x = spec.axes()[0]
    table = np.exp(-f.a * x * x) * x ** np.arange(deg + 1)[:, None]
    for _ in range(f.n):
        data = np.tensordot(data, table, axes=([1], [0]))
    return data


def packing_cases(rng):
    """Dense, sparse, zero and complex fields, n in {2, 3}, m <= 3, degree <= 3."""
    for n in (2, 3):
        for m in range(4):
            for degree in range(4):
                yield random_field(n, m, rng, a=rng.uniform(0.1, 2.5), degree=degree)
        yield random_field(n, 1, rng).inner_derivative(1)
        yield zero_field(n, 2)
        yield random_field(n, 1, rng).fourier_analytic()


class TestEval:
    def test_unit_at_origin(self):
        f = scalar_field(2)
        assert f.eval_packed(np.zeros(2))[0] == pytest.approx(1.0)

    def test_unit_radius(self):
        f = scalar_field(3)
        x = np.array([1.0, 0.0, 0.0])
        assert f.eval_packed(x)[0] == pytest.approx(math.exp(-1.0))

    def test_far_field_decay(self):
        rng = np.random.default_rng(0)
        f = random_field(2, 1, rng)
        x = np.array([10.0, 0.0])
        assert np.abs(f.eval_packed(x)).max() < 1e-40

    def test_eval_packed_broadcasts(self):
        rng = np.random.default_rng(1)
        f = random_field(2, 2, rng)
        pts = rng.normal(size=(4, 5, 2))
        out = f.eval_packed(pts)
        assert out.shape == (4, 5, sym_dim(2, 2))
        np.testing.assert_allclose(out[1, 2], f.eval_packed(pts[1, 2]))

    @pytest.mark.parametrize("kind", ["real", "fourier"])
    def test_eval_packed_matches_term_by_term(self, kind):
        # the packed power table sums the terms in another order than the
        # dict polynomials, so the values agree to rounding; dtypes exactly
        rng = np.random.default_rng(2)
        f = random_field(3, 2, rng)
        if kind == "fourier":
            f = f.fourier_analytic()
        pts = rng.normal(size=(7, 6, 3))
        env = np.exp(-f.a * (pts ** 2).sum(axis=-1))
        want = np.stack([poly_eval(p, pts) * env for p in comps(f)], axis=-1)
        got = f.eval_packed(pts)
        assert got.dtype == want.dtype == (complex if kind == "fourier" else float)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestInnerDerivative:
    def test_scalar_gradient(self):
        f = scalar_field(2)
        g = f.inner_derivative()
        x = np.array([0.4, -1.1])
        expect = -2.0 * x * math.exp(-(x @ x))
        np.testing.assert_allclose(g.eval_packed(x), expect, atol=1e-14)

    def test_order_zero_identity(self):
        f = scalar_field(2)
        assert f.inner_derivative(0) is f

    def test_second_derivative_is_symmetrized_hessian(self):
        # u = x1 x2 e^{-|x|^2}; compare d^2 u against a finite-difference Hessian
        u = scalar_field(2, 1.0, {(1, 1): 1.0})
        d2 = u.inner_derivative(2)
        x = np.array([0.3, -0.2])
        h = 1e-4

        def val(p):
            return u.eval_packed(p)[0]

        for (i, j) in [(0, 0), (0, 1), (1, 1)]:
            ei = np.eye(2)[i] * h
            ej = np.eye(2)[j] * h
            fd = (val(x + ei + ej) - val(x + ei - ej)
                  - val(x - ei + ej) + val(x - ei - ej)) / (4 * h * h)
            got = d2.eval_packed(x)[multi_indices(2, 2).index((i, j))]
            assert got == pytest.approx(fd, abs=1e-6)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            scalar_field(2).inner_derivative(-1)
        with pytest.raises(ValueError):
            d_symbol(2, 1, -1)


class TestDivergence:
    def test_gradient_divergence_is_laplacian(self):
        w = scalar_field(2)
        lap = w.inner_derivative().divergence()
        x = np.array([0.7, -0.4])
        expect = (4.0 * (x @ x) - 4.0) * math.exp(-(x @ x))
        assert lap.eval_packed(x)[0] == pytest.approx(expect, rel=1e-12)

    def test_order_zero_identity(self):
        f = scalar_field(2)
        assert f.divergence(0) is f

    def test_delta_of_d_on_random_scalars(self):
        rng = np.random.default_rng(2)
        u = random_field(3, 0, rng, degree=2)
        lap = u.inner_derivative().divergence()
        h = 1e-4
        for _ in range(5):
            x = rng.normal(size=3)
            fd = 0.0
            for j in range(3):
                e = np.eye(3)[j] * h
                fd += (u.eval_packed(x + e)[0] - 2 * u.eval_packed(x)[0]
                       + u.eval_packed(x - e)[0]) / (h * h)
            assert lap.eval_packed(x)[0] == pytest.approx(fd, abs=1e-5)

    def test_excess_order_rejected(self):
        with pytest.raises(ValueError):
            scalar_field(2).divergence(1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            random_field(2, 1, np.random.default_rng(13)).divergence(-1)
        with pytest.raises(ValueError):
            delta_symbol(2, 1, -1)


def gauss_poly_partial(poly, a, x, e):
    """d^e (p(x) e^{-a|x|^2}) at the point x, by the Leibniz rule.

    The Gaussian factor's partials are Hermite polynomials,
    d^g e^{-a t^2} = (-sqrt(a))^g H_g(sqrt(a) t) e^{-a t^2}, so this
    reference shares no code with GaussPolyField.
    """
    ra = math.sqrt(a)
    total = 0.0
    for beta in itertools.product(*(range(ej + 1) for ej in e)):
        dp = sum(c * math.prod(math.perm(pj, bj) * xj ** (pj - bj)
                               for pj, bj, xj in zip(pe, beta, x))
                 for pe, c in poly.items() if all(pj >= bj for pj, bj in zip(pe, beta)))
        dg = math.prod((-ra) ** (ej - bj) * hermval(ra * xj, [0] * (ej - bj) + [1])
                       * math.exp(-a * xj * xj) for ej, bj, xj in zip(e, beta, x))
        total += math.prod(map(math.comb, e, beta)) * dp * dg
    return total


def full_gradient_table(f, k, x):
    """T[i_1..i_m, j_1..j_k] = d_{j_1}..d_{j_k} f_{i_1..i_m} at x, unsymmetrized."""
    n, m = f.n, f.m
    packed = {alpha: p for p, alpha in enumerate(multi_indices(n, m))}
    cs = comps(f)
    table = np.empty((n,) * (m + k))
    for index in itertools.product(range(n), repeat=m + k):
        e = tuple(index[m:].count(j) for j in range(n))
        table[index] = gauss_poly_partial(cs[packed[tuple(sorted(index[:m]))]], f.a, x, e)
    return table


class TestFullTableReference:
    """d^k and delta^k of GaussPolyField against brute-force full tables."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inner_derivative_is_symmetrized_gradient(self, n, m, k):
        rng = np.random.default_rng(100 * n + 10 * m + k)
        f = random_field(n, m, rng, a=0.7, degree=2)
        dk = f.inner_derivative(k)
        for x in rng.uniform(-1.0, 1.0, size=(2, n)):
            want = symmetrize(full_gradient_table(f, k, x))
            np.testing.assert_allclose(dk.eval_packed(x), want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_divergence_is_traced_gradient(self, n, m, k):
        rng = np.random.default_rng(100 * n + 10 * m + k)
        f = random_field(n, m, rng, a=0.7, degree=2)
        dk = f.divergence(k)
        letters = "abcdef"
        free, traced = letters[:m - k], letters[m - k:m]
        trace = f"{free}{traced}{traced}->{free}"
        for x in rng.uniform(-1.0, 1.0, size=(2, n)):
            want = symmetrize(np.einsum(trace, full_gradient_table(f, k, x)))
            np.testing.assert_allclose(dk.eval_packed(x), want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())


class TestFourier:
    def test_self_dual_gaussian(self):
        f = scalar_field(1, 0.5)
        fhat = f.fourier_analytic()
        assert fhat.a == pytest.approx(0.5)
        y = np.array([0.8])
        assert fhat.eval_packed(y)[0] == pytest.approx(math.exp(-0.32), rel=1e-12)

    def test_coordinate_factor_rule(self):
        # F[x1 e^{-a|x|^2}] = -i y1/(2a) (2a)^{-n/2} e^{-|y|^2/4a}
        a = 1.3
        f = scalar_field(2, a, {(1, 0): 1.0})
        fhat = f.fourier_analytic()
        y = np.array([0.5, -0.7])
        base = (2 * a) ** -1.0 * math.exp(-(y @ y) / (4 * a))
        got = fhat.eval_packed(y)[0]
        assert got == pytest.approx(-1j * y[0] / (2 * a) * base, rel=1e-12)

    def test_against_discrete_transform(self):
        rng = np.random.default_rng(3)
        f = random_field(2, 0, rng, degree=2)
        fhat = f.fourier_analytic()
        ax = np.linspace(-8, 8, 256, endpoint=False)
        dx = ax[1] - ax[0]
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        vals = f.eval_packed(np.stack([X, Y], axis=-1))[..., 0]
        for y in [np.array([0.7, -0.3]), np.array([1.4, 0.2])]:
            phase = np.exp(-1j * (X * y[0] + Y * y[1]))
            numeric = (vals * phase).sum() * dx * dx / (2 * np.pi)
            exact = fhat.eval_packed(y)[0]
            assert abs(numeric - exact) / abs(exact) < 1e-6

    def test_symbol_law(self):
        # fourier(d v) = i * i_y fourier(v) at random frequency points
        rng = np.random.default_rng(4)
        v = random_field(3, 1, rng, degree=1)
        lhs = v.inner_derivative().fourier_analytic()
        vhat = v.fourier_analytic()
        for _ in range(5):
            y = rng.normal(size=3)
            want = 1j * sym_mult_matrix(3, 1, y) @ vhat.eval_packed(y)
            np.testing.assert_allclose(lhs.eval_packed(y), want, atol=1e-10)

    def test_family_closure(self):
        rng = np.random.default_rng(5)
        f = random_field(2, 1, rng)
        for g in (f.inner_derivative(), f.divergence(), f.fourier_analytic()):
            assert isinstance(g, GaussPolyField)


class TestAdjointness:
    def test_d_and_delta_adjoint_up_to_sign(self):
        # <d u, w>_{L2,sym} = -<u, delta w>_{L2,sym} by grid quadrature
        rng = np.random.default_rng(6)
        u = random_field(2, 1, rng, degree=1)
        w = random_field(2, 2, rng, degree=1)
        spec = GridSpec(2, 128, 8.0)
        du = u.inner_derivative().sample(spec)
        dw = w.divergence().sample(spec)
        ug, wg = u.sample(spec), w.sample(spec)
        vol = spec.spacing ** 2
        w2 = mult_weights(2, 2).reshape(-1, 1, 1)
        w1 = mult_weights(2, 1).reshape(-1, 1, 1)
        lhs = float((w2 * du.data * wg.data).sum() * vol)
        rhs = -float((w1 * ug.data * dw.data).sum() * vol)
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestSampling:
    def test_boundary_decay(self):
        f = scalar_field(2)
        g = f.sample(GridSpec(2, 64, 6.0))
        assert g.boundary_max() < 1e-15

    def test_zero_field(self):
        f = zero_field(2, 1)
        g = f.sample(GridSpec(2, 16, 4.0))
        assert np.all(g.data == 0.0)

    def test_node_values_exact(self):
        rng = np.random.default_rng(7)
        f = random_field(2, 1, rng)
        spec = GridSpec(2, 32, 6.0)
        g = f.sample(spec)
        ax = spec.axes()[0]
        x = np.array([ax[5], ax[20]])
        np.testing.assert_allclose(g.data[:, 5, 20], f.eval_packed(x))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [9, 10])
    def test_matches_eval_packed_on_mesh(self, n, count):
        rng = np.random.default_rng(30 + n + count)
        spec = GridSpec(n, count, 4.0)
        mesh = np.stack(np.meshgrid(*spec.axes(), indexing="ij"), axis=-1)
        for m in range(4):
            for degree in range(4):
                for a in (2.5, 0.1):
                    f = random_field(n, m, rng, a=a, degree=degree)
                    g = f.sample(spec)
                    want = np.moveaxis(f.eval_packed(mesh), -1, 0)
                    scale = np.abs(want).max()
                    assert np.abs(g.data - want).max() <= 1e-14 * scale

    def test_nan_coefficient_raises(self):
        # rejected when the field is built, before any sampling or transform
        with pytest.raises(ValueError, match="finite"):
            scalar_field(2, poly={(0, 0): 1.0, (1, 2): float("nan")})
        for bad in (math.inf, complex(1.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                GaussPolyField(2, 0, 1.0, np.array([[0, 0]]), np.array([[bad]]))

    def test_overflowing_extent_raises(self):
        # x^2 overflows at 1e200 and 0 * inf is nan: named, not sampled
        f = random_field(2, 1, np.random.default_rng(14))
        with pytest.raises(ValueError, match="extent"):
            f.sample(GridSpec(2, 8, 1e200))


class TestPackedForm:
    def test_layout(self):
        for f in packing_cases(np.random.default_rng(40)):
            cs = comps(f)
            rows = [tuple(e) for e in f.exps.tolist()]
            assert rows == sorted({e for p in cs for e in p})
            assert f.exps.shape == (len(rows), f.n) and f.exps.dtype.kind == "i"
            assert f.coef.shape == (len(rows), sym_dim(f.n, f.m))
            assert f.coef.dtype == poly_dtype(*cs)
            for t, e in enumerate(rows):
                assert f.coef[t].tolist() == [p.get(e, 0.0) for p in cs]
            assert f.degree == max(map(sum, rows), default=0)
            assert not f.exps.flags.writeable and not f.coef.flags.writeable

    def test_construction_sums_drops_and_sorts(self):
        exps = np.array([(1, 0), (0, 2), (1, 0), (0, 0), (2, 1)])
        coef = np.array([(1, 2), (4, 0), (3, -2), (0, 0), (0, 5)])
        f = GaussPolyField(2, 1, 1.0, exps, coef)
        assert f.exps.tolist() == [[0, 2], [1, 0], [2, 1]]
        assert f.coef.tolist() == [[4.0, 0.0], [4.0, 0.0], [0.0, 5.0]]
        assert f.coef.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            f.coef[0, 0] = 1.0
        g = field_from_comps(2, 1, 1.0, {(0,): {(1, 0): 1.0}, (1,): {(1, 0): 2.0}})
        assert g.exps.tolist() == [[1, 0]] and g.coef.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("exps, coef, match", [
        ([(1, -1)], [(1.0, 0.0)], "exps must be non-negative integers"),
        ([(1, 0, 0)], [(1.0, 0.0)], "exps must be non-negative integers"),
        ([(0.5, 0.0)], [(1.0, 0.0)], "exps must be non-negative integers"),
        ([(1, 0)], [(1.0, 0.0, 2.0)], "coef shape"),
        ([(1, 0)], [1.0, 0.0], "coef shape"),
    ], ids=["negative", "exps-width", "exps-float", "coef-width", "coef-flat"])
    def test_bad_arrays_rejected(self, exps, coef, match):
        with pytest.raises(ValueError, match=match):
            GaussPolyField(2, 1, 1.0, np.array(exps), np.array(coef))

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
    def test_bad_width_rejected(self, a):
        # a NaN width would pass a plain a <= 0 test and sample NaN everywhere
        with pytest.raises(ValueError, match="positive and finite"):
            scalar_field(2, a)

    @pytest.mark.parametrize("other", [(3, 1, 1.0), (2, 2, 1.0), (2, 1, 0.5)],
                             ids=["n", "m", "a"])
    def test_incompatible_sum_rejected(self, other):
        f = random_field(2, 1, np.random.default_rng(43))
        with pytest.raises(ValueError, match="not compatible"):
            f + random_field(*other[:2], np.random.default_rng(44), a=other[2])

    def test_very_wide_field_rejected(self):
        # the support radius search gives up at 1e4 and names the width
        f = scalar_field(2, 1e-9)
        with pytest.raises(ValueError, match="width a = 1e-09"):
            f.effective_radius()

    def test_effective_radius_matches_comps_scan(self):
        for f in packing_cases(np.random.default_rng(41)):
            for cutoff in (1e-12, 1e-10):
                assert f.effective_radius(cutoff) == comps_scan_radius(f, cutoff)

    @pytest.mark.parametrize("n, count", [(2, 33), (2, 16), (3, 9), (3, 10)])
    def test_sample_matches_term_by_term_fill(self, n, count):
        spec = GridSpec(n, count, 8.0)
        for f in packing_cases(np.random.default_rng(42 + n + count)):
            if f.n == n and f.coef.dtype == float:
                assert np.array_equal(f.sample(spec).data, term_by_term_sample(f, spec))


class TestApplySymbol:
    """apply_symbol with d_symbol/delta_symbol against the dense references at one frequency."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_dense_reference(self, n, m):
        # at the real y the symbols are i_{y^(k)} = (i_y)^k and its weighted
        # adjoint; at i y, the grid's form, d^k gains the factor i^k
        rng = np.random.default_rng(60 + 10 * n + m)
        for k in range(4):
            y = rng.normal(size=n)
            u = rng.normal(size=sym_dim(n, m)) + 1j * rng.normal(size=sym_dim(n, m))
            A = sym_mult_power(n, m, k, y)
            got = apply_symbol(u, sym_dim(n, m + k), d_symbol(n, m, k), y.tolist())
            assert np.abs(got - A @ u).max() <= 1e-14 * np.abs(A @ u).max()
            got = apply_symbol(u, sym_dim(n, m + k), d_symbol(n, m, k), list(1j * y))
            assert np.abs(got - 1j ** k * (A @ u)).max() <= 1e-14 * np.abs(A @ u).max()
            if k <= m:
                J = contract_power(n, m, k, y)
                got = apply_symbol(u, sym_dim(n, m - k), delta_symbol(n, m, k), y.tolist())
                assert np.abs(got - J @ u).max() <= 1e-14 * np.abs(J @ u).max()


class TestGridField:
    def test_dimension_read_from_spec(self, tmp_path):
        # 2-D data on a 3-D grid would take the 3-D cell volume in power_norm and
        # come back from dump/load on a 2-D grid
        spec = GridSpec(3, 8, 1.0)
        with pytest.raises(ValueError, match="data shape"):
            GridField(1, spec, np.zeros((2, 8, 8)))
        u = GridField(1, spec, np.arange(3 * 8 ** 3, dtype=float).reshape(3, 8, 8, 8))
        assert u.n == 3
        u.dump(str(tmp_path / "grid"))
        back = GridField.load(str(tmp_path / "grid"))
        assert back.spec == spec and back.n == 3 and np.array_equal(back.data, u.data)

    def test_spectral_derivative_matches_analytic(self):
        rng = np.random.default_rng(8)
        f = random_field(2, 1, rng, degree=1)
        spec = GridSpec(2, 128, 8.0)
        for order in (1, 2):
            got = grid_operator(f.sample(spec), 1 + order, d_symbol(2, 1, order))
            want = f.inner_derivative(order).sample(spec)
            scale = np.abs(want.data).max()
            assert np.abs(got.data - want.data).max() < 1e-8 * scale

    def test_spectral_divergence_matches_analytic(self):
        rng = np.random.default_rng(9)
        f = random_field(2, 2, rng, degree=1)
        spec = GridSpec(2, 128, 8.0)
        for order in (1, 2):
            got = grid_operator(f.sample(spec), 2 - order, delta_symbol(2, 2, order))
            want = f.divergence(order).sample(spec)
            scale = np.abs(want.data).max()
            assert np.abs(got.data - want.data).max() < 1e-8 * scale

    @pytest.mark.parametrize("extent", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_extent_rejected(self, extent):
        # a NaN extent gives NaN spacing, and every norm and residual is NaN
        with pytest.raises(ValueError, match="extent"):
            GridSpec(2, 8, extent)

    @pytest.mark.parametrize("n, count, message", [
        (0, 8, "dimension"), (-1, 8, "dimension"), (2.0, 8, "dimension"), (True, 8, "dimension"),
        (2, 8.0, "node count"), (2, 3, "node count"), (2, np.int64(3), "node count"),
    ])
    def test_bad_dimension_or_count_rejected(self, n, count, message):
        with pytest.raises(ValueError, match=message):
            GridSpec(n, count, 1.0)
        assert GridSpec(np.int64(2), np.int64(4), 1.0) == GridSpec(2, 4, 1.0)

    def test_load_names_a_truncated_file(self, tmp_path):
        prefix = str(tmp_path / "grid")
        GridField(1, GridSpec(2, 16, 4.0), np.zeros((2, 16, 16))).dump(prefix)
        np.zeros(12).tofile(prefix + ".bin")
        with pytest.raises(ValueError, match=f"{prefix}.bin holds 12 values.*needs 512"):
            GridField.load(prefix)

    def test_complex_data_rejected(self):
        spec = GridSpec(2, 8, 4.0)
        with pytest.raises(ValueError, match="real"):
            GridField(1, spec, np.zeros((2, 8, 8), dtype=complex))
        f = random_field(2, 1, np.random.default_rng(13)).fourier_analytic()
        with pytest.raises(ValueError, match="real"):
            f.sample(spec)

    def test_dump_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        f = random_field(2, 1, rng).sample(GridSpec(2, 16, 4.0))
        f.dump(str(tmp_path / "grid"))
        back = GridField.load(str(tmp_path / "grid"))
        np.testing.assert_array_equal(back.data, f.data)
        assert back.spec == f.spec

    def test_norm_includes_multiplicity(self):
        # by Parseval, the half-spectrum norm of a single node value
        spec = GridSpec(2, 8, 1.0)
        data = np.zeros((3,) + (8, 8))
        data[1, 0, 0] = 1.0          # off-diagonal slot, multiplicity 2
        norm = spec.power_norm(spec.half_power(spec.rfftn(data), 2))
        assert norm == pytest.approx(math.sqrt(2.0) * spec.spacing)


class TestGridTransform:
    """The rfftn/irfftn pair against numpy's, and the half-spectrum norm against full-array sums."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [32, 33])
    def test_pair_matches_numpy(self, n, count):
        spec = GridSpec(n, count, 6.0)
        data = np.random.default_rng(30 + n).normal(size=(2,) + (count,) * n)
        axes = tuple(range(-n, 0))
        want = np.fft.rfftn(data, axes=axes)
        got = spec.rfftn(data)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        back = spec.irfftn(got)
        want_back = np.fft.irfftn(want, s=(count,) * n, axes=axes)
        assert back.flags.c_contiguous
        assert np.abs(back - want_back).max() <= 1e-15 * np.abs(want_back).max()
        # repeatable, and independent of the number of worker threads
        assert np.array_equal(spec.rfftn(data), got)
        assert np.array_equal(spec.irfftn(got), back)
        assert np.array_equal(scipy.fft.rfftn(data, axes=axes, workers=1), got)
        assert np.array_equal(scipy.fft.irfftn(got, s=(count,) * n, axes=axes, workers=1), back)

    @pytest.mark.parametrize("n, m, count", [(1, 2, 16), (2, 2, 33), (3, 3, 16), (3, 1, 17)])
    def test_norms_match_full_array(self, n, m, count):
        spec = GridSpec(n, count, 6.0)
        data = np.random.default_rng(40 + count).normal(size=(sym_dim(n, m),) + (count,) * n)
        hats = spec.rfftn(data)
        half_norm = spec.power_norm(spec.half_power(hats, m))
        assert half_norm == pytest.approx(half_norm_full_array(spec, hats, m), rel=1e-14)
        # Parseval: the real-space norm is the same quantity
        assert half_norm == pytest.approx(grid_norm_full_array(GridField(m, spec, data)), rel=1e-12)

    def test_half_norm_streams_components(self):
        spec = GridSpec(3, 32, 6.0)
        hats = spec.rfftn(np.random.default_rng(50).normal(size=(10, 32, 32, 32)))
        assert hats.shape == (10, 32, 32, 17)
        tracemalloc.start()
        try:
            spec.half_power(hats, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * hats[0].nbytes

    def test_import_leaves_scipy_fft_unloaded(self):
        code = ("import sys, raymoments; "
                "sys.exit('scipy.fft' in sys.modules or 'concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(raymoments.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestFieldJson:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        f = random_field(2, 1, rng, degree=1)
        back = GaussPolyField.from_json(f.to_json())
        x = rng.normal(size=2)
        np.testing.assert_allclose(back.eval_packed(x), f.eval_packed(x))

    def test_malformed_json_names_key(self):
        with pytest.raises(ValueError, match="missing key 'a'"):
            GaussPolyField.from_json(json.dumps(
                {"n": 2, "m": 0, "components": {"": []}}))
        with pytest.raises(ValueError, match="bad component key '13'"):
            GaussPolyField.from_json(json.dumps(
                {"n": 2, "m": 2, "a": 1.0,
                 "components": {"13": [{"c": 1.0, "pow": [0, 0]}]}}))
        # a negative power is not a polynomial term
        with pytest.raises(ValueError, match="bad term in component '12'"):
            GaussPolyField.from_json(json.dumps(
                {"n": 2, "m": 2, "a": 1.0,
                 "components": {"12": [{"c": 1.0, "pow": [1, -1]}]}}))
        # one symmetric component under two key orders would be read as a sum
        with pytest.raises(ValueError, match="components '21' and '12' are one symmetric"):
            GaussPolyField.from_json(json.dumps(
                {"n": 2, "m": 2, "a": 1.0, "components": {
                    "21": [{"c": 1.0, "pow": [0, 0]}], "12": [{"c": 1.0, "pow": [0, 0]}]}}))

    def test_unparseable_text(self):
        with pytest.raises(ValueError, match="malformed field JSON"):
            GaussPolyField.from_json("{not json")

    def test_complex_coefficients_rejected(self):
        # writing only the real part would silently change the field
        fhat = random_field(2, 1, np.random.default_rng(14), degree=1).fourier_analytic()
        with pytest.raises(ValueError, match="not real"):
            fhat.to_json()
