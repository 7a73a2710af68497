import itertools
import math

import numpy as np
import pytest

from raymoments.fields import random_field
from raymoments.john import (
    chi_build,
    homogeneity_residual,
    psi_from_phi,
    range_test,
    transport_identity_residual,
)
from raymoments.john import (
    _PARITY_TOL,
    _john_table,
    _john_tuples,
    _order,
    _orders_pass,
    _phase_point,
)
from raymoments.ray import (
    apply_stencil,
    batch_transform,
    moment_oracle,
    oracle_moment_callables,
    poly_add,
    restricted_transform,
)

from references import component_field, john_residuals_per_table, mixed_central, poly_eval


def poly_diff(p, axis):
    """The partial derivative of the dict polynomial p along ``axis``."""
    out = {}
    for e, c in p.items():
        if e[axis] > 0:
            e2 = e[:axis] + (e[axis] - 1,) + e[axis + 1:]
            out[e2] = out.get(e2, 0.0) + c * e[axis]
    return out


def john_pair(psi, i, j, h):
    """J_ij psi as an (x, xi) callable: the one-pair table that range_test composes."""
    return lambda x, xi: (apply_stencil(psi, [_john_table(((i, j),), np.size(x))], x, xi, h)[0]
                          / (2 * h) ** 2)


def ladder_field(n, m, depth, rng, a=1.0):
    """f = sum_s d^s g_s with correction fields of ranks m, m-1, ..."""
    gs = [random_field(n, m - s, rng, a=a, degree=1) for s in range(depth + 1)]
    f = gs[0]
    for s in range(1, depth + 1):
        f = f + gs[s].inner_derivative(s)
    return f, gs


def phase_points(n, rng, count=3):
    pts = []
    for _ in range(count):
        x = rng.uniform(-1.0, 1.0, size=n)
        xi = rng.normal(size=n)
        xi /= np.linalg.norm(xi)
        pts.append((x, xi))
    return pts


class TestJohnApply:
    # J_ij as the one-pair stencil table of _john_table, which range_test composes
    def test_inner_product_annihilated(self):
        psi = lambda x, xi: float(np.dot(x, xi))
        out = john_pair(psi, 0, 1, 0.1)
        x, xi = np.array([0.3, -0.7]), np.array([1.1, 0.4])
        assert out(x, xi) == pytest.approx(0.0, abs=1e-13)

    def test_monomial_example(self):
        psi = lambda x, xi: x[1] * xi[2]
        x, xi = np.array([0.2, 0.5, -0.3]), np.array([0.9, -0.1, 0.6])
        assert john_pair(psi, 1, 2, 0.05)(x, xi) == pytest.approx(1.0)
        assert john_pair(psi, 2, 1, 0.05)(x, xi) == pytest.approx(-1.0)

    def test_diagonal_is_exact_zero(self):
        psi = lambda x, xi: math.sin(x[0]) * xi[1] ** 2
        assert john_pair(psi, 1, 1, 0.1)(np.ones(2), np.ones(2)) == 0.0

    def test_antisymmetry(self):
        psi = lambda x, xi: math.sin(x[0] * xi[1]) + x[1] ** 3
        x, xi = np.array([0.4, -0.2]), np.array([0.7, 1.3])
        a = john_pair(psi, 0, 1, 0.02)(x, xi)
        b = john_pair(psi, 1, 0, 0.02)(x, xi)
        assert a == pytest.approx(-b, rel=1e-12)

    def test_second_order_convergence(self):
        psi = lambda x, xi: math.sin(x[0]) * math.cos(xi[1])
        x, xi = np.array([0.3, 0.8]), np.array([1.0, 0.5])
        exact = -math.cos(x[0]) * math.sin(xi[1])
        e1 = abs(john_pair(psi, 0, 1, 0.04)(x, xi) - exact)
        e2 = abs(john_pair(psi, 0, 1, 0.02)(x, xi) - exact)
        assert 3.5 < e1 / e2 < 4.5

    def test_step_validation(self):
        for h in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="step size must be positive and finite"):
                john_pair(lambda x, xi: 0.0, 0, 1, h)(np.ones(2), np.ones(2))


class TestJohnTable:
    # psi has degree <= 2 in every phase variable, where central differences
    # are exact: the composed table, nested mixed differences and the analytic
    # operator must then agree to rounding
    CASES = [
        (2, ((0, 1),) * 3,
         {(2, 1, 1, 2): 0.7, (1, 2, 2, 1): -1.3, (2, 2, 1, 1): 0.4,
          (1, 1, 2, 2): 2.1, (0, 1, 1, 0): 1.0}),
        (3, ((0, 1), (1, 2), (2, 0)),
         {(2, 1, 0, 1, 1, 2): 0.9, (1, 2, 1, 0, 2, 1): -0.6,
          (1, 1, 2, 2, 1, 1): 1.7, (0, 2, 1, 1, 0, 2): 0.3}),
    ]

    @staticmethod
    def analytic(poly, pairs, n):
        for i, j in pairs:
            poly = poly_add(poly_diff(poly_diff(poly, i), n + j),
                            poly_diff(poly_diff(poly, j), n + i), -1.0)
        return poly

    @pytest.mark.parametrize("n, pairs, poly", CASES)
    def test_composed_matches_nested(self, n, pairs, poly):
        psi = lambda x, xi: poly_eval(poly, np.concatenate([x, xi]))
        x, xi = np.linspace(-0.7, 0.8, n), np.linspace(1.1, -0.4, n)
        h = 0.1
        nested = psi
        for i, j in pairs:
            nested = (lambda x, xi, f=nested, i=i, j=j: mixed_central(f, x, xi, (i,), (j,), h)
                      - mixed_central(f, x, xi, (j,), (i,), h))
        want = poly_eval(self.analytic(poly, pairs, n), np.concatenate([x, xi]))
        [got] = apply_stencil(psi, [_john_table(pairs, n)], x, xi, h)
        got /= (2 * h) ** 6
        assert abs(want) > 1.0
        assert got == pytest.approx(want, rel=1e-9)
        assert nested(x, xi) == pytest.approx(got, rel=1e-9)

    def test_one_call_per_distinct_point(self):
        seen = []
        psi = lambda x, xi: seen.append((*x, *xi)) or math.exp(x @ xi) * (1.0 + xi[0])
        pairs = ((0, 1),) * 3                  # n, m = 2, 2
        apply_stencil(psi, [_john_table(pairs, 2)], np.array([0.3, -0.2]),
                      np.array([0.9, 0.4]), 0.025)
        assert len(seen) == len(set(seen)) == len(_john_table(pairs, 2)) == 96
        # several tables: one call per offset in their union, and each
        # table's sum the same as when it is applied alone.  The factors
        # commute and J_ji = -J_ij, so reordered tuples share their offsets
        tables = [_john_table(tup, 3) for tup in
                  (((0, 1), (1, 2), (2, 0)), ((2, 0), (1, 0), (1, 2)), ((0, 1), (0, 1), (1, 2)))]
        x, xi = np.array([0.3, -0.2, 0.5]), np.array([0.9, 0.4, -0.1])
        seen.clear()
        sums = apply_stencil(psi, tables, x, xi, 0.025)
        union = set().union(*tables)
        assert len(seen) == len(set(seen)) == len(union) < sum(map(len, tables))
        assert sums == [apply_stencil(psi, [table], x, xi, 0.025)[0] for table in tables]


class TestPsiFromPhi:
    def test_matches_oracle_extension(self):
        rng = np.random.default_rng(0)
        f = random_field(2, 2, rng)
        moments = oracle_moment_callables(f, 2)
        for ell in range(3):
            psi = psi_from_phi(moments, 2, ell)
            for x, xi in phase_points(2, rng):
                xi = xi * 1.3
                want = moment_oracle(f, x, xi, ell)
                assert psi(x, xi) == pytest.approx(want, abs=1e-10)

    def test_restriction_to_lines(self):
        rng = np.random.default_rng(1)
        f = random_field(3, 1, rng, degree=1)
        moments = oracle_moment_callables(f, 0)
        psi = psi_from_phi(moments, 1, 0)
        xi = np.array([0.0, 0.6, 0.8])
        x = np.array([1.0, 0.8, -0.6])      # orthogonal to xi
        assert psi(x, xi) == pytest.approx(moments[0](x, xi))

    def test_homogeneity_degree(self):
        rng = np.random.default_rng(2)
        f = random_field(2, 2, rng)
        moments = oracle_moment_callables(f, 1)
        psi = psi_from_phi(moments, 2, 1)
        x, xi = np.array([0.3, -0.4]), np.array([0.8, 0.6])
        assert homogeneity_residual(psi, 0, x, xi) < 1e-12
        assert homogeneity_residual(psi, 1, x, xi) > 0.1

    def test_returns_python_floats(self):
        # values reach CSVs through repr, which numpy 2 spells np.float64(...)
        f = random_field(3, 2, np.random.default_rng(2))
        moments = [lambda x, xi, c=c: np.float64(c(x, xi))
                   for c in oracle_moment_callables(f, 1)]
        x, xi = np.array([0.3, -0.4, 0.1]), np.array([0.8, 0.6, -0.2])
        psi = psi_from_phi(moments, 2, 1)
        chi = chi_build(psi, [f], 1, 2)
        for fun in (psi, chi, john_pair(psi, 0, 1, 0.05)):
            assert type(fun(x, xi)) is float
        assert type(homogeneity_residual(psi, 0, x, xi)) is float

    @pytest.mark.parametrize("m, k", [(0, 0), (2, 1), (3, 3)])
    def test_order_beyond_data_rejected(self, m, k):
        moments = oracle_moment_callables(random_field(2, m, np.random.default_rng(3)), k)
        with pytest.raises(ValueError, match="not available"):
            psi_from_phi(moments, m, len(moments))
        with pytest.raises(ValueError, match="not available"):
            psi_from_phi(moments, m, -1)
        # the order is checked once; a zero direction, at every call
        with pytest.raises(ValueError, match="nonzero"):
            psi_from_phi(moments, m, 0)(np.ones(2), np.zeros(2))


class TestTransportIdentity:
    def test_oracle_data_machine_level(self):
        rng = np.random.default_rng(3)
        f = random_field(2, 2, rng)
        moments = oracle_moment_callables(f, 1)
        psi1 = psi_from_phi(moments, 2, 1)
        psi0 = psi_from_phi(moments, 2, 0)
        for x, xi in phase_points(2, rng):
            assert transport_identity_residual(psi1, psi0, 1, 1, x, xi, 0.05) < 1e-9

    def test_annihilation_above_k(self):
        rng = np.random.default_rng(4)
        f = random_field(2, 1, rng, degree=1)
        moments = oracle_moment_callables(f, 1)
        psi1 = psi_from_phi(moments, 1, 1)
        for x, xi in phase_points(2, rng):
            assert transport_identity_residual(psi1, None, 1, 2, x, xi, 0.05) < 1e-9

    def test_wrong_lower_detected(self):
        rng = np.random.default_rng(5)
        f = random_field(2, 2, rng)
        moments = oracle_moment_callables(f, 1)
        psi1 = psi_from_phi(moments, 2, 1)
        bad = lambda x, xi: 0.0
        x, xi = np.array([0.5, -0.2]), np.array([1.0, 0.3])
        assert transport_identity_residual(psi1, bad, 1, 1, x, xi, 0.05) > 1e-3


class TestChiBuild:
    def test_equals_transform_of_correction(self):
        rng = np.random.default_rng(6)
        n, m = 2, 2
        f, gs = ladder_field(n, m, 2, rng)
        moments = oracle_moment_callables(f, 2)
        for ell in (1, 2):
            psi = psi_from_phi(moments, m, ell)
            chi = chi_build(psi, gs[:ell], ell, m)
            for x, xi in phase_points(n, rng):
                want = moment_oracle(gs[ell], x, xi, 0)
                assert chi(x, xi) == pytest.approx(want, abs=1e-8)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        f, gs = ladder_field(2, 2, 1, rng)
        moments = oracle_moment_callables(f, 1)
        chi = chi_build(psi_from_phi(moments, 2, 1), gs[:1], 1, 2)
        x, xi = np.array([0.4, -0.6]), np.array([0.8, 0.6])
        for t in (-1.7, 0.9, 2.4):
            assert chi(x + t * xi, xi) == pytest.approx(chi(x, xi), abs=1e-8)

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        n, m, ell = 2, 2, 1
        f, gs = ladder_field(n, m, 1, rng)
        moments = oracle_moment_callables(f, 1)
        chi = chi_build(psi_from_phi(moments, m, ell), gs[:1], ell, m)
        x, xi = np.array([0.3, 0.7]), np.array([0.6, -0.8])
        assert homogeneity_residual(chi, m - ell - 1, x, xi) < 1e-10
        # t < 0: chi(x, t xi) = t^{m-ell} / |t| chi(x, xi)
        want = (-1.0) ** (m - ell) * chi(x, xi)
        assert chi(x, -xi) == pytest.approx(want, abs=1e-10)

    def test_validation(self):
        rng = np.random.default_rng(9)
        f, gs = ladder_field(2, 2, 1, rng)
        psi = psi_from_phi(oracle_moment_callables(f, 1), 2, 1)
        with pytest.raises(ValueError):
            chi_build(psi, [], 1, 2)
        with pytest.raises(ValueError):
            chi_build(psi, [random_field(2, 1, rng, degree=1)], 1, 2)


class TestCapitalPsi:
    def test_no_indices_is_psi0(self):
        rng = np.random.default_rng(10)
        f = random_field(2, 1, rng, degree=1)
        moments = oracle_moment_callables(f, 0)
        psi0 = psi_from_phi(moments, 1, 0)
        x, xi = np.array([0.2, -0.5]), np.array([0.9, 0.1])
        assert restricted_transform([psi0], (), x, xi, h=0.01, m=1) == psi0(x, xi)

    def test_matches_component_transform(self):
        rng = np.random.default_rng(11)
        n, m = 2, 2
        f = random_field(n, m, rng)
        moments = oracle_moment_callables(f, m)
        psis = [psi_from_phi(moments, m, ell) for ell in range(m + 1)]
        for idx in [(0,), (1,), (0, 1), (1, 1)]:
            comp = component_field(f, tuple(sorted(idx)))
            for x, xi in phase_points(n, rng, 2):
                got = restricted_transform(psis[:len(idx) + 1], idx, x, xi, h=1e-3, m=m)
                want = moment_oracle(comp, x, xi, 0)
                scale = max(abs(want), 1e-3)
                assert abs(got - want) / scale < 1e-4

    def test_decomposition_identity(self):
        # Psi_{i_1..i_l} splits into an x-gradient of chi^l plus transform
        # terms of the lower correction fields when the data comes from a
        # ladder f = sum_s d^s g_s; the residual of the two finite-difference
        # realizations converges at second order.
        rng = np.random.default_rng(12)
        n, m = 2, 2
        f, gs = ladder_field(n, m, 2, rng)
        moments = oracle_moment_callables(f, m)
        psis = [psi_from_phi(moments, m, ell) for ell in range(m + 1)]
        pts = phase_points(n, rng, 2)
        steps = (0.05, 0.025)
        for ell in (1, 2):
            chi = chi_build(psis[ell], gs[:ell], ell, m)
            binom = math.comb(m, ell)
            for idx in itertools.combinations_with_replacement(range(n), ell):
                residuals = []
                for h in steps:
                    acc = 0.0
                    for x, xi in pts:
                        lhs = restricted_transform(psis[:ell + 1], idx, x, xi, h=h, m=m)
                        rhs = mixed_central(chi, x, xi, idx, (), h) / binom
                        perms = list(itertools.permutations(idx))
                        for pi in perms:
                            for s in range(ell):
                                comp = component_field(gs[s], tuple(sorted(pi[:ell - s])))
                                term = mixed_central(
                                    lambda a, b, c=comp: moment_oracle(c, a, b, 0),
                                    x, xi, pi[ell - s:], (), h)
                                rhs += (math.comb(m - s, ell - s) * term
                                        / (binom * len(perms)))
                        acc += abs(lhs - rhs)
                    residuals.append(acc)
                order = math.log(residuals[0] / residuals[1]) / math.log(2.0)
                assert residuals[1] < 1e-2
                assert 1.5 < order < 2.5


class TestRangeTest:
    def test_clean_data_passes(self):
        rng = np.random.default_rng(13)
        f = random_field(2, 2, rng)
        data = batch_transform(f, 1, ndirs=8, noffsets=8)
        report = range_test(data, 2, 1,
                            moment_callables=oracle_moment_callables(f, 1),
                            npoints=2, seed=0)
        assert report.parity_pass
        assert report.john_pass
        assert report.transport_pass
        assert report.passed

    def test_corrupted_data_fails_john(self):
        # the failure needs n = 3: the two-dimensional iterated John stencil
        # annihilates this multiplicative corruption as well
        rng = np.random.default_rng(14)
        f = random_field(3, 2, rng)
        clean = oracle_moment_callables(f, 1)
        corrupted = [lambda x, xi, g=clean[0]: g(x, xi) * (1.0 + 0.1 * x[0]),
                     clean[1]]
        good = range_test(None, 2, 1, moment_callables=clean,
                          npoints=2, ntuples=4, seed=0, n=3)
        bad = range_test(None, 2, 1, moment_callables=corrupted,
                         npoints=2, ntuples=4, seed=0, n=3)
        assert good.passed
        assert not bad.john_pass
        assert bad.max_john_residual() > 10.0 * good.max_john_residual()

    def test_zero_residual_has_no_order(self):
        # check-range --n 3 --m 2 --k 2 --seed 3: one transport row is exactly
        # 0.0 at the coarse step, which log(max(r0, 1e-300) / r1) read as -952.8
        f = random_field(3, 2, np.random.default_rng(3))
        data = batch_transform(f, 2, ndirs=16, noffsets=8)
        rep = range_test(data, 2, 2, moment_callables=oracle_moment_callables(f, 2),
                         ntuples=8, seed=3)
        zero = [row for row in rep.transport if 0.0 in row["residuals"]]
        assert zero and all(math.isnan(row["order"]) for row in zero)
        assert all(math.isfinite(row["order"]) for row in rep.transport + rep.john
                   if 0.0 not in row["residuals"])
        assert rep.passed

    @pytest.mark.parametrize("residuals, want", [
        ([4e-3, 1e-3], 2.0), ([0.0, 6.7e-14], math.nan), ([1e-3, 0.0], math.nan),
        ([0.0, 0.0], math.nan)])
    def test_order_of_residual_pair(self, residuals, want):
        got = _order(residuals, (0.025, 0.0125))
        assert got == pytest.approx(want, nan_ok=True)

    def test_zero_coarse_residual_above_floor_fails(self):
        row = {"residuals": [0.0, 1e-3], "order": _order([0.0, 1e-3], (0.025, 0.0125))}
        assert not _orders_pass([row])
        assert _orders_pass([{"residuals": [1e-3, 0.0], "order": math.nan}])

    def test_union_matches_per_table_loop(self):
        # one apply_stencil call per (point, step) over all 16 tables gives
        # the residuals of one call per table, bit for bit
        f = random_field(3, 2, np.random.default_rng(21))
        moments = oracle_moment_callables(f, 1)
        report = range_test(None, 2, 1, moment_callables=moments,
                            npoints=2, ntuples=16, seed=5, n=3)
        rng = np.random.default_rng(5)          # drawn as range_test draws them
        points = [_phase_point(3, rng) for _ in range(2)]
        tuples = _john_tuples(3, 2, rng, 16)
        assert [row["tuple"] for row in report.john] == tuples
        tables = [_john_table(tup, 3) for tup in tuples]
        want = john_residuals_per_table(psi_from_phi(moments, 2, 1), tables, points,
                                        report.steps, 2)
        assert [row["residuals"] for row in report.john] == want

    def test_parity_detects_sign_flip(self):
        rng = np.random.default_rng(15)
        f = random_field(2, 2, rng)
        data = batch_transform(f, 1, ndirs=8, noffsets=8)
        broken = data.values.copy()
        broken[0, 0, :] *= -1.0
        from dataclasses import replace
        bad = replace(data, values=broken)
        report = range_test(bad, 2, 1,
                            moment_callables=oracle_moment_callables(f, 1),
                            npoints=1, seed=0)
        assert not report.parity_pass

    def test_parity_tolerance_does_not_depend_on_callables(self):
        # parity is read from the sampled data, so exact callables for the
        # John tests must not loosen it
        rng = np.random.default_rng(16)
        f = random_field(2, 2, rng)
        data = batch_transform(f, 1, ndirs=16, noffsets=16)
        broken = data.values.copy()
        broken[0, 0, :] *= 1.0 + 1e-9
        from dataclasses import replace
        bad = replace(data, values=broken)
        oracle = range_test(bad, 2, 1, moment_callables=oracle_moment_callables(f, 1),
                            npoints=0, ntuples=1)
        assert 1e-12 < oracle.parity[0] < 1e-8
        assert _PARITY_TOL == 1e-12
        assert not oracle.parity_pass

    @pytest.mark.parametrize("n", [2, 3])
    def test_data_without_callables_rejected(self, n):
        # sampled data supplies parity only; John needs moment callables
        f = random_field(n, 2, np.random.default_rng(18))
        data = batch_transform(f, 1, ndirs=8, noffsets=4)
        with pytest.raises(ValueError, match="callables"):
            range_test(data, 2, 1, npoints=0, ntuples=1)

    @pytest.mark.parametrize("m, k, n, match", [
        (3, 2, None, r"as \(m, k\)"), (2, 2, None, r"as \(m, k\)"),
        (3, 1, None, r"as \(m, k\)"), (2, 1, 3, "as n")])
    def test_data_disagreeing_with_arguments_rejected(self, m, k, n, match):
        # parity reads the data's own rank and orders, so data of another
        # (m, k) or n would be judged against the wrong range conditions
        f = random_field(2, 2, np.random.default_rng(22))
        data = batch_transform(f, 1, ndirs=8, noffsets=4)
        with pytest.raises(ValueError, match=match):
            range_test(data, m, k, moment_callables=oracle_moment_callables(f, 2),
                       npoints=0, ntuples=1, n=n)
        report = range_test(data, 2, 1, moment_callables=oracle_moment_callables(f, 1),
                            npoints=0, ntuples=1, n=2)
        assert report.parity_pass

    @pytest.mark.parametrize("steps", [(math.nan, 0.0125), (0.025, math.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_step_rejected(self, steps):
        # a nan step passed min(steps) > 0 and failed later as a zero direction
        f = random_field(2, 1, np.random.default_rng(23), degree=1)
        with pytest.raises(ValueError, match="step sizes must be positive, finite"):
            range_test(None, 1, 1, steps=steps,
                       moment_callables=oracle_moment_callables(f, 1), n=2)

    def test_no_data_no_parity(self):
        f = random_field(3, 1, np.random.default_rng(19), degree=1)
        report = range_test(None, 1, 1, moment_callables=oracle_moment_callables(f, 1),
                            npoints=0, ntuples=1, n=3)
        assert report.parity == {}
        assert report.parity_pass

    def test_negative_npoints_rejected(self):
        f = random_field(2, 1, np.random.default_rng(17), degree=1)
        callables = oracle_moment_callables(f, 1)
        with pytest.raises(ValueError, match="npoints"):
            range_test(None, 2, 1, moment_callables=callables, npoints=-3, n=2)
        # npoints=0 stays allowed: it checks no phase point
        report = range_test(None, 2, 1, moment_callables=callables,
                            npoints=0, ntuples=1, n=2)
        assert report.max_john_residual() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            range_test(None, 2, 1)
        with pytest.raises(ValueError):
            range_test(None, 2, 1, moment_callables=[lambda x, xi: 0.0] * 2)
        rng = np.random.default_rng(16)
        f = random_field(2, 1, rng, degree=1)
        with pytest.raises(ValueError):
            range_test(None, 1, 2,
                       moment_callables=oracle_moment_callables(f, 1), n=2)
        with pytest.raises(ValueError):
            range_test(None, 1, -1,
                       moment_callables=oracle_moment_callables(f, 1), n=2)
        with pytest.raises(ValueError):
            range_test(None, 1, 1, steps=(0.1,),
                       moment_callables=oracle_moment_callables(f, 1), n=2)
