import math

import numpy as np
import pytest

from raymoments import claims
from raymoments.fields import random_field
from raymoments.john import (
    RangeReport,
    apply_stencil,
    chi_build,
    homogeneity_residual,
    poly_add,
    psi_from_phi,
    range_test,
    restricted_transform,
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
from raymoments.ray import batch_transform, moment_oracle, oracle_moment_callables, random_line

from references import component_field, john_residuals_per_table, mixed_central, poly_eval, \
    psi_split_residuals, scalar_field


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
        # chi^l of a ladder is I^0 g_l, translation invariant and homogeneous
        rng = np.random.default_rng(6)
        assert all(claims.chi_identities(2, 2, ell, 3, rng)[3] for ell in (1, 2))

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        f, gs = claims.ladder_field(2, 2, 1, rng)
        moments = oracle_moment_callables(f, 1)
        chi = chi_build(psi_from_phi(moments, 2, 1), gs[:1], 1, 2)
        x, xi = np.array([0.4, -0.6]), np.array([0.8, 0.6])
        for t in (-1.7, 0.9, 2.4):
            assert chi(x + t * xi, xi) == pytest.approx(chi(x, xi), abs=1e-8)

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        n, m, ell = 2, 2, 1
        f, gs = claims.ladder_field(n, m, 1, rng)
        moments = oracle_moment_callables(f, 1)
        chi = chi_build(psi_from_phi(moments, m, ell), gs[:1], ell, m)
        x, xi = np.array([0.3, 0.7]), np.array([0.6, -0.8])
        assert homogeneity_residual(chi, m - ell - 1, x, xi) < 1e-10
        # t < 0: chi(x, t xi) = t^{m-ell} / |t| chi(x, xi)
        want = (-1.0) ** (m - ell) * chi(x, xi)
        assert chi(x, -xi) == pytest.approx(want, abs=1e-10)

    def test_validation(self):
        rng = np.random.default_rng(9)
        f, gs = claims.ladder_field(2, 2, 1, rng)
        psi = psi_from_phi(oracle_moment_callables(f, 1), 2, 1)
        with pytest.raises(ValueError):
            chi_build(psi, [], 1, 2)
        with pytest.raises(ValueError):
            chi_build(psi, [random_field(2, 1, rng, degree=1)], 1, 2)


class TestRestrictedTransform:
    def test_r_zero_is_J0(self):
        rng = np.random.default_rng(14)
        f = random_field(2, 2, rng)
        moments = oracle_moment_callables(f, 0)
        J = [psi_from_phi(moments, f.m, 0)]
        ln = random_line(2, rng)
        got = restricted_transform(J, (), ln.x, ln.xi, m=f.m)
        assert got == pytest.approx(moment_oracle(f, ln.x, ln.xi, 0), rel=1e-12)

    def test_rank_one_component(self):
        # m=1, r=1: (d/dxi^i) J^0 f - (d/dx^i) J^1 f = J^0 of the component f_i
        rng = np.random.default_rng(15)
        f = random_field(2, 1, rng, degree=1)
        moments = oracle_moment_callables(f, 1)
        Js = [psi_from_phi(moments, f.m, q) for q in range(2)]
        ln = random_line(2, rng)
        for i in range(2):
            got = restricted_transform(Js, (i,), ln.x, ln.xi, h=1e-3, m=1)
            comp = component_field(f, (i,))
            want = moment_oracle(comp, ln.x, ln.xi, 0)
            assert got == pytest.approx(want, rel=1e-4, abs=1e-8)

    def test_potential_input_consistency(self):
        # f = d w: restricted data consistent with the ladder-generated J data
        rng = np.random.default_rng(16)
        w = random_field(2, 1, rng, degree=1)
        f = w.inner_derivative()
        Js = [lambda x, xi, q=q: moment_oracle(f, x, xi, q) for q in range(2)]
        ln = random_line(2, rng)
        for i in range(2):
            got = restricted_transform(Js, (i,), ln.x, ln.xi, h=1e-3, m=2)
            comp = component_field(f, (i,))
            want = moment_oracle(comp, ln.x, ln.xi, 0)
            assert got == pytest.approx(want, rel=1e-4, abs=1e-8)

    def test_second_order_convergence(self):
        rng = np.random.default_rng(17)
        f = random_field(2, 2, rng, degree=1)
        Js = [lambda x, xi, q=q: moment_oracle(f, x, xi, q) for q in range(3)]
        ln = random_line(2, rng)
        comp = component_field(f, (0, 1))
        want = moment_oracle(comp, ln.x, ln.xi, 0)
        errs = []
        for h in (2e-3, 1e-3):
            got = restricted_transform(Js, (0, 1), ln.x, ln.xi, h=h, m=2)
            errs.append(abs(got - want))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_validation(self):
        f = scalar_field(2)
        Js = [lambda x, xi: moment_oracle(f, x, xi, 0)]
        with pytest.raises(ValueError):
            restricted_transform(Js, (0, 0), np.zeros(2), np.ones(2), m=1)
        with pytest.raises(ValueError):
            restricted_transform(Js, (0,), np.zeros(2), np.ones(2), h=0.0, m=1)


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
        f, gs = claims.ladder_field(n, m, 2, rng)
        moments = oracle_moment_callables(f, m)
        psis = [psi_from_phi(moments, m, ell) for ell in range(m + 1)]
        pts = phase_points(n, rng, 2)
        for ell in (1, 2):
            chi = chi_build(psis[ell], gs[:ell], ell, m)
            for residuals in psi_split_residuals(psis, chi, gs, ell, m, pts, (0.05, 0.025)):
                order = math.log(residuals[0] / residuals[1]) / math.log(2.0)
                assert residuals[1] < 1e-2
                assert 1.5 < order < 2.5


class TestRangeTest:
    def test_clean_data_passes(self):
        f = random_field(2, 2, np.random.default_rng(13))
        *_, res, passed = claims.range_conditions(f, 1, dirs=8, offsets=8, ntuples=64, seed=0)
        assert passed and res["parity_pass"] and res["john_pass"] and res["transport_pass"]

    def test_corrupted_data_fails_john(self):
        # the failure needs n = 3: the two-dimensional iterated John stencil
        # annihilates this multiplicative corruption as well
        f = random_field(3, 2, np.random.default_rng(14))
        _, rows, res, passed = claims.range_conditions(f, 1, dirs=8, offsets=4, ntuples=4, seed=0)
        assert passed and not res["control_john_pass"]
        assert res["control_plateau"] >= claims.PLATEAU_MIN
        assert [row[0] for row in rows].count("control") == 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_control_that_passes_john_fails_the_claim(self, monkeypatch, n):
        # uncorrupted control data satisfies John, so the claim must fail at
        # n = 3; in R^2 the John condition is empty and no control runs
        monkeypatch.setattr(claims, "corrupted", lambda moments: moments)
        f = random_field(n, 2, np.random.default_rng(14))
        _, rows, res, passed = claims.range_conditions(f, 1, dirs=8, offsets=4, ntuples=4, seed=0)
        controls = [row for row in rows if row[0] == "control"]
        if n == 3:
            assert res["john_pass"] and res["control_john_pass"] and controls and not passed
        else:
            assert passed and not controls and "control_john_pass" not in res

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

    @pytest.mark.parametrize("fine, order, want", [
        (1e-5, 1.0, False), (1e-5, 3.0, False), (1e-5, 2.0, True), (1e-5, math.nan, False),
        (1e-11, 1.0, True), (1e-11, 3.0, True), (1e-11, math.nan, True)])
    def test_john_verdict_window_and_floor(self, fine, order, want):
        # a row passes with an order in [1.5, 2.5] or a fine residual below 1e-10
        row = {"tuple": ((0, 1),), "residuals": [4.0 * fine, fine], "order": order}
        report = RangeReport(1, 1, (0.025, 0.0125), {}, [row], [])
        assert report.john_pass is want

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
        with pytest.raises(TypeError, match="moment_callables"):
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
        with pytest.raises(TypeError):
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
