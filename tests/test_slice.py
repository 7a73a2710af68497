import math

import numpy as np
import pytest

from raymoments.fields import random_field
from raymoments.ray import householder_frame, moment_oracle, random_line
from raymoments.slices import (
    assemble_slice_system,
    kernel_check,
    rank_probe,
    slice_check,
    slice_row_count,
)
from raymoments.symtensor import sym_dim

from references import (
    component_field,
    scalar_field,
    slice_system_rows,
    sym_mult_power,
    zero_field,
)


class TestSliceCheck:
    def test_scalar_gaussian(self):
        f = scalar_field(2)
        xi = np.array([1.0, 0.0])
        y = np.array([0.0, 0.9])
        assert slice_check(f, xi, y, 0) < 1e-6

    def test_random_fields_all_orders(self):
        rng = np.random.default_rng(0)
        f = random_field(2, 2, rng)
        xi = np.array([0.6, 0.8])
        y = 1.1 * np.array([-0.8, 0.6])
        for q in range(3):
            assert slice_check(f, xi, y, q) < 1e-6

    def test_three_dimensional(self):
        rng = np.random.default_rng(1)
        f = random_field(3, 1, rng, degree=1)
        xi = np.array([0.0, 0.0, 1.0])
        y = np.array([0.7, -0.4, 0.0])
        assert slice_check(f, xi, y, 0, noffsets=64) < 1e-6
        assert slice_check(f, xi, y, 1, noffsets=64) < 1e-6

    def test_potential_field_both_sides_vanish(self):
        # f = d u has I^0 = 0 and <fhat, xi> proportional to <y, xi> = 0
        rng = np.random.default_rng(2)
        u = random_field(2, 0, rng, degree=1)
        f = u.inner_derivative()
        xi = np.array([1.0, 0.0])
        y = np.array([0.0, 1.3])
        assert slice_check(f, xi, y, 0, scale_floor=1.0) < 1e-12

    def test_odd_moment_at_zero_frequency(self):
        f = scalar_field(2)       # even in x
        xi = np.array([1.0, 0.0])
        assert slice_check(f, xi, np.zeros(2), 1, scale_floor=1.0) < 1e-12

    def test_input_validation(self):
        f = scalar_field(2)
        with pytest.raises(ValueError):
            slice_check(f, np.array([2.0, 0.0]), np.array([0.0, 1.0]), 0)
        with pytest.raises(ValueError):
            slice_check(f, np.array([1.0, 0.0]), np.array([0.5, 1.0]), 0)
        with pytest.raises(ValueError):
            slice_check(f, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0, noffsets=1)
        with pytest.raises(ValueError, match="n >= 2"):
            slice_check(scalar_field(1), np.array([1.0]), np.zeros(1), 0)

    @pytest.mark.parametrize("extent", [-8.0, 0.0, math.nan, math.inf])
    def test_bad_extent_rejected(self, extent):
        # a non-positive extent folds or collapses the offset grid and would
        # still return a deviation
        f = random_field(2, 2, np.random.default_rng(4))
        with pytest.raises(ValueError, match="extent"):
            slice_check(f, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1, extent=extent)

    def test_refinement_improves(self):
        rng = np.random.default_rng(3)
        f = random_field(2, 1, rng)
        xi = np.array([0.6, 0.8])
        y = 0.9 * np.array([-0.8, 0.6])
        coarse = slice_check(f, xi, y, 0, noffsets=16, extent=4.0)
        fine = slice_check(f, xi, y, 0, noffsets=128, extent=8.0)
        assert fine < coarse


class TestSliceSystem:
    def test_row_count_examples(self):
        assert slice_row_count(3, 2, 1) == 6 == sym_dim(3, 2)
        assert slice_row_count(2, 2, 1) == 3 == sym_dim(2, 2)
        assert slice_row_count(3, 3, 2) == 10 == sym_dim(3, 3)

    def test_assembled_counts_match_formula(self):
        rng = np.random.default_rng(4)
        for n, m, k in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 0),
                        (3, 3, 1), (3, 3, 2)]:
            sysm = assemble_slice_system(n, m, k, rng.normal(size=n))
            assert sysm.rows.shape == (slice_row_count(n, m, k), sym_dim(n, m))
            assert len(sysm.tags) == sysm.rows.shape[0]

    def test_moment_rows_annihilate_potentials(self):
        rng = np.random.default_rng(5)
        n, m, k = 3, 3, 1
        y = rng.normal(size=n)
        sysm = assemble_slice_system(n, m, k, y)
        u = rng.normal(size=sym_dim(n, m - k - 1))
        pot = sym_mult_power(n, m - k - 1, k + 1, y) @ u
        for row, tag in zip(sysm.rows, sysm.tags):
            if tag[0] == "moment":
                assert abs(row @ pot) < 1e-12

    def test_full_rank_generic(self):
        rng = np.random.default_rng(6)
        for n, m, k in [(3, 2, 1), (2, 3, 1)]:
            for _ in range(20):
                sysm = assemble_slice_system(n, m, k, rng.normal(size=n))
                res = rank_probe(sysm)
                assert res.rank == sym_dim(n, m)
                assert res.sigma_min / res.sigma_max > 1e-6

    @pytest.mark.parametrize("n, m, k", [(n, m, k) for n in (2, 3, 4)
                                         for m in (1, 2, 3) for k in range(m)])
    def test_rows_match_polarization_chain(self, n, m, k):
        rng = np.random.default_rng(100 * n + 10 * m + k)
        for y in (rng.normal(size=n), 0.2 * rng.normal(size=n),
                  5.0 * rng.normal(size=n), np.eye(n)[0], -np.eye(n)[-1]):
            sysm = assemble_slice_system(n, m, k, y)
            rows, tags = slice_system_rows(n, m, k, y)
            assert sysm.tags == tags
            assert np.abs(sysm.rows - rows).max() <= 1e-14 * np.abs(rows).max()

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            assemble_slice_system(3, 2, 1, np.zeros(3))

    def test_k_range_enforced(self):
        with pytest.raises(ValueError):
            assemble_slice_system(3, 2, 2, np.ones(3))


class TestKernelCheck:
    def test_annihilation(self):
        rng = np.random.default_rng(7)
        for n in (2, 3):
            v = random_field(n, 1, rng, degree=1)
            lines = [random_line(n, rng) for _ in range(100)]
            assert kernel_check(v, 1, lines) < 1e-8

    def test_negative_control(self):
        rng = np.random.default_rng(8)
        v = random_field(2, 1, rng, degree=1)
        lines = [random_line(2, rng) for _ in range(100)]
        assert kernel_check(v, 1, lines, orders=[2]) > 1e-3

    def test_zero_input(self):
        v = zero_field(2, 0)
        lines = [random_line(2, np.random.default_rng(9)) for _ in range(5)]
        assert kernel_check(v, 1, lines) == 0.0

    def test_empty_lines_rejected(self):
        # no lines would read residual 0.0 and control 0.0
        v = random_field(2, 0, np.random.default_rng(9))
        with pytest.raises(ValueError, match="at least one line"):
            kernel_check(v, 1, [])

    def test_empty_orders_rejected(self):
        # no moment order checked would read as a perfect annihilation
        rng = np.random.default_rng(11)
        v = random_field(2, 0, rng)
        with pytest.raises(ValueError, match="at least one moment order"):
            kernel_check(v, 1, [random_line(2, rng) for _ in range(3)], orders=[])

    def test_negative_order_rejected(self):
        # k = -1 would test the empty order list 0..k and read 0.0
        rng = np.random.default_rng(10)
        v = random_field(3, 1, rng, degree=1)
        with pytest.raises(ValueError, match="non-negative"):
            kernel_check(v, -1, [random_line(3, rng) for _ in range(3)])


class TestSliceReconstruction:
    def test_recover_fhat_from_transform_data(self):
        # Solve the slice system at one frequency with right-hand sides
        # harvested from transform data: each row pairing is obtained by the
        # numeric 1-D Fourier sum of I^0 of a component field over the
        # tangential offset axis, contracted with the y-powers of the row.
        rng = np.random.default_rng(10)
        n, m, k = 2, 2, 1
        f = random_field(n, m, rng)
        y = np.array([0.9, -0.4])
        sysm = assemble_slice_system(n, m, k, y)
        zeta = sysm.zeta[:, 0]

        extent = f.effective_radius()
        s = np.linspace(-extent, extent, 256, endpoint=False)
        ds = s[1] - s[0]
        u = householder_frame(zeta)[:, 0]          # offset axis of zeta-perp
        phase = np.exp(-1j * s * (u @ y))

        def harvested_pairing(fixed):
            # (2 pi)^{-1/2} F[I^0 f_fixed(. , zeta)](y) = <fhat_fixed(y), zeta^r>
            comp = component_field(f, fixed)
            vals = np.array([moment_oracle(comp, si * u, zeta, 0) for si in s])
            return (phase * vals).sum() * ds / (2.0 * np.pi)

        import itertools
        rhs = []
        for tag in sysm.tags:
            ypow = tag[1] if tag[0] == "moment" else k + tag[1]
            acc = 0.0
            for fixed in itertools.product(range(n), repeat=ypow):
                weight = math.prod(y[list(fixed)]) if fixed else 1.0
                acc += weight * harvested_pairing(tuple(sorted(fixed)))
            rhs.append(acc)
        rhs = np.array(rhs)

        sol = np.linalg.solve(sysm.rows, rhs)
        want = f.fourier_analytic().eval_packed(y)
        scale = np.abs(want).max()
        assert np.abs(sol - want).max() / scale < 1e-6
