import math
import os
import sys

import numpy as np
import pytest
import scipy.fft

from raymoments.fields import GridField, GridSpec, random_field
from raymoments.helmholtz import (
    _peel,
    _row_slabs,
    decompose_k,
    freq_project,
    projector_formula,
    verify_decomposition,
)
from raymoments.symtensor import d_symbol, delta_symbol, mult_weights, sym_dim

from references import (
    contract_power,
    grid_norm_full_array,
    grid_operator,
    projector_rotation,
    sym_mult_power,
    verify_full_array,
)


def random_tensor(n, m, rng, complex_=True):
    c = rng.normal(size=sym_dim(n, m))
    if complex_:
        c = c + 1j * rng.normal(size=sym_dim(n, m))
    return c


def normal_equations_split(f_hat, ys, m, k):
    """Reference splitting by a dense solve per frequency.

    f_hat (B, sym_dim(n, m)) at frequencies ys (B, n), every y nonzero:
    v solves (A^T W A) v = A^T W f_hat with A = i_{y^(k)} and W the
    multiplicity weights, and g = f_hat - A v.
    """
    A = sym_mult_power(ys.shape[1], m - k, k, ys)
    AW = np.swapaxes(A, -1, -2) * mult_weights(ys.shape[1], m)
    v = np.linalg.solve(AW @ A, (AW @ f_hat[..., None]))
    return f_hat - (A @ v)[..., 0], v[..., 0]


def white_noise(n, m, count, rng):
    return GridField(m, GridSpec(n, count, 8.0),
                     rng.normal(size=(sym_dim(n, m),) + (count,) * n))


def half_frequencies(spec):
    """Symbol frequency y of every half-spectrum bin, shape (bins, n)."""
    mesh = np.meshgrid(*spec.half_wavenumbers(), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


class TestFreqProject:
    def test_pure_potential_input(self):
        rng = np.random.default_rng(0)
        for n, m, k in [(2, 2, 1), (3, 2, 2), (3, 3, 1)]:
            u = random_tensor(n, m - k, rng)
            y = rng.normal(size=n)
            f_hat = sym_mult_power(n, m - k, k, y) @ u
            g, v = freq_project(f_hat, y, m, k)
            np.testing.assert_allclose(g, 0.0, atol=1e-12)
            np.testing.assert_allclose(v, u, atol=1e-10)

    def test_pure_solenoidal_input(self):
        rng = np.random.default_rng(1)
        n, m, k = 3, 2, 1
        y = rng.normal(size=n)
        f_hat = random_tensor(n, m, rng)
        sol = projector_formula(f_hat, y, m, k)
        g, v = freq_project(sol, y, m, k)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)
        np.testing.assert_allclose(g, sol, atol=1e-12)

    def test_n2_m1_orthogonal_projection(self):
        y = np.array([1.0, 0.0])
        g, v = freq_project(np.array([0.7, -0.4]), y, 1, 1)
        np.testing.assert_allclose(g, [0.0, -0.4], atol=1e-14)
        assert v[0] == pytest.approx(0.7)

    def test_invariants(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            for m in range(1, 4):
                for k in range(1, min(n - 1, m) + 1):
                    f_hat = random_tensor(n, m, rng)
                    y = rng.normal(size=n)
                    g, v = freq_project(f_hat, y, m, k)
                    scale = np.abs(f_hat).max()
                    np.testing.assert_allclose(g + sym_mult_power(n, m - k, k, y) @ v, f_hat,
                                               atol=1e-10 * scale)
                    np.testing.assert_allclose(contract_power(n, m, k, y) @ g, 0.0,
                                               atol=1e-10 * scale)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(19)
        for n in (2, 3):
            for m in range(4):
                for k in range(m + 1):
                    for _ in range(10):
                        f_hat = random_tensor(n, m, rng)
                        u = rng.normal(size=n)
                        y = u / np.linalg.norm(u) * 10.0 ** rng.uniform(-1.0, 1.0)
                        g_hat, v_hat = freq_project(f_hat, y, m, k)
                        g, v = normal_equations_split(f_hat[None], y[None], m, k)
                        scale = np.abs(f_hat).max()
                        np.testing.assert_allclose(g_hat, g[0], rtol=0, atol=1e-13 * scale)
                        # v scales like f / |y|^k
                        np.testing.assert_allclose(
                            v_hat * np.linalg.norm(y) ** k,
                            v[0] * np.linalg.norm(y) ** k, rtol=0, atol=1e-13 * scale)

    def test_real_input_stays_real(self):
        # the symbols at a real y are real, so real packed input splits into real parts
        rng = np.random.default_rng(7)
        g, v = freq_project(random_tensor(3, 2, rng, complex_=False), rng.normal(size=3), 2, 1)
        assert g.dtype == v.dtype == float

    def test_singular_frequency_rejected(self):
        f_hat = random_tensor(2, 1, np.random.default_rng(3))
        with pytest.raises(ValueError):
            freq_project(f_hat, np.zeros(2), 1, 1)


class TestProjectorFormula:
    def test_k_equals_m_rank_one_removal(self):
        rng = np.random.default_rng(4)
        n, m = 3, 2
        f_hat = random_tensor(n, m, rng, complex_=False)
        y = rng.normal(size=n)
        got = projector_formula(f_hat, y, m, m)
        want, _ = freq_project(f_hat, y, m, m)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_k1_n2_matches_projection_example(self):
        y = np.array([1.0, 0.0])
        got = projector_formula(np.array([0.7, -0.4]), y, 1, 1)
        np.testing.assert_allclose(got, [0.0, -0.4], atol=1e-14)

    def test_agrees_with_solve_across_configs(self):
        rng = np.random.default_rng(5)
        for n, m, k in [(3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (3, 3, 3),
                        (2, 2, 1), (2, 3, 1), (2, 3, 2)]:
            for _ in range(20):
                f_hat = random_tensor(n, m, rng, complex_=False)
                y = rng.normal(size=n)
                got = projector_formula(f_hat, y, m, k)
                want, _ = freq_project(f_hat, y, m, k)
                scale = max(np.abs(f_hat).max(), 1e-300)
                np.testing.assert_allclose(got, want, atol=1e-10 * scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_rotation_reference(self, n, m):
        # the frame-table expansion against rotating the full n^m table
        rng = np.random.default_rng(10 * n + m)
        for k in range(m + 1):
            for complex_ in (False, True):
                for _ in range(5):
                    f_hat = random_tensor(n, m, rng, complex_)
                    y = rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, 1.0)
                    want = projector_rotation(f_hat, y, m, k)
                    got = projector_formula(f_hat, y, m, k)
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(f_hat).max()

    def test_zero_frequency_rejected(self):
        f_hat = random_tensor(2, 1, np.random.default_rng(6), complex_=False)
        with pytest.raises(ValueError):
            projector_formula(f_hat, np.zeros(2), 1, 1)


@pytest.mark.parametrize("split", [freq_project, projector_formula],
                         ids=["freq_project", "projector_formula"])
@pytest.mark.parametrize("f_hat, y, k, message", [
    (np.ones(4), np.ones(2), 1, r"f_hat shape \(4,\) does not match sym_dim\(2, 2\)"),
    (np.ones(3), np.ones((2, 1)), 1, "frequency y must be 1-D"),
    (np.ones(3), np.ones(2), 3, "need 0 <= k <= m"),
    (np.ones(3), np.ones(2), -1, "need 0 <= k <= m"),
    (np.ones(3), np.full(2, 1e-15), 1, "frequency too close to zero"),
    (np.ones(3), np.array([np.nan, 1.0]), 1, "y must be real and finite, got .*nan"),
    (np.ones(3), np.array([1.0, np.inf]), 1, "y must be real and finite, got .*inf"),
    (np.ones(3), np.array([1.0, 1.0 + 0.5j]), 1, "y must be real and finite"),
], ids=["wrong-length", "y-not-1d", "k-above-m", "k-negative", "zero-frequency",
        "nan-y", "inf-y", "complex-y"])
def test_bad_input_named(split, f_hat, y, k, message):
    # packed arrays carry no shape of their own; each splitting checks its input
    with pytest.raises(ValueError, match=message):
        split(f_hat, y, 2, k)


class TestDecomposeK:
    def test_residuals_small(self):
        rng = np.random.default_rng(7)
        f = random_field(2, 2, rng).sample(GridSpec(2, 64, 8.0))
        g, v = decompose_k(f, 1)
        rep = verify_decomposition(f, g, v, 1)
        assert rep["reconstruction_residual"] < 1e-6
        assert rep["solenoidal_residual"] < 1e-6

    def test_potential_input_recovered(self):
        rng = np.random.default_rng(8)
        w = random_field(2, 1, rng, degree=1)
        f = grid_operator(w.sample(GridSpec(2, 64, 8.0)), 2, d_symbol(2, 1, 1))
        g, v = decompose_k(f, 1)
        assert grid_norm_full_array(g) / grid_norm_full_array(f) < 1e-10

    def test_solenoidal_input_fixed(self):
        import warnings
        rng = np.random.default_rng(9)
        f = random_field(2, 2, rng).sample(GridSpec(2, 64, 8.0))
        g, _ = decompose_k(f, 1)
        with warnings.catch_warnings():
            # g inherits faint boundary ringing from the FFT round trip
            warnings.simplefilter("ignore", RuntimeWarning)
            g2, v2 = decompose_k(g, 1)
        assert grid_norm_full_array(v2) / max(grid_norm_full_array(g), 1e-300) < 1e-10
        assert grid_norm_full_array(GridField(2, g.spec, g2.data - g.data)) / grid_norm_full_array(g) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(10)
        spec = GridSpec(2, 32, 8.0)
        f1 = random_field(2, 2, rng).sample(spec)
        f2 = random_field(2, 2, rng).sample(spec)
        g1, v1 = decompose_k(f1, 1)
        g2, v2 = decompose_k(f2, 1)
        g3, v3 = decompose_k(GridField(2, spec, 2.0 * f1.data + f2.data), 1)
        np.testing.assert_allclose(g3.data, 2.0 * g1.data + g2.data,
                                   atol=1e-10 * np.abs(g3.data).max())
        np.testing.assert_allclose(v3.data, 2.0 * v1.data + v2.data,
                                   atol=1e-10 * np.abs(v3.data).max())

    @pytest.mark.parametrize("count", [33, 32])
    def test_white_noise_odd_and_even_grids(self, count):
        # energy in every bin: odd grids, and the Nyquist bins of even ones
        rng = np.random.default_rng(15)
        f = GridField(2, GridSpec(2, count, 8.0),
                      rng.normal(size=(3, count, count)))
        with pytest.warns(RuntimeWarning):      # white noise does not decay
            g, v = decompose_k(f, 1)
        rep = verify_decomposition(f, g, v, 1)
        assert rep["reconstruction_residual"] < 1e-6
        assert rep["solenoidal_residual"] < 1e-6

    @pytest.mark.parametrize("n, m, k, count", [(2, 2, 1, 32), (2, 2, 1, 33), (2, 3, 1, 32),
                                                (3, 3, 2, 16), (3, 3, 2, 17)])
    def test_matches_normal_equations(self, n, m, k, count):
        f = white_noise(n, m, count, np.random.default_rng(20))
        with pytest.warns(RuntimeWarning):      # white noise does not decay
            g, v = decompose_k(f, k)
        spec = f.spec
        f_hat = spec.rfftn(f.data)
        ys = half_frequencies(spec)
        fb = f_hat.reshape(f_hat.shape[0], -1).T
        nz = (ys != 0.0).any(axis=1)
        g_ref = fb.copy()
        v_ref = np.zeros((fb.shape[0], sym_dim(n, m - k)), dtype=complex)
        g_ref[nz], v_ref[nz] = normal_equations_split(fb[nz], ys[nz], m, k)
        v_ref /= 1j ** k        # the grid symbol of d^k is i^k i_{y^(k)}
        half = f_hat.shape[1:]
        for got, ref, rank in [(g, g_ref, m), (v, v_ref, m - k)]:
            want = spec.irfftn(ref.T.reshape((sym_dim(n, rank),) + half))
            dev = np.abs(got.data - want).max() / np.abs(want).max()
            assert dev < 1e-13

    @pytest.mark.parametrize("n, m, k, count", [(2, 2, 1, 32), (3, 3, 2, 16)])
    def test_zero_frequencies_stay_in_g(self, n, m, k, count):
        # on an even grid the Nyquist wavenumbers are zeroed, so besides the
        # DC bin every bin whose indices are all 0 or count/2 has y = 0
        f = white_noise(n, m, count, np.random.default_rng(21))
        with pytest.warns(RuntimeWarning):
            g, v = decompose_k(f, k)
        spec = f.spec
        zero = ~(half_frequencies(spec) != 0.0).any(axis=1)
        assert zero.sum() == 2 ** n
        f_hat, g_hat, v_hat = (spec.rfftn(u.data).reshape(u.data.shape[0], -1)
                               for u in (f, g, v))
        scale = np.abs(f_hat).max()
        np.testing.assert_allclose(g_hat[:, zero], f_hat[:, zero], rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(v_hat[:, zero], 0.0, rtol=0, atol=1e-13 * scale)

    def test_constant_field_is_solenoidal(self):
        spec = GridSpec(3, 8, 4.0)
        f = GridField(2, spec, np.arange(1.0, 7.0)[:, None, None, None]
                      * np.ones((6, 8, 8, 8)))
        with pytest.warns(RuntimeWarning):
            g, v = decompose_k(f, 1)
        np.testing.assert_allclose(g.data, f.data, rtol=0, atol=1e-14 * 6.0)
        np.testing.assert_allclose(v.data, 0.0, rtol=0, atol=1e-14 * 6.0)

    def test_k_out_of_range(self):
        rng = np.random.default_rng(11)
        f = random_field(2, 2, rng).sample(GridSpec(2, 16, 6.0))
        with pytest.raises(ValueError):
            decompose_k(f, 2)        # k must stay below n
        with pytest.raises(ValueError):
            decompose_k(f, 0)
        with pytest.raises(ValueError, match="integer"):
            decompose_k(f, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, value):
        spec = GridSpec(2, 16, 6.0)
        with pytest.raises(ValueError, match="finite"):
            decompose_k(GridField(2, spec, np.full((3, 16, 16), value)), 1)

    def test_boundary_warning(self):
        rng = np.random.default_rng(12)
        f = random_field(2, 2, rng, a=0.02).sample(GridSpec(2, 32, 3.0))
        with pytest.warns(RuntimeWarning):
            decompose_k(f, 1)


class TestVerifyDecomposition:
    def test_negative_controls(self):
        rng = np.random.default_rng(13)
        spec = GridSpec(2, 32, 8.0)
        f = random_field(2, 2, rng).sample(spec)
        zero_v = GridField(1, spec, random_field(2, 1, rng).sample(spec).data * 0.0)
        rep = verify_decomposition(f, f, zero_v, 1)
        assert rep["solenoidal_residual"] > 1e-3
        w = random_field(2, 1, rng).sample(spec)
        rep = verify_decomposition(f, GridField(2, spec, f.data * 0.0), w, 1)
        assert rep["reconstruction_residual"] > 1e-3

    @pytest.mark.parametrize("k, match", [
        (1.0, "integer"), (True, "integer"), (0, "need 1 <= k"), (2, "need 1 <= k"),
    ], ids=["float", "bool", "zero", "not-below-n"])
    def test_k_checked_as_in_decompose_k(self, k, match):
        # with k = 0, g = 0 and v = f reconstruct f exactly and would pass
        f = random_field(2, 2, np.random.default_rng(19)).sample(GridSpec(2, 16, 6.0))
        with pytest.raises(ValueError, match=match):
            decompose_k(f, k)
        with pytest.raises(ValueError, match=match):
            verify_decomposition(f, GridField(2, f.spec, f.data * 0.0), f, k)

    @pytest.mark.parametrize("n, m, k, count",
                             [(2, 2, 1, 32), (2, 2, 1, 33), (3, 3, 2, 16), (3, 3, 2, 17)])
    def test_spectral_residuals_match_real_space(self, n, m, k, count):
        # white noise has energy in every bin, the Nyquist ones included
        rng = np.random.default_rng(16)
        spec = GridSpec(n, count, 8.0)

        def noise(rank):
            return GridField(rank, spec,
                             rng.normal(size=(sym_dim(n, rank),) + (count,) * n))

        f = noise(m)
        with pytest.warns(RuntimeWarning):
            g, v = decompose_k(f, k)
        # the decomposition, then a perturbed one with O(1) residuals
        perturbed = (GridField(m, spec, g.data + 0.1 * noise(m).data),
                     GridField(m - k, spec, v.data + 0.1 * noise(m - k).data))
        for gg, vv in [(g, v), perturbed]:
            rep = verify_decomposition(f, gg, vv, k)
            dv = grid_operator(vv, m, d_symbol(n, m - k, k))
            recon = grid_norm_full_array(GridField(m, spec, f.data - gg.data - dv.data)) / grid_norm_full_array(f)
            sol = (grid_norm_full_array(grid_operator(gg, m - k, delta_symbol(n, m, k)))
                   / grid_norm_full_array(grid_operator(f, m + k, d_symbol(n, m, k))))
            assert rep["reconstruction_residual"] == pytest.approx(recon, rel=1e-10, abs=1e-10)
            assert rep["solenoidal_residual"] == pytest.approx(sol, rel=1e-10, abs=1e-10)

    def test_no_inverse_transform(self, monkeypatch):
        rng = np.random.default_rng(18)
        spec = GridSpec(2, 16, 6.0)
        f = random_field(2, 2, rng).sample(spec)
        g, v = decompose_k(f, 1)

        def inverse(*args, **kwargs):
            raise AssertionError("verify_decomposition ran an inverse FFT")

        for module in (np.fft, scipy.fft):
            for name in ("ifft", "ifftn", "irfft", "irfftn"):
                monkeypatch.setattr(module, name, inverse)
        # positive control: the grid's own inverse transform is caught
        with pytest.raises(AssertionError, match="inverse FFT"):
            spec.irfftn(spec.rfftn(f.data))
        rep = verify_decomposition(f, g, v, 1)
        assert rep["reconstruction_residual"] < 1e-12

    @pytest.mark.parametrize("part", ["f", "g", "v"])
    def test_non_finite_data_rejected(self, part):
        # one NaN makes a slab power NaN, which no verdict may read
        rng = np.random.default_rng(17)
        f = random_field(2, 2, rng).sample(GridSpec(2, 16, 6.0))
        fields = dict(zip("fgv", (f, *decompose_k(f, 1))))
        fields[part].data[1, 5, 7] = math.nan
        with pytest.raises(ValueError, match="finite"):
            verify_decomposition(*fields.values(), 1)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(14)
        spec = GridSpec(2, 16, 6.0)
        f = random_field(2, 2, rng).sample(spec)
        bad_v = random_field(2, 2, rng).sample(spec)
        with pytest.raises(ValueError):
            verify_decomposition(f, f, bad_v, 1)
        # same shape on another grid: only the congruence check can tell
        other_g = random_field(2, 2, rng).sample(GridSpec(2, 16, 5.0))
        v = random_field(2, 1, rng).sample(spec)
        with pytest.raises(ValueError, match="g grid"):
            verify_decomposition(f, other_g, v, 1)


class TestRowSlabs:
    """decompose_k and verify_decomposition one row slab of the half spectrum at a time."""

    @pytest.mark.parametrize("n, m, k, count", [(3, 2, 1, 64), (3, 3, 2, 64), (3, 2, 1, 65)])
    def test_decomposition_matches_whole_spectrum_peel(self, n, m, k, count):
        spec = GridSpec(n, count, 8.0)
        f = random_field(n, m, np.random.default_rng(60 + m)).sample(spec)
        assert len(_row_slabs(spec)) == 4
        g, v = decompose_k(f, k)
        g_hat, v_hat = _peel(spec.rfftn(f.data), m, k,
                             [1j * y for y in spec.half_wavenumbers()])
        assert np.array_equal(g.data, spec.irfftn(g_hat))
        assert np.array_equal(v.data, spec.irfftn(v_hat))

    def test_independent_of_core_count(self, monkeypatch):
        # one worker, then more workers than slabs and cores switching as
        # often as they can: the slabs write disjoint rows of one spectrum
        spec = GridSpec(3, 64, 8.0)
        f = random_field(3, 3, np.random.default_rng(61)).sample(spec)
        g, v = decompose_k(f, 2)
        rep = verify_decomposition(f, g, v, 2)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cores in (1, 8):
                monkeypatch.setattr(os, "cpu_count", lambda: cores)
                g1, v1 = decompose_k(f, 2)
                assert np.array_equal(g1.data, g.data) and np.array_equal(v1.data, v.data)
                assert verify_decomposition(f, g1, v1, 2) == rep
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, m, k, count", [(3, 2, 1, 64), (3, 3, 2, 64), (3, 2, 1, 65),
                                                (2, 2, 1, 128), (3, 2, 1, 32)])
    def test_verify_matches_full_array_reference(self, n, m, k, count):
        rng = np.random.default_rng(62)
        spec = GridSpec(n, count, 8.0)
        f = random_field(n, m, rng).sample(spec)
        g, v = decompose_k(f, k)
        # the decomposition, then a perturbed one with O(1) residuals
        perturbed = (GridField(m, spec, g.data + 0.1 * rng.normal(size=g.data.shape)),
                     GridField(m - k, spec, v.data + 0.1 * rng.normal(size=v.data.shape)))
        for gg, vv in [(g, v), perturbed]:
            rep = verify_decomposition(f, gg, vv, k)
            recon, sol = verify_full_array(f, gg, vv, k)
            assert rep["reconstruction_residual"] == pytest.approx(recon, rel=1e-15, abs=0)
            assert rep["solenoidal_residual"] == pytest.approx(sol, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n, count", [(2, 4), (2, 33), (2, 128), (2, 256), (3, 32),
                                          (3, 33), (3, 64), (3, 65), (3, 128), (4, 16)])
    def test_partition(self, n, count):
        spec = GridSpec(n, count, 8.0)
        slabs = _row_slabs(spec)
        assert [r for sl in slabs for r in range(count)[sl]] == list(range(count))
        assert all(sl.stop > sl.start for sl in slabs)
        if n == 2 and count <= 256 or (n, count) == (3, 32):
            assert len(slabs) == 1
        # every slab of a split spectrum holds at least 512 KiB per component
        per_row = 16 * count ** (n - 2) * (count // 2 + 1)
        assert len(slabs) == 1 or min(sl.stop - sl.start for sl in slabs) * per_row >= 2 ** 19
        if (n, count) == (3, 64):
            assert [(sl.start, sl.stop) for sl in slabs] == [(0, 16), (16, 32), (32, 48), (48, 64)]
        if (n, count) == (3, 65):
            assert [sl.stop for sl in slabs] == [16, 32, 48, 65]
