import json
import math

import numpy as np
import pytest

from raymoments.claims import oracle_equivalence
from raymoments.fields import random_field
from raymoments.ray import (
    Line,
    MomentData,
    QuadratureRule,
    batch_transform,
    direction_grid,
    householder_frame,
    moment_numeric,
    moment_oracle,
    oracle_moment_callables,
    random_line,
)
from raymoments.ray import _gauss_hermite
from raymoments.john import psi_from_phi
from raymoments.symtensor import multi_indices, mult_weights

from references import comps, scalar_field


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def per_call_packing_oracle(f, x, xi, q):
    """moment_oracle with the field's arrays packed again on every call.

    The exponent set, coefficient matrix, degree and xi-power weights are
    all rebuilt here from the field's dict components.
    """
    if not np.all(np.square(xi).sum(axis=-1) > 0.0):
        raise ValueError("direction must be nonzero")
    cs = comps(f)
    exps = sorted({e for comp in cs for e in comp})
    coef = np.array([[comp.get(e, 0.0) for e in exps] for comp in cs])
    deg = max(map(sum, exps), default=0)
    s, w = np.polynomial.hermite.hermgauss((deg + q) // 2 + 1)
    x, xi = np.asarray(x, np.longdouble), np.asarray(xi, np.longdouble)
    dot = (x * xi).sum(axis=-1)
    nxi2 = (xi * xi).sum(axis=-1)
    width = 1.0 / np.sqrt(f.a * nxi2)
    t = (-dot / nxi2)[..., None] + width[..., None] * s
    pts = x[..., None, :] + t[..., None] * xi[..., None, :]
    monos = np.prod(pts[..., None, :] ** np.reshape(exps, (-1, f.n)), axis=-1)
    alphas = multi_indices(f.n, f.m)
    factors = xi.astype(float)[..., np.array(alphas, int).reshape(len(alphas), f.m)]
    pw = np.ones(factors.shape[:-1])
    for j in range(f.m):
        pw = pw * factors[..., j]
    weights = (mult_weights(f.n, f.m) * pw)[..., None, :]
    line = np.real(((monos @ coef.T) * weights).sum(axis=-1))
    amp = np.exp(-f.a * ((x * x).sum(axis=-1) - dot * dot / nxi2)) * width
    out = (amp * ((line * t ** q) @ w)).astype(float)
    return float(out) if out.ndim == 0 else out


def assert_oracle_matches_reference(f, rng, q):
    """Batched, one-direction and scalar calls, bit for bit."""
    x = rng.uniform(-2.0, 2.0, size=(4, 5, f.n))
    xi = rng.normal(size=(4, 5, f.n))
    got = moment_oracle(f, x, xi, q)
    assert np.array_equal(got, per_call_packing_oracle(f, x, xi, q))
    got = moment_oracle(f, x[0], xi[0, 0], q)
    assert np.array_equal(got, per_call_packing_oracle(f, x[0], xi[0, 0], q))
    for j in range(5):
        got = moment_oracle(f, x[1, j], xi[1, j], q)
        want = per_call_packing_oracle(f, x[1, j], xi[1, j], q)
        assert type(got) is float and got == want


class TestGeometry:
    def test_line_invariants(self):
        with pytest.raises(ValueError):
            Line(np.zeros(2), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Line(np.array([1.0, 0.1]), np.array([1.0, 0.0]))

    def test_householder_frame_orthonormal(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            for _ in range(10):
                xi = unit(rng.normal(size=n))
                E = householder_frame(xi)
                np.testing.assert_allclose(E.T @ E, np.eye(n - 1), atol=1e-13)
                np.testing.assert_allclose(E.T @ xi, 0.0, atol=1e-13)

    def test_direction_grid_antipodal(self):
        for n in (2, 3):
            dirs, frames = direction_grid(n, 16)
            half = 8
            np.testing.assert_allclose(dirs[half:], -dirs[:half])
            np.testing.assert_array_equal(frames[half:], frames[:half])
        for count in (15, 0, -2):
            with pytest.raises(ValueError, match="positive even number"):
                direction_grid(2, count)
        with pytest.raises(ValueError, match="n in"):
            direction_grid(4, 8)

    def test_quadrature_validation(self):
        for radius in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                QuadratureRule(radius=radius)


class TestMomentNumeric:
    def test_gaussian_zeroth_moment(self):
        f = scalar_field(2)
        rule = QuadratureRule.for_field(f)
        ln = random_line(2, np.random.default_rng(1))
        want = math.sqrt(math.pi) * math.exp(-(ln.x @ ln.x))
        assert moment_numeric(f, ln, 0, rule) == pytest.approx(want, rel=1e-12)

    def test_odd_moment_vanishes(self):
        f = scalar_field(2)
        rule = QuadratureRule.for_field(f)
        ln = random_line(2, np.random.default_rng(2))
        assert abs(moment_numeric(f, ln, 1, rule)) < 1e-12

    def test_second_moment(self):
        f = scalar_field(3)
        rule = QuadratureRule.for_field(f)
        ln = random_line(3, np.random.default_rng(3))
        want = 0.5 * math.sqrt(math.pi) * math.exp(-(ln.x @ ln.x))
        assert moment_numeric(f, ln, 2, rule) == pytest.approx(want, rel=1e-12)

    def test_truncation_warning(self):
        f = scalar_field(2, a=0.05)
        ln = Line(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.warns(RuntimeWarning):
            moment_numeric(f, ln, 0, QuadratureRule(radius=2.0))

    def test_grid_field_rejected(self):
        from raymoments.fields import GridSpec
        g = scalar_field(2).sample(GridSpec(2, 16, 8.0))
        ln = Line(np.array([0.0, 0.3]), np.array([1.0, 0.0]))
        with pytest.raises(TypeError, match="unsupported field type"):
            moment_numeric(g, ln, 0, QuadratureRule(radius=6.0))
        with pytest.raises(ValueError, match="non-negative"):
            moment_numeric(scalar_field(2), ln, -1, QuadratureRule(radius=6.0))


class TestMomentOracle:
    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(4)
        assert all(oracle_equivalence(n, m, m, 20, rng)[3] for n in (2, 3) for m in range(3))

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        f = random_field(3, 2, rng)
        x = rng.normal(size=3)
        xi = rng.normal(size=3)
        for q in range(3):
            a = moment_oracle(f, x, 2.0 * xi, q)
            b = 2.0 ** (f.m - q - 1) * moment_oracle(f, x, xi, q)
            assert a == pytest.approx(b, rel=1e-12)

    def test_potential_annihilated(self):
        rng = np.random.default_rng(6)
        u = random_field(2, 0, rng, degree=1)
        f = u.inner_derivative()
        for _ in range(20):
            ln = random_line(2, rng)
            assert abs(moment_oracle(f, ln.x, ln.xi, 0)) < 1e-12

    def test_zero_direction_rejected(self):
        f = scalar_field(2)
        with pytest.raises(ValueError):
            moment_oracle(f, np.zeros(2), np.zeros(2), 0)
        with pytest.raises(ValueError, match="non-negative"):
            moment_oracle(f, np.zeros(2), np.array([1.0, 0.0]), -1)

    def test_zero_direction_in_batch_rejected(self):
        f = random_field(3, 1, np.random.default_rng(20))
        xi = np.ones((4, 3))
        xi[2] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            moment_oracle(f, np.zeros((4, 3)), xi, 0)

    def test_integer_direction_judged_without_overflow(self):
        # 65536**2 wraps to 0 in int32; the check reads the long-double |xi|^2
        f = random_field(3, 1, np.random.default_rng(26))
        x = np.array([0.3, -0.2, 0.5])
        want = moment_oracle(f, x, np.array([65536, 0, 0], dtype=np.int64), 0)
        got = moment_oracle(f, x, np.array([65536, 0, 0], dtype=np.int32), 0)
        assert got == want

    @pytest.mark.skipif(np.finfo(np.longdouble).minexp > -2000,
                        reason="long double without extended exponent range")
    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_tiny_direction_accepted(self, scale):
        # J^0 of a rank-1 field is homogeneous of degree 0 in xi, and |xi|^2
        # underflows float64 but not the long double the oracle works in
        rng = np.random.default_rng(27)
        f = random_field(3, 1, rng)
        x, u = rng.normal(size=3), unit(rng.normal(size=3))
        want = moment_oracle(f, x, u, 0)
        assert moment_oracle(f, x, scale * u, 0) == pytest.approx(want, rel=1e-12)
        got = moment_oracle(f, np.stack([x, x]), np.stack([u, scale * u]), 0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_packed_form_matches_per_call_packing(self, n):
        rng = np.random.default_rng(21 + n)
        for m in range(4):
            for degree in range(4):
                f = random_field(n, m, rng, a=rng.uniform(0.5, 1.5), degree=degree)
                for q in range(m + 2):
                    assert_oracle_matches_reference(f, rng, q)

    def test_packed_form_of_complex_field(self):
        rng = np.random.default_rng(24)
        fhat = random_field(3, 2, rng).fourier_analytic()
        assert fhat.coef.dtype == complex
        for q in range(4):
            assert_oracle_matches_reference(fhat, rng, q)

    def test_node_count_invariance(self):
        # floor((deg + q)/2) + 1 nodes are already exact, so four more nodes
        # may only move the result by rounding
        rng = np.random.default_rng(18)
        for n in (2, 3):
            for m in range(4):
                f = random_field(n, m, rng)
                x = rng.uniform(-2.0, 2.0, size=(20, n))
                xi = rng.normal(size=(20, n))
                for q in range(m + 2):
                    count = (2 + q) // 2 + 1
                    a = _gauss_hermite(f, x, xi, q, count)
                    b = _gauss_hermite(f, x, xi, q, count + 4)
                    assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()

    def test_scalar_gaussian_by_hand(self):
        # J^q e^{-a|y|^2} = A int (u - c)^q e^{-b u^2} du with b = a|xi|^2,
        # c = <x,xi>/|xi|^2, A = exp(-a(|x|^2 - <x,xi>^2/|xi|^2)); the even
        # Gaussian moments are G0 = sqrt(pi/b) and G2 = G0/(2b)
        a = 0.7
        f = scalar_field(3, a=a)
        x, xi = np.array([0.4, -0.3, 0.9]), np.array([1.2, 0.5, -0.8])
        b = a * (xi @ xi)
        c = (x @ xi) / (xi @ xi)
        amp = math.exp(-a * (x @ x - (x @ xi) ** 2 / (xi @ xi)))
        g0 = math.sqrt(math.pi / b)
        g2 = g0 / (2.0 * b)
        want = [g0, -c * g0, g2 + c * c * g0, -3.0 * c * g2 - c ** 3 * g0]
        for q in range(4):
            assert moment_oracle(f, x, xi, q) == pytest.approx(amp * want[q], rel=1e-14)

    def test_batched_matches_scalar_calls(self):
        rng = np.random.default_rng(19)
        f = random_field(3, 2, rng)
        x = rng.normal(size=(4, 5, 3))
        xi = rng.normal(size=(4, 5, 3))
        for q in range(3):
            got = moment_oracle(f, x, xi, q)
            want = np.array([[moment_oracle(f, x[i, j], xi[i, j], q) for j in range(5)]
                             for i in range(4)])
            assert got.shape == (4, 5)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        # one direction against many base points, as slice_check calls it
        got = moment_oracle(f, x[0], xi[0, 0], 1)
        want = [moment_oracle(f, xj, xi[0, 0], 1) for xj in x[0]]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())
        assert type(moment_oracle(f, x[0, 0], xi[0, 0], 0)) is float


class TestSharedCallables:
    """oracle_moment_callables: k+1 columns of one Gauss-Hermite pass."""

    def test_columns_of_one_pass(self):
        rng = np.random.default_rng(40)
        for n in (2, 3):
            for m in range(4):
                f = random_field(n, m, rng)
                count = (f.degree + m) // 2 + 1
                moments = oracle_moment_callables(f, m)
                for _ in range(5):
                    x, xi = rng.uniform(-2.0, 2.0, size=n), rng.normal(size=n)
                    got = [J(x, xi) for J in moments]
                    assert all(type(v) is float for v in got)
                    assert got == _gauss_hermite(f, x, xi, m, count).tolist()
                    per_order = [moment_oracle(f, x, xi, q) for q in range(m + 1)]
                    np.testing.assert_allclose(got, per_order, rtol=0,
                                               atol=1e-15 * np.abs(per_order).max())

    def test_fresh_after_in_place_change(self):
        rng = np.random.default_rng(41)
        f = random_field(3, 2, rng)
        count = (f.degree + 1) // 2 + 1
        J0, J1 = oracle_moment_callables(f, 1)
        x, xi = rng.uniform(-1.0, 1.0, size=3), rng.normal(size=3)
        before = J0(x, xi)
        x[0] += 0.25
        assert [J0(x, xi), J1(x, xi)] == _gauss_hermite(f, x, xi, 1, count).tolist()
        assert J0(x, xi) != before
        xi *= 1.5
        assert [J1(x, xi), J0(x, xi)] == _gauss_hermite(f, x, xi, 1, count)[::-1].tolist()

    def test_batched_input(self):
        rng = np.random.default_rng(42)
        f = random_field(3, 2, rng)
        count = (f.degree + 2) // 2 + 1
        x, xi = rng.uniform(-1.0, 1.0, size=(5, 3)), rng.normal(size=(5, 3))
        for q, J in enumerate(oracle_moment_callables(f, 2)):
            got = J(x, xi)
            assert got.shape == (5,)
            assert np.array_equal(got, _gauss_hermite(f, x, xi, 2, count)[:, q])
            # one direction against many base points
            assert np.array_equal(J(x, xi[0]), _gauss_hermite(f, x, xi[0], 2, count)[:, q])


class TestExtendJ:
    # the I -> J conversion is psi_from_phi: psi^q = J^q f on oracle I-data

    def test_identity_on_line_space(self):
        rng = np.random.default_rng(7)
        f = random_field(2, 2, rng)
        moments = oracle_moment_callables(f, 2)
        ln = random_line(2, rng)
        for q in range(3):
            got = psi_from_phi(moments, f.m, q)(ln.x, ln.xi)
            assert got == pytest.approx(moments[q](ln.x, ln.xi), rel=1e-12)

    def test_scalar_scaling(self):
        f = scalar_field(2)
        moments = oracle_moment_callables(f, 0)
        ln = random_line(2, np.random.default_rng(8))
        got = psi_from_phi(moments, 0, 0)(ln.x, 2.0 * ln.xi)
        assert got == pytest.approx(0.5 * moments[0](ln.x, ln.xi), rel=1e-12)

    def test_matches_oracle_at_phase_points(self):
        rng = np.random.default_rng(9)
        for n, m in [(2, 1), (2, 2), (3, 2)]:
            f = random_field(n, m, rng)
            moments = oracle_moment_callables(f, m)
            for _ in range(20):
                x = rng.uniform(-2, 2, size=n)
                xi = rng.normal(size=n)
                for q in range(m + 1):
                    got = psi_from_phi(moments, m, q)(x, xi)
                    want = moment_oracle(f, x, xi, q)
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_missing_moment_rejected(self):
        f = scalar_field(2)
        moments = oracle_moment_callables(f, 0)
        with pytest.raises(ValueError):
            psi_from_phi(moments, 0, 1)


class TestLadder:
    def test_integration_by_parts(self):
        # I^l(d v) = -l I^{l-1} v, and I^0(d v) = 0
        rng = np.random.default_rng(10)
        for n in (2, 3):
            v = random_field(n, 1, rng, degree=1)
            dv = v.inner_derivative()
            for _ in range(10):
                ln = random_line(n, rng)
                assert abs(moment_oracle(dv, ln.x, ln.xi, 0)) < 1e-10
                for ell in (1, 2):
                    lhs = moment_oracle(dv, ln.x, ln.xi, ell)
                    rhs = -ell * moment_oracle(v, ln.x, ln.xi, ell - 1)
                    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


class TestBatchTransform:
    def test_scalar_sinogram(self):
        f = scalar_field(2)
        data = batch_transform(f, 0, ndirs=8, noffsets=16)
        want = math.sqrt(math.pi) * np.exp(-data.offsets ** 2)
        for d in range(8):
            np.testing.assert_allclose(data.values[0, d], want, rtol=1e-10)

    def test_rejects_degenerate_grids(self):
        f = scalar_field(2)
        for kw, msg in [(dict(k=-1), "non-negative"), (dict(noffsets=1), "two offsets"),
                        (dict(noffsets=0), "two offsets"), (dict(extent=0.0), "extent"),
                        (dict(extent=-1.0), "extent"), (dict(extent=math.nan), "extent"),
                        (dict(extent=math.inf), "extent")]:
            with pytest.raises(ValueError, match=msg):
                batch_transform(f, **{"k": 0, "ndirs": 4, "noffsets": 4, **kw})

    def test_parity(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            f = random_field(n, 2, rng)
            data = batch_transform(f, 2, ndirs=8, noffsets=4)
            half = data.ndirs // 2
            for ell in range(3):
                sign = (-1.0) ** (f.m - ell)
                np.testing.assert_allclose(
                    data.values[ell, half:], sign * data.values[ell, :half],
                    atol=1e-13 * max(1.0, np.abs(data.values[ell]).max()))

    def test_linearity(self):
        rng = np.random.default_rng(12)
        f1 = random_field(2, 1, rng)
        f2 = random_field(2, 1, rng)
        kw = dict(ndirs=4, noffsets=4, extent=4.0)
        a = batch_transform(f1, 1, **kw)
        b = batch_transform(f2, 1, **kw)
        c = batch_transform(f1 + f2, 1, **kw)
        np.testing.assert_allclose(c.values, a.values + b.values, atol=1e-12)

    def test_json_round_trip(self):
        f = scalar_field(2)
        data = batch_transform(f, 0, ndirs=4, noffsets=4)
        back = MomentData.from_json(data.to_json())
        np.testing.assert_allclose(back.values, data.values)
        np.testing.assert_allclose(back.directions, data.directions)

    def test_json_missing_key_named(self):
        d = json.loads(batch_transform(scalar_field(2), 0, ndirs=4,
                                       noffsets=4).to_json())
        del d["geometry"]["offsets"]
        with pytest.raises(ValueError, match="missing key 'offsets'"):
            MomentData.from_json(json.dumps(d))
        with pytest.raises(ValueError, match="missing key 'moments'"):
            MomentData.from_json(json.dumps({"n": 2, "m": 0, "k": 0, "geometry": {}}))

    @pytest.mark.parametrize("n, edit, match", [
        (3, lambda d: d["geometry"].update(
            directions=[u[:2] for u in d["geometry"]["directions"]]),
         r"directions shape \(4, 2\) is not \(D, 3\)"),
        (3, lambda d: d["geometry"].update(
            frames=[[row[:1] for row in f] for f in d["geometry"]["frames"]]),
         r"frames shape \(4, 3, 1\) != \(4, 3, 2\)"),
        (2, lambda d: d["geometry"].update(offsets=[d["geometry"]["offsets"]]),
         "offsets must be 1-D"),
        (2, lambda d: d.update(n=0), "n >= 2, got n=0"),
        (2, lambda d: d.update(n=1), "n >= 2, got n=1"),
        (2, lambda d: d.update(moments=[v[:12] for v in d["moments"]]),
         r"values shape \(1, 4, 3\) != \(1, 4, 4\)"),
    ], ids=["directions-2-columns", "frames-1-column", "offsets-2-d", "n-0", "n-1",
            "values-short"])
    def test_json_bad_geometry_named(self, n, edit, match):
        # geometry that disagrees with n would give lines in the wrong space
        d = json.loads(batch_transform(scalar_field(n), 0, ndirs=4,
                                       noffsets=4).to_json())
        edit(d)
        with pytest.raises(ValueError, match=match):
            MomentData.from_json(json.dumps(d))

    def test_json_with_quadrature_entry_loads(self):
        # files written when the values came from Gauss-Legendre quadrature
        # carry its rule; nothing reads it
        data = batch_transform(scalar_field(2), 0, ndirs=4, noffsets=4)
        d = json.loads(data.to_json())
        d["geometry"]["quadrature"] = {"scheme": "gauss-legendre", "count": 200,
                                       "radius": 8.0}
        back = MomentData.from_json(json.dumps(d))
        assert np.array_equal(back.values, data.values)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_quadrature_at_every_line(self, n):
        rng = np.random.default_rng(28 + n)
        for m in range(4):
            f = random_field(n, m, rng)
            rule = QuadratureRule.for_field(f)
            for k in range(m + 1):
                data = batch_transform(f, k, ndirs=8, noffsets=4)
                for d, o in np.ndindex(data.values.shape[1:]):
                    # offsets run in row-major order over the (n-1)-fold grid
                    s = np.unravel_index(o, (data.offsets.size,) * (n - 1))
                    ln = Line(data.frames[d] @ data.offsets[list(s)], data.directions[d])
                    for ell in range(k + 1):
                        assert data.values[ell, d, o] == pytest.approx(
                            moment_numeric(f, ln, ell, rule), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_samples_the_oracle_per_direction(self, n):
        f = random_field(n, 3, np.random.default_rng(30 + n))
        data = batch_transform(f, 3, ndirs=8, noffsets=5)
        grids = np.meshgrid(*([data.offsets] * (n - 1)), indexing="ij")
        s = np.stack([g.ravel() for g in grids], axis=-1)
        count = (f.degree + 3) // 2 + 1
        for d in range(data.ndirs):
            x = s @ data.frames[d].T
            # one all-orders pass per direction, exactly; the per-order oracle
            # integrates with fewer nodes below k and may differ by rounding
            assert np.array_equal(data.values[:, d],
                                  _gauss_hermite(f, x, data.directions[d], 3, count).T)
            for ell in range(4):
                want = moment_oracle(f, x, data.directions[d], ell)
                np.testing.assert_allclose(data.values[ell, d], want,
                                           rtol=0, atol=1e-15 * np.abs(want).max())
