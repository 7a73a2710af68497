"""Independent term-by-term references that the tests compare the package against."""

import functools
import itertools
import math

import numpy as np

from raymoments.fields import GaussPolyField, GridField
from raymoments.ray import apply_stencil, central_table, householder_frame, moment_oracle, \
    restricted_transform
from raymoments.symtensor import _index_map, apply_symbol, d_symbol, delta_symbol, \
    multi_indices, mult_weights, sym_dim


def comps(f):
    """The components of f as dict polynomials {exponent tuple: coefficient}, zeros left out."""
    return [{e: c for e, c in zip(map(tuple, f.exps.tolist()), col) if c != 0}
            for col in f.coef.T.tolist()]


def field_from_comps(n, m, a, comp_map):
    """The field of dict polynomials {multi-index: {exponent tuple: coefficient}}.

    Missing components are zero; the inverse of comps, indexed by multi-index.
    """
    idx = _index_map(n, m)
    terms = [(e, idx[tuple(sorted(alpha))], c)
             for alpha, poly in comp_map.items() for e, c in poly.items()]
    coef = np.zeros((len(terms), sym_dim(n, m)), poly_dtype(*comp_map.values()))
    for t, (_, col, c) in enumerate(terms):
        coef[t, col] = c
    return GaussPolyField(n, m, a, np.array([e for e, _, _ in terms], int).reshape(-1, n), coef)


def scalar_field(n, a=1.0, poly=None):
    """The scalar field poly(x) exp(-a|x|^2), by default exp(-a|x|^2)."""
    return field_from_comps(n, 0, a, {(): poly or {(0,) * n: 1.0}})


def zero_field(n, m, a=1.0):
    return GaussPolyField(n, m, a, np.zeros((0, n), int), np.zeros((0, sym_dim(n, m))))


def poly_dtype(*polys):
    return complex if any(isinstance(c, complex) for p in polys for c in p.values()) else float


def poly_eval(p, pts):
    """The dict polynomial p at points (..., n), one monomial term at a time."""
    pts = np.asarray(pts)
    out = np.zeros(pts.shape[:-1], dtype=poly_dtype(p))
    for e, c in p.items():
        term = np.ones(pts.shape[:-1])
        for ax, k in enumerate(e):
            if k:
                term = term * pts[..., ax] ** k
        out = out + c * term
    return out


def component_field(f, fixed):
    """Rank m-l field obtained by fixing the first l indices of f to ``fixed``."""
    ell = len(fixed)
    if ell > f.m:
        raise ValueError("cannot fix more indices than the rank")
    idx = _index_map(f.n, f.m)
    cols = [idx[tuple(sorted(fixed + beta))] for beta in multi_indices(f.n, f.m - ell)]
    return GaussPolyField(f.n, f.m - ell, f.a, f.exps, f.coef[:, cols])


def grid_operator(u, m_out, terms):
    """The rank-m_out grid field of the symbol ``terms`` applied to u, in real space.

    The symbol path of decompose_k (rfftn, apply_symbol with d_a as i k_a)
    followed by the inverse transform, so that a real-space residual built
    from it is independent of verify_decomposition's Parseval sums.
    """
    spec = u.spec
    ys = [1j * k for k in spec.half_wavenumbers()]
    hats = apply_symbol(spec.rfftn(u.data), sym_dim(u.n, m_out), terms, ys)
    return GridField(m_out, spec, spec.irfftn(hats))


def verify_full_array(f, g, v, k):
    """verify_decomposition's two residuals, every operator on the whole half spectrum.

    No row slabs: each norm is one weighted sum over the full array
    (half_norm_full_array).  Returns (reconstruction, solenoidal).
    """
    spec, n, m = f.spec, f.n, f.m
    ys = [1j * y for y in spec.half_wavenumbers()]
    f_hat, g_hat, v_hat = (spec.rfftn(u.data) for u in (f, g, v))
    resid = f_hat - g_hat - apply_symbol(v_hat, sym_dim(n, m), d_symbol(n, m - k, k), ys)
    sol = apply_symbol(g_hat, sym_dim(n, m - k), delta_symbol(n, m, k), ys)
    scale = apply_symbol(f_hat, sym_dim(n, m + k), d_symbol(n, m, k), ys)
    return (half_norm_full_array(spec, resid, m) / half_norm_full_array(spec, f_hat, m),
            half_norm_full_array(spec, sol, m - k) / half_norm_full_array(spec, scale, m + k))


@functools.lru_cache(maxsize=None)
def _sym_mult_basis(n, m):
    """C[:, a, c] = symmetrize(e_a (x) u_c), u_c the c-th packed basis tensor of rank m."""
    raw = np.multiply.outer(np.eye(n), to_full(np.eye(sym_dim(n, m)), n, m))  # (a, i_0..i_m, c)
    return symmetrize(np.moveaxis(raw, 0, -2), m + 1)


def sym_mult_vector(n, m, x):
    """Packed matrix of i_x: S^m -> S^{m+1}, batched over x[..., n], by brute force.

    Column c is sum_a x_a C[:, a, c], with no use of the package's table; a
    complex x is a ValueError.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"x must be real, got dtype {x.dtype}")
    return np.einsum("...a,jac->...jc", x, _sym_mult_basis(n, m))


def sym_mult_power(n, m, k, x):
    """Packed matrix of i_{x^(k)}: S^m -> S^{m+k}, batched over x[..., n].

    The product of k brute-force factors sym_mult_vector, since
    sigma(x (x) sigma(x^(k-1) (x) u)) = sigma(x^(k) (x) u): i_{x^(k)} = (i_x)^k.
    """
    if k < 0:
        raise ValueError(f"order k must be non-negative, got k={k}")
    x = np.asarray(x)
    A = np.broadcast_to(np.eye(sym_dim(n, m)), x.shape[:-1] + (sym_dim(n, m),) * 2)
    for r in range(m, m + k):
        A = sym_mult_vector(n, r, x) @ A
    return A


def contract_power(n, m, k, x):
    """Packed matrix of j_{x^(k)}: S^m -> S^{m-k}, W_lo^-1 A^T W_hi with A = sym_mult_power."""
    if k > m:
        raise ValueError(f"contraction order {k} exceeds rank {m}")
    A = np.swapaxes(sym_mult_power(n, m - k, k, x), -1, -2)
    return A * mult_weights(n, m) / mult_weights(n, m - k)[:, None]


def mixed_central(fun, x, xi, x_axes, xi_axes, h):
    """Nested central differences d^r fun / dx^{x_axes} dxi^{xi_axes} at (x, xi)."""
    axes = (*x_axes, *(len(x) + a for a in xi_axes))
    [diff] = apply_stencil(fun, [central_table(axes, 2 * len(x))], x, xi, h)
    return diff / (2 * h) ** len(axes)


def john_residuals_per_table(psi, tables, points, steps, m):
    """range_test's John residuals, one apply_stencil call per table, point and step."""
    return [[sum(abs(apply_stencil(psi, [table], x, xi, h)[0]) for x, xi in points)
             / (2 * h) ** (2 * m + 2) for h in steps] for table in tables]


def psi_split_residuals(psis, chi, gs, ell, m, points, steps):
    """|Psi_I - d_I chi^l / C(m, l) - lower terms| of ladder data, per index tuple I and step."""
    n, binom = len(points[0][0]), math.comb(m, ell)
    out = []
    for idx in itertools.combinations_with_replacement(range(n), ell):
        residuals = []
        for h in steps:
            acc = 0.0
            for x, xi in points:
                lhs = restricted_transform(psis[:ell + 1], idx, x, xi, h=h, m=m)
                rhs = mixed_central(chi, x, xi, idx, (), h) / binom
                perms = list(itertools.permutations(idx))
                for pi in perms:
                    for s in range(ell):
                        comp = component_field(gs[s], tuple(sorted(pi[:ell - s])))
                        term = mixed_central(lambda a, b, c=comp: moment_oracle(c, a, b, 0),
                                             x, xi, pi[ell - s:], (), h)
                        rhs += math.comb(m - s, ell - s) * term / (binom * len(perms))
                acc += abs(lhs - rhs)
            residuals.append(acc)
        out.append(residuals)
    return out


def to_full(c, n, m):
    """Packed rank-m coefficients c on R^n unpacked to the full n^m table; later axes are a batch."""
    full = np.zeros((n,) * m + np.shape(c)[1:], dtype=np.asarray(c).dtype)
    for p, alpha in enumerate(multi_indices(n, m)):
        for perm in set(itertools.permutations(alpha)):
            full[perm] = c[p]
    return full


def symmetrize(raw, m=None):
    """The packed symmetric part of a full n^m table: each entry averaged over its orderings.

    The table is the leading m axes of raw, by default all of them; later axes are a batch.
    """
    raw = np.asarray(raw)
    m = raw.ndim if m is None else m
    n = raw.shape[0] if m else 1
    out = np.zeros((sym_dim(n, m),) + raw.shape[m:], dtype=raw.dtype)
    for p, alpha in enumerate(multi_indices(n, m)):
        perms = set(itertools.permutations(alpha))
        out[p] = sum(raw[q] for q in perms) / len(perms)
    return out


def projector_rotation(f_hat, y, m, k):
    """The k-solenoidal part of packed f_hat at y by rotating the full table.

    Rotate into an orthonormal frame whose last axis is y/|y|, zero every
    component with k or more last-axis indices, rotate back, symmetrize.
    """
    n = len(y)
    u = y / np.linalg.norm(y)
    R = np.column_stack([householder_frame(u), u])
    full = to_full(f_hat, n, m)
    for ax in range(m):
        full = np.moveaxis(np.tensordot(full, R, axes=([ax], [0])), -1, ax)
    for idx in itertools.product(range(n), repeat=m):
        if idx.count(n - 1) >= k:
            full[idx] = 0.0
    for ax in range(m):
        full = np.moveaxis(np.tensordot(full, R, axes=([ax], [1])), -1, ax)
    return symmetrize(full)


def slice_system_rows(n, m, k, y):
    """Rows and tags of the slice system at y, each row by its own sym_mult chain.

    Row mult(alpha) sigma(zeta-monomial (x) y^(x)l)_alpha: the zeta factors one
    at a time, then y^(x)l at once; moment blocks l = 0..k, then divergence
    blocks p = 1..m-k at l = k + p.
    """
    zeta = householder_frame(y)

    def row(ypow, mono):
        t = np.ones(1)
        for r, j in enumerate(mono):
            t = sym_mult_vector(n, r, zeta[:, j]) @ t
        return mult_weights(n, m) * (sym_mult_power(n, len(mono), ypow, y) @ t)

    rows, tags = [], []
    for ell in range(k + 1):
        for mono in multi_indices(n - 1, m - ell):
            rows.append(row(ell, mono))
            tags.append(("moment", ell, mono))
    for p in range(1, m - k + 1):
        for mono in multi_indices(n - 1, m - k - p):
            rows.append(row(k + p, mono))
            tags.append(("divergence", p, mono))
    return np.array(rows), tuple(tags)


def half_norm_full_array(spec, hats, m):
    """GridSpec.power_norm(half_power(hats, m)) as one weighted sum over the whole half spectrum."""
    bins = np.full(spec.count // 2 + 1, 2.0)
    bins[0] = 1.0
    if spec.count % 2 == 0:
        bins[-1] = 1.0
    w = mult_weights(spec.n, m).reshape((-1,) + (1,) * spec.n)
    power = float((w * bins * (hats.real ** 2 + hats.imag ** 2)).sum())
    return math.sqrt(power * (spec.spacing / spec.count) ** spec.n)


def grid_norm_full_array(u):
    """The discrete L2 norm of u, multiplicity weights and cell volume included.

    One weighted sum over the whole data array, in real space.
    """
    w = mult_weights(u.n, u.m).reshape((-1,) + (1,) * u.n)
    return float(np.sqrt((w * np.abs(u.data) ** 2).sum() * u.spec.spacing ** u.n))


def cli_runs(tmp_path, field):
    """One small run of each subcommand, by name; decompose writes the grids verify reads."""
    return {
        "transform": ["transform", "--field", str(field), "--k", "1",
                      "--dirs", "8", "--offsets", "8",
                      "--out", str(tmp_path / "t.json")],
        "decompose": ["decompose", "--field", str(field), "--k", "1",
                      "--grid", "64", "--out-prefix", str(tmp_path / "dec")],
        "verify": ["verify", "--prefix", str(tmp_path / "dec"), "--k", "1"],
        "oracle-diff": ["oracle-diff", "--n", "2", "--m", "1", "--lines", "20",
                        "--seed", "3", "--out", str(tmp_path / "od.json")],
        "rank-probe": ["rank-probe", "--n", "3", "--m", "2", "--k", "1",
                       "--trials", "5", "--seed", "3",
                       "--out", str(tmp_path / "rp.csv")],
        "check-kernel": ["check-kernel", "--n", "2", "--m", "2", "--k", "1",
                         "--lines", "30", "--seed", "3",
                         "--out", str(tmp_path / "ck.json")],
        "check-range": ["check-range", "--n", "2", "--m", "1", "--k", "1",
                        "--dirs", "8", "--offsets", "8", "--ntuples", "1",
                        "--seed", "3", "--out", str(tmp_path / "cr.json")],
        "chi-verify": ["chi-verify", "--n", "2", "--m", "2", "--ell", "1",
                       "--points", "5", "--seed", "3",
                       "--out", str(tmp_path / "cv.json")],
        "slice-check": ["slice-check", "--n", "2", "--m", "1", "--trials", "1",
                        "--offsets", "64", "--seed", "3",
                        "--out", str(tmp_path / "sc.json")],
    }
