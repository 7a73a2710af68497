"""Tensor-field representations and the differential operators on them.

Two realizations of a symmetric-tensor field:

* :class:`GaussPolyField` -- components are (multivariate polynomial) x
  exp(-a|x|^2); closed under symmetrized differentiation, divergence and
  the Fourier transform, which is what makes it usable as an exact oracle.
* :class:`GridField` -- real uniform-grid samples with spectral derivative
  operators under periodic extension, on the real-FFT half spectrum.

Fourier convention throughout: F u(y) = (2 pi)^{-n/2} int e^{-i<x,y>} u(x) dx.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .symtensor import (
    _index_map,
    _json_real,
    json_index,
    json_keys,
    monomials,
    multi_indices,
    mult_weights,
    sym_dim,
    sym_mult_monomials,
)

__all__ = [
    "GaussPolyField",
    "GridField",
    "GridSpec",
    "random_field",
]

# ---------------------------------------------------------------------------
# polynomial helpers: a polynomial is a dict {exponent tuple: coefficient}

Poly = dict


def poly_add(p: Poly, q: Poly, scale=1.0) -> Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + scale * c
        if out[e] == 0:
            del out[e]
    return out


def poly_scale(p: Poly, s) -> Poly:
    return {e: c * s for e, c in p.items()} if s != 0 else {}

def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_diff(p: Poly, axis: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[axis] > 0:
            e2 = e[:axis] + (e[axis] - 1,) + e[axis + 1:]
            out[e2] = out.get(e2, 0.0) + c * e[axis]
    return out


def poly_shift_axis(p: Poly, axis: int) -> Poly:
    """Multiply by the coordinate x_axis."""
    out: Poly = {}
    for e, c in p.items():
        e2 = e[:axis] + (e[axis] + 1,) + e[axis + 1:]
        out[e2] = out.get(e2, 0.0) + c
    return out


def gauss_partial(p: Poly, axis: int, a: float) -> Poly:
    """d/dx_axis (p e^{-a|x|^2}) = (dp/dx_axis - 2 a x_axis p) e^{-a|x|^2}."""
    return poly_add(poly_diff(p, axis), poly_shift_axis(p, axis), -2.0 * a)


def poly_dtype(*polys: Poly) -> type:
    return complex if any(isinstance(c, complex) for p in polys for c in p.values()) else float


# ---------------------------------------------------------------------------


class PackedPoly(NamedTuple):
    """The components of a :class:`GaussPolyField` as arrays, read-only."""
    exps: np.ndarray      # (T, n) int: the distinct exponents, sorted
    coef: np.ndarray      # (T, S): coefficient of exps[t] in component s
    degree: int           # total degree, max |e|
    bound: float          # max over components of sum |c|, 1.0 for a zero field


@lru_cache(maxsize=256)
def _support_radius(a: float, degree: int, bound: float, cutoff: float) -> float:
    # cached: moment_numeric asks for the same field's radius on every line
    r = 1.0
    while bound * max(r, 1.0) ** degree * math.exp(-a * r * r) >= cutoff:
        r *= 1.25
        if r > 1e4:
            raise RuntimeError("effective support radius did not converge")
    return r


@dataclass(frozen=True)
class GaussPolyField:
    """Symmetric m-tensor field with components p_alpha(x) exp(-a |x|^2).

    ``comps`` holds one polynomial per packed multi-index (see
    :mod:`raymoments.symtensor` for the ordering).
    """

    n: int
    m: int
    a: float
    comps: tuple = field(repr=False)

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("Gaussian width parameter a must be positive")
        if len(self.comps) != sym_dim(self.n, self.m):
            raise ValueError("component count does not match rank/dimension")

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, m: int, a: float = 1.0) -> "GaussPolyField":
        return cls(n, m, a, tuple({} for _ in range(sym_dim(n, m))))

    @classmethod
    def from_components(cls, n, m, a, comp_map) -> "GaussPolyField":
        """comp_map: {multi-index tuple: Poly}; missing components are zero."""
        idx = _index_map(n, m)
        comps = [dict() for _ in range(sym_dim(n, m))]
        for alpha, poly in comp_map.items():
            comps[idx[tuple(sorted(alpha))]] = dict(poly)
        return cls(n, m, a, tuple(comps))

    @classmethod
    def scalar(cls, n: int, a: float = 1.0, poly: Poly | None = None) -> "GaussPolyField":
        return cls(n, 0, a, (dict(poly) if poly else {(0,) * n: 1.0},))

    @cached_property
    def packed(self) -> PackedPoly:
        """``comps`` packed once, on first use; every numeric value reads it.

        Evaluation, the oracle and sampling read it; the dict polynomials in
        ``comps`` serve the algebra, the operators and JSON.

        Cached on the instance: ``replace``, the algebra and the operators
        build new instances, so a packed form never outlives its comps.
        """
        exps = sorted({e for p in self.comps for e in p})
        coef = np.array([[p.get(e, 0.0) for p in self.comps] for e in exps],
                        poly_dtype(*self.comps)).reshape(len(exps), len(self.comps))
        bound = max(sum(abs(c) for c in p.values()) for p in self.comps) or 1.0
        exps_arr = np.array(exps, dtype=int).reshape(len(exps), self.n)
        exps_arr.flags.writeable = coef.flags.writeable = False
        return PackedPoly(exps_arr, coef, max(map(sum, exps), default=0), bound)

    # -- evaluation ---------------------------------------------------------

    def envelope(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return np.exp(-self.a * (pts ** 2).sum(axis=-1))

    def eval_packed(self, pts: np.ndarray) -> np.ndarray:
        """Packed coefficients at points (..., n) -> (..., sym_dim), read from ``packed``."""
        exps, coef, _, _ = self.packed
        return (monomials(pts, exps) @ coef) * self.envelope(pts)[..., None]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "GaussPolyField") -> "GaussPolyField":
        if (self.n, self.m, self.a) != (other.n, other.m, other.a):
            raise ValueError("fields not compatible (n, m, a must match)")
        return replace(self, comps=tuple(
            poly_add(p, q) for p, q in zip(self.comps, other.comps)))

    def __mul__(self, s) -> "GaussPolyField":
        return replace(self, comps=tuple(poly_scale(p, s) for p in self.comps))

    __rmul__ = __mul__

    # -- differential operators ---------------------------------------------
    # The symbol tables of the grid operators, read in space: each term
    # (dst, src, coeff, exponents) adds coeff * d^exponents comps[src] to
    # comps[dst], so every order takes one pass.

    def inner_derivative(self, order: int = 1) -> "GaussPolyField":
        """Symmetrized derivative d^order (rank goes up)."""
        terms = d_symbol(self.n, self.m, order)
        return self if order == 0 else self._apply_symbol(self.m + order, terms)

    def divergence(self, order: int = 1) -> "GaussPolyField":
        """Contracted derivative delta^order (rank goes down)."""
        terms = delta_symbol(self.n, self.m, order)
        return self if order == 0 else self._apply_symbol(self.m - order, terms)

    def _apply_symbol(self, m_out: int, terms) -> "GaussPolyField":
        @lru_cache(maxsize=None)
        def partial(src: int, e: tuple) -> Poly:
            # d^e comps[src], one gauss_partial per order, cached per (src, e)
            if not any(e):
                return self.comps[src]
            ax = next(j for j, p in enumerate(e) if p)
            return gauss_partial(partial(src, e[:ax] + (e[ax] - 1,) + e[ax + 1:]), ax, self.a)

        comps: list = [{} for _ in range(sym_dim(self.n, m_out))]
        for dst, src, coeff, e in terms:
            comps[dst] = poly_add(comps[dst], partial(src, e), coeff)
        return GaussPolyField(self.n, m_out, self.a, tuple(comps))

    # -- Fourier transform ---------------------------------------------------

    def fourier_analytic(self) -> "GaussPolyField":
        """Closed-form Fourier transform; a Gaussian-polynomial field in y.

        F[p(x) e^{-a|x|^2}] = p(i d/dy) [(2a)^{-n/2} e^{-|y|^2 / 4a}], applied
        monomial factor by monomial factor; the width parameter maps to 1/(4a).
        """
        b = 1.0 / (4.0 * self.a)
        base_amp = (2.0 * self.a) ** (-self.n / 2.0)
        comps = []
        for p in self.comps:
            acc: Poly = {}
            for e, c in p.items():
                q: Poly = {(0,) * self.n: base_amp * c}
                for ax, k in enumerate(e):
                    for _ in range(k):
                        # i d/dy_ax acting on q(y) e^{-b|y|^2}
                        q = poly_scale(gauss_partial(q, ax, b), 1j)
                acc = poly_add(acc, q)
            comps.append(acc)
        return GaussPolyField(self.n, self.m, b, tuple(comps))

    # -- support and sampling -------------------------------------------------

    def effective_radius(self, cutoff: float = 1e-12) -> float:
        """Radius R with e^{-a R^2} * (coefficient-sum bound on |p|) < cutoff."""
        _, _, deg, bound = self.packed
        return _support_radius(self.a, deg, bound, cutoff)

    def sample(self, spec: "GridSpec") -> "GridField":
        """Nodewise evaluation onto a uniform grid, one axis at a time.

        Contracts the dense coefficient tensor (component, exponent per
        axis) with the table x^p e^{-a x^2} of the grid axis.
        """
        exps, coef, _, _ = self.packed
        deg = int(exps.max(initial=0))
        data = np.zeros((len(self.comps),) + (deg + 1,) * self.n, coef.dtype)
        data[(slice(None), *exps.T)] = coef.T
        x = spec.axes()[0]
        table = np.exp(-self.a * x * x) * x ** np.arange(deg + 1)[:, None]
        for _ in range(self.n):      # contracts the leading exponent axis each time
            data = np.tensordot(data, table, axes=([1], [0]))
        if np.isnan(data).any():
            raise FloatingPointError("NaN encountered while sampling field")
        gf = GridField(self.n, self.m, spec, np.ascontiguousarray(data))
        gf_max = np.abs(data).max() if data.size else 0.0
        warn = bool(gf.boundary_max() > 1e-9 * max(gf_max, 1e-300))
        return replace(gf, truncation_warning=warn)

    # -- restriction ----------------------------------------------------------

    def component_field(self, fixed: tuple[int, ...]) -> "GaussPolyField":
        """Rank m-l field obtained by fixing the first l indices to ``fixed``."""
        ell = len(fixed)
        if ell > self.m:
            raise ValueError("cannot fix more indices than the rank")
        n = self.n
        idx = _index_map(n, self.m)
        comps = []
        for beta in multi_indices(n, self.m - ell):
            comps.append(dict(self.comps[idx[tuple(sorted(fixed + beta))]]))
        return GaussPolyField(n, self.m - ell, self.a, tuple(comps))

    # -- JSON form -------------------------------------------------------------

    def to_json(self) -> str:
        comp = {}
        for p, alpha in enumerate(multi_indices(self.n, self.m)):
            key = "".join(str(i + 1) for i in alpha)
            comp[key] = [{"c": _json_real(c), "pow": list(e)}
                         for e, c in sorted(self.comps[p].items())]
        return json.dumps({"n": self.n, "m": self.m, "a": self.a, "components": comp})

    @classmethod
    def from_json(cls, text: str) -> "GaussPolyField":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed field JSON: {exc}") from exc
        n, m, a, components = json_keys(d, ("n", "m", "a", "components"), "field JSON")
        n, m, a = int(n), int(m), float(a)
        comp_map = {}
        for key, terms in components.items():
            alpha = json_index(key, n, m, "field JSON")
            poly: Poly = {}
            for t in terms:
                e = tuple(int(v) for v in t.get("pow", ()))
                if "c" not in t or len(e) != n or min(e) < 0:
                    raise ValueError(f"malformed field JSON: bad term in component '{key}'")
                poly[e] = poly.get(e, 0.0) + float(t["c"])
            comp_map[alpha] = poly
        return cls.from_components(n, m, a, comp_map)


def random_field(n: int, m: int, rng: np.random.Generator,
                 a: float = 1.0, degree: int = 2) -> GaussPolyField:
    """Random Gaussian-polynomial field with O(1) coefficients."""
    comps = []
    exps = [e for e in np.ndindex((degree + 1,) * n) if sum(e) <= degree]
    for _ in range(sym_dim(n, m)):
        poly = {e: float(c) for e, c in zip(exps, rng.uniform(-1, 1, len(exps)))}
        comps.append(poly)
    return GaussPolyField(n, m, a, tuple(comps))


# ---------------------------------------------------------------------------
# grid fields


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-extent, extent)^n with ``count`` nodes per axis."""

    n: int
    count: int
    extent: float

    def __post_init__(self):
        if self.count < 4:
            raise ValueError("need at least 4 nodes per axis")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.count

    def axes(self) -> list[np.ndarray]:
        ax = -self.extent + self.spacing * np.arange(self.count)
        return [ax] * self.n

    # -- real-FFT half spectrum ------------------------------------------------
    # Grid data is real, so its spectrum is Hermitian and the bins 0..count//2
    # of the last grid axis hold all of it.  Every grid transform is this one
    # rfftn/irfftn pair over the trailing n axes.

    def half_wavenumbers(self) -> list[np.ndarray]:
        """Angular FFT frequencies of the rfftn bins, Nyquist set to zero.

        One array per axis, shaped by np.ix_ to broadcast over the half
        spectrum.  An even grid's Nyquist mode has no conjugate partner, so
        an odd-power symbol that is nonzero there turns real data complex.
        Zeroing the wavenumber itself (Trefethen, Spectral Methods in
        MATLAB, ch. 3) cures that for every order and keeps d^k, delta^k
        and the decomposition on one symbol.
        """
        k = 2.0 * np.pi * np.fft.fftfreq(self.count, d=self.spacing)
        if self.count % 2 == 0:
            k[self.count // 2] = 0.0
        return list(np.ix_(*[k] * (self.n - 1), k[: self.count // 2 + 1]))

    def rfftn(self, data: np.ndarray) -> np.ndarray:
        """Half spectrum of real data over its trailing n (grid) axes."""
        return np.fft.rfftn(data, axes=tuple(range(-self.n, 0)))

    def irfftn(self, hats: np.ndarray) -> np.ndarray:
        """Real C-ordered grid data from a half spectrum; inverts :meth:`rfftn`."""
        return np.ascontiguousarray(np.fft.irfftn(
            hats, s=(self.count,) * self.n, axes=tuple(range(-self.n, 0))))

    def apply_symbol(self, hats: np.ndarray, dim_out: int, terms) -> np.ndarray:
        """Apply a packed differential operator to a packed half spectrum.

        Each term (dst, src, coeff, exponents) adds coeff * d^exponents of
        component src to component dst of the (dim_out,) result, with the
        partial derivative d^e realized as the Fourier symbol (i y)^e.  The
        monomials stay broadcast along the axes they depend on, so the
        symbol matrix is never formed on the grid.
        """
        ks = self.half_wavenumbers()
        out = np.zeros((dim_out,) + hats.shape[1:], dtype=complex)
        for dst, src, coeff, e in terms:
            symbol = coeff * 1j ** sum(e)
            for k, p in zip(ks, e):
                if p:
                    symbol = symbol * k ** p
            out[dst] += symbol * hats[src]
        return out

    def half_norm(self, hats: np.ndarray, m: int) -> float:
        """:meth:`GridField.norm` of the rank-m field with half spectrum hats.

        Discrete Parseval: sum_x |u|^2 = count^-n sum_y |u_hat|^2 over the
        full spectrum.  On the half spectrum the last-axis bins 0 and (even
        counts) count/2 are their own conjugates and weigh 1; every other
        bin stands for itself and its conjugate and weighs 2.
        """
        bins = np.full(self.count // 2 + 1, 2.0)
        bins[0] = 1.0
        if self.count % 2 == 0:
            bins[-1] = 1.0
        w = mult_weights(self.n, m).reshape((-1,) + (1,) * self.n)
        power = float((w * bins * (hats.real ** 2 + hats.imag ** 2)).sum())
        return math.sqrt(power * (self.spacing / self.count) ** self.n)


def d_symbol(n: int, m: int, order: int):
    """Terms (dst, src, coeff, e) of d^order on rank m: A(d), A = i_{y^(order)}.

    coeff is the real coefficient of the partial derivative d^e.
    """
    return sym_mult_monomials(n, m, order)


def delta_symbol(n: int, m: int, order: int) -> list:
    """Terms (dst, src, coeff, e) of delta^order on rank m: W_lo^-1 A(d)^T W_hi."""
    if not 0 <= order <= m:
        raise ValueError(f"divergence order {order} outside 0..{m}")
    lo = m - order
    w_hi, w_lo = mult_weights(n, m), mult_weights(n, lo)
    return [(c, r, v * w_hi[r] / w_lo[c], e)
            for r, c, v, e in sym_mult_monomials(n, lo, order)]


@dataclass(frozen=True)
class GridField:
    """Per-node packed symmetric tensor samples on a uniform grid.

    ``data`` is real, of shape (sym_dim(n, m),) + (count,)*n; complex data
    raises ValueError.  Periodic extension is assumed by the spectral
    operators; fields are expected to decay below the boundary cutoff of
    their generating :class:`GaussPolyField`.
    """

    n: int
    m: int
    spec: GridSpec
    data: np.ndarray = field(repr=False)
    truncation_warning: bool = False

    def __post_init__(self):
        want = (sym_dim(self.n, self.m),) + (self.spec.count,) * self.n
        if self.data.shape != want:
            raise ValueError(f"data shape {self.data.shape} != {want}")
        if np.iscomplexobj(self.data):
            raise ValueError("grid field data must be real")

    def norm(self) -> float:
        """Discrete L2 norm with multiplicity weights (cell volume included)."""
        w = mult_weights(self.n, self.m).reshape((-1,) + (1,) * self.n)
        vol = self.spec.spacing ** self.n
        return float(np.sqrt((w * np.abs(self.data) ** 2).sum() * vol))

    def boundary_max(self) -> float:
        out = 0.0
        for ax in range(self.n):
            sl = [slice(None)] * (self.n + 1)
            sl[ax + 1] = 0
            out = max(out, float(np.abs(self.data[tuple(sl)]).max()))
        return out

    def __add__(self, other: "GridField") -> "GridField":
        self._check_like(other)
        return replace(self, data=self.data + other.data)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_like(other)
        return replace(self, data=self.data - other.data)

    def __mul__(self, s) -> "GridField":
        return replace(self, data=self.data * s)

    __rmul__ = __mul__

    def _check_like(self, other: "GridField") -> None:
        if (self.n, self.m, self.spec) != (other.n, other.m, other.spec):
            raise ValueError("grid fields not congruent")

    # -- spectral derivatives -------------------------------------------------
    # Both operators multiply the half spectrum by a polynomial symbol built
    # from the monomial table A(y) = i_{y^(r)} of symtensor: d^r has the
    # symbol i^r A(y) (d_symbol), delta^r i^r times its weighted adjoint
    # (delta_symbol); GaussPolyField applies the same two tables in space.

    def inner_derivative(self, order: int = 1) -> "GridField":
        """Symmetrized derivative d^order (rank goes up), one real-FFT pair."""
        return self._apply_symbol(self.m + order, d_symbol(self.n, self.m, order))

    def divergence(self, order: int = 1) -> "GridField":
        """Contracted derivative delta^order (rank goes down), one real-FFT pair."""
        return self._apply_symbol(self.m - order, delta_symbol(self.n, self.m, order))

    def _apply_symbol(self, m_out: int, terms) -> "GridField":
        spec = self.spec
        hats = spec.apply_symbol(spec.rfftn(self.data), sym_dim(self.n, m_out), terms)
        return GridField(self.n, m_out, spec, spec.irfftn(hats))

    # -- I/O: flat binary of doubles + JSON sidecar ---------------------------

    def dump(self, path_prefix: str) -> None:
        np.ascontiguousarray(self.data, dtype=float).tofile(path_prefix + ".bin")
        sidecar = {
            "n": self.n, "m": self.m, "count": self.spec.count,
            "extent": self.spec.extent, "spacing": self.spec.spacing,
            "origin": -self.spec.extent, "shape": list(self.data.shape),
        }
        with open(path_prefix + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path_prefix: str) -> "GridField":
        with open(path_prefix + ".json") as fh:
            sc = json.load(fh)
        n, m, count, extent, shape = json_keys(
            sc, ("n", "m", "count", "extent", "shape"), "grid sidecar")
        data = np.fromfile(path_prefix + ".bin").reshape(shape)
        return cls(n, m, GridSpec(n, count, extent), data)
