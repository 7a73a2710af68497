"""Tensor-field representations and the differential operators on them.

Two realizations of a symmetric-tensor field:

* :class:`GaussPolyField` -- components are (multivariate polynomial) x
  exp(-a|x|^2); closed under symmetrized differentiation, divergence and
  the Fourier transform, which is what makes it usable as an exact oracle.
  The polynomials are two arrays, the distinct exponents and their
  coefficients per packed component.  Sampling, the derivatives and the
  Fourier transform scatter them into one dense box[s, e_1, ..., e_n] and
  act on it axis by axis.
* :class:`GridField` -- real uniform-grid samples.  On the grid, d^k and
  delta^k exist only as the symtensor applier ``apply_symbol`` with the
  tables ``d_symbol`` and ``delta_symbol``, on the real-FFT half spectrum
  under periodic extension; GaussPolyField reads the same tables in space.

Fourier convention throughout: F u(y) = (2 pi)^{-n/2} int e^{-i<x,y>} u(x) dx.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .symtensor import _index_map, _json_real, d_symbol, delta_symbol, json_index, json_keys, \
    json_value, monomials, multi_indices, mult_weights, sym_dim

__all__ = [
    "GaussPolyField",
    "GridField",
    "GridSpec",
    "random_field",
]

# ---------------------------------------------------------------------------
# the coefficient box: box[s, e_1, ..., e_n] is the coefficient of
# x_1^e_1 ... x_n^e_n in component s, the same size along every exponent axis


def _box(exps: np.ndarray, coef: np.ndarray, room: int = 0) -> np.ndarray:
    """The terms scattered into a box, repeated rows summed, ``room`` spare powers per axis."""
    size = int(exps.max(initial=0)) + 1 + room
    box = np.zeros((coef.shape[1],) + (size,) * exps.shape[1], coef.dtype)
    np.add.at(box, (slice(None), *exps.T), coef.T)
    return box


def _terms(box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exps, coef) of the exponents nonzero in some component, in lexicographic order."""
    exps = np.argwhere(box.any(axis=0))
    return exps, np.ascontiguousarray(box[(slice(None), *exps.T)].T)


def _partial(box: np.ndarray, axis: int, a: float) -> np.ndarray:
    """d/dx_axis (p e^{-a|x|^2}) = (dp/dx_axis - 2 a x_axis p) e^{-a|x|^2}, every component.

    The top power along ``axis`` must be free: x_axis p moves every term up one.
    """
    lead = (slice(None),) * (axis + 1)
    lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
    powers = np.arange(1.0, box.shape[axis + 1]).reshape((-1,) + (1,) * (box.ndim - axis - 2))
    out = np.zeros_like(box)
    out[lo] = box[hi] * powers
    out[hi] += (-2.0 * a) * box[lo]
    return out


@lru_cache(maxsize=256)
def _support_radius(a: float, degree: int, bound: float, cutoff: float) -> float:
    # cached: moment_numeric asks for the same field's radius on every line
    r = 1.0
    while bound * max(r, 1.0) ** degree * math.exp(-a * r * r) >= cutoff:
        r *= 1.25
        if r > 1e4:
            raise ValueError(f"Gaussian width a = {a} is too small: the field's "
                             "effective support radius exceeds 1e4")
    return r


@dataclass(frozen=True, eq=False)
class GaussPolyField:
    """Symmetric m-tensor field with components p_s(x) exp(-a |x|^2).

    ``exps`` (T, n) holds the distinct exponents in lexicographic order and
    ``coef`` (T, sym_dim(n, m)) the coefficient of x^exps[t] in each packed
    component (see :mod:`raymoments.symtensor` for the ordering).
    Construction sums repeated exponent rows, drops rows that are zero in
    every component and sorts the rest; both arrays are then read-only.
    """

    n: int
    m: int
    a: float
    exps: np.ndarray = field(repr=False)
    coef: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"Gaussian width a must be positive and finite, got {self.a}")
        exps, coef = np.asarray(self.exps), np.asarray(self.coef)
        if (exps.ndim != 2 or exps.shape[1] != self.n or exps.dtype.kind not in "iu"
                or (exps < 0).any()):
            raise ValueError(f"exps must be non-negative integers of shape (T, {self.n}), "
                             f"got {exps!r}")
        if coef.shape != (len(exps), sym_dim(self.n, self.m)):
            raise ValueError(f"coef shape {coef.shape} != {(len(exps), sym_dim(self.n, self.m))}")
        if not np.isfinite(coef).all():
            raise ValueError("field coefficients must be finite")
        exps, coef = _terms(_box(exps, coef.astype(np.result_type(coef, float))))
        exps.flags.writeable = coef.flags.writeable = False
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coef", coef)

    @cached_property
    def degree(self) -> int:
        """Total degree, max |e| over the exponents; 0 for a zero field."""
        return int(self.exps.sum(axis=1).max(initial=0))

    # -- evaluation ---------------------------------------------------------

    def eval_packed(self, pts: np.ndarray) -> np.ndarray:
        """Packed coefficients at points (..., n) -> (..., sym_dim)."""
        envelope = np.exp(-self.a * (np.asarray(pts, dtype=float) ** 2).sum(axis=-1))
        return (monomials(pts, self.exps) @ self.coef) * envelope[..., None]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "GaussPolyField") -> "GaussPolyField":
        if (self.n, self.m, self.a) != (other.n, other.m, other.a):
            raise ValueError("fields not compatible (n, m, a must match)")
        return replace(self, exps=np.vstack([self.exps, other.exps]),
                       coef=np.vstack([self.coef, other.coef]))

    # -- differential operators ---------------------------------------------
    # The symbol tables of the grid operators, read in space: each term
    # (dst, src, coeff, exponents) adds coeff * d^exponents of component src
    # to component dst, so every order takes one pass over one box.

    def inner_derivative(self, order: int = 1) -> "GaussPolyField":
        """Symmetrized derivative d^order (rank goes up)."""
        terms = d_symbol(self.n, self.m, order)
        return self if order == 0 else self._apply_symbol(self.m + order, terms, order)

    def divergence(self, order: int = 1) -> "GaussPolyField":
        """Contracted derivative delta^order (rank goes down)."""
        terms = delta_symbol(self.n, self.m, order)
        return self if order == 0 else self._apply_symbol(self.m - order, terms, order)

    def _apply_symbol(self, m_out: int, terms, order: int) -> "GaussPolyField":
        box = _box(self.exps, self.coef, room=order)

        @lru_cache(maxsize=None)
        def partial(e: tuple) -> np.ndarray:
            # d^e of every component, one _partial per order, cached per e
            if not any(e):
                return box
            ax = next(j for j, p in enumerate(e) if p)
            return _partial(partial(e[:ax] + (e[ax] - 1,) + e[ax + 1:]), ax, self.a)

        out = np.zeros((sym_dim(self.n, m_out),) + box.shape[1:], box.dtype)
        for dst, src, coeff, e in terms:
            out[dst] += coeff * partial(e)[src]
        return GaussPolyField(self.n, m_out, self.a, *_terms(out))

    # -- Fourier transform ---------------------------------------------------

    def fourier_analytic(self) -> "GaussPolyField":
        """Closed-form Fourier transform; a Gaussian-polynomial field in y.

        On each axis F[x^p e^{-a x^2}] = (i d/dy)^p [(2a)^{-1/2} e^{-y^2 / 4a}]:
        row p of one table, contracted with every exponent axis of the box.
        The width parameter maps to 1/(4a).
        """
        b = 1.0 / (4.0 * self.a)
        box = _box(self.exps, self.coef)
        table = np.zeros((box.shape[1],) * 2, complex)
        table[0, 0] = (2.0 * self.a) ** -0.5
        for p in range(1, len(table)):
            table[p] = 1j * _partial(table[None, p - 1], 0, b)[0]
        for _ in range(self.n):      # contracts the leading exponent axis each time
            box = np.tensordot(box, table, axes=([1], [0]))
        return GaussPolyField(self.n, self.m, b, *_terms(box))

    # -- support and sampling -------------------------------------------------

    def effective_radius(self, cutoff: float = 1e-12) -> float:
        """Radius R with e^{-a R^2} * (coefficient-sum bound on |p|) < cutoff."""
        bound = float(np.abs(self.coef).sum(axis=0).max()) or 1.0
        return _support_radius(self.a, self.degree, bound, cutoff)

    def sample(self, spec: "GridSpec") -> "GridField":
        """Nodewise evaluation onto a uniform grid, one axis at a time.

        Contracts the box with the table x^p e^{-a x^2} of the grid axis.
        """
        data = _box(self.exps, self.coef)
        x = spec.axes()[0]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            table = np.exp(-self.a * x * x) * x ** np.arange(data.shape[1])[:, None]
        for _ in range(self.n):      # contracts the leading exponent axis each time
            data = np.tensordot(data, table, axes=([1], [0]))
        if not np.isfinite(data).all():
            # with finite coefficients only an overflowing x^2 or x^p gets
            # here: e^{-a x^2} underflows to 0, and 0 * inf is nan
            raise ValueError(f"sampling on [-{spec.extent}, {spec.extent})^{self.n} "
                             "gave non-finite values; the grid extent is too large")
        return GridField(self.m, spec, np.ascontiguousarray(data))

    # -- JSON form -------------------------------------------------------------

    def to_json(self) -> str:
        comp = {}
        for p, alpha in enumerate(multi_indices(self.n, self.m)):
            key = "".join(str(i + 1) for i in alpha)
            comp[key] = [{"c": _json_real(c), "pow": e}
                         for e, c in zip(self.exps.tolist(), self.coef[:, p]) if c != 0]
        return json.dumps({"n": self.n, "m": self.m, "a": self.a, "components": comp})

    @classmethod
    def from_json(cls, text: str) -> "GaussPolyField":
        """The field of a JSON text; a member of the wrong type is a ValueError naming it."""
        what = "field JSON"
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed {what}: {exc}") from exc
        n, m, a, components = json_keys(
            d, {"n": int, "m": int, "a": float, "components": dict}, what)
        idx, terms, keys = _index_map(n, m), [], {}
        for key, comp_terms in components.items():
            col = idx[tuple(sorted(json_index(key, n, m, what)))]
            if keys.setdefault(col, key) != key:
                raise ValueError(f"malformed {what}: components '{keys[col]}' and '{key}' "
                                 "are one symmetric component")
            term = f"{what}: bad term in component '{key}'"
            for t in json_value(comp_terms, key, what, list):
                c, e = json_keys(t, {"c": float, "pow": list}, term)
                e = [json_value(v, "pow", term, int) for v in e]
                if len(e) != n or any(v < 0 for v in e):
                    raise ValueError(f"malformed {term}: 'pow' must be {n} non-negative integers")
                terms.append((e, col, c))
        # one row per term; the constructor sums repeated exponents
        coef = np.zeros((len(terms), sym_dim(n, m)))
        coef[np.arange(len(terms)), [col for _, col, _ in terms]] = [c for _, _, c in terms]
        return cls(n, m, a, np.array([e for e, _, _ in terms], int).reshape(len(terms), n), coef)


def random_field(n: int, m: int, rng: np.random.Generator,
                 a: float = 1.0, degree: int = 2) -> GaussPolyField:
    """Random Gaussian-polynomial field with O(1) coefficients."""
    exps = [e for e in np.ndindex((degree + 1,) * n) if sum(e) <= degree]
    coef = np.stack([rng.uniform(-1, 1, len(exps)) for _ in range(sym_dim(n, m))], axis=1)
    return GaussPolyField(n, m, a, np.array(exps, int).reshape(len(exps), n), coef)


# ---------------------------------------------------------------------------
# grid fields


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid on [-extent, extent)^n with ``count`` nodes per axis."""

    n: int
    count: int
    extent: float

    def __post_init__(self):
        for name, value, least in (("dimension n", self.n, 1), ("node count", self.count, 4)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"grid {name} must be an integer >= {least}, got {value!r}")
        if not 0 < self.extent < math.inf:
            raise ValueError(f"grid extent must be positive and finite, got {self.extent}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.count

    def axes(self) -> list[np.ndarray]:
        ax = -self.extent + self.spacing * np.arange(self.count)
        return [ax] * self.n

    # -- real-FFT half spectrum ------------------------------------------------
    # Grid data is real, so its spectrum is Hermitian and the bins 0..count//2
    # of the last grid axis hold all of it.  Every grid transform is this one
    # rfftn/irfftn pair over the trailing n axes, on scipy.fft's pocketfft:
    # one multi-axis call per transform, its 1-D passes spread over every
    # core.  The passes are independent, so the result does not depend on the
    # number of workers.

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
        # imported here: scipy.fft costs about 0.35 s and 25 MB to import, and
        # most of the package never transforms a grid
        import scipy.fft
        return scipy.fft.rfftn(data, axes=tuple(range(-self.n, 0)), workers=-1)

    def irfftn(self, hats: np.ndarray) -> np.ndarray:
        """Real C-ordered grid data from a half spectrum; inverts :meth:`rfftn`."""
        import scipy.fft  # imported here, as in rfftn
        return np.ascontiguousarray(scipy.fft.irfftn(
            hats, s=(self.count,) * self.n, axes=tuple(range(-self.n, 0)), workers=-1))

    def power_norm(self, power: float) -> float:
        """The grid L2 norm, multiplicity weights and cell volume included, of half_power power.

        Discrete Parseval: sum_x |u|^2 = count^-n sum_y |u_hat|^2 over the
        full spectrum.
        """
        return math.sqrt(power * (self.spacing / self.count) ** self.n)

    def half_power(self, hats: np.ndarray, m: int) -> float:
        """Sum of |u_hat|^2 over the full-spectrum bins that the rank-m hats stand for.

        hats is the half spectrum, or for n >= 2 any rows of its first grid
        axis, so that the power of a field is the sum of its row slabs'.  On
        the half spectrum the last-axis bins 0 and (even counts) count/2 are
        their own conjugates and weigh 1; every other bin stands for itself
        and its conjugate and weighs 2.
        """
        bins = np.full(self.count // 2 + 1, 2.0)
        bins[0] = 1.0
        if self.count % 2 == 0:
            bins[-1] = 1.0
        # |u_hat|^2 summed per last-axis bin one component at a time, on the
        # interleaved real and imaginary parts, with no full-size temporary
        per_bin = np.zeros(2 * bins.size)
        for w, h in zip(mult_weights(self.n, m), hats):
            parts = np.ascontiguousarray(h, dtype=complex).view(float).reshape(-1, per_bin.size)
            per_bin += w * np.einsum("ij,ij->j", parts, parts)
        return float((per_bin[0::2] + per_bin[1::2]) @ bins)


@dataclass(frozen=True)
class GridField:
    """Per-node packed symmetric tensor samples on a uniform grid.

    ``data`` is real, of shape (sym_dim(n, m),) + (count,)*n with n the
    dimension of ``spec``; complex data raises ValueError.  Periodic
    extension is assumed by the spectral symbols of ``symtensor.apply_symbol``;
    fields are expected to decay below the boundary cutoff of their
    generating :class:`GaussPolyField`.
    """

    m: int
    spec: GridSpec
    data: np.ndarray = field(repr=False)
    n = property(lambda self: self.spec.n)

    def __post_init__(self):
        want = (sym_dim(self.n, self.m),) + (self.spec.count,) * self.n
        if self.data.shape != want:
            raise ValueError(f"data shape {self.data.shape} != {want}")
        if np.iscomplexobj(self.data):
            raise ValueError("grid field data must be real")

    def boundary_max(self) -> float:
        out = 0.0
        for ax in range(self.n):
            sl = [slice(None)] * (self.n + 1)
            sl[ax + 1] = 0
            out = max(out, float(np.abs(self.data[tuple(sl)]).max()))
        return out

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
        what = "grid sidecar"
        n, m, count, extent, shape = json_keys(
            sc, {"n": int, "m": int, "count": int, "extent": float, "shape": list}, what)
        shape = [json_value(v, "shape", what, int) for v in shape]
        data = np.fromfile(path_prefix + ".bin")
        if data.size != math.prod(shape):
            raise ValueError(f"grid file {path_prefix}.bin holds {data.size} values, but its "
                             f"sidecar shape {shape} needs {math.prod(shape)}")
        data = data.reshape(shape)
        return cls(m, GridSpec(n, count, extent), data)
