"""Packed symmetric tensor algebra.

A rank-m symmetric tensor over R^n is stored as one coefficient per
non-decreasing multi-index, ordered colexicographically.  All operations
are pure functions; tensors are immutable after construction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SymTensor",
    "sym_dim",
    "multi_indices",
    "multiplicity",
    "mult_weights",
    "symmetrize",
    "sym_mult",
    "contract",
    "eval_power",
    "monomials",
    "sym_inner",
    "sym_mult_matrix",
    "sym_mult_operators",
    "sym_mult_monomials",
    "xi_power_weights",
]


def sym_dim(n: int, m: int) -> int:
    """Number of independent components of a symmetric m-tensor on R^n."""
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    return math.comb(n + m - 1, m)


@lru_cache(maxsize=None)
def multi_indices(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All non-decreasing multi-indices of length m over axes 0..n-1.

    Ordered colexicographically (last entry varies slowest); this fixes the
    canonical packed coefficient layout.
    """
    combos = itertools.combinations_with_replacement(range(n), m)
    return tuple(sorted(combos, key=lambda t: t[::-1]))


@lru_cache(maxsize=None)
def _index_map(n: int, m: int) -> dict[tuple[int, ...], int]:
    return {alpha: p for p, alpha in enumerate(multi_indices(n, m))}


def multiplicity(alpha: tuple[int, ...]) -> int:
    """Number of distinct orderings of the multi-index alpha."""
    counts: dict[int, int] = {}
    for i in alpha:
        counts[i] = counts.get(i, 0) + 1
    out = math.factorial(len(alpha))
    for c in counts.values():
        out //= math.factorial(c)
    return out


@lru_cache(maxsize=None)
def mult_weights(n: int, m: int) -> np.ndarray:
    """Multiplicity of each packed multi-index, as a vector."""
    w = np.array([multiplicity(a) for a in multi_indices(n, m)], dtype=float)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class SymTensor:
    """Symmetric m-tensor over R^n in packed form.

    ``coeffs[p]`` is the component at the p-th non-decreasing multi-index
    (see :func:`multi_indices`); lookup through ``__getitem__`` accepts any
    ordering of an index tuple.
    """

    n: int
    m: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.shape != (sym_dim(self.n, self.m),):
            raise ValueError(
                f"coeffs length {c.shape} does not match sym_dim({self.n},{self.m})"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, n: int, m: int, dtype=float) -> "SymTensor":
        return cls(n, m, np.zeros(sym_dim(n, m), dtype=dtype))

    @classmethod
    def from_components(cls, n: int, m: int, comp: dict[tuple[int, ...], complex]) -> "SymTensor":
        t = np.zeros(sym_dim(n, m), dtype=complex if any(
            isinstance(v, complex) for v in comp.values()) else float)
        idx = _index_map(n, m)
        for alpha, v in comp.items():
            t[idx[tuple(sorted(alpha))]] = v
        return cls(n, m, t)

    def __getitem__(self, alpha) -> complex:
        if isinstance(alpha, int):
            alpha = (alpha,)
        return self.coeffs[_index_map(self.n, self.m)[tuple(sorted(alpha))]]

    def to_full(self) -> np.ndarray:
        """Unpack to the full n^m component table."""
        full = np.zeros((self.n,) * self.m, dtype=self.coeffs.dtype)
        for p, alpha in enumerate(multi_indices(self.n, self.m)):
            for perm in set(itertools.permutations(alpha)):
                full[perm] = self.coeffs[p]
        return full

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._check_like(other)
        return SymTensor(self.n, self.m, self.coeffs + other.coeffs)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        self._check_like(other)
        return SymTensor(self.n, self.m, self.coeffs - other.coeffs)

    def __mul__(self, s: complex) -> "SymTensor":
        return SymTensor(self.n, self.m, self.coeffs * s)

    __rmul__ = __mul__

    def _check_like(self, other: "SymTensor") -> None:
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("rank/dimension mismatch")

    # -- JSON form: {"n":2,"m":2,"coeffs":{"11":1.0,"12":0.5}}; axis labels 1-based.

    def to_json(self) -> str:
        comp = {}
        for p, alpha in enumerate(multi_indices(self.n, self.m)):
            if self.coeffs[p] != 0:
                comp["".join(str(i + 1) for i in alpha)] = _json_real(self.coeffs[p])
        return json.dumps({"n": self.n, "m": self.m, "coeffs": comp})

    @classmethod
    def from_json(cls, text: str) -> "SymTensor":
        n, m, coeffs = json_keys(json.loads(text), ("n", "m", "coeffs"), "tensor JSON")
        comp = {json_index(key, n, m, "tensor JSON"): v for key, v in coeffs.items()}
        return cls.from_components(n, m, comp)


def _json_real(c) -> float:
    """c as a JSON float; the JSON forms hold real coefficients only."""
    if np.imag(c) != 0:
        raise ValueError(f"coefficient {c} is not real and has no JSON form")
    return float(np.real(c))


def json_keys(d: dict, keys: tuple[str, ...], what: str) -> list:
    """``[d[key] for key in keys]``; a missing key is a ValueError naming it."""
    for key in keys:
        if key not in d:
            raise ValueError(f"malformed {what}: missing key '{key}'")
    return [d[key] for key in keys]


def json_index(key: str, n: int, m: int, what: str) -> tuple[int, ...]:
    """The 0-based multi-index of a component key of 1-based axis labels.

    A key that is not m labels in 1..n is a ValueError naming it.
    """
    alpha = tuple(int(c) - 1 for c in key)
    if len(alpha) != m or any(not 0 <= i < n for i in alpha):
        raise ValueError(f"malformed {what}: bad component key '{key}'")
    return alpha


def symmetrize(raw: np.ndarray) -> SymTensor:
    """Project a full rank-m component table onto its symmetric part.

    Groups the m! permutations by the sorted index they produce, so the cost
    is one pass over the distinct orderings of each multi-index rather than
    an m!-fold sum.
    """
    raw = np.asarray(raw)
    m = raw.ndim
    n = raw.shape[0] if m > 0 else 1
    if m > 0 and raw.shape != (n,) * m:
        raise ValueError(f"expected cubic table, got shape {raw.shape}")
    out = np.zeros(sym_dim(n, m), dtype=raw.dtype)
    for p, alpha in enumerate(multi_indices(n, m)):
        perms = set(itertools.permutations(alpha))
        out[p] = sum(raw[q] for q in perms) / len(perms)
    return SymTensor(n, m, out)


def sym_mult_operators(n: int, lo: int, k: int, x: np.ndarray):
    """i_{x^(k)} on rank lo and its adjoint j_{x^(k)}, as maps of packed coefficients.

    Both read one :func:`sym_mult_matrix` A(x): i is A, and j, the adjoint under
    :func:`sym_inner`, is W_lo^-1 A^T W_hi (W the multiplicity weights); k = 0 is I.
    """
    A = sym_mult_matrix(n, lo, k, _vector(x, n))
    if k == 0:      # exactly I: W_lo^-1 (W_hi w) can round
        return (lambda u: u), (lambda w: w)
    w_hi, w_lo = mult_weights(n, lo + k), mult_weights(n, lo)
    return (lambda u: A @ u), (lambda w: A.T @ (w_hi * w) / w_lo)


def sym_mult(u: SymTensor, x: np.ndarray, k: int) -> SymTensor:
    """Symmetric multiplication i_{x^(k)} u = sigma(x^{(x)k} (x) u), rank m+k."""
    mult, _ = sym_mult_operators(u.n, u.m, k, x)
    return u if k == 0 else SymTensor(u.n, u.m + k, mult(u.coeffs))


def contract(w: SymTensor, x: np.ndarray, k: int) -> SymTensor:
    """Contraction j_{x^(k)} w: sum the last k slots of w against x, rank m-k.

    The adjoint of :func:`sym_mult` under :func:`sym_inner`
    (:func:`sym_mult_operators`).
    """
    if k > w.m:
        raise ValueError(f"contraction order {k} exceeds rank {w.m}")
    _, adjoint = sym_mult_operators(w.n, w.m - k, k, x)
    return w if k == 0 else SymTensor(w.n, w.m - k, adjoint(w.coeffs))


def _vector(x, n: int) -> np.ndarray:
    if np.shape(x) != (n,):
        raise ValueError(f"x must have shape ({n},), got {np.shape(x)}")
    return x


@lru_cache(maxsize=None)
def _index_table(n: int, m: int) -> np.ndarray:
    """multi_indices(n, m) as an integer array of shape (sym_dim, m)."""
    t = np.array(multi_indices(n, m), dtype=int).reshape(sym_dim(n, m), m)
    t.flags.writeable = False
    return t


def xi_power_weights(n: int, m: int, xi: np.ndarray) -> np.ndarray:
    """mult(alpha) xi^alpha for every packed multi-index: (..., n) -> (..., sym_dim).

    Pairing these weights with packed coefficients gives <f, xi^(x)m>.  The
    factors of xi^alpha multiply left to right along alpha.
    """
    factors = np.asarray(xi, dtype=float)[..., _index_table(n, m)]
    return mult_weights(n, m) * factors.prod(axis=-1)


def eval_power(f: SymTensor, xi: np.ndarray) -> complex:
    """Full contraction <f, xi^(x)m> = sum_alpha mult(alpha) f_alpha xi^alpha."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (f.n,):
        raise ValueError("dimension mismatch")
    return (xi_power_weights(f.n, f.m, xi) * f.coeffs).sum()


def sym_inner(a: SymTensor, b: SymTensor) -> complex:
    """Multiplicity-weighted inner product; equals the full-tensor Euclidean one."""
    a._check_like(b)
    return (mult_weights(a.n, a.m) * a.coeffs * b.coeffs).sum()


@lru_cache(maxsize=None)
def sym_mult_monomials(n: int, m: int, k: int):
    """Monomial table of the packed matrix of i_{x^(k)}: S^m -> S^{m+k}.

    Returns tuples (row, col, coeff, exponents) with
    A(x)[row, col] = sum coeff * prod_j x_j^exponents[j].  This is the one
    encoding of the symmetrization: sym_mult, contract, the grid symbols of
    d^k and delta^k and the analytic derivatives of GaussPolyField all read
    it (with x_j standing for the partial derivative d_j in space).
    """
    if k < 0:
        raise ValueError(f"order k must be non-negative, got k={k}")
    idx_lo = _index_map(n, m)
    table: dict[tuple[int, int, tuple[int, ...]], float] = {}
    nslots = math.comb(m + k, k)
    for row, gamma in enumerate(multi_indices(n, m + k)):
        for S in itertools.combinations(range(m + k), k):
            exps = [0] * n
            for i in S:
                exps[gamma[i]] += 1
            rest = tuple(gamma[i] for i in range(m + k) if i not in S)
            key = (row, idx_lo[rest], tuple(exps))
            table[key] = table.get(key, 0.0) + 1.0 / nslots
    return tuple((r, c, v, e) for (r, c, e), v in sorted(table.items()))


@lru_cache(maxsize=None)
def _sym_mult_terms(n: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_mult_monomials` grouped by exponent: A(x) = sum_e x^e C_e.

    Returns the distinct exponents as rows of an (E, n) array and the
    constant matrices C_e flattened to (E, sym_dim(n, m+k) * sym_dim(n, m)).
    """
    terms = sym_mult_monomials(n, m, k)
    exps = sorted({e for *_, e in terms})
    C = np.zeros((len(exps), sym_dim(n, m + k), sym_dim(n, m)))
    for r, c, v, e in terms:
        C[exps.index(e), r, c] += v
    E, C = np.array(exps).reshape(len(exps), n), C.reshape(len(exps), -1)
    E.flags.writeable = C.flags.writeable = False
    return E, C


def sym_mult_matrix(n: int, m: int, k: int, x: np.ndarray) -> np.ndarray:
    """Packed matrix of i_{x^(k)}: S^m -> S^{m+k}, batched over x[..., n].

    Shape x.shape[:-1] + (sym_dim(n, m+k), sym_dim(n, m)).  Each distinct
    monomial x^e is evaluated once (:func:`monomials`) and weighs its
    constant matrix C_e.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"x must be real, got dtype {x.dtype}")
    if x.shape[-1:] != (n,):
        raise ValueError(f"x must have a trailing axis of length {n}, got shape {x.shape}")
    E, C = _sym_mult_terms(n, m, k)
    A = np.einsum("...e,ed->...d", monomials(x, E), C)
    return A.reshape(x.shape[:-1] + (sym_dim(n, m + k), sym_dim(n, m)))


def monomials(x: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """x^e for every row e of exps: (..., n), (E, n) -> (..., E).

    One table of powers, powers[p, j] = x_j^p by repeated multiplication,
    gathered per exponent.  Built in np.result_type(x, float), so an
    integer x gives floats rather than wrapping.
    """
    x, exps = np.asarray(x), np.asarray(exps)
    powers = np.ones((int(exps.max(initial=0)) + 1,) + x.shape[::-1],
                     np.result_type(x, float))
    for p in range(1, len(powers)):
        powers[p] = powers[p - 1] * x.T
    return powers[exps, np.arange(x.shape[-1])].prod(axis=1).T
