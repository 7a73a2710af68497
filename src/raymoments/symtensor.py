"""Packed symmetric tensor algebra.

A rank-m symmetric tensor over R^n is stored as one coefficient per
non-decreasing multi-index, ordered colexicographically, in a 1-D array of
length sym_dim(n, m).  That array is the one tensor type; every operation is
a pure function of such arrays.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "sym_dim",
    "multi_indices",
    "multiplicity",
    "mult_weights",
    "monomials",
    "sym_mult_matrix",
    "sym_mult_operators",
    "sym_mult_monomials",
    "symmetric_products",
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
    canonical packed coefficient layout.  A negative rank is a ValueError.
    """
    if m < 0:
        raise ValueError(f"rank must be non-negative, got m={m}")
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


def _json_real(c) -> float:
    """c as a JSON float; the JSON forms hold real coefficients only."""
    if np.imag(c) != 0:
        raise ValueError(f"coefficient {c} is not real and has no JSON form")
    return float(np.real(c))


_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               list: ((list,), "a list"), dict: ((dict,), "an object")}


def json_value(value, member: str, what: str, kind: type):
    """value as a ``kind``: int, float, list or dict.

    A JSON value of another type, a boolean included, is a ValueError naming the member.
    """
    types, name = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"malformed {what}: '{member}' must be {name}, got {value!r}")
    return kind(value)


def json_keys(d, kinds: dict, what: str) -> list:
    """``[json_value(d[key], key, what, kind) for key, kind in kinds.items()]``.

    A d that is no object, or a missing key, is a ValueError naming it.
    """
    if not isinstance(d, dict):
        raise ValueError(f"malformed {what}: expected an object, got {type(d).__name__}")
    for key in kinds:
        if key not in d:
            raise ValueError(f"malformed {what}: missing key '{key}'")
    return [json_value(d[key], key, what, kind) for key, kind in kinds.items()]


def json_index(key: str, n: int, m: int, what: str) -> tuple[int, ...]:
    """The 0-based multi-index of a component key of 1-based axis labels.

    A key that is not m labels in 1..n, each one ASCII digit, is a
    ValueError naming it.
    """
    if len(key) != m or any(c not in "123456789"[:n] for c in key):
        raise ValueError(f"malformed {what}: bad component key '{key}'")
    return tuple(int(c) - 1 for c in key)


def sym_mult_operators(n: int, lo: int, k: int, x: np.ndarray):
    """i_{x^(k)} on rank lo and its adjoint j_{x^(k)}, as maps of packed coefficients.

    Both read one :func:`sym_mult_matrix` A(x): i is A, and j, the adjoint under
    the multiplicity-weighted inner product <a, b> = sum W a b, is
    W_lo^-1 A^T W_hi (W the multiplicity weights); k = 0 is I.
    """
    if lo < 0:
        raise ValueError(f"contraction order {k} exceeds rank {lo + k}")
    A = sym_mult_matrix(n, lo, k, _vector(x, n))
    if k == 0:      # exactly I: W_lo^-1 (W_hi w) can round
        return (lambda u: u), (lambda w: w)
    w_hi, w_lo = mult_weights(n, lo + k), mult_weights(n, lo)
    return (lambda u: A @ u), (lambda w: A.T @ (w_hi * w) / w_lo)


def symmetric_products(n: int, m: int, U: np.ndarray) -> dict:
    """{gamma: packed sigma(u_g1 (x) ... (x) u_gm)} over the n columns u_j of U."""
    if m < 0:
        raise ValueError(f"rank must be non-negative, got m={m}")
    table = {(): np.ones(1)}
    for r in range(m):
        mult = sym_mult_matrix(n, r, 1, U.T)           # mult[j]: i_{u_j} on rank r
        table = {g: mult[g[-1]] @ table[g[:-1]] for g in multi_indices(n, r + 1)}
    return table


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


@lru_cache(maxsize=None)
def sym_mult_monomials(n: int, m: int, k: int):
    """Monomial table of the packed matrix of i_{x^(k)}: S^m -> S^{m+k}.

    Returns tuples (row, col, coeff, exponents) with
    A(x)[row, col] = sum coeff * prod_j x_j^exponents[j].  This is the one
    encoding of the symmetrization: :func:`sym_mult_operators`,
    :func:`symmetric_products`, the grid symbols of d^k and delta^k and the
    analytic derivatives of GaussPolyField all read it (with x_j standing
    for the partial derivative d_j in space).
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
