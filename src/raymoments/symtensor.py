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


def symmetric_products(n: int, m: int, U: np.ndarray) -> dict:
    """{gamma: packed sigma(u_g1 (x) ... (x) u_gm)} over the n columns u_j of U."""
    if m < 0:
        raise ValueError(f"rank must be non-negative, got m={m}")
    table = {(): np.ones(1)}
    for r in range(m):
        mult = sym_mult_matrix(n, r, U.T)              # mult[j]: i_{u_j} on rank r
        table = {g: mult[g[-1]] @ table[g[:-1]] for g in multi_indices(n, r + 1)}
    return table


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
    encoding of the symmetrization: :func:`sym_mult_matrix`, and the symbols
    of d^k and delta^k that the grid, the one-frequency splitting and the
    derivatives of GaussPolyField apply (x_j standing for d_j in space).
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
def _first_order_table(n: int, m: int) -> np.ndarray:
    """The matrices C_a of A(x) = sum_a x_a C_a on rank m, stacked and flattened to (n, -1)."""
    terms = sym_mult_monomials(n, m, 1)        # first: it names a negative rank
    C = np.zeros((n, sym_dim(n, m + 1), sym_dim(n, m)))
    for r, c, v, e in terms:
        C[e.index(1), r, c] = v
    C = C.reshape(n, -1)
    C.flags.writeable = False
    return C


def sym_mult_matrix(n: int, m: int, x: np.ndarray) -> np.ndarray:
    """Packed matrix of i_x: S^m -> S^{m+1}, batched over x[..., n].

    Shape x.shape[:-1] + (sym_dim(n, m+1), sym_dim(n, m)).  Every entry is
    one product x_a C_a[row, col]: a row's multi-index loses one label to
    become the column's.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"x must be real, got dtype {x.dtype}")
    if x.shape[-1:] != (n,):
        raise ValueError(f"x must have a trailing axis of length {n}, got shape {x.shape}")
    A = x @ _first_order_table(n, m)
    return A.reshape(x.shape[:-1] + (sym_dim(n, m + 1), sym_dim(n, m)))


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
