"""Command-line front end.

One subcommand per verification cluster: transform, decompose, verify,
oracle-diff, rank-probe, check-kernel, check-range, chi-verify, slice-check.
Every run emits a JSON report (config echo, library versions, seed, wall
time) and a CSV table of the residual family it measures; identical
(config, seed) pairs produce byte-identical CSV output.

Exit codes: 0 success, 1 verdict failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .fields import GaussPolyField, GridField, GridSpec, random_field
from .helmholtz import decompose_k, verify_decomposition
from .john import chi_build, homogeneity_residual, psi_from_phi, range_test
from .ray import (
    QuadratureRule,
    batch_transform,
    moment_numeric,
    moment_oracle,
    oracle_moment_callables,
    random_line,
)
from .slices import assemble_slice_system, kernel_check, rank_probe, slice_check

_GENERATOR = "numpy PCG64"


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _load_field(path: str) -> GaussPolyField:
    try:
        with open(path) as fh:
            return GaussPolyField.from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: cannot load field spec '{path}': {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_report(path: str, command: str, args: argparse.Namespace,
                  results: dict, passed: bool, t0: float) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    report = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "generator": _GENERATOR,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "raymoments": __version__,
        },
        "wall_time_s": time.time() - t0,
        "results": results,
        "passed": passed,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _csv_path(args: argparse.Namespace, default: str) -> str:
    return args.csv if getattr(args, "csv", None) else default


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args) -> int:
    t0 = time.time()
    f = _load_field(args.field)
    data = batch_transform(f, args.k, ndirs=args.dirs, noffsets=args.offsets,
                           extent=args.extent)
    with open(args.out, "w") as fh:
        fh.write(data.to_json())
    rows = []
    for ell in range(args.k + 1):
        for d in range(data.ndirs):
            for o in range(data.values.shape[2]):
                rows.append((ell, d, o, float(data.values[ell, d, o])))
    _write_csv(_csv_path(args, args.out + ".csv"),
               ["moment", "direction", "offset", "value"], rows)
    _write_report(args.out + ".report.json", "transform", args,
                  {"ndirs": data.ndirs, "noffsets": int(data.offsets.size),
                   "max_abs_value": float(np.abs(data.values).max())},
                  True, t0)
    return 0


def cmd_decompose(args) -> int:
    t0 = time.time()
    f = _load_field(args.field)
    spec = GridSpec(f.n, args.grid, args.extent)
    F = f.sample(spec)
    g, v = decompose_k(F, args.k)
    F.dump(args.out_prefix + ".f")
    g.dump(args.out_prefix + ".g")
    v.dump(args.out_prefix + ".v")
    report = verify_decomposition(F, g, v, args.k)
    passed = (report["reconstruction_residual"] < args.tol
              and report["solenoidal_residual"] < args.tol)
    _write_csv(_csv_path(args, args.out_prefix + ".csv"),
               ["quantity", "value"], sorted(report.items()))
    _write_report(args.out_prefix + ".report.json", "decompose", args,
                  report, passed, t0)
    return 0 if passed else 1


def cmd_verify(args) -> int:
    t0 = time.time()
    try:
        F = GridField.load(args.prefix + ".f")
        g = GridField.load(args.prefix + ".g")
        v = GridField.load(args.prefix + ".v")
    except (OSError, ValueError) as exc:
        print(f"error: cannot load grid fields '{args.prefix}': {exc}",
              file=sys.stderr)
        return 2
    report = verify_decomposition(F, g, v, args.k)
    passed = (report["reconstruction_residual"] < args.tol
              and report["solenoidal_residual"] < args.tol)
    _write_csv(_csv_path(args, args.prefix + ".verify.csv"),
               ["quantity", "value"], sorted(report.items()))
    _write_report(args.out or args.prefix + ".verify.json", "verify", args,
                  report, passed, t0)
    return 0 if passed else 1


def cmd_oracle_diff(args) -> int:
    t0 = time.time()
    k = args.k if args.k is not None else args.m
    if k < 0:
        raise ValueError(f"moment order k must be non-negative, got k={k}")
    rng = _rng(args.seed)
    f = random_field(args.n, args.m, rng)
    rule = QuadratureRule.for_field(f)
    rows, worst = [], 0.0
    for i in range(args.lines):
        ln = random_line(args.n, rng)
        for q in range(k + 1):
            num = moment_numeric(f, ln, q, rule)
            exact = moment_oracle(f, ln.x, ln.xi, q)
            rel = abs(num - exact) / max(abs(exact), 1e-300)
            worst = max(worst, rel)
            rows.append((i, q, rel))
    passed = worst < args.tol
    _write_csv(_csv_path(args, args.out + ".csv"),
               ["line", "q", "rel_error"], rows)
    _write_report(args.out, "oracle-diff", args,
                  {"max_rel_error": worst, "lines": args.lines}, passed, t0)
    return 0 if passed else 1


def cmd_rank_probe(args) -> int:
    t0 = time.time()
    rng = _rng(args.seed)
    rows, passed = [], True
    from .symtensor import sym_dim
    full = sym_dim(args.n, args.m)
    for trial in range(args.trials):
        y = rng.normal(size=args.n)
        res = rank_probe(assemble_slice_system(args.n, args.m, args.k, y))
        ok = res.rank == full and res.sigma_min / res.sigma_max > 1e-6
        passed = passed and ok
        rows.append((trial, *[float(c) for c in y], res.rank, res.sigma_min))
    _write_csv(_csv_path(args, args.out),
               ["trial"] + [f"y{i+1}" for i in range(args.n)]
               + ["rank", "sigma_min"], rows)
    _write_report(args.out + ".report.json", "rank-probe", args,
                  {"full_rank": full, "trials": args.trials}, passed, t0)
    return 0 if passed else 1


def cmd_check_kernel(args) -> int:
    t0 = time.time()
    if args.k + 1 > args.m:
        print(f"error: need k+1 <= m, got k={args.k}, m={args.m}",
              file=sys.stderr)
        return 2
    rng = _rng(args.seed)
    v = random_field(args.n, args.m - args.k - 1, rng, degree=1)
    lines = [random_line(args.n, rng) for _ in range(args.lines)]
    residual = kernel_check(v, args.k, lines)
    control = kernel_check(v, args.k, lines, orders=[args.k + 1])
    passed = residual < 1e-8 and control > 1e-3
    _write_csv(_csv_path(args, args.out + ".csv"), ["quantity", "value"],
               [("kernel_residual", residual), ("negative_control", control)])
    _write_report(args.out, "check-kernel", args,
                  {"kernel_residual": residual, "negative_control": control},
                  passed, t0)
    return 0 if passed else 1


def cmd_check_range(args) -> int:
    t0 = time.time()
    if args.field:
        f = _load_field(args.field)
    else:
        f = random_field(args.n, args.m, _rng(args.seed))
    steps = tuple(float(s) for s in args.steps.split(","))
    data = batch_transform(f, args.k, ndirs=args.dirs, noffsets=args.offsets)
    rep = range_test(data, f.m, args.k, steps=steps,
                     moment_callables=oracle_moment_callables(f, args.k),
                     ntuples=args.ntuples, seed=args.seed)
    rows = [("parity", str(ell), res, res, float("nan"))
            for ell, res in sorted(rep.parity.items())]
    rows += [("john", "+".join(f"{i}{j}" for i, j in r["tuple"]),
              r["residuals"][0], r["residuals"][-1], r["order"])
             for r in rep.john]
    rows += [("transport", str(r["ell"]), r["residuals"][0],
              r["residuals"][-1], r["order"]) for r in rep.transport]
    _write_csv(_csv_path(args, args.out + ".csv"),
               ["test", "id", "residual_coarse", "residual_fine", "order"],
               rows)
    _write_report(args.out, "check-range", args,
                  {"parity_pass": rep.parity_pass, "john_pass": rep.john_pass,
                   "transport_pass": rep.transport_pass,
                   "max_john_residual": rep.max_john_residual()},
                  rep.passed, t0)
    return 0 if rep.passed else 1


def cmd_chi_verify(args) -> int:
    t0 = time.time()
    if not 0 <= args.ell <= args.m:
        raise ValueError(f"need 0 <= ell <= m, got ell={args.ell}, m={args.m}")
    rng = _rng(args.seed)
    gs = [random_field(args.n, args.m - s, rng, degree=1)
          for s in range(args.ell + 1)]
    f = gs[0]
    for s in range(1, args.ell + 1):
        f = f + gs[s].inner_derivative(s)
    moments = oracle_moment_callables(f, args.ell)
    psi = psi_from_phi(moments, args.m, args.ell)
    chi = chi_build(psi, gs[: args.ell], args.ell, args.m)
    rows, worst = [], 0.0
    for i in range(args.points):
        x = rng.uniform(-1.0, 1.0, size=args.n)
        xi = rng.normal(size=args.n)
        xi /= np.linalg.norm(xi)
        xi *= rng.uniform(0.8, 1.2)
        ref = moment_oracle(gs[args.ell], x, xi, 0)
        got = chi(x, xi)
        identity = abs(got - ref) / max(abs(ref), 1e-300)
        t = rng.uniform(0.5, 1.5)
        translation = abs(chi(x + t * xi, xi) - got) / max(abs(got), 1e-300)
        homogeneity = homogeneity_residual(chi, args.m - args.ell - 1, x, xi)
        worst = max(worst, identity, translation, homogeneity)
        rows.append((i, identity, translation, homogeneity))
    passed = worst < args.tol
    _write_csv(_csv_path(args, args.out + ".csv"),
               ["point", "identity", "translation", "homogeneity"], rows)
    _write_report(args.out, "chi-verify", args,
                  {"max_residual": worst, "points": args.points}, passed, t0)
    return 0 if passed else 1


def cmd_slice_check(args) -> int:
    t0 = time.time()
    rng = _rng(args.seed)
    if args.field:
        f = _load_field(args.field)
    else:
        f = random_field(args.n, args.m, rng)
    rows, worst = [], 0.0
    for trial in range(args.trials):
        xi = rng.normal(size=f.n)
        xi /= np.linalg.norm(xi)
        y = rng.normal(size=f.n)
        y -= (y @ xi) * xi
        for q in range(f.m + 1):
            dev = slice_check(f, xi, y, q, noffsets=args.offsets)
            worst = max(worst, dev)
            rows.append((trial, q, dev))
    passed = worst < args.tol
    _write_csv(_csv_path(args, args.out + ".csv"),
               ["trial", "q", "deviation"], rows)
    _write_report(args.out, "slice-check", args,
                  {"max_deviation": worst, "trials": args.trials}, passed, t0)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="raymoments", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--csv", help="override the CSV output path")
        return p

    p = add("transform", cmd_transform, help="sample I^0..I^k on a line grid")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dirs", type=int, default=64)
    p.add_argument("--offsets", type=int, default=32)
    p.add_argument("--extent", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("decompose", cmd_decompose, help="k-solenoidal/k-potential split")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out-prefix", required=True)

    p = add("verify", cmd_verify, help="re-check a dumped decomposition")
    p.add_argument("--prefix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)

    p = add("oracle-diff", cmd_oracle_diff,
            help="quadrature vs closed-form transform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lines", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)

    p = add("rank-probe", cmd_rank_probe, help="slice-system rank statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("check-kernel", cmd_check_kernel,
            help="moments annihilate (k+1)-potential fields")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lines", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("check-range", cmd_check_range, help="range conditions on moments")
    p.add_argument("--field", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", default="0.025,0.0125")
    p.add_argument("--dirs", type=int, default=16)
    p.add_argument("--offsets", type=int, default=8)
    p.add_argument("--ntuples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("chi-verify", cmd_chi_verify, help="chi^l construction identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)

    p = add("slice-check", cmd_slice_check, help="Fourier-slice identity")
    p.add_argument("--field", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--offsets", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # the library rejects an invalid configuration with ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
