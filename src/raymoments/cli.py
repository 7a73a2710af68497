"""Command-line front end.

One subcommand per verification cluster: transform, decompose, verify,
oracle-diff, rank-probe, check-kernel, check-range, chi-verify, slice-check.
Each subcommand returns its table (CSV header and rows), its results and its
verdict; ``main`` writes the table as CSV and a JSON report (config echo,
library versions, seed, wall time, results, verdict).  Identical (config,
seed) pairs produce byte-identical CSV output.

Exit codes: 0 success, 1 verdict failure, 2 configuration or I/O error.
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
from .john import _phase_point, chi_build, homogeneity_residual, psi_from_phi, range_test
from .ray import (
    QuadratureRule,
    batch_transform,
    moment_numeric,
    moment_oracle,
    oracle_moment_callables,
    random_line,
)
from .slices import assemble_slice_system, kernel_check, rank_probe, slice_check
from .symtensor import sym_dim

_GENERATOR = "numpy PCG64"

# subcommand -> (default CSV path, report path), each a function of the args;
# kept off the args so that the report's config echo holds only options
_OUTPUTS: dict = {}


def _load_field(path: str) -> GaussPolyField:
    with open(path) as fh:
        return GaussPolyField.from_json(fh.read())


def _samples(count: int, option: str) -> range:
    """range(count) for a sampling loop; a verdict over no samples would pass vacuously."""
    if count < 1:
        raise ValueError(f"{option} must be at least 1, got {count}")
    return range(count)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write the header, then rows: a list of tuples, or a str of joined lines."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, str):
            fh.write(rows)
            return
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_report(path: str, args: argparse.Namespace, results: dict,
                  passed: bool, t0: float) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    report = {
        "command": args.command,
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


# ---------------------------------------------------------------------------
# subcommands: each returns (CSV header, CSV rows, report results, verdict)


def cmd_transform(args):
    f = _load_field(args.field)
    data = batch_transform(f, args.k, ndirs=args.dirs, noffsets=args.offsets,
                           extent=args.extent)
    with open(args.out, "w") as fh:
        fh.write(data.to_json())
    # one line per (moment, direction, offset), joined here: a csv.writer call
    # per row took more than twice as long at 64 x 32^2 lines
    index = np.indices(data.values.shape).reshape(3, -1).tolist()
    rows = "".join(map("{},{},{},{!r}\n".format, *index, data.values.ravel().tolist()))
    return (["moment", "direction", "offset", "value"], rows,
            {"ndirs": data.ndirs, "noffsets": int(data.offsets.size),
             "max_abs_value": float(np.abs(data.values).max())}, True)


def _decomposition_verdict(report: dict, tol: float):
    passed = (report["reconstruction_residual"] < tol
              and report["solenoidal_residual"] < tol)
    return ["quantity", "value"], sorted(report.items()), report, passed


def cmd_decompose(args):
    f = _load_field(args.field)
    spec = GridSpec(f.n, args.grid, args.extent)
    F = f.sample(spec)
    g, v = decompose_k(F, args.k)
    F.dump(args.out_prefix + ".f")
    g.dump(args.out_prefix + ".g")
    v.dump(args.out_prefix + ".v")
    return _decomposition_verdict(verify_decomposition(F, g, v, args.k), args.tol)


def cmd_verify(args):
    F = GridField.load(args.prefix + ".f")
    g = GridField.load(args.prefix + ".g")
    v = GridField.load(args.prefix + ".v")
    return _decomposition_verdict(verify_decomposition(F, g, v, args.k), args.tol)


def cmd_oracle_diff(args):
    k = args.k if args.k is not None else args.m
    if k < 0:
        raise ValueError(f"moment order k must be non-negative, got k={k}")
    rng = np.random.default_rng(args.seed)
    f = random_field(args.n, args.m, rng)
    rule = QuadratureRule.for_field(f)
    rows, worst = [], 0.0
    for i in _samples(args.lines, "--lines"):
        ln = random_line(args.n, rng)
        for q in range(k + 1):
            num = moment_numeric(f, ln, q, rule)
            exact = moment_oracle(f, ln.x, ln.xi, q)
            rel = abs(num - exact) / max(abs(exact), 1e-300)
            worst = max(worst, rel)
            rows.append((i, q, rel))
    return (["line", "q", "rel_error"], rows,
            {"max_rel_error": worst, "lines": args.lines}, worst < args.tol)


def cmd_rank_probe(args):
    rng = np.random.default_rng(args.seed)
    rows, passed = [], True
    full = sym_dim(args.n, args.m)
    for trial in _samples(args.trials, "--trials"):
        y = rng.normal(size=args.n)
        res = rank_probe(assemble_slice_system(args.n, args.m, args.k, y))
        ok = res.rank == full and res.sigma_min / res.sigma_max > 1e-6
        passed = passed and ok
        rows.append((trial, *[float(c) for c in y], res.rank, res.sigma_min))
    return (["trial"] + [f"y{i+1}" for i in range(args.n)] + ["rank", "sigma_min"],
            rows, {"full_rank": full, "trials": args.trials}, passed)


def cmd_check_kernel(args):
    if args.k + 1 > args.m:
        raise ValueError(f"need k+1 <= m, got k={args.k}, m={args.m}")
    rng = np.random.default_rng(args.seed)
    v = random_field(args.n, args.m - args.k - 1, rng, degree=1)
    lines = [random_line(args.n, rng) for _ in range(args.lines)]
    residual = kernel_check(v, args.k, lines)
    control = kernel_check(v, args.k, lines, orders=[args.k + 1])
    return (["quantity", "value"],
            [("kernel_residual", residual), ("negative_control", control)],
            {"kernel_residual": residual, "negative_control": control},
            residual < 1e-8 and control > 1e-3)


def cmd_check_range(args):
    if args.field:
        f = _load_field(args.field)
    else:
        f = random_field(args.n, args.m, np.random.default_rng(args.seed))
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
    return (["test", "id", "residual_coarse", "residual_fine", "order"], rows,
            {"parity_pass": rep.parity_pass, "john_pass": rep.john_pass,
             "transport_pass": rep.transport_pass,
             "max_john_residual": rep.max_john_residual()}, rep.passed)


def cmd_chi_verify(args):
    if not 0 <= args.ell <= args.m:
        raise ValueError(f"need 0 <= ell <= m, got ell={args.ell}, m={args.m}")
    rng = np.random.default_rng(args.seed)
    gs = [random_field(args.n, args.m - s, rng, degree=1)
          for s in range(args.ell + 1)]
    f = gs[0]
    for s in range(1, args.ell + 1):
        f = f + gs[s].inner_derivative(s)
    moments = oracle_moment_callables(f, args.ell)
    psi = psi_from_phi(moments, args.m, args.ell)
    chi = chi_build(psi, gs[: args.ell], args.ell, args.m)
    rows, worst = [], 0.0
    for i in _samples(args.points, "--points"):
        x, xi = _phase_point(args.n, rng)
        ref = moment_oracle(gs[args.ell], x, xi, 0)
        got = chi(x, xi)
        identity = abs(got - ref) / max(abs(ref), 1e-300)
        t = rng.uniform(0.5, 1.5)
        translation = abs(chi(x + t * xi, xi) - got) / max(abs(got), 1e-300)
        homogeneity = homogeneity_residual(chi, args.m - args.ell - 1, x, xi)
        worst = max(worst, identity, translation, homogeneity)
        rows.append((i, identity, translation, homogeneity))
    return (["point", "identity", "translation", "homogeneity"], rows,
            {"max_residual": worst, "points": args.points}, worst < args.tol)


def cmd_slice_check(args):
    rng = np.random.default_rng(args.seed)
    if args.field:
        f = _load_field(args.field)
    else:
        f = random_field(args.n, args.m, rng)
    rows, worst = [], 0.0
    for trial in _samples(args.trials, "--trials"):
        xi = rng.normal(size=f.n)
        xi /= np.linalg.norm(xi)
        y = rng.normal(size=f.n)
        y -= (y @ xi) * xi
        for q in range(f.m + 1):
            dev = slice_check(f, xi, y, q, noffsets=args.offsets)
            worst = max(worst, dev)
            rows.append((trial, q, dev))
    return (["trial", "q", "deviation"], rows,
            {"max_deviation": worst, "trials": args.trials}, worst < args.tol)


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="raymoments", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, csv=lambda a: a.out + ".csv", report=lambda a: a.out,
            **kwargs):
        _OUTPUTS[name] = (csv, report)
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--csv", help="override the CSV output path")
        return p

    p = add("transform", cmd_transform, report=lambda a: a.out + ".report.json",
            help="sample I^0..I^k on a line grid")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dirs", type=int, default=64)
    p.add_argument("--offsets", type=int, default=32)
    p.add_argument("--extent", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("decompose", cmd_decompose, csv=lambda a: a.out_prefix + ".csv",
            report=lambda a: a.out_prefix + ".report.json",
            help="k-solenoidal/k-potential split")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out-prefix", required=True)

    p = add("verify", cmd_verify, csv=lambda a: a.prefix + ".verify.csv",
            report=lambda a: a.out or a.prefix + ".verify.json",
            help="re-check a dumped decomposition")
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

    p = add("rank-probe", cmd_rank_probe, csv=lambda a: a.out,
            report=lambda a: a.out + ".report.json",
            help="slice-system rank statistics")
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
    t0 = time.time()
    csv_path, report_path = _OUTPUTS[args.command]
    try:
        header, rows, results, passed = args.func(args)
        _write_csv(args.csv or csv_path(args), header, rows)
        _write_report(report_path(args), args, results, passed, t0)
    except (OSError, ValueError) as exc:
        # the library rejects an invalid configuration with ValueError; an
        # unreadable input or unwritable output is an OSError naming its path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
