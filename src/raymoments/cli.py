"""Command-line front end.

One subcommand per verification cluster: transform, decompose, verify,
oracle-diff, rank-probe, check-kernel, check-range, chi-verify, slice-check.
Every subcommand but transform judges one claim of ``raymoments.claims``,
which draws the samples, holds the gate and runs the negative control; this
module parses the options, reads and writes fields and grids, and passes the
claim's table, results and verdict on.  ``main`` writes the table as CSV and
a JSON report (config echo, library versions, seed, wall time, results,
verdict).  No option sets a gate.  Identical (config, seed) pairs produce
byte-identical CSV output.

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

from . import __version__, claims
from .fields import GaussPolyField, GridField, GridSpec, random_field
from .helmholtz import decompose_k
from .ray import batch_transform

_GENERATOR = "numpy PCG64"

# subcommand -> (default CSV path, report path), each a function of the args;
# kept off the args so that the report's config echo holds only options
_OUTPUTS: dict = {}


def _load_field(path: str) -> GaussPolyField:
    with open(path) as fh:
        return GaussPolyField.from_json(fh.read())


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


def cmd_decompose(args):
    f = _load_field(args.field)
    F = f.sample(GridSpec(f.n, args.grid, args.extent))
    g, v = decompose_k(F, args.k)
    for part, grid in zip("fgv", (F, g, v)):
        grid.dump(f"{args.out_prefix}.{part}")
    return claims.decomposition(F, g, v, args.k)


def cmd_verify(args):
    F, g, v = (GridField.load(f"{args.prefix}.{part}") for part in "fgv")
    return claims.decomposition(F, g, v, args.k)


def cmd_oracle_diff(args):
    k = args.m if args.k is None else args.k
    return claims.oracle_equivalence(args.n, args.m, k, args.lines,
                                     np.random.default_rng(args.seed))


def cmd_rank_probe(args):
    return claims.slice_rank(args.n, args.m, args.k, args.trials, np.random.default_rng(args.seed))


def cmd_check_kernel(args):
    return claims.kernel(args.n, args.m, args.k, args.lines, np.random.default_rng(args.seed))


def cmd_check_range(args):
    f = (_load_field(args.field) if args.field
         else random_field(args.n, args.m, np.random.default_rng(args.seed)))
    return claims.range_conditions(f, args.k, args.dirs, args.offsets, args.ntuples, args.seed,
                                   steps=tuple(float(s) for s in args.steps.split(",")))


def cmd_chi_verify(args):
    return claims.chi_identities(args.n, args.m, args.ell, args.points,
                                 np.random.default_rng(args.seed))


def cmd_slice_check(args):
    rng = np.random.default_rng(args.seed)
    f = _load_field(args.field) if args.field else random_field(args.n, args.m, rng)
    return claims.slice_identity(f, args.trials, args.offsets, rng)


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="raymoments", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, csv=lambda a: a.out + ".csv", report=lambda a: a.out,
            seeded=True, **kwargs):
        _OUTPUTS[name] = (csv, report)
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--csv", help="override the CSV output path")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", required=True)
        return p

    p = add("transform", cmd_transform, report=lambda a: a.out + ".report.json",
            seeded=False, help="sample I^0..I^k on a line grid")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dirs", type=int, default=64)
    p.add_argument("--offsets", type=int, default=32)
    p.add_argument("--extent", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add("decompose", cmd_decompose, csv=lambda a: a.out_prefix + ".csv",
            report=lambda a: a.out_prefix + ".report.json",
            seeded=False, help="k-solenoidal/k-potential split")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("--out-prefix", required=True)

    p = add("verify", cmd_verify, csv=lambda a: a.prefix + ".verify.csv",
            report=lambda a: a.out or a.prefix + ".verify.json",
            seeded=False, help="re-check a dumped decomposition")
    p.add_argument("--prefix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)

    p = add("oracle-diff", cmd_oracle_diff, help="quadrature vs closed-form transform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lines", type=int, default=1000)

    p = add("rank-probe", cmd_rank_probe, csv=lambda a: a.out,
            report=lambda a: a.out + ".report.json",
            help="slice-system rank statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)

    p = add("check-kernel", cmd_check_kernel,
            help="moments annihilate (k+1)-potential fields")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lines", type=int, default=500)

    p = add("check-range", cmd_check_range, help="range conditions on moments")
    p.add_argument("--field", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", default="0.025,0.0125")
    p.add_argument("--dirs", type=int, default=16)
    p.add_argument("--offsets", type=int, default=8)
    p.add_argument("--ntuples", type=int, default=8)

    p = add("chi-verify", cmd_chi_verify, help="chi^l construction identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--points", type=int, default=50)

    p = add("slice-check", cmd_slice_check, help="Fourier-slice identity")
    p.add_argument("--field", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--offsets", type=int, default=128)

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
