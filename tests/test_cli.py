import csv
import json
from pathlib import Path

import numpy as np
import pytest

from raymoments.cli import main
from raymoments.fields import random_field
from raymoments.ray import MomentData

from references import cli_runs


@pytest.fixture
def field_path(tmp_path):
    f = random_field(2, 2, np.random.default_rng(0))
    p = tmp_path / "field.json"
    p.write_text(f.to_json())
    return str(p)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestTransform:
    def test_smoke(self, tmp_path, field_path):
        out = str(tmp_path / "data.json")
        assert main(["transform", "--field", field_path, "--k", "1",
                     "--dirs", "8", "--offsets", "8", "--out", out]) == 0
        report = read_report(out + ".report.json")
        assert report["command"] == "transform"
        assert report["passed"] is True
        header = (tmp_path / "data.json.csv").read_text().splitlines()[0]
        assert header == "moment,direction,offset,value"

    def test_rows_hold_every_value_by_repr(self, tmp_path, field_path):
        out = str(tmp_path / "data.json")
        assert main(["transform", "--field", field_path, "--k", "2",
                     "--dirs", "6", "--offsets", "3", "--out", out]) == 0
        values = MomentData.from_json((tmp_path / "data.json").read_text()).values
        with open(out + ".csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[str(e), str(d), str(o), repr(float(values[e, d, o]))]
                        for e, d, o in np.ndindex(values.shape)]

    def test_k_exceeding_rank(self, tmp_path, field_path):
        out = str(tmp_path / "data.json")
        assert main(["transform", "--field", field_path, "--k", "3",
                     "--out", out]) == 2

    def test_malformed_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["transform", "--field", str(bad), "--k", "0",
                     "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err.startswith("error: malformed field JSON: ")

    @pytest.mark.parametrize("components, member", [
        ([], "'components'"),
        ({"12": [{"c": None, "pow": [1, 0]}]}, "'c'"),
        ({"12": [{"c": 1.0, "pow": 5}]}, "'pow'"),
        ({"12": [3]}, "component '12'"),
        ({"12": {"c": 1.0, "pow": [1, 0]}}, "'12'"),
        ({"12": [{"c": 1.0, "pow": [0, 0]}], "21": [{"c": 1.0, "pow": [0, 0]}]},
         "'12' and '21'"),
    ], ids=["components-list", "c-null", "pow-int", "term-int", "component-object",
            "component-twice"])
    def test_wrongly_typed_field_member(self, tmp_path, capsys, components, member):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "m": 2, "a": 1.0, "components": components}))
        assert main(["transform", "--field", str(bad), "--k", "0",
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed field JSON: ") and member in err

    def test_missing_field_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["transform", "--field", missing, "--k", "0",
                     "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert repr(missing) in err


class TestDecomposeVerify:
    def test_round_trip(self, tmp_path, field_path):
        prefix = str(tmp_path / "dec")
        assert main(["decompose", "--field", field_path, "--k", "1",
                     "--grid", "64", "--out-prefix", prefix]) == 0
        report = read_report(prefix + ".report.json")
        assert main(["verify", "--prefix", prefix, "--k", "1"]) == 0
        verify = read_report(prefix + ".verify.json")
        # the verify pass recomputes through the identical code path
        for key in ("reconstruction_residual", "solenoidal_residual"):
            assert verify["results"][key] == report["results"][key]

    def test_verify_missing_prefix(self, tmp_path):
        assert main(["verify", "--prefix", str(tmp_path / "nope"),
                     "--k", "1"]) == 2

    def test_verify_sidecar_missing_key(self, tmp_path, field_path, capsys):
        prefix = str(tmp_path / "dec")
        assert main(["decompose", "--field", field_path, "--k", "1",
                     "--grid", "16", "--out-prefix", prefix]) == 0
        sidecar = tmp_path / "dec.f.json"
        d = json.loads(sidecar.read_text())
        del d["count"]
        sidecar.write_text(json.dumps(d))
        capsys.readouterr()
        assert main(["verify", "--prefix", prefix, "--k", "1"]) == 2
        assert "missing key 'count'" in capsys.readouterr().err

    @pytest.mark.parametrize("member, value", [("count", "8"), ("n", 2.5)])
    def test_verify_sidecar_wrong_type(self, tmp_path, field_path, capsys, member, value):
        prefix = str(tmp_path / "dec")
        assert main(["decompose", "--field", field_path, "--k", "1",
                     "--grid", "16", "--out-prefix", prefix]) == 0
        sidecar = tmp_path / "dec.f.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), member: value}))
        capsys.readouterr()
        assert main(["verify", "--prefix", prefix, "--k", "1"]) == 2
        assert f"'{member}'" in capsys.readouterr().err

    def test_verify_fails_on_wrong_k_claim(self, tmp_path, field_path):
        prefix = str(tmp_path / "dec")
        main(["decompose", "--field", field_path, "--k", "1",
              "--grid", "32", "--out-prefix", prefix])
        assert main(["verify", "--prefix", prefix, "--k", "2"]) == 2


@pytest.mark.parametrize("args, codes", [
    (["decompose", "--field", "{field}", "--k", "0", "--out-prefix", "{out}"], {2}),
    (["decompose", "--field", "{field}", "--k", "1", "--grid", "3",
      "--out-prefix", "{out}"], {2}),
    (["transform", "--field", "{field}", "--k", "1", "--dirs", "7",
      "--out", "{out}"], {2}),
    (["check-range", "--k", "1", "--dirs", "7", "--out", "{out}"], {2}),
    (["rank-probe", "--n", "2", "--m", "2", "--k", "2", "--out", "{out}"], {2}),
    (["decompose", "--field", "{field}", "--k", "1", "--grid", "33",
      "--out-prefix", "{out}"], {0, 1}),
    (["slice-check", "--offsets", "1", "--out", "{out}"], {2}),
    (["check-range", "--k", "1", "--steps", "0.025,0.025", "--out", "{out}"], {2}),
    (["check-range", "--k", "1", "--steps", "nan,0.0125", "--out", "{out}"], {2}),
    (["check-range", "--n", "3", "--m", "1", "--k", "1", "--ntuples", "0",
      "--out", "{out}"], {2}),
    (["check-range", "--m", "1", "--k", "2", "--out", "{out}"], {2}),
    (["verify", "--prefix", "{out}", "--k", "2"], {2}),
    (["verify", "--prefix", "{out}-nan", "--k", "1"], {2}),
    (["check-kernel", "--n", "3", "--m", "2", "--k", "-1", "--lines", "5",
      "--out", "{out}"], {2}),
    (["oracle-diff", "--n", "2", "--m", "2", "--k", "-1", "--lines", "5",
      "--out", "{out}"], {2}),
    (["chi-verify", "--n", "2", "--m", "2", "--ell", "-1", "--out", "{out}"], {2}),
    (["transform", "--field", "{field}", "--k", "0", "--dirs", "4", "--offsets", "4",
      "--out", "{out}/missing/o.json"], {2}),
    (["transform", "--field", "{field}", "--k", "1", "--extent", "-1",
      "--out", "{out}"], {2}),
    (["transform", "--field", "{field}", "--k", "-1", "--out", "{out}"], {2}),
    (["transform", "--field", "{field}", "--k", "1", "--offsets", "0",
      "--out", "{out}"], {2}),
    (["transform", "--field", "{field}", "--k", "1", "--dirs", "0",
      "--out", "{out}"], {2}),
    (["transform", "--field", "{field}", "--k", "1", "--dirs", "-2",
      "--out", "{out}"], {2}),
    (["slice-check", "--n", "1", "--out", "{out}"], {2}),
    (["oracle-diff", "--n", "2", "--m", "2", "--lines", "0", "--out", "{out}"], {2}),
    (["rank-probe", "--n", "2", "--m", "2", "--k", "1", "--trials", "0",
      "--out", "{out}"], {2}),
    (["slice-check", "--trials", "0", "--out", "{out}"], {2}),
    (["chi-verify", "--n", "2", "--m", "2", "--ell", "1", "--points", "0",
      "--out", "{out}"], {2}),
    (["check-kernel", "--n", "3", "--m", "2", "--k", "1", "--lines", "0",
      "--out", "{out}"], {2}),
    (["decompose", "--field", "{field}", "--k", "1", "--grid", "16", "--extent", "1e200",
      "--out-prefix", "{out}"], {2}),
], ids=["decompose-k0", "decompose-grid3", "transform-dirs7",
        "check-range-dirs7", "rank-probe-k2", "decompose-grid33",
        "slice-check-offsets1", "check-range-equal-steps", "check-range-nan-step",
        "check-range-ntuples0",
        "check-range-k2", "verify-wrong-k", "verify-nan-dump", "check-kernel-k-1", "oracle-diff-k-1",
        "chi-verify-ell-1", "transform-unwritable-out", "transform-extent-1",
        "transform-k-1", "transform-offsets0", "transform-dirs0", "transform-dirs-2",
        "slice-check-n1", "oracle-diff-lines0", "rank-probe-trials0",
        "slice-check-trials0", "chi-verify-points0", "check-kernel-lines0",
        "decompose-extent-1e200"])
def test_library_errors_exit_2(tmp_path, field_path, capsys, args, codes):
    out = str(tmp_path / "out")
    if args[0] == "verify":
        # a k = 1 decomposition for verify to reject under another k, and a
        # copy of it with one NaN in g, which no verdict may read
        for prefix in (out, out + "-nan"):
            assert main(["decompose", "--field", field_path, "--k", "1",
                         "--grid", "16", "--out-prefix", prefix]) == 0
        g = np.fromfile(out + "-nan.g.bin")
        g[100] = np.nan
        g.tofile(out + "-nan.g.bin")
        capsys.readouterr()
    code = main([a.format(field=field_path, out=out) for a in args])
    assert code in codes
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args", [
    "decompose --field {field} --k 1 --out-prefix {out}", "verify --prefix {out} --k 1",
    "oracle-diff --n 2 --m 1 --out {out}", "chi-verify --n 2 --m 2 --ell 1 --out {out}",
    "slice-check --out {out}"], ids=lambda args: args.split()[0])
def test_tol_is_no_option(tmp_path, field_path, capsys, args):
    # the gates are fixed in raymoments.claims: no option loosens a verdict
    with pytest.raises(SystemExit) as exc:
        main(args.format(field=field_path, out=tmp_path / "out").split() + ["--tol", "inf"])
    assert exc.value.code == 2 and "unrecognized arguments: --tol inf" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("args", [
    ["slice-check", "--field", "{field}", "--trials", "1", "--offsets", "8", "--out", "{out}"],
    ["decompose", "--field", "{field}", "--k", "1", "--grid", "16", "--out-prefix", "{out}"],
], ids=["slice-check", "decompose"])
def test_non_finite_field_exits_2(tmp_path, field_path, capsys, args):
    # json reads NaN, which would pass a slice check vacuously (max(0.0, nan)
    # is 0.0) and end decompose in a traceback
    doc = json.loads(Path(field_path).read_text())
    next(iter(doc["components"].values()))[0]["c"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert main([a.format(field=bad, out=tmp_path / "out") for a in args]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["transform", "--field", "{field}", "--k", "1", "--dirs", "4", "--offsets", "4",
     "--out", "{out}"],
    ["slice-check", "--field", "{field}", "--trials", "1", "--offsets", "8", "--out", "{out}"],
    ["check-range", "--field", "{field}", "--k", "1", "--dirs", "4", "--offsets", "4",
     "--ntuples", "1", "--out", "{out}"],
], ids=["transform", "slice-check", "check-range"])
def test_very_wide_field_exits_2(tmp_path, field_path, capsys, args):
    # no support radius up to 1e4 holds a field this wide: a configuration
    # error naming the width, not a verdict failure
    doc = json.loads(Path(field_path).read_text())
    doc["a"] = 1e-9
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    assert main([a.format(field=wide, out=tmp_path / "out") for a in args]) == 2
    assert "width a = 1e-09" in capsys.readouterr().err


class TestSeededCommands:
    def test_oracle_diff(self, tmp_path):
        assert main(["oracle-diff", "--n", "2", "--m", "1", "--lines", "20",
                     "--out", str(tmp_path / "oracle.json")]) == 0

    def test_rank_probe(self, tmp_path):
        out = str(tmp_path / "ranks.csv")
        assert main(["rank-probe", "--n", "3", "--m", "2", "--k", "1",
                     "--trials", "5", "--out", out]) == 0
        lines = (tmp_path / "ranks.csv").read_text().splitlines()
        assert lines[0] == "trial,y1,y2,y3,rank,sigma_min"
        assert len(lines) == 6

    def test_check_kernel(self, tmp_path):
        assert main(["check-kernel", "--n", "2", "--m", "2", "--k", "1",
                     "--lines", "50", "--out", str(tmp_path / "kernel.json")]) == 0

    def test_check_kernel_bad_orders(self, tmp_path):
        assert main(["check-kernel", "--n", "2", "--m", "1", "--k", "1",
                     "--lines", "10", "--out", str(tmp_path / "k.json")]) == 2

    def test_check_range(self, tmp_path):
        assert main(["check-range", "--n", "2", "--m", "2", "--k", "1",
                     "--dirs", "8", "--offsets", "8", "--ntuples", "1",
                     "--out", str(tmp_path / "range.json")]) == 0

    def test_check_range_field_matches_seeded_run(self, tmp_path):
        # --field reads the field that --n/--m/--seed would draw
        field = tmp_path / "field.json"
        field.write_text(random_field(2, 2, np.random.default_rng(3)).to_json())
        common = ["--k", "1", "--dirs", "8", "--offsets", "8", "--ntuples", "2", "--seed", "3"]
        assert main(["check-range", "--n", "2", "--m", "2", *common,
                     "--out", str(tmp_path / "seeded.json")]) == 0
        assert main(["check-range", "--field", str(field), *common,
                     "--out", str(tmp_path / "read.json")]) == 0
        seeded = (tmp_path / "seeded.json.csv").read_bytes()
        assert (tmp_path / "read.json.csv").read_bytes() == seeded
        assert seeded.count(b"\n") > 3

    def test_chi_verify(self, tmp_path):
        assert main(["chi-verify", "--n", "2", "--m", "2", "--ell", "1",
                     "--points", "10", "--out", str(tmp_path / "chi.json")]) == 0

    def test_chi_verify_bad_ell(self, tmp_path):
        assert main(["chi-verify", "--n", "2", "--m", "1", "--ell", "2",
                     "--points", "5", "--out", str(tmp_path / "c.json")]) == 2

    def test_slice_check(self, tmp_path, field_path):
        assert main(["slice-check", "--field", field_path, "--trials", "2",
                     "--offsets", "64", "--out", str(tmp_path / "slice.json")]) == 0


def test_csvs_hold_plain_floats(tmp_path, field_path):
    # _write_csv writes floats by repr, which numpy 2 spells np.float64(...);
    # check-range at n = 3 adds the rows of its control
    runs = {**cli_runs(tmp_path, field_path), "check-range-n3": [
        "check-range", "--n", "3", "--m", "1", "--k", "1", "--dirs", "4", "--offsets", "2",
        "--ntuples", "1", "--out", str(tmp_path / "cr3.json")]}
    for name, args in runs.items():
        table = tmp_path / f"{name}.csv"
        assert main(args + ["--csv", str(table)]) in (0, 1), name
        assert "np." not in table.read_text(), (name, table.read_text()[:200])


class TestDeterminism:
    def test_csv_rerun_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["check-range", "--n", "2", "--m", "1", "--k", "1",
                "--dirs", "8", "--offsets", "8", "--ntuples", "1",
                "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "r1.json"), "--csv", a]) == 0
        assert main(args + ["--out", str(tmp_path / "r2.json"), "--csv", b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        base = ["rank-probe", "--n", "2", "--m", "2", "--k", "1", "--trials", "3"]
        assert main(base + ["--seed", "1", "--out", a]) == 0
        assert main(base + ["--seed", "2", "--out", b]) == 0
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_report_echoes_config(self, tmp_path):
        assert main(["rank-probe", "--n", "2", "--m", "2", "--k", "1",
                     "--trials", "2", "--seed", "5",
                     "--out", str(tmp_path / "r.csv"), "--csv",
                     str(tmp_path / "r.csv")]) == 0
        report = read_report(str(tmp_path / "r.csv") + ".report.json")
        assert report["seed"] == 5
        assert report["generator"] == "numpy PCG64"
        assert set(report["versions"]) == {"python", "numpy", "scipy",
                                           "raymoments"}
