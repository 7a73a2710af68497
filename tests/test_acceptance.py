"""Acceptance suite: one test and one printed verdict line per criterion."""

import math
import time

import numpy as np

from raymoments.claims import decomposition, kernel, ladder_field, oracle_equivalence, \
    range_conditions, slice_rank
from raymoments.cli import main as cli_main
from raymoments.fields import GridSpec, random_field
from raymoments.helmholtz import decompose_k, freq_project, projector_formula
from raymoments.john import _phase_point, chi_build, homogeneity_residual, psi_from_phi
from raymoments.ray import moment_oracle, oracle_moment_callables, restricted_transform
from raymoments.symtensor import sym_dim

from references import cli_runs, component_field, grid_norm_full_array, psi_split_residuals


def verdict(num, name, ok, detail):
    print(f"\ncriterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    ok, worst = True, 0.0
    for n in (2, 3):
        for m in (1, 2, 3):
            *_, res, passed = oracle_equivalence(n, m, m, 1000, np.random.default_rng(100 * n + m))
            ok, worst = ok and passed, max(worst, res["max_rel_error"])
    elapsed = time.time() - t0
    verdict(1, "oracle equivalence", ok and elapsed < 30.0,
            f"max rel error {worst:.3e}, {elapsed:.1f}s")


CONFIGS_2 = [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2), (3, 3, 2)]


def test_criterion_2_decomposition():
    ok, worst_recon, worst_sol, worst_pot = True, 0.0, 0.0, 0.0
    for n, m, k in CONFIGS_2:
        spec = GridSpec(n, 128 if n == 2 else 64, 8.0)
        rng = np.random.default_rng(1000 + 100 * n + 10 * m + k)
        for _ in range(10):
            f = random_field(n, m, rng).sample(spec)
            *_, rep, passed = decomposition(f, *decompose_k(f, k), k)
            ok = ok and passed
            worst_recon = max(worst_recon, rep["reconstruction_residual"])
            worst_sol = max(worst_sol, rep["solenoidal_residual"])
        for _ in range(2):
            w = random_field(n, m - k, rng, degree=1)
            f = w.inner_derivative(k).sample(spec)
            g, _ = decompose_k(f, k)
            worst_pot = max(worst_pot, grid_norm_full_array(g) / grid_norm_full_array(f))
    ok = ok and worst_pot < 1e-6
    verdict(2, "decomposition", ok,
            f"recon {worst_recon:.3e}, solenoidal {worst_sol:.3e}, "
            f"potential recovery {worst_pot:.3e}")


def test_criterion_3_projector_equality():
    worst = 0.0
    for n in (2, 3):
        for m in (1, 2, 3):
            for k in range(1, m + 1):
                rng = np.random.default_rng(2000 + 100 * n + 10 * m + k)
                for _ in range(1000):
                    f_hat = rng.normal(size=sym_dim(n, m))
                    y = rng.normal(size=n)
                    got = projector_formula(f_hat, y, m, k)
                    want, _ = freq_project(f_hat, y, m, k)
                    scale = max(float(np.abs(f_hat).max()), 1e-300)
                    worst = max(worst, float(np.abs(got - want).max()) / scale)
    verdict(3, "projector equality", worst < 1e-10, f"max rel dev {worst:.3e}")


def test_criterion_4_kernel():
    ok, worst, weakest_control = True, 0.0, math.inf
    for n, m, k in [(2, 2, 1), (3, 2, 1), (3, 3, 2)]:
        *_, res, passed = kernel(n, m, k, 500, np.random.default_rng(3000 + 100 * n + 10 * m + k))
        ok, worst = ok and passed, max(worst, res["kernel_residual"])
        weakest_control = min(weakest_control, res["negative_control"])
    verdict(4, "kernel annihilation", ok,
            f"max residual {worst:.3e}, min control {weakest_control:.3e}")


def test_criterion_5_injectivity_counting():
    ok, worst_ratio = True, math.inf
    for n, m, k in CONFIGS_2:
        k = min(k, m - 1)        # slice systems require k < m
        rng = np.random.default_rng(4000 + 100 * n + 10 * m + k)
        *_, res, passed = slice_rank(n, m, k, 20, rng)
        ok, worst_ratio = ok and passed, min(worst_ratio, res["min_sigma_ratio"])
    verdict(5, "injectivity counting", ok,
            f"all systems full rank, min sigma ratio {worst_ratio:.3e}")


def test_criterion_6_moment_reduction():
    n = 2
    worst_rel = 0.0
    worst_order = (math.inf, -math.inf)
    for m, r in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        rng = np.random.default_rng(5000 + 10 * m + r)
        f = random_field(n, m, rng)
        J = oracle_moment_callables(f, r)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=n)
            xi = rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            idx = tuple(sorted(rng.integers(n, size=r)))
            want = moment_oracle(component_field(f, idx), x, xi, 0)
            scale = max(abs(want), 1e-3)
            got = restricted_transform(J, idx, x, xi, h=1e-3, m=m)
            worst_rel = max(worst_rel, abs(got - want) / scale)
            e_h = abs(restricted_transform(J, idx, x, xi, h=2e-2, m=m) - want)
            e_h2 = abs(restricted_transform(J, idx, x, xi, h=1e-2, m=m) - want)
            order = math.log(max(e_h, 1e-300) / max(e_h2, 1e-300)) / math.log(2.0)
            worst_order = (min(worst_order[0], order), max(worst_order[1], order))
    ok = worst_rel < 1e-4 and 1.5 <= worst_order[0] and worst_order[1] <= 2.5
    verdict(6, "moment reduction", ok,
            f"max rel {worst_rel:.3e}, orders in "
            f"[{worst_order[0]:.2f}, {worst_order[1]:.2f}]")


def test_criterion_7_range_necessity():
    f = random_field(3, 2, np.random.default_rng(6000))
    _, rows, res, passed = range_conditions(f, 1, dirs=16, offsets=8, ntuples=8, seed=0)
    parity = max(row[2] for row in rows if row[0] == "parity")
    verdict(7, "range necessity", passed,
            f"parity {parity:.3e}, clean orders converge, corrupted plateau "
            f"{res['control_plateau']:.1f}x clean")


def test_criterion_8_chi_psi_suite():
    n, m = 2, 2
    rng = np.random.default_rng(7000)
    f, gs = ladder_field(n, m, m, rng)
    moments = oracle_moment_callables(f, m)
    psis = [psi_from_phi(moments, m, ell) for ell in range(m + 1)]

    worst_chi = 0.0
    chis = {}
    for ell in (1, 2):
        chi = chi_build(psis[ell], gs[:ell], ell, m)
        chis[ell] = chi
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=n)
            xi = rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            ref = moment_oracle(gs[ell], x, xi, 0)
            got = chi(x, xi)
            worst_chi = max(worst_chi, abs(got - ref) / max(abs(ref), 1e-300))
            t = rng.uniform(0.5, 1.5)
            worst_chi = max(worst_chi, abs(chi(x + t * xi, xi) - got)
                            / max(abs(got), 1e-300))
            worst_chi = max(worst_chi, homogeneity_residual(chi, m - ell - 1, x, xi))

    # the decomposition of Psi into chi and correction-field terms must hold
    # with second-order convergence of the finite-difference realization,
    # at points with |xi| in 0.8..1.2 where the steps are asymptotic
    pts = [_phase_point(n, rng) for _ in range(2)]
    worst_order = (math.inf, -math.inf)
    for ell in (1, 2):
        for residuals in psi_split_residuals(psis, chis[ell], gs, ell, m, pts, (0.05, 0.025)):
            order = math.log(residuals[0] / residuals[1]) / math.log(2.0)
            worst_order = (min(worst_order[0], order), max(worst_order[1], order))
    ok = (worst_chi < 1e-8 and 1.5 <= worst_order[0] and worst_order[1] <= 2.5)
    verdict(8, "chi/Psi construction", ok,
            f"max chi residual {worst_chi:.3e}, decomposition orders in "
            f"[{worst_order[0]:.2f}, {worst_order[1]:.2f}]")


def test_criterion_9_cli_determinism(tmp_path):
    field = tmp_path / "field.json"
    field.write_text(random_field(2, 2, np.random.default_rng(0)).to_json())
    ok, detail = True, "all subcommands byte-identical"
    # decompose runs before verify, so its grid dumps exist for both passes
    for name, args in cli_runs(tmp_path, field).items():
        a = tmp_path / f"{name}.run1.csv"
        b = tmp_path / f"{name}.run2.csv"
        code1 = cli_main(args + ["--csv", str(a)])
        code2 = cli_main(args + ["--csv", str(b)])
        if code1 != 0 or code2 != 0:
            ok, detail = False, f"{name} exited {code1}/{code2}"
            break
        if a.read_bytes() != b.read_bytes():
            ok, detail = False, f"{name} CSV differs between reruns"
            break
    verdict(9, "CLI determinism", ok, detail)
