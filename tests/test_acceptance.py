"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import aaatrig
from aaatrig import lightning as lt
from aaatrig.baselines import (
    aaa_fit,
    evaluate_aaa,
    evaluate_fourier,
    fft_interpolant,
    fft_least_squares_errors,
    rectangle_samples,
)
from aaatrig.calculus import derivative_at, diff_matrix
from aaatrig.polezero import (
    _residues_unchecked,
    partial_fractions,
    poles_and_zeros,
    taper_fit,
)
from aaatrig.solver import FitConfig, cleanup, fit
from aaatrig.trigbary import (
    Parity,
    SampleSet,
    TrigModel,
    TWO_PI,
    evaluate,
    evaluate_batch,
    far_field,
    interpolatory_weights,
)

from conftest import barycentric_sum, dense_roots, match_point_sets, random_model


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict}  {detail}")
    return ok


@pytest.fixture(scope="module")
def tanh_experiment():
    start = time.monotonic()
    x = TWO_PI * np.arange(1000) / 1000
    f = np.tanh(60.0 * np.cos(x))
    samples = SampleSet.from_data(x.astype(complex), f.astype(complex))
    model = fit(samples, FitConfig())
    return samples, model, time.monotonic() - start


def test_criterion_1_tanh_experiment(tanh_experiment):
    samples, model, elapsed = tanh_experiment
    sample_err = np.max(np.abs(evaluate_batch(model, samples.points) - samples.values))
    fine = TWO_PI * np.arange(10000) / 10000
    fine_err = np.max(
        np.abs(evaluate_batch(model, fine.astype(complex)) - np.tanh(60.0 * np.cos(fine)))
    )
    near = np.abs(np.cos(fine)) < 0.05  # transition neighbourhoods
    near_err = np.max(
        np.abs(evaluate_batch(model, fine[near].astype(complex))
               - np.tanh(60.0 * np.cos(fine[near])))
    )
    clauses = {
        "order window": 18 <= model.m <= 28,
        "sample error": sample_err <= 1e-8 * model.scale,
        "fine-grid error": max(fine_err, near_err) <= 1e-7 * model.scale,
        "runtime": elapsed <= 30.0,
    }
    ok = report(
        1,
        all(clauses.values()),
        f"m={model.m} (type {(model.m - 1) // 2}) sample={sample_err:.2e} "
        f"fine={fine_err:.2e} t={elapsed:.1f}s "
        + " ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in clauses.items()),
    )
    assert ok


def test_criterion_2_fft_comparison(tanh_experiment):
    samples, model, _ = tanh_experiment
    converged_err = float(model.err_history[-1])
    fft_err_30 = float(fft_least_squares_errors(samples, [30])[0])
    full = fft_interpolant(samples)
    fine = TWO_PI * np.arange(10000) / 10000
    truth = np.tanh(60.0 * np.cos(fine))
    interp_err = np.abs(evaluate_fourier(full, fine.astype(complex)) - truth)
    near = np.abs(np.cos(fine)) < 0.05
    gibbs = float(np.max(interp_err[near]))
    clauses = {
        "4-order gap at m=30": fft_err_30 >= 1e4 * converged_err,
        "Gibbs error >= 1e-2": gibbs >= 1e-2,
    }
    ok = report(
        2,
        all(clauses.values()),
        f"fft(30)={fft_err_30:.2e} aaatrig={converged_err:.2e} gibbs={gibbs:.2e}",
    )
    assert ok


def test_criterion_3_periodic_crossover():
    results = {}
    for name, func in (("exp-sin", lambda z: np.exp(np.sin(z))), ("exp", np.exp)):
        samples = rectangle_samples(func, 1000, seed=0)
        trig = fit(samples, FitConfig(cleanup=False))
        aaa = aaa_fit(samples)
        trig_err = np.max(np.abs(evaluate_batch(trig, samples.points) - samples.values))
        aaa_err = np.max(np.abs(evaluate_aaa(aaa, samples.points) - samples.values))
        results[name] = (trig, aaa, trig_err, aaa_err)
    t_sin, a_sin, te_sin, ae_sin = results["exp-sin"]
    t_exp, a_exp, te_exp, ae_exp = results["exp"]
    clauses = {
        "trig wins periodic": t_sin.m < a_sin.m,
        "aaa wins non-periodic": a_exp.m < t_exp.m,
        "errors converged": (
            te_sin <= 1e-11 * t_sin.scale
            and ae_sin <= 1e-11 * a_sin.scale
            and te_exp <= 1e-11 * t_exp.scale
            and ae_exp <= 1e-11 * a_exp.scale
        ),
    }
    ok = report(
        3,
        all(clauses.values()),
        f"exp(sin): trig m={t_sin.m} aaa m={a_sin.m}; exp: trig m={t_exp.m} aaa m={a_exp.m}",
    )
    assert ok


def test_criterion_4_froissart_cleanup():
    z = np.exp(2j * np.pi * np.arange(1000) / 1000)
    samples = SampleSet.from_data(z, np.log(2.0 + np.cos(z) ** 4))
    config = FitConfig(rel_tol=0.0, max_order=100, cleanup=False)
    model = fit(samples, config)
    # Small-residue census at the magnitude the experiment colours doublets.
    def census(m):
        rep = poles_and_zeros(m)
        res = np.abs(_residues_unchecked(m, rep.poles))
        return int(np.sum(res < 1e-13))

    before = census(model)
    cleaned = cleanup(model, samples, FitConfig(rel_tol=0.0, max_order=100))
    after = census(cleaned)
    final_err = np.max(np.abs(evaluate_batch(cleaned, samples.points) - samples.values))
    clauses = {
        "before >= 20": before >= 20,
        "after <= 2": after <= 2,
        "error <= 1e-12*scale": final_err <= 1e-12 * cleaned.scale,
    }
    ok = report(
        4,
        all(clauses.values()),
        f"doublets {before} -> {after}, m {model.m} -> {cleaned.m}, err={final_err:.2e}",
    )
    assert ok


def test_criterion_4_single_blas_thread():
    # The census is sensitive to rounding in the weight solve; run the same
    # criterion with one BLAS thread in a fresh interpreter, where the thread
    # count takes effect.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    node = f"{__file__}::test_criterion_4_froissart_cleanup"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", node],
        cwd=os.path.dirname(os.path.dirname(__file__)),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:]


def test_criterion_5_pole_zero_oracle():
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(100):
        parity = Parity.ODD if trial % 2 == 0 else Parity.EVEN
        m = 2 + trial % 5
        force_pi = parity is Parity.EVEN and trial % 10 == 1
        model = random_model(rng, m, parity, force_pi=force_pi)
        rep = poles_and_zeros(model)
        for pts, use_num in ((rep.poles, False), (rep.zeros, True)):
            if len(pts):
                total, ref = barycentric_sum(model, pts, use_numerator=use_num)
                if not np.all(np.abs(total) <= 1e-6 * ref):
                    failures.append((trial, "residual"))
            oracle = dense_roots(model, use_numerator=use_num)
            window = pts[np.abs(pts.imag) <= 3.5]
            if not match_point_sets(window, oracle, 1e-8):
                failures.append((trial, "oracle"))

    worked_ok = True
    odd = TrigModel.build(Parity.ODD, [0.0, np.pi], [1.0, -1.0], [1.0, 1.0])
    rep = poles_and_zeros(odd)
    worked_ok &= abs(rep.poles[0] - np.pi / 2) < 1e-10
    worked_ok &= abs(rep.zeros[0] - 3 * np.pi / 2) < 1e-10
    worked_ok &= abs(rep.residues[0] + 2.0) < 1e-10

    csc = TrigModel.build(Parity.EVEN, [np.pi / 2, 3 * np.pi / 2], [1.0, -1.0], [1.0, 1.0])
    rep = poles_and_zeros(csc)
    worked_ok &= match_point_sets(rep.poles, [0.0, np.pi], 1e-10)
    worked_ok &= len(rep.zeros) == 0
    worked_ok &= match_point_sets(rep.residues, [1.0, -1.0], 1e-10)

    sec = TrigModel.build(Parity.EVEN, [np.pi, 0.0], [1.0, -1.0], [1.0, 1.0])
    rep = poles_and_zeros(sec)
    worked_ok &= match_point_sets(rep.poles, [np.pi / 2, 3 * np.pi / 2], 1e-10)
    worked_ok &= len(rep.zeros) == 0
    worked_ok &= match_point_sets(rep.residues, [1.0, -1.0], 1e-10)

    ok = report(
        5,
        not failures and worked_ok,
        f"oracle mismatches={len(failures)} worked_examples={'ok' if worked_ok else 'FAIL'}",
    )
    assert ok


def test_criterion_6_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    bad = []
    for trial in range(1000):
        parity = Parity.ODD if trial % 2 == 0 else Parity.EVEN
        m = 2 + trial % 5
        model = random_model(rng, m, parity)

        if not np.array_equal(
            evaluate_batch(model, model.support), model.fvals
        ):
            bad.append((trial, "interpolation"))

        z = complex(rng.uniform(0, TWO_PI), rng.uniform(-1.0, 1.0))
        base = evaluate(model, z)
        k = int(rng.integers(-3, 4))
        if abs(evaluate(model, z + TWO_PI * k) - base) > 1e-12 * (1 + abs(base)):
            bad.append((trial, "periodicity"))

        scaled = TrigModel.build(
            parity, model.support, model.fvals,
            model.weights * complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)),
        )
        if abs(evaluate(scaled, z) - base) > 1e-13 * (1 + abs(base)):
            bad.append((trial, "weight-scale"))

        ff = far_field(model)
        if abs(evaluate(model, 60j) - ff.f_plus) > 1e-10 * (1 + abs(ff.f_plus)):
            bad.append((trial, "far-field+"))
        if abs(evaluate(model, -60j) - ff.f_minus) > 1e-10 * (1 + abs(ff.f_minus)):
            bad.append((trial, "far-field-"))

        if parity is Parity.EVEN:
            rep = poles_and_zeros(model)
            if len(rep.residues) and abs(np.sum(rep.residues)) > 1e-8 * np.max(
                np.abs(rep.residues)
            ):
                bad.append((trial, "residue-sum"))
        else:
            pf = partial_fractions(model)
            s = np.sum(pf.coefficients)
            if abs((pf.constant - 1j * s) - ff.f_plus) > 1e-8 * (1 + abs(ff.f_plus)):
                bad.append((trial, "odd-identity+"))
            if abs((pf.constant + 1j * s) - ff.f_minus) > 1e-8 * (1 + abs(ff.f_minus)):
                bad.append((trial, "odd-identity-"))

    elapsed = time.monotonic() - start
    clauses = {"identities": not bad, "runtime": elapsed <= 60.0}
    ok = report(
        6, all(clauses.values()), f"violations={len(bad)} t={elapsed:.1f}s {bad[:5]}"
    )
    assert ok


def test_criterion_7_differentiation():
    sup = TWO_PI * np.arange(64) / 64
    model = TrigModel.build(
        Parity.EVEN, sup, np.exp(np.sin(sup)), interpolatory_weights(Parity.EVEN, sup)
    )
    D = diff_matrix(model, 1).entries
    row_sums = np.max(np.abs(D.sum(axis=1)))
    deriv_err = np.max(
        np.abs(D @ model.fvals - np.cos(sup) * np.exp(np.sin(sup)))
    )
    z = 1.3
    h = 1e-6 * (1 + abs(z))
    fd = (evaluate(model, z + h) - evaluate(model, z - h)) / (2 * h)
    off = derivative_at(model, z, 1)
    offgrid_rel = abs(off - fd) / abs(fd)
    clauses = {
        "row sums": row_sums <= 1e-12 * np.max(np.abs(D)),
        "grid derivative": deriv_err <= 1e-8,
        "off-grid vs FD": offgrid_rel <= 1e-7,
    }
    ok = report(
        7,
        all(clauses.values()),
        f"rowsum={row_sums:.1e} grid={deriv_err:.1e} offgrid={offgrid_rel:.1e}",
    )
    assert ok


def test_criterion_8_lightning_demo():
    start = time.monotonic()
    model = lt.solve_flow_demo()
    compressed = lt.compress(model)
    report_pz = poles_and_zeros(compressed)
    grid = lt.interior_grid()
    interior = np.max(
        np.abs(evaluate_batch(compressed, grid) - lt.evaluate_lightning(model, grid))
    )
    tapers = []
    for corner in lt.CORNERS:
        near = report_pz.poles[np.abs(report_pz.poles - corner) < 0.45]
        tf = taper_fit(report_pz.poles, corner, k_max=min(10, len(near)))
        tapers.append(tf)
    elapsed = time.monotonic() - start
    clauses = {
        "boundary residual": model.boundary_residual <= 1e-4 and model.n_newman <= 150,
        "compressed poles": len(report_pz.poles) <= 40,
        "interior agreement": interior <= 10.0 * model.boundary_residual,
        "taper": all(tf.sigma < 0 and tf.r_squared >= 0.9 for tf in tapers),
        "runtime": elapsed <= 120.0,
    }
    ok = report(
        8,
        all(clauses.values()),
        f"residual={model.boundary_residual:.2e} poles={model.n_newman}->"
        f"{len(report_pz.poles)} interior={interior:.2e} "
        f"taper={[f'{tf.sigma:.2f}/{tf.r_squared:.3f}' for tf in tapers]} t={elapsed:.0f}s",
    )
    assert ok
