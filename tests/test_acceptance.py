"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
A test either reads the session's run of the shipped config of its claim
and asserts that the run's checks passed, so the bound is the one the
runner (and the CLI) asserts, or calls the library and pins the tolerance
it enforces, for a reason LIBRARY_CALLS records.  The printed detail
records the measured value so regressions are visible in the log, not just
the verdict.
"""

import inspect
import json
from pathlib import Path

import numpy as np

from ckdv import (
    Grid,
    HirotaSatsuma,
    StepperConfig,
    config_from_dict,
    field_from_callable,
    gg_lambda_alpha,
    hs_as_kdv,
    inverse,
    load_config,
    picard_iterate,
    run,
    simulate,
)
from ckdv.bourgain import (
    KERNELS,
    bilinear_ratio,
    embedding_check,
    f_w,
    intersection_equivalence,
    make_st_grid,
    pointwise_bound_scan,
    random_field,
)
from ckdv.harness import make_initial
from ckdv.io import read_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the criteria that call the library directly, not only through a shipped run, and why
LIBRARY_CALLS = {
    1: "the decoupling constants are a closed-form function, not a run",
    4: "no kind computes the travelling-profile error",
    6: "its large-data case must diverge, and a picard_study run of it reports fail",
    7: "no kind runs its lattice scans",
    8: "its thousand-field ensemble differs from the one bourgain_suite draws",
    12: "no kind runs the bilinear band ladder",
    13: "it tests the random-band draw itself",
}


def report(n, ok, detail):
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n:02d}: {detail}"


def test_every_other_criterion_reads_a_shipped_run():
    criteria = {int(name[6:8]): fn for name, fn in globals().items() if name.startswith("test_c")}
    assert set(LIBRARY_CALLS) <= set(criteria)
    for n, fn in criteria.items():
        assert n in LIBRARY_CALLS or "shipped_run" in inspect.signature(fn).parameters, f"c{n:02d}"


def test_c01_decoupling_constants():
    got = gg_lambda_alpha(1.0, 1.0, 2.0)
    err = max(abs(g - w) for g, w in zip(got, (4.0, 3.0, -1.0)))
    report(1, err <= 1e-14, f"lambda,alpha+,alpha- = {got}, max dev {err:.3g}")


def test_c02_conserved_functional_drift(shipped_run):
    hs, _ = shipped_run("conservation_hs")  # checks V_drift and F_drift
    gg, _ = shipped_run("conservation_gg")  # checks phi3_drift
    dV, dF, d3 = hs.summary["drift"]["V"], hs.summary["drift"]["F"], gg.summary["drift"]["phi3"]
    ok = hs.status == "pass" and gg.status == "pass"
    report(2, ok, f"two-wave V drift {dV:.3g}, F drift {dF:.3g}; internal-wave phi3 drift {d3:.3g}")


def test_c03_stepper_order(shipped_run):
    m, out = shipped_run("convergence")
    errs = [row[1] for row in read_csv(out / "convergence.csv")[1]]
    report(3, m.status == "pass", f"dt-halving order {m.summary['fitted_order']:.4g} from errors {errs}")


def test_c04_soliton_reduction():
    c = 4.0
    g = Grid(512, 12.0 * np.pi)
    w0 = field_from_callable(lambda x: 0.5 * c / np.cosh(0.5 * np.sqrt(c) * x) ** 2, g)
    st = hs_as_kdv(w0, a=-1.0)
    T = 3.0 * np.pi  # one full traversal of the box at speed c
    traj = simulate(st, HirotaSatsuma(-1.0, 1.0), T, StepperConfig(8e-4), sample_dt=T / 6.0)
    L = g.period
    worst = 0.0
    for s in traj.states:
        arg = (g.x - c * s.t + 0.5 * L) % L - 0.5 * L
        want = 0.5 * c / np.cosh(0.5 * np.sqrt(c) * arg) ** 2
        worst = max(worst, float(np.max(np.abs(inverse(s.u) - want))))
    report(4, worst < 1e-6, f"travelling-profile sup error {worst:.3g} over {len(traj.states)} snapshots")


def test_c05_scaling_covariance(shipped_run):
    m, _ = shipped_run("scaling")
    cov = m.summary["covariance_max_err"]
    e_lo = m.summary["exponents"]["-1.5"]
    e_hi = m.summary["exponents"]["1"]
    ok = m.status == "pass"  # covariance and both exponents within harness.BOUNDS
    report(5, ok, f"covariance sup error {cov:.3g}; fitted exponents {e_lo:.4f} vs 0, {e_hi:.4f} vs 2.5")


def test_c06_picard_stepper_agreement(shipped_run):
    m, _ = shipped_run("picard")  # small data: converged, contracting, at the stepper's solution
    small = m.summary
    # the same study at 8 times the data, which must diverge
    d = json.loads((CONFIG_DIR / "picard.json").read_text())
    d["initial"]["u"]["amplitude"], d["initial"]["v"]["amplitude"] = 4.0, 2.0
    cfg = config_from_dict(d)
    big_data = make_initial(cfg.initial, cfg.grid, np.random.default_rng(cfg.seed))
    _, big = picard_iterate(big_data, cfg.system, cfg.horizon, **cfg.params)
    ok = m.status == "pass" and not big.converged and big.contraction_ratio >= 1.0
    report(
        6,
        ok,
        f"contraction {small['contraction_ratio']:.3f}, stepper sup diff {small['stepper_linf']:.3g}; "
        f"large data contraction {big.contraction_ratio:.3g}",
    )


def test_c07_pointwise_inequality():
    rng = np.random.default_rng(2024)
    margins = []
    ok = True
    for _ in range(5):
        a, a0, a1 = rng.uniform(-3.0, 3.0, size=3)
        scan = pointwise_bound_scan(a, a0, a1, n_side=1000, extent=1000.0)
        ok &= scan.passed
        margins.append(scan.max_ratio / scan.bound)
    w = np.linspace(-100.0, 100.0, 2_000_001)
    fmax = float(np.max(f_w(w)))
    ok = ok and fmax == 0.5
    report(7, ok, f"5 lattice scans exact, worst ratio/bound {max(margins):.4f}; plateau max {fmax}")


def test_c08_embedding_ensemble():
    stg = make_st_grid(32, 4.0 * np.pi, 64, 8.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    ratios = []
    ok = True
    for _ in range(1000):
        F = random_field(stg, rng, decay=0.5)
        for s, b in ((0.0, 0.6), (-0.5, 0.75)):
            er = embedding_check(F, 2.0, 1.0, 3.0, s, b)
            ok &= er.passed
            worst = max(worst, er.lhs / (er.constant * er.rhs))
        qr = intersection_equivalence(F, (1.0, 3.0), (1.5, 2.5), -0.5, 0.75)
        ok &= qr.passed
        ratios.append(qr.norm_first / qr.norm_second)
    report(
        8,
        ok,
        f"1000 fields embed, worst lhs/(c rhs) {worst:.3f}; "
        f"two-sided ratio in [{min(ratios):.4f}, {max(ratios):.4f}]",
    )


def test_c09_norm_growth_separation(shipped_run):
    m, _ = shipped_run("nonequivalence")
    growth, settle = m.summary["growth_exponent"], m.summary["final_rel_change"]
    report(9, m.status == "pass", f"growth exponent {growth:.4g}, opposite-speed norm settles to {settle:.3g}")


def test_c10_linear_estimates(shipped_run):
    ok = True
    details = []
    for name in ("bourgain", "bourgain_b055", "bourgain_b075"):  # one (b, b') pair each
        m, _ = shipped_run(name)
        checks = {c["name"]: c for c in m.checks}
        cv, err = checks["free_cv"], checks["duhamel_exponent_err"]
        ok &= cv["passed"] and err["passed"]
        p = m.config["params"]
        details.append(f"(b={p['b']},b'={p['b_prime']}): cv {cv['value']:.2e}, exponent err {err['value']:.3f}")
    report(10, ok, "; ".join(details))


def test_c11_kernel_bounds(shipped_run):
    m, _ = shipped_run("kernels")
    s = m.summary
    ok = m.status == "pass" and s["kernels"] == len(KERNELS)  # the shipped suite is every kernel
    report(11, ok, f"{s['kernels']} kernels refinement-stable, max rel change {s['max_rel_change']:.3g}")


def test_c12_bilinear_band_stability():
    patterns = [
        (-1.0, -1.0, -1.0),
        (-1.0, -1.0, 1.0),
        (1.0, 1.0, -1.0),
        (1.0, -1.0, 1.0),
        (1.0, -1.0, -1.0),
    ]
    bands = (8.0, 16.0, 32.0)
    worst = 0.0
    ok = True
    for s in (0.0, -0.6):
        for pat in patterns:
            vals = []
            for band in bands:
                rep = bilinear_ratio(s, 0.6, -0.4, *pat, trials=24, band=band, seed=5)
                ok &= rep.admissible
                vals.append(rep.max_ratio)
            worst = max(
                worst,
                max(abs(vals[i + 1] - vals[i]) / vals[i] for i in range(len(vals) - 1)),
            )
    ok &= worst < 0.20
    report(12, ok, f"max band-ladder ratio change {worst:.1%} across {2 * len(patterns)} cases")


def test_c13_byte_determinism(tmp_path, shipped_run):
    payload = {
        "kind": "simulate",
        "system": {"name": "hirota_satsuma", "a": -0.5, "b": 1.0},
        "grid": {"n": 128, "period": 8.0 * np.pi},
        "stepper": {"dt": 2e-3},
        "horizon": 0.1,
        "sample_dt": 0.05,
        "initial": {"u": {"kind": "random_band", "band": 4.0, "amplitude": 0.5}},
        "seed": 3,
    }
    # the random-band draw, and the paper's case coupled at third order through its eigenbasis
    same, count = True, 0
    for tag, cfg in (("band", config_from_dict(payload)), ("gg", load_config(CONFIG_DIR / "gear_grimshaw.json"))):
        # the shipped config's first run is the session's
        first, out = shipped_run("gear_grimshaw") if tag == "gg" else (run(cfg, out_dir=tmp_path / tag), tmp_path / tag)
        names = [n for n in first.files if n.endswith(".csv")]
        again = tmp_path / f"{tag}_again"
        run(cfg, out_dir=again)
        same &= bool(names) and all((out / n).read_bytes() == (again / n).read_bytes() for n in names)
        count += len(names)
    report(13, same, f"{count} CSV file(s) byte-identical across repeated runs")
