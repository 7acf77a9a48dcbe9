"""Integral kernel evaluations: closed forms, hypothesis guards, stability."""

import math
import os
import re
import subprocess
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ckdv import config_from_dict, harness, run
from ckdv.bourgain import estimates, kernels
from ckdv.bourgain.estimates import _NONEQ_OUTER, _tail_antiderivative, nonequivalence_demo
from ckdv.bourgain.kernels import (
    KERNELS,
    HypothesisViolation,
    QuadSpec,
    _batched_quad,
    _cubic_root,
    _pieces,
    kernel_bound_check,
)


def test_registry_is_complete():
    assert len(KERNELS) == 11
    assert set(KERNELS) == {
        "level_set",
        "peak_pair",
        "flip_weighted_aux",
        "flip_core",
        "flip_region_a",
        "flip_region_b",
        "mixed_core",
        "mixed_region_a1",
        "mixed_region_b1",
        "mixed_region_a2",
        "mixed_region_b2",
    }


def test_unknown_kernel_id():
    with pytest.raises(ValueError, match="^unknown kernel id 'nope'"):
        kernel_bound_check("nope")


def test_peak_pair_coincident_closed_form():
    # alpha = beta = 2 at a = a': int (1+|x-a|)^(-4) dx = 2/3
    val, report = kernel_bound_check(
        "peak_pair", sample_grid=[(0.5, 0.5)], quad_spec=QuadSpec(x_max=120.0)
    )
    assert val == pytest.approx(2.0 / 3.0, rel=1e-5)
    assert report.stable
    assert report.argmax == (0.5, 0.5)


def test_peak_pair_translation_invariance():
    q = QuadSpec()
    v0, _ = kernel_bound_check("peak_pair", sample_grid=[(0.0, 0.0)], quad_spec=q)
    v7, _ = kernel_bound_check("peak_pair", sample_grid=[(7.0, 7.0)], quad_spec=q)
    assert v0 == pytest.approx(v7, rel=1e-9)


def test_level_set_scale_invariance():
    # substituting x -> x/sqrt(a) shows the value depends on a*eta^2 only;
    # finite truncation breaks the identity at the slow-tail level ~1e-4
    q = QuadSpec(x_max=200.0)
    v1, _ = kernel_bound_check("level_set", sample_grid=[(1.0, 2.0)], quad_spec=q)
    v2, _ = kernel_bound_check("level_set", sample_grid=[(4.0, 1.0)], quad_spec=q)
    assert v1 == pytest.approx(v2, rel=1e-3)


def test_hypothesis_violations_raise():
    # one violating params set per kernel hypothesis family; the message names
    # the statement that failed, so no hypothesis can drop out unnoticed
    cases = [
        ("level_set", {"b": 0.4}, "b > 1/2"),
        ("peak_pair", {"alpha": 3.0, "beta": 2.0}, "0 <= alpha <= beta"),
        ("peak_pair", {"alpha": 0.5, "beta": 1.0}, "beta > 1"),
        ("flip_weighted_aux", {"b_prime": -0.1}, "b' <= s/3 - 1/4"),
        ("flip_core", {"b_prime": -0.1}, "b' <= -1/4"),
        ("flip_region_a", {"b_prime": -0.6}, "b' in [-1/2, s/3 - 1/4]"),
        ("flip_region_b", {"s": -0.5, "b": 0.6, "b_prime": 0.0}, "b' - b <= min(-s - 3/2, s - 1/6)"),
        ("mixed_core", {"b_prime": 0.1}, "b' <= 0"),
        ("mixed_region_a1", {"s": -0.4}, "s in [-3/4, -1/2]"),
        ("mixed_region_a2", {"b_prime": -0.3}, "b' in [-1/2, s/3 - 1/4]"),
        ("mixed_region_b1", {"b": 0.6}, "b' - b <= min(-s - 3/2, s - 1/6)"),
        ("mixed_region_b2", {"b": 0.7}, "b' - b <= min(-s - 3/2, s/3 - 3/4)"),
    ]
    for kid, params, statement in cases:
        with pytest.raises(HypothesisViolation, match=re.escape(f"hypothesis failed: {statement}")):
            kernel_bound_check(kid, params=params)


def test_level_set_rejects_degenerate_sample():
    with pytest.raises(HypothesisViolation):
        kernel_bound_check("level_set", sample_grid=[(0.0, 1.0)])


def test_report_fields_and_stability():
    val, report = kernel_bound_check("flip_core", sample_grid=[(1.0, 0.0), (2.0, -0.3)])
    assert report.kernel_id == "flip_core"
    assert report.params["b"] == 0.6
    assert len(report.values) == 2
    assert report.max_refined == val
    assert report.rel_change < 0.05 and report.stable
    assert report.argmax in report.samples


def test_custom_params_override_defaults():
    _, report = kernel_bound_check(
        "level_set", params={"b": 0.8}, sample_grid=[(1.0, 1.0)]
    )
    assert report.params == {"b": 0.8}


def test_unknown_params_are_rejected():
    # a misspelled key used to be merged in unread, and the run reported it
    with pytest.raises(ValueError, match=re.escape("unknown params ['B'] for kernel 'level_set'")):
        kernel_bound_check("level_set", params={"B": 0.8}, sample_grid=[(1.0, 1.0)])


def test_empty_sample_grid_is_rejected():
    with pytest.raises(ValueError, match="at least one sample"):
        kernel_bound_check("flip_core", sample_grid=[])


@pytest.mark.parametrize("sample", [(1.0, math.inf), (math.nan, 1.0)])
def test_non_finite_samples_are_rejected(sample):
    # a cubic level with an infinite constant term has no root to cut at
    with pytest.raises(ValueError, match="finite samples"):
        kernel_bound_check("mixed_core", sample_grid=[(1.0, 1.0), sample])


@pytest.mark.parametrize("sample_grid", [[(1.0, 2.0, 3.0)], [1.0, 2.0], [[(1.0, 2.0)]], [(1.0, 2.0), (3.0,)]])
def test_samples_that_are_not_pairs_are_rejected(sample_grid):
    with pytest.raises(ValueError, match="^sample_grid "):
        kernel_bound_check("mixed_core", sample_grid=sample_grid)


@pytest.mark.parametrize("kid, params", [("level_set", {"b": math.inf}), ("mixed_core", {"b_prime": math.nan})])
def test_non_finite_params_are_rejected(kid, params):
    # b = inf used to pass "b > 1/2" and report zeros marked stable
    (name,) = params
    with pytest.raises(ValueError, match=f"params of kernel '{kid}' must be finite, got {{'{name}'"):
        kernel_bound_check(kid, params=params, sample_grid=[(1.0, 1.0)])


@pytest.mark.parametrize("fields, message", [
    *(({field: value}, f"QuadSpec.{field}") for field, value in [
        ("x_max", 0.0), ("x_max", -60.0), ("x_max", math.inf), ("x_max", math.nan),
        ("limit", 0), ("limit", 50.5), ("limit", True),
        ("epsabs", -1e-11), ("epsabs", math.nan), ("epsrel", math.inf),
    ]),
    ({"epsabs": 0.0, "epsrel": 0.0}, "not both 0"),
])
def test_quad_spec_rejects_invalid_values(fields, message):
    # x_max <= 0 used to integrate nothing, so every kernel read 0 and passed c11 as stable
    with pytest.raises(ValueError, match=message):
        QuadSpec(**fields)


def test_quad_spec_refinement():
    q = QuadSpec(x_max=30.0, limit=100, epsabs=1e-9, epsrel=1e-7)
    r = q.refined()
    assert r.x_max == 60.0 and r.limit == 200
    assert r.epsabs == pytest.approx(1e-10) and r.epsrel == pytest.approx(1e-8)


# --- the batched rule ---------------------------------------------------

def counted_rule(monkeypatch, module):
    """Wrap module._batched_quad's integrands to count their evaluations; returns the count list."""
    calls, rule = [], module._batched_quad

    def rule_counting(fn, *args, **kwargs):
        def counted(x, *a):
            calls.append(x.size)
            return fn(x, *a)
        return rule(counted, *args, **kwargs)

    monkeypatch.setattr(module, "_batched_quad", rule_counting)
    return calls


def test_batched_quad_matches_the_tail_antiderivative():
    # int_lo^hi (1+|u|)^(-2b) du over 200 intervals with their own b, cut at the kink u = 0
    rng = np.random.default_rng(3)
    ends = np.sort(rng.uniform(-40.0, 40.0, (200, 2)), axis=1)
    b = rng.uniform(0.55, 3.0, 200)
    want = _tail_antiderivative(ends[:, 1], b) - _tail_antiderivative(ends[:, 0], b)
    q = QuadSpec(epsabs=0.0, epsrel=1e-12)
    owner = _pieces(ends[:, 0], ends[:, 1], 0.0)[2]
    assert np.bincount(owner).max() == 2  # some intervals are two pieces, summed into one integral
    calls = []

    def fn(u, b):
        calls.append(u.size)
        return (1.0 + np.abs(u)) ** (-2.0 * b)

    got, neval = _batched_quad(fn, ends[:, 0], ends[:, 1], (b,), q, cuts=[0.0])
    # the reference subtracts two values of up to 1/(2b - 1): allow for its cancellation
    cancel = 4.0 * np.finfo(float).eps / (2.0 * b - 1.0)
    assert np.all(np.abs(got - want) <= q.epsrel * np.abs(want) + cancel)
    assert neval == sum(calls) > 0


def test_batched_quad_raises_at_its_panel_cap():
    # an integrable singularity off every bisection point needs more than 5 panels
    with pytest.raises(RuntimeError, match="cap of 5 panels per integral"):
        _batched_quad(lambda x: np.abs(x - 0.3) ** -0.5, [0.0], [1.0], (), QuadSpec(limit=5))


def test_a_raising_kernel_names_itself_in_the_manifest(monkeypatch, tmp_path):
    called = []

    def broken(kid):
        called.append(kid)
        if kid == "level_set":
            raise HypothesisViolation("hypothesis failed: patched")
        return kernel_bound_check(kid)

    monkeypatch.setattr(harness, "kernel_bound_check", broken)
    cfg = config_from_dict({"kind": "kernel_suite", "params": {"kernels": ["peak_pair", "level_set", "flip_core"]}})
    manifest = run(cfg, out_dir=tmp_path)
    assert (manifest.status, manifest.error) == (
        "error", "RuntimeError: kernel level_set: HypothesisViolation: hypothesis failed: patched"
    )
    assert called == ["peak_pair", "level_set"]  # in this process, and no kernel after the failure


@pytest.mark.parametrize("cfg", [
    {"kind": "kernel_suite", "params": {"kernels": ["level_set", "mixed_region_a1", "mixed_region_b2"]}},
    {"kind": "nonequivalence"},
], ids=["kernel_suite", "nonequivalence"])
def test_quadrature_runs_repeat_their_manifests(tmp_path, cfg):
    # values, argmax and neval are the same on every run
    one, two = (run(config_from_dict(cfg), out_dir=tmp_path / str(i)) for i in (1, 2))
    assert one.status == "pass"
    assert {**vars(one), "wall_time_s": 0} == {**vars(two), "wall_time_s": 0}
    for name in one.files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("cfg", [
    {"kind": "kernel_suite", "params": {"kernels": ["level_set", "mixed_region_b2"]}},
    {"kind": "nonequivalence", "params": {"radii": [4.0, 8.0]}},
], ids=["kernel_suite", "nonequivalence"])
def test_quadrature_kinds_start_no_process_or_thread(monkeypatch, tmp_path, cfg):
    # the batched rule does all the work in the calling thread: a run that tried
    # to fork, spawn or start a thread would end in error
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature run started a process or a thread")

    for owner, name in [(os, "fork"), (os, "posix_spawn"), (subprocess.Popen, "__init__"),
                        (threading.Thread, "start")]:
        monkeypatch.setattr(owner, name, refuse)
    manifest = run(config_from_dict(cfg), out_dir=tmp_path)
    assert manifest.status != "error", manifest.error  # two radii may fail c09's bound, but not raise


# --- half-line rule -------------------------------------------------------
#
# Full-line references for the four even kernels and the nonequivalence
# norms: the same integrands integrated over the symmetric range by QUADPACK
# at a tolerance tighter than the batched rule's.  Each kernel reference
# returns (prefactor, integral), its value their product.

TIGHT = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 1000}


def _full(fn, lo, hi, pts=()):
    inner = sorted({float(p) for p in pts if lo < p < hi})
    return quad(fn, lo, hi, points=inner or None, **TIGHT)[0]


def _ref_level_set(sample, p, q):
    a, eta = sample
    fn = lambda x: (1.0 + abs(a) * abs(x * x - eta * eta)) ** (-2.0 * p["b"])
    return abs(a) * abs(eta), _full(fn, -q.x_max, q.x_max, (-abs(eta), abs(eta)))


def _peaks(c):
    return (-math.sqrt(c), math.sqrt(c)) if c > 0.0 else ()


def _ref_flip_weighted_aux(sample, p, q):
    xi, y = sample
    s, b, bp = p["s"], p["b"], p["b_prime"]
    xi3 = abs(xi) ** 3
    pref = (
        abs(xi) ** (3.0 - 4.0 * s) * (1.0 + abs(xi**3 * (y + 2.0))) ** (2.0 * bp)
        * (1.0 + abs(xi)) ** (2.0 * s) * abs(y + 2.0) ** (-2.0 * s)
    )
    fn = lambda x: (1.0 + abs(xi3 * (y + 0.75 - x * x))) ** (-2.0 * b)
    return pref, _full(fn, -q.x_max, q.x_max, _peaks(y + 0.75))


def _ref_flip_core(sample, p, q):
    xi, y = sample
    b, bp = p["b"], p["b_prime"]
    xi3 = abs(xi) ** 3
    pref = xi3 * (1.0 + xi3 * abs(3.0 * y + 2.0)) ** (2.0 * bp)
    fn = lambda x: (1.0 + xi3 * abs(y + 0.25 - x * x)) ** (-2.0 * b)
    return pref, _full(fn, -q.x_max, q.x_max, _peaks(y + 0.25))


def _ref_flip_region_a(sample, p, q):
    xi, y = sample
    s, b, bp = p["s"], p["b"], p["b_prime"]
    pref = (
        abs(xi) ** (3.0 - 4.0 * s) * (1.0 + abs(xi**3 * (y + 2.0))) ** (2.0 * bp)
        * (1.0 + abs(xi)) ** (2.0 * s)
    )
    m = 2.0 * abs(y + 2.0)
    hi2, lo2 = (y + 0.75 + m) / 3.0, (y + 0.75 - m) / 3.0
    if hi2 <= 0.0:
        return pref, 0.0
    fn = lambda x: abs(x * x - 0.25) ** (-2.0 * s) * (
        1.0 + abs(xi**3 * (y + 0.75 - 3.0 * x * x))
    ) ** (-2.0 * b)
    pts = (-0.5, 0.5) + _peaks((y + 0.75) / 3.0)
    hi_x = math.sqrt(hi2)
    if lo2 <= 0.0:
        return pref, _full(fn, -hi_x, hi_x, pts)
    lo_x = math.sqrt(lo2)
    return pref, _full(fn, -hi_x, -lo_x, pts) + _full(fn, lo_x, hi_x, pts)


FULL_LINE = {
    "level_set": _ref_level_set,
    "flip_weighted_aux": _ref_flip_weighted_aux,
    "flip_core": _ref_flip_core,
    "flip_region_a": _ref_flip_region_a,
}


@pytest.mark.parametrize("kid", sorted(FULL_LINE))
def test_even_kernels_half_line_matches_full_line(kid, monkeypatch):
    kd = KERNELS[kid]
    p = kd.default_params
    samples = np.asarray(kd.default_samples, dtype=np.float64)
    for q in (QuadSpec(), QuadSpec().refined()):
        got, _ = kd.evaluate(samples, p, q)
        for smp, value in zip(kd.default_samples, got):
            pref, full = FULL_LINE[kid](smp, p, q)
            # the half-line integral's budget max(epsabs, epsrel |I|), doubled with it,
            # plus the reference's own error
            tol = pref * max(2.0 * q.epsabs, q.epsrel * full) + TIGHT["epsrel"] * pref * full
            assert abs(value - pref * full) <= tol, (smp, q)
    # the report counts every integrand evaluation of both passes
    calls = counted_rule(monkeypatch, kernels)
    assert kernel_bound_check(kid)[1].neval == sum(calls) > 0


def _real_roots(c2, c1, c0):
    d = c1 * c1 - 4.0 * c2 * c0
    return [] if d < 0.0 else [(-c1 + sg * math.sqrt(d)) / (2.0 * c2) for sg in (-1.0, 1.0)]


def _ref_mixed_region_b2(sample, p):
    """(prefactor, integral) of mixed_region_b2, whose value is prefactor * sqrt(integral).

    The set |kappa| <= 2M, less |x - xi1| < 1, is cut at its edges; quad is
    given the zeros of kappa, where <kappa>^(2b') kinks, and 0 as points.
    """
    xi1, tau1 = sample
    s, bp = p["s"], p["b_prime"]
    M = abs(tau1 - xi1**3)
    pref = (1.0 + M) ** (-p["b"])
    if abs(xi1) < 1.0 or M == 0.0:
        return pref, 0.0
    c2, c1, c0 = 3.0 * xi1, -3.0 * xi1 * xi1, tau1 + xi1**3
    kappa = lambda x: (c2 * x + c1) * x + c0
    fn = lambda x: (
        abs(x) ** (2.0 + 2.0 * s) * abs(x * xi1 * (x - xi1)) ** (-2.0 * s)
        * (1.0 + abs(x)) ** (2.0 * s) * (1.0 + abs(kappa(x))) ** (2.0 * bp)
    )
    edges = sorted(_real_roots(c2, c1, c0 - 2.0 * M) + _real_roots(c2, c1, c0 + 2.0 * M) + [xi1 - 1.0, xi1 + 1.0])
    pts = (*_real_roots(c2, c1, c0), 0.0)
    inside = lambda x: abs(kappa(x)) <= 2.0 * M and abs(x - xi1) >= 1.0
    return pref, sum(_full(fn, lo, hi, pts) for lo, hi in zip(edges, edges[1:]) if inside(0.5 * (lo + hi)))


def test_mixed_region_b2_matches_tight_quadpack(monkeypatch):
    kd = KERNELS["mixed_region_b2"]
    p = kd.default_params
    samples = np.asarray(kd.default_samples, dtype=np.float64)
    for q in (QuadSpec(), QuadSpec().refined()):
        got, _ = kd.evaluate(samples, p, q)
        for smp, value in zip(kd.default_samples, got):
            pref, full = _ref_mixed_region_b2(smp, p)
            # the integral under the root within its budget max(epsabs, epsrel |I|),
            # plus the reference's own error
            tol = max(q.epsabs, q.epsrel * full) + TIGHT["epsrel"] * full
            assert abs((value / pref) ** 2 - full) <= tol, (smp, q)
    calls = counted_rule(monkeypatch, kernels)
    assert kernel_bound_check("mixed_region_b2")[1].neval == sum(calls) > 0


# mixed_region_a1 and _a2 integrate over |mu(x, z)| <= 2|center|: z and center per sample (xi, y)
MIXED_REGION_A = {"mixed_region_a1": lambda y: (y, y + 2.0), "mixed_region_a2": lambda y: (-y, y)}


def _mu_root(d):
    """The real root of 2x^3 - 3x^2 + 3x + d, from numpy's companion-matrix eigenvalues."""
    roots = np.roots([2.0, -3.0, 3.0, d])
    return float(roots[np.argmin(np.abs(roots.imag))].real)


def _ref_mixed_region_a(kid, sample, p):
    """(prefactor, integral) of mixed_region_a1 or _a2, whose value is their product.

    quad is given the zero of mu, where <xi^3 mu>^(-2b) kinks, and the kinks 0 and 1
    of the weight |x - x^2|^(-2s) as points.
    """
    xi, y = sample
    s, b, bp = p["s"], p["b"], p["b_prime"]
    z, center = MIXED_REGION_A[kid](y)
    m = 2.0 * abs(center)
    pref = abs(xi) ** (3.0 - 2.0 * s) * (1.0 + abs(xi**3 * center)) ** (2.0 * bp)
    if m == 0.0:
        return pref, 0.0
    mu = lambda x: ((2.0 * x - 3.0) * x + 3.0) * x + z
    fn = lambda x: abs(x - x * x) ** (-2.0 * s) * (1.0 + abs(xi**3 * mu(x))) ** (-2.0 * b)
    return pref, _full(fn, _mu_root(z + m), _mu_root(z - m), (_mu_root(z), 0.0, 1.0))


@pytest.mark.parametrize("kid", sorted(MIXED_REGION_A))
def test_mixed_region_a1_a2_match_tight_quadpack(kid, monkeypatch):
    kd = KERNELS[kid]
    p = kd.default_params
    refs = [_ref_mixed_region_a(kid, smp, p) for smp in kd.default_samples]
    for q in (QuadSpec(), QuadSpec().refined()):
        got, _ = kd.evaluate(np.asarray(kd.default_samples, dtype=np.float64), p, q)
        for smp, value, (pref, full) in zip(kd.default_samples, got, refs):
            # the integral within its budget max(epsabs, epsrel |I|), plus the reference's own error
            tol = max(q.epsabs, q.epsrel * full) + TIGHT["epsrel"] * full
            assert abs(value / pref - full) <= tol, (smp, q)
    calls = counted_rule(monkeypatch, kernels)
    assert kernel_bound_check(kid)[1].neval == sum(calls) > 0


def test_mixed_core_finds_a_peak_far_narrower_than_gk21_node_spacing():
    # At (xi, z) = (-1e4, -2) the prefactor is |xi|^3 and mu's root is x = 1 with mu'(1) = 3, so the
    # peak is 1/(3e12) wide and the value tends to 2/((2b - 1) mu'(1)) = 10/3 at b = 0.6 as |xi|
    # grows.  With the root as its only cut, the rule read 0.0122 and 0.00916 in its two passes.
    _, r = kernel_bound_check("mixed_core", sample_grid=[(-1e4, -2.0)])
    assert r.max_refined == pytest.approx(r.max_base, rel=1e-6, abs=0.0)
    assert r.max_base == pytest.approx(10.0 / 3.0, rel=0.01, abs=0.0)


@pytest.mark.parametrize("xi, want", [(-1e5, 3.3311), (-3e5, None), (-1e6, None)])
def test_kernels_refuse_a_peak_narrower_than_the_float_spacing(xi, want):
    # At (-1e5, -2) the peak, 1/(3e15) wide, is 1.5 float spacings of x = 1 wide and reads right.
    # Narrower, the cuts round onto the root: both passes read 8.4948 at -3e5 and 223.16 at -1e6,
    # each marked stable, where the limit is 10/3.
    if want is None:
        with pytest.raises(ValueError, match=r"peak at x = 1 is .* wide, narrower than the float spacing"):
            kernel_bound_check("mixed_core", sample_grid=[(xi, -2.0)])
    else:
        assert kernel_bound_check("mixed_core", sample_grid=[(xi, -2.0)])[0] == pytest.approx(want, abs=1e-4)


@pytest.mark.parametrize("kid, sample", [("level_set", (1.0, 200.0)), ("level_set", (1.0, 60.0)),
                                         ("flip_core", (1.0, 3600.0))])
def test_even_brackets_refuse_a_peak_at_or_past_the_window_end(kid, sample):
    # level_set's (1, 200), peak at x = 200, read 0.0748 base and 0.1717 refined and was
    # outvoted by (4, 4)'s 6.635, the check marked stable; flip_core peaks at sqrt(y + 1/4)
    with pytest.raises(ValueError, match=r"^sample 1 has its even-bracket peak sqrt\(c\) = .* at or past x_max = 60$"):
        kernel_bound_check(kid, sample_grid=[(4.0, 4.0), sample])


# --- the closed-form cubic root --------------------------------------------

def _root_rows(kid):
    """(xi, d) of the cubics 2x^3 - 3 xi x^2 + 3 xi^2 x + d that kernel kid solves on its default
    samples, d stacked as kid stacks it: lower edge, zero, upper edge (mixed_core: zero alone)."""
    a, c = np.asarray(KERNELS[kid].default_samples, dtype=np.float64).T
    if kid == "mixed_core":
        return 1.0, c[None, :]
    if kid in MIXED_REGION_A:
        z, center = MIXED_REGION_A[kid](c)
        return 1.0, z + np.array([[1.0], [0.0], [-1.0]]) * 2.0 * np.abs(center)
    sign = -1.0 if kid == "flip_region_b" else 1.0
    return a, c - a**3 + np.array([[2.0], [0.0], [-2.0]]) * np.abs(c + sign * a**3)


def _residual_ulps(xi, d, x):
    """|cubic(x)|, exact in rationals, in ulps of the sum of its terms' magnitudes."""
    out = []
    for xi_, d_, x_ in zip(*(np.broadcast_to(v, np.shape(x)).ravel().tolist() for v in (xi, d, x))):
        xi_, d_, x_ = Fraction(xi_), Fraction(d_), Fraction(x_)
        terms = (2 * x_**3, -3 * xi_ * x_**2, 3 * xi_**2 * x_, d_)
        out.append(float(abs(sum(terms))) / np.spacing(float(sum(abs(t) for t in terms))))
    return np.array(out)


def _random_rows():
    # xi = 0, where the cubic's derivative vanishes at x = 0, and |d| up to 3e6, stacked as region b stacks it
    rng = np.random.default_rng(11)
    tau1 = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-12.0, 6.0, 400)
    tau1[:2] = 0.0, 1e6
    return 0.0, tau1 + np.array([[2.0], [0.0], [-2.0]]) * np.abs(tau1)


@pytest.mark.parametrize("rows", ["mixed_core", *sorted(MIXED_REGION_A), "flip_region_b", "mixed_region_b1", "random"])
def test_cubic_root_is_exact_to_rounding_and_ordered(rows):
    xi, d = _random_rows() if rows == "random" else _root_rows(rows)
    x = _cubic_root(xi, d)
    assert np.all(_residual_ulps(xi, d, x) <= 2.0)
    # the edges of |cubic| <= 2M bracket its zero: lower edge <= zero <= upper edge
    assert np.all(np.diff(x, axis=0) >= 0.0)


def _ref_nonequivalence(a0, a1, b, radii):
    """Both norm ladders by nested quadrature over |xi| <= R, broken at the kinks."""

    def tau_quad(xi, rad, a_top):
        c_top, c_bot = a_top * xi**3, a1 * xi**3
        fn = lambda t: (1.0 + abs(t + c_top)) ** (2.0 * b) * (1.0 + abs(t + c_bot)) ** (-4.0 * b)
        return _full(fn, -rad, rad, (-c_top, -c_bot))

    def tau_closed(xi, rad):
        c = a1 * xi**3
        return _tail_antiderivative(rad + c, b) - _tail_antiderivative(-rad + c, b)

    def norm(a_top, rad):
        inner = (lambda xi: tau_closed(xi, rad)) if a_top == a1 else (lambda xi: tau_quad(xi, rad, a_top))
        kinks = [sg * (rad / abs(a)) ** (1.0 / 3.0) for a in (a0, a1) for sg in (-1.0, 1.0)]
        return math.sqrt(_full(lambda xi: (1.0 + abs(xi)) ** (-2.0 * b) * inner(xi), -rad, rad, [0.0, *kinks]))

    return [norm(a0, r) for r in radii], [norm(a1, r) for r in radii]


@pytest.mark.parametrize("a0, a1", [(1.0, -1.0), (-1.3, 0.7), (2.0, -0.5), (-1.0, -2.0)])
def test_nonequivalence_half_line_matches_full_line(a0, a1, monkeypatch):
    radii = [4.0, 8.0]
    calls = counted_rule(monkeypatch, estimates)
    tab = nonequivalence_demo(a0, a1, 0.0, 3.0, radii)
    div, conv = _ref_nonequivalence(a0, a1, 3.0, radii)
    # each squared norm within the rule's relative tolerance, and the reference's
    rtol = _NONEQ_OUTER.epsrel + TIGHT["epsrel"]
    np.testing.assert_allclose(np.square(tab.divergent_norms), np.square(div), rtol=rtol, atol=0.0)
    np.testing.assert_allclose(np.square(tab.convergent_norms), np.square(conv), rtol=rtol, atol=0.0)
    # inner and outer evaluations, each counted once
    assert tab.neval == sum(calls) > 0


def test_nonequivalence_matches_tight_quadpack_at_r16():
    # QUADPACK at its default epsabs left the R = 16 convergent norm 1.26e-10 off
    tab = nonequivalence_demo(1.0, -1.0, 0.0, 3.0, [8.0, 16.0])
    div, conv = _ref_nonequivalence(1.0, -1.0, 3.0, [16.0])
    assert tab.divergent_norms[1] == pytest.approx(div[0], rel=1e-11, abs=0.0)
    assert tab.convergent_norms[1] == pytest.approx(conv[0], rel=1e-11, abs=0.0)
