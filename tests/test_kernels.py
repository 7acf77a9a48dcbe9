"""Integral kernel evaluations: closed forms, hypothesis guards, stability."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from ckdv.bourgain.estimates import _tail_antiderivative, nonequivalence_demo
from ckdv.bourgain.kernels import (
    KERNELS,
    HypothesisViolation,
    QuadSpec,
    _counted_quad,
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
    with pytest.raises(KeyError):
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


# --- half-line rule -------------------------------------------------------
#
# Full-line references for the four even kernels and the nonequivalence
# norms: the same integrands integrated over the symmetric range, as
# written before the half-line rule.  Each returns (value, evaluations).

def _full(fn, lo, hi, pts=(), **kw):
    inner = sorted({float(p) for p in pts if lo < p < hi})
    out = quad(fn, lo, hi, points=inner or None, full_output=1, **kw)
    return out[0], out[2]["neval"]


def _qkw(q):
    return {"limit": q.limit, "epsabs": q.epsabs, "epsrel": q.epsrel}


def _ref_level_set(sample, p, q):
    a, eta = sample
    fn = lambda x: (1.0 + abs(a) * abs(x * x - eta * eta)) ** (-2.0 * p["b"])
    val, n = _full(fn, -q.x_max, q.x_max, (-abs(eta), abs(eta)), **_qkw(q))
    return val * abs(a) * abs(eta), n


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
    val, n = _full(fn, -q.x_max, q.x_max, _peaks(y + 0.75), **_qkw(q))
    return pref * val, n


def _ref_flip_core(sample, p, q):
    xi, y = sample
    b, bp = p["b"], p["b_prime"]
    xi3 = abs(xi) ** 3
    pref = xi3 * (1.0 + xi3 * abs(3.0 * y + 2.0)) ** (2.0 * bp)
    fn = lambda x: (1.0 + xi3 * abs(y + 0.25 - x * x)) ** (-2.0 * b)
    val, n = _full(fn, -q.x_max, q.x_max, _peaks(y + 0.25), **_qkw(q))
    return pref * val, n


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
        return 0.0, 0
    fn = lambda x: abs(x * x - 0.25) ** (-2.0 * s) * (
        1.0 + abs(xi**3 * (y + 0.75 - 3.0 * x * x))
    ) ** (-2.0 * b)
    pts = (-0.5, 0.5) + _peaks((y + 0.75) / 3.0)
    hi_x = math.sqrt(hi2)
    if lo2 <= 0.0:
        val, n = _full(fn, -hi_x, hi_x, pts, **_qkw(q))
        return pref * val, n
    lo_x = math.sqrt(lo2)
    v1, n1 = _full(fn, -hi_x, -lo_x, pts, **_qkw(q))
    v2, n2 = _full(fn, lo_x, hi_x, pts, **_qkw(q))
    return pref * (v1 + v2), n1 + n2


FULL_LINE = {
    "level_set": _ref_level_set,
    "flip_weighted_aux": _ref_flip_weighted_aux,
    "flip_core": _ref_flip_core,
    "flip_region_a": _ref_flip_region_a,
}


@pytest.mark.parametrize("kid", sorted(FULL_LINE))
def test_even_kernels_half_line_matches_full_line(kid):
    kd = KERNELS[kid]
    p = kd.default_params
    half_evals = full_evals = 0
    for q in (QuadSpec(), QuadSpec().refined()):
        for smp in kd.default_samples:
            got, n = kd.evaluate(smp, p, q)
            want, n_ref = FULL_LINE[kid](smp, p, q)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (smp, q)
            half_evals += n
            full_evals += n_ref
    assert 0 < half_evals <= 0.6 * full_evals
    # the report counts the same evaluations over both passes
    assert kernel_bound_check(kid)[1].neval == half_evals


def _ref_nonequivalence(a0, a1, b, radii):
    """Both norm ladders by nested quadrature over |xi| <= R, and the evaluations."""
    evals = 0

    def tau_quad(xi, rad, a_top):
        nonlocal evals
        c_top, c_bot = a_top * xi**3, a1 * xi**3
        pts = sorted({-rad, rad, *(p for p in (-c_top, -c_bot) if -rad < p < rad)})
        total = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            fn = lambda t: (1.0 + abs(t + c_top)) ** (2.0 * b) * (1.0 + abs(t + c_bot)) ** (-4.0 * b)
            val, n = _full(fn, lo, hi, limit=200)
            total += val
            evals += n
        return total

    def tau_closed(xi, rad):
        c = a1 * xi**3
        return _tail_antiderivative(rad + c, b) - _tail_antiderivative(-rad + c, b)

    def norm(a_top, rad):
        nonlocal evals
        inner = (lambda xi: tau_closed(xi, rad)) if a_top == a1 else (lambda xi: tau_quad(xi, rad, a_top))
        val, n = _full(lambda xi: (1.0 + abs(xi)) ** (-2.0 * b) * inner(xi), -rad, rad, (0.0,), limit=400)
        evals += n
        return math.sqrt(val)

    div = [norm(a0, r) for r in radii]
    conv = [norm(a1, r) for r in radii]
    return div, conv, evals


@pytest.mark.parametrize("a0, a1", [(1.0, -1.0), (-1.3, 0.7), (2.0, -0.5), (-1.0, -2.0)])
def test_nonequivalence_half_line_matches_full_line(a0, a1):
    radii = [4.0, 8.0]
    tab = nonequivalence_demo(a0, a1, 0.0, 3.0, radii)
    div, conv, evals = _ref_nonequivalence(a0, a1, 3.0, radii)
    np.testing.assert_allclose(tab.divergent_norms, div, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(tab.convergent_norms, conv, rtol=1e-9, atol=0.0)
    assert 0 < tab.neval <= 0.6 * evals


def test_counted_quad_warns_again():
    # full_output=1 turns QUADPACK's warning into a message; it is warned again
    with pytest.warns(IntegrationWarning, match="maximum number of subdivisions"):
        val, n = _counted_quad(lambda x: abs(x - 0.3) ** -0.5, 0.0, 1.0, limit=1)
    assert n > 0 and np.isfinite(val)
