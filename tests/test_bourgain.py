"""Space-time norms, weight comparisons, and the estimate checkers."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len

from ckdv.bourgain.estimates import (
    _fast_len,
    admissible,
    bilinear_ratio,
    embedding_check,
    embedding_constant,
    epsilon_s,
    f_w,
    intersection_equivalence,
    linear_estimate_check,
    nonequivalence_demo,
    pointwise_bound_scan,
    pointwise_weight_ratio,
    weight_comparison_bound,
)
from ckdv.bourgain.spacetime import (
    SpaceTimeField,
    bracket_norm,
    duhamel_field,
    forward2,
    free_field,
    from_time_slices,
    hermitian_symmetrize,
    inverse2,
    make_st_grid,
    random_field,
    weight_table,
    xsb_norm,
)
from ckdv.bump import psi, psi_T
from ckdv.grid import Grid, SpectralField, cumulative_simpson_c, field_from_callable, forward
from ckdv.harness import ConfigError, config_from_dict


@pytest.fixture
def stg():
    return make_st_grid(32, 4.0 * np.pi, n_t=64, period_t=8.0)


def test_bump_profile():
    assert psi(0.0) == 1.0
    assert psi(1.0) == 1.0 and psi(-1.0) == 1.0
    assert psi(2.0) == 0.0 and psi(-2.5) == 0.0
    mid = psi(1.5)
    assert 0.0 < mid < 1.0
    t = np.linspace(-3, 3, 301)
    vals = psi(t)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.allclose(vals, vals[::-1])  # even
    assert np.array_equal(psi_T(t, 0.5), psi(t / 0.5))
    with pytest.raises(ValueError):
        psi_T(t, 0.0)


def test_forward2_round_trip_and_parseval(stg):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((stg.x.n, stg.t.n))
    F = forward2(vals, stg)
    assert np.max(np.abs(inverse2(F) - vals)) < 1e-12
    spec = np.sum(np.abs(F.coeffs) ** 2) * stg.cell
    phys = np.sum(vals**2) * stg.x.dx * stg.t.dx
    assert spec == pytest.approx(phys, rel=1e-12)


def test_xsb_norm_flat_weight_is_l2(stg):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((stg.x.n, stg.t.n))
    F = forward2(vals, stg)
    l2 = np.sqrt(np.sum(vals**2) * stg.x.dx * stg.t.dx)
    # with s = b = 0 the weight is 1 regardless of the speed
    for a in (1.0, -1.0, 2.0):
        assert xsb_norm(F, a, 0.0, 0.0) == pytest.approx(l2, rel=1e-12)
    with pytest.raises(ValueError):
        xsb_norm(F, 0.0, 0.0, 0.5)


def band_limited(F, band_x, band_t):
    """F with every coefficient outside |xi| <= band_x, |tau| <= band_t zeroed.

    The band is mirror symmetric, so the result stays Hermitian.
    """
    stg = F.grid
    inside = (np.abs(stg.x.xi[:, None]) <= band_x) & (np.abs(stg.t.xi[None, :]) <= band_t)
    return SpaceTimeField(np.where(inside, F.coeffs, 0.0), stg)


def test_xsb_norm_monotone_in_b_on_characteristic(stg):
    # a field concentrated off its characteristic grows with b
    F = band_limited(random_field(stg, np.random.default_rng(2)), 2.0, 3.0)
    n_low = xsb_norm(F, 1.0, 0.0, 0.4)
    n_high = xsb_norm(F, 1.0, 0.0, 0.8)
    assert n_high >= n_low


def test_weight_table_values(stg):
    w = weight_table(stg, 2.0, -0.5, 0.3)
    xi = stg.x.xi[:, None]
    tau = stg.t.xi[None, :]
    want = (1.0 + np.abs(tau + 2.0 * xi**3)) ** 0.6 * (1.0 + np.abs(xi)) ** -1.0
    assert np.allclose(w, want)


def test_bracket_norm_single_mode():
    g = Grid(64, 2.0 * np.pi)
    f = field_from_callable(lambda x: np.cos(3.0 * x), g)
    for s in (-1.0, 0.0, 0.7):
        want = (1.0 + 3.0) ** s * np.sqrt(np.pi)
        assert bracket_norm(f, s) == pytest.approx(want, rel=1e-12)


def test_hermitian_symmetrize(stg):
    rng = np.random.default_rng(3)
    c = rng.standard_normal((stg.x.n, stg.t.n)) + 1j * rng.standard_normal((stg.x.n, stg.t.n))
    h = hermitian_symmetrize(c)
    assert np.max(np.abs(hermitian_symmetrize(h) - h)) < 1e-14  # idempotent
    F = np.fft.ifftn(np.fft.fftshift(h))
    # a symmetric spectrum inverts to a real field up to rounding
    vals = inverse2(type(random_field(stg, rng))(h, stg))
    back = forward2(vals, stg)
    assert np.max(np.abs(back.coeffs - h)) < 1e-12


def test_random_field_band_limits(stg):
    xi = stg.x.xi[:, None]
    tau = stg.t.xi[None, :]
    # decay damps the same draw by (1+|xi|)^-decay (1+|tau|)^-decay
    F0 = random_field(stg, np.random.default_rng(4))
    F = random_field(stg, np.random.default_rng(4), decay=1.0)
    damp = (1.0 + np.abs(xi)) ** -1.0 * (1.0 + np.abs(tau)) ** -1.0
    np.testing.assert_allclose(F.coeffs, damp * F0.coeffs, rtol=1e-14, atol=0.0)
    # a band-limited field is zero outside the band and still real
    B = band_limited(F, 1.0, 2.0)
    outside = (np.abs(xi) > 1.0) | (np.abs(tau) > 2.0)
    assert np.all(B.coeffs[np.broadcast_to(outside, B.coeffs.shape)] == 0.0)
    assert np.any(B.coeffs != 0.0)
    assert np.max(np.abs(forward2(inverse2(B), stg).coeffs - B.coeffs)) < 1e-12


def test_free_field_initial_slice(stg):
    u0 = field_from_callable(lambda x: np.exp(-(x**2)) * np.cos(x), stg.x)
    F = free_field(u0, 1.0, stg)
    i0 = stg.t.n // 2
    assert stg.t.x[i0] == pytest.approx(0.0, abs=1e-14)
    vals = inverse2(F)
    assert np.max(np.abs(vals[:, i0] - u0.values())) < 1e-12
    # the grid mismatch guard
    other = field_from_callable(lambda x: np.exp(-(x**2)), Grid(64, 4.0 * np.pi))
    with pytest.raises(ValueError):
        free_field(other, 1.0, stg)


def test_free_field_windowing(stg):
    u0 = field_from_callable(lambda x: np.exp(-(x**2)), stg.x)
    Fw = free_field(u0, 1.0, stg)
    Fr = from_time_slices(u0.coeffs[:, None] * stg.phase(1.0), stg)  # not windowed
    late = np.abs(stg.t.x) >= 2.0
    vw = inverse2(Fw)
    assert np.max(np.abs(vw[:, late])) < 1e-12
    assert np.max(np.abs(inverse2(Fr)[:, late])) > 1e-6


def test_duhamel_field_basics(stg):
    zero = np.zeros((stg.x.n, stg.t.n), dtype=complex)
    W0 = duhamel_field(zero, 1.0, stg, 1.0)
    assert np.max(np.abs(W0.coeffs)) == 0.0
    u0 = field_from_callable(lambda x: np.exp(-(x**2)), stg.x)
    slices = u0.coeffs[:, None] * np.ones(stg.t.n)[None, :]
    W1 = duhamel_field(slices, 1.0, stg, 1.0)
    W2 = duhamel_field(2.0 * slices, 1.0, stg, 1.0)
    assert np.max(np.abs(W2.coeffs - 2.0 * W1.coeffs)) < 1e-12
    i0 = stg.t.n // 2
    assert np.max(np.abs(inverse2(W1)[:, i0])) < 1e-10  # anchored at t = 0


@pytest.mark.parametrize("T", [0.01, 0.1, 0.3, 0.55, 1.0, 2.0])  # support of 1 sample, odd and even spans, the whole box
def test_duhamel_field_on_the_cutoffs_support_keeps_the_whole_grids_rule(stg, T):
    forcing = random_field(stg, np.random.default_rng(3)).coeffs
    phase = stg.phase(1.5)
    acc = cumulative_simpson_c(np.conj(phase) * forcing, stg.t.dx, axis=1)  # over the whole time grid
    whole = from_time_slices(phase * (acc - acc[:, [stg.t.n // 2]]) * psi_T(stg.t.x, T), stg)
    got = duhamel_field(forcing, 1.5, stg, T)
    assert np.allclose(got.coeffs, whole.coeffs, rtol=0.0, atol=1e-13 * np.max(np.abs(whole.coeffs)))


def test_f_w_profile():
    # dense plateau maximum is exactly one half
    w = np.linspace(-3.0, 3.0, 200001)
    vals = f_w(w)
    assert float(np.max(vals)) == 0.5
    assert np.all(vals[np.abs(w) <= 1.0] == 0.5)
    far = np.abs(w) > 1.0
    assert np.allclose(vals[far], 0.5 / np.abs(w[far]))
    assert f_w(0.0) == 0.5
    assert f_w(-4.0) == pytest.approx(0.125)


def test_pointwise_ratio_never_exceeds_bound():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, a0, a1 = rng.uniform(-3.0, 3.0, size=3)
        if abs(a1 - a0) < 0.1:
            continue
        bound = weight_comparison_bound(a, a0, a1)
        x = rng.uniform(-1e3, 1e3, size=20000)
        tau = rng.uniform(-1e3, 1e3, size=20000)
        r = pointwise_weight_ratio(x, tau, a, a0, a1)
        assert np.all(r <= bound)
    with pytest.raises(ValueError):
        weight_comparison_bound(1.0, 2.0, 2.0)


def test_pointwise_bound_scan():
    scan = pointwise_bound_scan(1.0, 2.0, -1.0, n_side=200)
    assert scan.passed
    assert scan.max_ratio <= scan.bound
    assert scan.bound == pytest.approx(1.0 + abs((1.0 - 2.0) / (-1.0 - 2.0)))
    assert abs(scan.argmax[0]) <= 1e3 and abs(scan.argmax[1]) <= 1e3
    for name, kw in (("extent", dict(extent=np.nan)), ("extent", dict(extent=0.0)), ("n_side", dict(n_side=0))):
        with pytest.raises(ValueError, match=f"^{name} "):
            pointwise_bound_scan(1.0, 2.0, -1.0, **{"n_side": 200, **kw})
    # a non-finite speed used to come back as a scan with bound nan
    for name, kw in (("a", dict(a=np.nan)), ("a0", dict(a0=np.inf)), ("a1", dict(a1=-np.inf))):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            pointwise_bound_scan(**{"a": 1.0, "a0": 2.0, "a1": -1.0, "n_side": 200, **kw})


def test_embedding_constant_values():
    K = weight_comparison_bound(1.0, 2.0, -1.0)
    assert embedding_constant(1.0, 2.0, -1.0, 0.0) == pytest.approx(1.0)
    assert embedding_constant(1.0, 2.0, -1.0, 0.4) == pytest.approx(K**0.4)
    assert embedding_constant(1.0, 2.0, -1.0, 0.6) == pytest.approx(K**0.6 * 2.0**0.6)


def test_embedding_check_random_fields(stg):
    rng = np.random.default_rng(6)
    for _ in range(25):
        F = random_field(stg, rng, decay=1.0)
        res = embedding_check(F, 2.0, 1.0, 3.0, s=0.0, b=0.6)
        assert res.passed
        assert res.lhs <= res.constant * res.rhs * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        embedding_check(F, 2.0, 1.0, 3.0, s=0.0, b=-0.1)
    with pytest.raises(ValueError):
        embedding_check(F, 0.0, 1.0, 3.0, s=0.0, b=0.5)


def test_intersection_equivalence_same_pair(stg):
    F = random_field(stg, np.random.default_rng(7), decay=0.5)
    res = intersection_equivalence(F, (1.0, 3.0), (1.0, 3.0), s=0.0, b=0.6)
    assert res.passed
    assert res.norm_first == pytest.approx(res.norm_second, rel=1e-13)
    assert res.c_lo <= 1.0 <= res.c_hi


def test_intersection_equivalence_distinct_pairs(stg):
    rng = np.random.default_rng(8)
    for _ in range(10):
        F = random_field(stg, rng, decay=1.0)
        res = intersection_equivalence(F, (1.0, 3.0), (1.5, 2.5), s=-0.5, b=0.75)
        assert res.passed


def test_epsilon_s_reference_values():
    assert epsilon_s(0.0, "same_sign_pair") == pytest.approx(0.25)
    assert epsilon_s(0.0, "mixed_pair") == pytest.approx(0.5)
    assert epsilon_s(1.0, "same_sign_pair") == pytest.approx(0.25)
    # s in [-1/2, 0) inherits the s' = -5/8 margins
    assert epsilon_s(-0.3, "same_sign_pair") == pytest.approx(0.125)
    assert epsilon_s(-0.3, "mixed_pair") == pytest.approx(1.0 / 24.0)
    assert epsilon_s(-0.7, "same_sign_pair") == pytest.approx(2.0 / 15.0)
    assert epsilon_s(-0.7, "mixed_pair") == pytest.approx(1.0 / 60.0)
    with pytest.raises(ValueError):
        epsilon_s(-0.75, "same_sign_pair")
    with pytest.raises(ValueError):
        epsilon_s(0.0, "bogus")


def test_admissible_matrix():
    assert admissible(0.0, 0.6, -0.4, "same_sign_pair")
    assert admissible(0.0, 0.55, -0.45, "same_sign_pair")
    assert admissible(-0.6, 0.7, -0.25, "mixed_pair")
    # rejected: b' out of range, b too small, b beyond b' + 1, gap too wide
    assert not admissible(0.0, 0.6, 0.1, "same_sign_pair")
    assert not admissible(0.0, 0.6, -0.6, "same_sign_pair")
    assert not admissible(0.0, 0.5, -0.4, "same_sign_pair")
    assert not admissible(0.0, 0.9, -0.4, "same_sign_pair")
    assert not admissible(0.0, 0.6, 0.0, "same_sign_pair")  # gap 0.4 > 1/4
    # s beyond the theory is flagged rather than raised
    assert not admissible(-1.0, 0.6, -0.4, "same_sign_pair")


def test_nonequivalence_demo_growth_and_stability():
    table = nonequivalence_demo(1.0, -1.0, 0.0, 3.0, [8.0, 16.0])
    assert table.growth_exponent > 0.0
    assert table.divergent_norms[1] > table.divergent_norms[0]
    rel = abs(table.convergent_norms[1] - table.convergent_norms[0])
    assert rel / table.convergent_norms[1] < 1e-2


def test_nonequivalence_settling_uses_the_two_largest_distinct_radii():
    # a repeated or out-of-order ladder settles as its sorted distinct radii do
    want = nonequivalence_demo(1.0, -1.0, 0.0, 3.0, [8.0, 16.0])
    assert want.final_rel_change > 1e-3 and not want.stabilized
    for radii in ([8.0, 16.0, 16.0], [16.0, 8.0], [16.0, 8.0, 8.0]):
        got = nonequivalence_demo(1.0, -1.0, 0.0, 3.0, radii)
        assert (got.final_rel_change, got.stabilized) == (want.final_rel_change, want.stabilized)


def test_nonequivalence_norms_do_not_depend_on_s():
    # the field's (1+|xi|)^(-2s) cancels the norms' (1+|xi|)^(2s): s only gates the hypothesis s > 1/2 - b
    at_0, at_2 = (nonequivalence_demo(1.0, -1.0, s, 3.0, [8.0, 16.0, 32.0, 64.0]) for s in (0.0, 2.0))
    assert at_2.divergent_norms == at_0.divergent_norms
    assert at_2.convergent_norms == at_0.convergent_norms


@pytest.mark.parametrize("a", [-1.0, 2.0])
def test_nonequivalence_refuses_equal_speeds(a):
    # with a0 == a1 the "divergent" norm is the convergent one, yet at a = -1 the run passed
    # c09 with growth_exponent 0.00091 > 0 and final_rel_change 2.3e-4
    # the parse-time refusal is the library's own check, so it is asserted first
    with pytest.raises(ConfigError, match=f"a0 and a1 must differ, got {a} for both$"):
        config_from_dict({"kind": "nonequivalence", "params": {"a0": a, "a1": a}})
    with pytest.raises(ValueError, match=f"^a0 and a1 must differ, got {a} for both"):
        nonequivalence_demo(a, a, 0.0, 3.0, [4.0, 8.0])


def test_nonequivalence_demo_validation():
    with pytest.raises(ValueError):
        nonequivalence_demo(1.0, -1.0, 0.0, 0.5, [4.0, 8.0])
    with pytest.raises(ValueError):
        nonequivalence_demo(1.0, -1.0, -3.0, 3.0, [4.0, 8.0])
    with pytest.raises(ValueError):
        nonequivalence_demo(0.0, -1.0, 0.0, 3.0, [4.0, 8.0])
    # nan norms, a ZeroDivisionError, or (s) no error at all before these checks
    for name, value in (("a0", np.nan), ("a1", np.inf), ("s", np.nan), ("b", np.inf)):
        args = {"a0": 1.0, "a1": -1.0, "s": 0.0, "b": 3.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            nonequivalence_demo(**args, radii=[4.0, 8.0])
    # one radius admits no growth fit and no stabilization check
    for radii in ([8.0], [8.0, 8.0], [], [0.0, 8.0], [-8.0, 8.0], [8.0, np.inf], [np.nan, 8.0]):
        with pytest.raises(ValueError, match="two or more distinct positive radii"):
            nonequivalence_demo(1.0, -1.0, 0.0, 3.0, radii)


def test_linear_estimate_check_cheap():
    grid, small = make_st_grid(64, 8.0 * np.pi, n_t=256), make_st_grid(64, 8.0 * np.pi, n_t=64)
    rep = linear_estimate_check(
        grid, 1.0, 0.0, 0.6, -0.3, n_fields=8, t_values=(0.2, 0.4, 0.6, 0.8, 1.0)
    )
    assert rep.free_cv < 1e-2
    assert len(rep.free_ratios) == 8
    assert abs(rep.fitted_exponent - rep.target_exponent) < 0.15
    with pytest.raises(ValueError):
        linear_estimate_check(grid, 0.0, 0.0, 0.6, -0.3)
    with pytest.raises(ValueError):
        linear_estimate_check(grid, 1.0, 0.0, 0.6, 0.1)
    # one field forms one ratio, whose spread free_cv is 0 whatever the estimate
    for n_fields in (0, 1):
        with pytest.raises(ValueError, match="n_fields must be at least 2"):
            linear_estimate_check(small, 1.0, 0.0, 0.6, -0.3, n_fields=n_fields)
    # the exponent is fitted over the ladder: two or more distinct horizons in (0, 1]
    for t_values in ((0.5,), (0.5, 0.5), (0.5, 1.5), (0.0, 0.5)):
        with pytest.raises(ValueError, match="two or more distinct horizons"):
            linear_estimate_check(small, 1.0, 0.0, 0.6, -0.3, n_fields=2, t_values=t_values)
    # psi_T lives on |t| < 2T, so a time step of 2 min(t_values) or more keeps only t = 0
    coarse = make_st_grid(16, 4.0 * np.pi, 32, 8.0)
    with pytest.raises(ValueError, match=re.escape("period_t / n_t = 0.25 must be below 2 * min(t_values) = 0.2")):
        linear_estimate_check(coarse, 1.0, 0.0, 0.6, -0.3, n_fields=2)


@pytest.mark.parametrize("period_t", [2.0, 3.0, 3.99])
def test_time_box_must_hold_psi_support(period_t):
    # the box [-period_t/2, period_t/2) holds supp psi = [-2, 2] only from period_t = 4 on
    with pytest.raises(ConfigError, match=f"period_t must be >= 4 .* got {period_t}$"):
        config_from_dict({"kind": "bourgain_suite", "params": {"period_t": period_t}})
    with pytest.raises(ValueError, match=f"^period_t must be >= 4 .* got {period_t}"):
        linear_estimate_check(make_st_grid(16, 4.0 * np.pi, 32, period_t), 1.0, 0.0, 0.6, -0.3)


def test_bilinear_ratio_band_stability_cheap():
    kw = dict(s=0.0, b=0.6, b_prime=-0.4, trials=8, seed=5)
    r6 = bilinear_ratio(a_left=-1.0, a_right=-1.0, a_out=-1.0, band=6.0, **kw)
    r12 = bilinear_ratio(a_left=-1.0, a_right=-1.0, a_out=-1.0, band=12.0, **kw)
    assert r6.variant == "same_sign_pair"
    assert r6.admissible
    assert abs(r12.max_ratio - r6.max_ratio) / r6.max_ratio < 0.25
    m6 = bilinear_ratio(a_left=1.0, a_right=-1.0, a_out=1.0, band=6.0, **kw)
    assert m6.variant == "mixed_pair"
    assert len(r6.ratios) == 8
    assert r6.quantiles[1.0] == pytest.approx(r6.max_ratio)


def test_bilinear_ratio_flags_and_validation():
    rep = bilinear_ratio(-1.0, 0.6, -0.4, -1.0, -1.0, -1.0, trials=4, band=6.0)
    assert not rep.admissible  # s beyond the theory: flagged, still computed
    assert rep.max_ratio > 0.0
    with pytest.raises(ValueError):
        bilinear_ratio(0.0, 0.6, -0.4, -1.0, -1.0, -1.0, trials=0)


@pytest.mark.parametrize(
    "name, kw",
    [
        ("band", dict(band=0.2)),  # rounds to h = 0 at dxi = 0.5: an empty half plane
        ("band", dict(band=-3.0)),
        ("band", dict(band=float("inf"))),
        ("dxi", dict(dxi=-0.5)),
        ("dxi", dict(dxi=float("nan"))),
        ("dtau", dict(dtau=0.0)),
        ("dtau", dict(dtau=float("nan"))),
        # X^a_{s,b} is defined for a != 0 only: a zero speed has no characteristic to window
        ("a_out", dict(a_out=0.0)),
        ("a_left", dict(a_left=0.0)),
        # non-finite parameters would flow into every weight and return NaN ratios
        ("s", dict(s=float("nan"))),
        ("b", dict(b=float("inf"))),
        ("b_prime", dict(b_prime=float("nan"))),
        ("a_right", dict(a_right=float("-inf"))),
        ("a_out", dict(a_out=float("nan"))),
        # the output weight divides by p (p + 1), p = 1 + 2 b_prime
        ("b_prime", dict(b_prime=-0.5)),
        ("b_prime", dict(b_prime=-1.0)),
    ],
)
def test_bilinear_ratio_rejects_unusable_lattices(name, kw):
    args = dict(s=0.0, b=0.6, b_prime=-0.4, a_left=1.0, a_right=-1.0, a_out=1.0, trials=1)
    with pytest.raises(ValueError, match=f"^{name} "):
        bilinear_ratio(**{**args, **kw})


def _traced_peak(call):
    """Peak traced allocation of call(), above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_bilinear_ratio_memory_peak():
    # this mixed case at band 32 forms 8,256 pairs of 66 slots: the float weight
    # table is 4.2 MiB, and a block of at most 1,024 pairs adds 1.0 MiB complex,
    # or in the plan a 1,024 x 66 float edge block 0.5 MiB per f2 temporary;
    # one complex product array over every pair would add 8.3 MiB by itself
    peak = _traced_peak(lambda: bilinear_ratio(-0.6, 0.6, -0.4, 1.0, -1.0, 1.0, trials=2, band=32.0, seed=5))
    assert peak < 10 * 2**20


def test_pointwise_scan_memory_peak():
    # blocks of 65 tau rows: three 65 x 1000 float buffers are 1.5 MiB; the
    # whole 1000 x 1000 lattice would take 7.6 MiB per buffer
    peak = _traced_peak(lambda: pointwise_bound_scan(1.3, -2.1, 0.7, n_side=1000, extent=1e3))
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "a, a0, a1, n_side, extent",
    [
        (0.0, 1.0, -1.0, 601, 300.0),  # exactly 1/2 wherever |x| <= |tau|: 181,201 ties over all 6 blocks
        (-1.0, 0.0, -2.0, 601, 300.0),  # 226,201 ties, the first one mid-row
        (1.3, -2.1, 0.7, 700, 1e3),  # one maximum, in the last block
    ],
)
def test_pointwise_scan_keeps_the_dense_scans_first_maximum(a, a0, a1, n_side, extent):
    xs = np.linspace(-extent, extent, n_side)
    r = pointwise_weight_ratio(xs[None, :], xs[:, None], a, a0, a1)
    i = int(np.argmax(r))
    scan = pointwise_bound_scan(a, a0, a1, n_side=n_side, extent=extent)
    assert scan.max_ratio == r.flat[i]
    assert scan.argmax == (xs[i % n_side], xs[i // n_side])


def test_linear_estimate_check_memory_peak():
    # the phase table, two float weight tables (one field together), one
    # horizon's forcing and Duhamel slices, and from_time_slices' FFT scaled in
    # place: 5 complex (n_x, n_t) fields of 16 bytes a point, plus
    # duhamel_field's arrays over psi_T's support; tracemalloc reads 5.86
    linear_estimate_check(make_st_grid(16, 4.0 * np.pi, 64, 8.0), 1.0, 0.0, 0.6, -0.3, n_fields=2)  # first-call caches
    stg = make_st_grid(128, 16.0 * np.pi, 512, 8.0)
    peak = _traced_peak(lambda: linear_estimate_check(stg, 1.0, 0.0, 0.6, -0.3))
    assert peak < 6 * 16 * 128 * 512


def test_from_time_slices_holds_one_field_beside_its_input():
    # the time FFT's output, scaled in place: no scaled copy beside it
    stg = make_st_grid(128, 16.0 * np.pi, 512, 8.0)
    rng = np.random.default_rng(0)
    slices = rng.standard_normal((128, 512)) + 1j * rng.standard_normal((128, 512))
    from_time_slices(slices, stg)  # first-call caches
    assert _traced_peak(lambda: from_time_slices(slices, stg)) < 1.2 * 16 * 128 * 512


def test_bilinear_negative_seed_raises():
    with pytest.raises(ValueError, match="^seed "):
        bilinear_ratio(0.0, 0.6, -0.4, 1.0, 1.0, -1.0, trials=1, band=2.0, seed=-1)


def test_bilinear_fft_length_is_scipys_for_complex_input():
    # the trial's FFT length, and with it every c12 number, is the one scipy.fft picks
    sizes = range(1, 4097)
    assert [_fast_len(n) for n in sizes] == [next_fast_len(n) for n in sizes]


def _bilinear_full_plane(s, b, b_prime, a_left, a_right, a_out, trials, band, seed, dxi, dtau,
                         sigma_window=8.0):
    """Per-trial ratios of bilinear_ratio, summed over all m^2 pairs."""
    h = int(round(band / dxi))
    m = 2 * h + 1
    kap = int(round(sigma_window / dtau))
    kk = 2 * kap + 1
    xi = dxi * (np.arange(m) - h)
    xi2 = dxi * (np.arange(2 * m - 1) - 2 * h)
    offs = np.arange(-kap, kap + 1)
    cell = dxi * dtau
    t_left = np.round(-a_left * xi**3 / dtau).astype(np.int64)
    t_right = np.round(-a_right * xi**3 / dtau).astype(np.int64)
    sig_prof = (1.0 + np.abs(offs * dtau)) ** (-(b + 0.75))
    amp = (1.0 + np.abs(xi)) ** (-(s + 1.0))

    def weights_and_support(t, a):
        tau = (t[:, None] + offs[None, :]) * dtau
        w = (1.0 + np.abs(tau + a * xi[:, None] ** 3)) ** (2.0 * b) * (1.0 + np.abs(xi[:, None])) ** (2.0 * s)
        return w, np.abs(tau) <= band**3

    w_left, sup_left = weights_and_support(t_left, a_left)
    w_right, sup_right = weights_and_support(t_right, a_right)

    def draw(trial, which, sup):
        c = np.zeros((m, kk), dtype=complex)
        r = np.random.default_rng((seed, trial, which))
        for i in range(h + 1):
            row = (r.standard_normal(kk) + 1j * r.standard_normal(kk)) * sig_prof * amp[h + i]
            if i == 0:
                row = 0.5 * (row + np.conj(row[::-1]))
            c[h + i] = row
            c[h - i] = np.conj(row[::-1])
        return c * sup

    ll = 2 * kk - 1
    pos_span = int(np.max(np.abs(t_left)) + np.max(np.abs(t_right))) + 2 * kap + 1
    stride = np.int64(2 * pos_span + 1)
    n_pair = np.arange(m)[:, None] + np.arange(m)[None, :]
    base = t_left[:, None] + t_right[None, :] - 2 * kap
    keys = n_pair[:, :, None] * stride + base[:, :, None] + np.arange(ll)[None, None, :] + pos_span
    uniq, inv = np.unique(keys.ravel(), return_inverse=True)
    n_out, rem = np.divmod(uniq, stride)
    xi_out = xi2[n_out]
    sig_out = (rem - pos_span) * dtau + a_out * xi_out**3

    p = 1.0 + 2.0 * b_prime

    def f1(y):
        return np.sign(y) * ((1.0 + np.abs(y)) ** p - 1.0) / p

    def f2(y):
        return ((1.0 + np.abs(y)) ** (p + 1.0) - 1.0) / (p * (p + 1.0)) - np.abs(y) / p

    spread = 3.0 * abs(a_out) * xi_out**2 * dxi
    lo, hi = np.minimum(dtau, spread), np.maximum(dtau, spread)

    def tau_avg(y):
        return (f2(y + hi / 2.0) - f2(y - hi / 2.0)) / hi

    mod_avg = np.where(
        lo > 1e-9 * dtau,
        (tau_avg(sig_out + lo / 2.0) - tau_avg(sig_out - lo / 2.0)) / np.maximum(lo, 1e-300),
        (f1(sig_out + hi / 2.0) - f1(sig_out - hi / 2.0)) / hi,
    )
    w_out = mod_avg * (1.0 + np.abs(xi_out)) ** (2.0 * s) * xi_out**2

    ratios = []
    for trial in range(trials):
        u = draw(trial, 0, sup_left)
        v = draw(trial, 1, sup_right)
        nu = np.sqrt(np.sum(w_left * np.abs(u) ** 2) * cell)
        nv = np.sqrt(np.sum(w_right * np.abs(v) ** 2) * cell)
        fu = np.fft.fft(u, n=ll, axis=1)
        fv = np.fft.fft(v, n=ll, axis=1)
        pair = np.fft.ifft(fu[:, None, :] * fv[None, :, :], axis=2) * (cell / (2.0 * np.pi))
        acc = np.zeros(uniq.size, dtype=complex)
        np.add.at(acc, inv, pair.ravel())
        ratios.append(np.sqrt(np.sum(w_out * np.abs(acc) ** 2) * cell) / (nu * nv))
    return ratios


@pytest.mark.parametrize(
    "s, speeds, band, dxi, dtau",
    [
        (0.0, (1.0, 1.0, -1.0), 6.0, 0.5, 0.5),  # same-sign pair
        (-0.6, (1.0, -1.0, 1.0), 6.0, 0.5, 0.5),  # mixed pair
        (0.0, (1.7, 1.7, -0.6), 5.0, 0.5, 0.5),  # |a| != 1, same sign
        (-0.3, (2.0, -0.5, 1.3), 5.0, 0.5, 0.5),  # |a| != 1, mixed
        (0.0, (-1.0, -1.0, 1.0), 4.0, 0.4, 0.3),  # off-default lattice
        (0.4, (1.0, -1.0, -1.0), 4.8, 0.6, 0.8),  # s > 0 on a coarse lattice
        (0.0, (1.0, 0.25, 1.0), 6.0, 0.5, 0.5),  # resonant unequal speeds: rows mostly overlap
        (-0.6, (1.104, 0.396, -1.0), 6.0, 0.5, 0.5),  # resonant unequal speeds with a_out < 0
    ],
)
def test_bilinear_ratio_half_plane_matches_full_plane(s, speeds, band, dxi, dtau):
    kw = dict(trials=3, band=band, seed=11, dxi=dxi, dtau=dtau)
    rep = bilinear_ratio(s, 0.6, -0.4, *speeds, **kw)
    want = _bilinear_full_plane(s, 0.6, -0.4, *speeds, **kw)
    assert len(rep.ratios) == len(want) == 3
    assert np.allclose(rep.ratios, want, rtol=1e-12, atol=0.0)


# ratios of bilinear_ratio(s, 0.6, -0.4, *speeds, trials=4, band=band, seed=5), each
# field drawn row by row from one default_rng((seed, trial, which)) stream
PINNED_BILINEAR = {
    ((0.0, 1.0, 1.0, -1.0), 8.0): [0.018886096883238584, 0.020799662884620245, 0.01971095089659202, 0.019881665796809604],
    ((0.0, 1.0, 1.0, -1.0), 16.0): [0.018565383391934875, 0.020383077697031952, 0.01929199454751692, 0.019466786194473368],
    ((0.0, 1.0, 1.0, -1.0), 32.0): [0.01830574980246178, 0.020078628943089157, 0.019025645987851076, 0.019185484014947754],
    ((-0.6, 1.0, -1.0, 1.0), 8.0): [0.034526310831286454, 0.03384040366690155, 0.032698364665631814, 0.03589969822872176],
    ((-0.6, 1.0, -1.0, 1.0), 16.0): [0.036381662625672745, 0.036499802546780834, 0.035300606573631016, 0.03746533522376545],
    ((-0.6, 1.0, -1.0, 1.0), 32.0): [0.03809100722560042, 0.03850804459676878, 0.03742909662663408, 0.03885994805356439],
}


@pytest.mark.parametrize("case, band", list(PINNED_BILINEAR))
def test_bilinear_ratio_pinned_at_benchmark_bands(case, band):
    # the full-plane reference is too slow past band 6; these pins reach the
    # windowed plan's overlap scatter and swap merge at the bands c12 runs
    s, *speeds = case
    rep = bilinear_ratio(s, 0.6, -0.4, *speeds, trials=4, band=band, seed=5)
    assert np.allclose(rep.ratios, PINNED_BILINEAR[case, band], rtol=1e-12, atol=0.0)


def test_linear_estimate_free_ratios_match_per_field_reference():
    g = Grid(32, 8.0 * np.pi)
    u0 = field_from_callable(lambda x: np.exp(-(x**2)), g)
    a, s, b, n_t, seed = -1.5, 0.3, 0.6, 64, 4
    stg = make_st_grid(g.n, g.period, n_t=n_t)
    rep = linear_estimate_check(stg, a, s, b, -0.3, n_fields=6, seed=seed, t_values=(0.5, 1.0))
    # the battery, drawn as linear_estimate_check draws it
    mask = np.abs(g.xi) <= 0.5 * (np.max(np.abs(stg.t.xi)) / abs(a)) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    data = [u0]
    while len(data) < 6:
        c = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        data.append(forward(SpectralField(np.where(mask, c, 0.0), g).values(), g))
    xi, t, tau = stg.x.xi[:, None], stg.t.x[None, :], stg.t.xi[None, :]
    weight = (1.0 + np.abs(tau + a * xi**3)) ** (2.0 * b) * (1.0 + np.abs(xi)) ** (2.0 * s)
    want = []
    for w0 in data:
        slices = w0.coeffs[:, None] * np.exp(-1j * a * xi**3 * t) * psi(stg.t.x)[None, :]
        F = from_time_slices(slices, stg)
        want.append(np.sqrt(np.sum(weight * np.abs(F.coeffs) ** 2) * stg.cell) / bracket_norm(w0, s))
    assert np.allclose(rep.free_ratios, want, rtol=1e-13, atol=0.0)


def test_spacetime_tables_built_once_and_read_only(stg):
    w = weight_table(stg, 2.0, -0.5, 0.3)
    assert weight_table(stg, 2.0, -0.5, 0.3) is w
    assert weight_table(stg, 2.0, -0.5, 0.4) is not w
    ph = stg.phase(1.5)
    assert stg.phase(1.5) is ph
    assert np.array_equal(ph, np.exp(-1j * 1.5 * stg.x.xi[:, None] ** 3 * stg.t.x[None, :]))
    for table in (w, ph):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    assert hash(stg) == hash((stg.x, stg.t))  # the cache is not part of the grid's identity
