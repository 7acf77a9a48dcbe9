"""Experiment harness: strict config parsing, runners, run manifests.

Every experiment is a pure function of (config, seed).  A run writes
its CSV tables and snapshots first and the manifest last, so the
presence of manifest.json marks a completed run; its status field
records failures instead of leaving half-written output behind.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as ckio
from .bourgain import (
    KERNELS,
    embedding_check,
    intersection_equivalence,
    kernel_bound_check,
    linear_estimate_check,
    make_st_grid,
    nonequivalence_demo,
    random_field,
)
from .diagnostics import Recorder, sobolev_norm
from .grid import Grid, SpectralField, forward
from .solver import StepperConfig, picard_iterate, simulate
from .systems import (
    Feng,
    GearGrimshaw,
    GeneralCoupled,
    HirotaSatsuma,
    Sakovich,
    State,
)
from .transforms import scaling_map

KINDS = (
    "simulate",
    "lipschitz_probe",
    "scaling_probe",
    "picard_study",
    "convergence_study",
    "bourgain_suite",
    "kernel_suite",
    "nonequivalence",
)

DIAGNOSTICS_SCHEMA = ["t", "V", "F", "phi1", "phi2", "phi3", "phi4", "Hs_u", "Hs_v"]


class ConfigError(ValueError):
    """Malformed configuration; rejected before any computation."""


def _strict(d: dict, allowed, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


_SYSTEMS = {
    "hirota_satsuma": HirotaSatsuma,
    "feng": Feng,
    "gear_grimshaw": GearGrimshaw,
    "general_coupled": GeneralCoupled,
    "sakovich": Sakovich,
}


def build_system(d: dict):
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigError("system block needs a 'name' key")
    name = d["name"]
    cls = _SYSTEMS.get(name)
    if cls is None:
        raise ConfigError(f"unknown system '{name}' (choices: {', '.join(_SYSTEMS)})")
    fields = {f.name for f in dataclasses.fields(cls)}
    body = {k: v for k, v in d.items() if k != "name"}
    _strict(body, fields, f"system '{name}'")
    if cls is Sakovich:
        body = {k: np.asarray(v, dtype=np.float64) for k, v in body.items()}
    try:
        return cls(**body)
    except TypeError as e:
        raise ConfigError(f"system '{name}': {e}") from None


def build_grid(d: dict) -> Grid:
    _strict(d, {"n", "period", "dealias_fraction"}, "grid")
    try:
        n = d["n"]
        if isinstance(n, float) and not n.is_integer():
            raise ValueError(f"n must be an integer, got {n}")
        return Grid(
            int(n),
            float(d["period"]),
            float(d.get("dealias_fraction", 2.0 / 3.0)),
        )
    except KeyError as e:
        raise ConfigError(f"grid block missing {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"grid block: {e}") from None


def build_stepper(d: dict) -> StepperConfig:
    _strict(d, {"dt", "scheme", "cfl_guard"}, "stepper")
    if "dt" not in d:
        raise ConfigError("stepper block missing 'dt'")
    kw = {}
    if "scheme" in d:
        kw["scheme"] = d["scheme"]
    if "cfl_guard" in d:
        kw["cfl_guard"] = float(d["cfl_guard"])
    try:
        return StepperConfig(float(d["dt"]), **kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"stepper block: {e}") from None


_INITIAL_KEYS = {
    "zero": set(),
    "gaussian": {"amplitude", "width", "center"},
    "sine": {"amplitude", "mode", "phase"},
    "modulated_gaussian": {"amplitude", "width", "center", "mode"},
    "soliton": {"speed", "center"},
    "random_band": {"amplitude", "band", "decay"},
}


def _component_samples(d: dict, g: Grid, rng: np.random.Generator) -> np.ndarray:
    kind = d.get("kind", "zero")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(
            f"unknown initial kind '{kind}' (choices: {', '.join(_INITIAL_KEYS)})"
        )
    _strict({k: v for k, v in d.items() if k != "kind"}, _INITIAL_KEYS[kind], f"initial '{kind}'")
    x = g.x
    amp = float(d.get("amplitude", 1.0))
    if kind == "zero":
        return np.zeros(g.n)
    if kind == "gaussian":
        w = float(d.get("width", 1.0))
        c = float(d.get("center", 0.0))
        return amp * np.exp(-(((x - c) / w) ** 2))
    if kind == "sine":
        m = int(d.get("mode", 1))
        ph = float(d.get("phase", 0.0))
        return amp * np.sin(2.0 * np.pi * m * x / g.period + ph)
    if kind == "modulated_gaussian":
        w = float(d.get("width", 1.0))
        c = float(d.get("center", 0.0))
        m = int(d.get("mode", 12))
        env = np.exp(-(((x - c) / w) ** 2))
        return amp * env * np.cos(2.0 * np.pi * m * (x - c) / g.period)
    if kind == "soliton":
        c = float(d.get("speed", 4.0))
        x0 = float(d.get("center", 0.0))
        if c <= 0.0:
            raise ConfigError("soliton speed must be positive")
        # (c/2) sech^2(sqrt(c)/2 (x - x0)) travels right at speed c under
        # w_t + w_xxx + 6 w w_x = 0
        arg = 0.5 * np.sqrt(c) * (x - x0)
        return 0.5 * c / np.cosh(arg) ** 2
    # random_band: Hermitian noise limited to the resolved band
    band = float(d.get("band", 0.0))
    decay = float(d.get("decay", 2.0))
    coeffs = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    damp = (1.0 + np.abs(g.xi)) ** (-decay)
    coeffs *= damp * g.keep
    if band > 0.0:
        coeffs[np.abs(g.xi) > band] = 0.0
    vals = SpectralField(coeffs, g).values()
    peak = np.max(np.abs(vals))
    if peak > 0.0:
        vals = vals * (amp / peak)
    return vals


def make_initial(d: Optional[dict], g: Grid, rng: np.random.Generator) -> State:
    d = d or {}
    _strict(d, {"u", "v"}, "initial")
    u = forward(_component_samples(d.get("u", {}), g, rng), g)
    v = forward(_component_samples(d.get("v", {}), g, rng), g)
    return State(u, v, 0.0)


_PARAM_KEYS = {
    "simulate": {"s"},
    "lipschitz_probe": {"s", "deltas", "n_directions", "direction_band"},
    "scaling_probe": {"lam", "lambdas", "s_values"},
    "picard_study": {"n_iters", "time_resolution", "s", "apply_cutoffs", "compare_stepper"},
    "convergence_study": {"dt_values", "reference_dt"},
    "bourgain_suite": {
        "s", "b", "b_prime", "a",
        "n_x", "period_x", "n_t", "period_t",
        "n_fields", "t_values",
        "embedding_speeds", "pair_first", "pair_second", "n_embed_fields",
    },
    "kernel_suite": {"kernels"},
    "nonequivalence": {"a0", "a1", "s", "b", "radii"},
}

_NEEDS_DYNAMICS = {
    "simulate", "lipschitz_probe", "scaling_probe", "picard_study", "convergence_study",
}

_TOP_KEYS = {
    "kind", "system", "grid", "stepper", "horizon", "sample_dt",
    "initial", "seed", "output_dir", "params",
}


@dataclass
class ExperimentConfig:
    kind: str
    raw: dict
    system: object
    grid: Optional[Grid]
    stepper: Optional[StepperConfig]
    horizon: float
    sample_dt: float
    initial: Optional[dict]
    seed: int
    output_dir: Optional[str]
    params: dict


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("configuration must be a JSON object")
    _strict(d, _TOP_KEYS, "config")
    kind = d.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind '{kind}' (choices: {', '.join(KINDS)})")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    _strict(params, _PARAM_KEYS[kind], f"params for '{kind}'")
    system = grid = stepper = None
    if kind in _NEEDS_DYNAMICS:
        for block in ("system", "grid", "stepper"):
            if block not in d:
                raise ConfigError(f"kind '{kind}' requires a '{block}' block")
        system = build_system(d["system"])
        grid = build_grid(d["grid"])
        stepper = build_stepper(d["stepper"])
    else:
        for block in ("system", "grid", "stepper"):
            if block in d:
                raise ConfigError(f"kind '{kind}' does not take a '{block}' block")
    initial = d.get("initial")
    if initial is not None and kind not in _NEEDS_DYNAMICS:
        raise ConfigError(f"kind '{kind}' does not take an 'initial' block")
    if initial is not None:
        _strict(initial, {"u", "v"}, "initial")
        for side in ("u", "v"):
            blk = initial.get(side)
            if blk is not None:
                if not isinstance(blk, dict):
                    raise ConfigError(f"initial.{side} must be an object")
                kname = blk.get("kind", "zero")
                if kname not in _INITIAL_KEYS:
                    raise ConfigError(f"unknown initial kind '{kname}'")
                _strict(
                    {k: v for k, v in blk.items() if k != "kind"},
                    _INITIAL_KEYS[kname],
                    f"initial.{side}",
                )
    if kind == "kernel_suite":
        ids = params.get("kernels", ())
        unknown = sorted(set(ids) - set(KERNELS))
        if unknown:
            raise ConfigError(f"unknown kernel id(s): {', '.join(map(str, unknown))}")
    try:
        horizon = float(d.get("horizon", 0.0))
        sample_dt = float(d.get("sample_dt", 0.01))
        seed = int(d.get("seed", 0))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config scalar: {e}") from None
    if not (horizon >= 0.0 and np.isfinite(horizon)):
        raise ConfigError(f"horizon must be finite and >= 0, got {horizon}")
    if not (sample_dt > 0.0 and np.isfinite(sample_dt)):
        raise ConfigError(f"sample_dt must be finite and positive, got {sample_dt}")
    return ExperimentConfig(
        kind=kind,
        raw=d,
        system=system,
        grid=grid,
        stepper=stepper,
        horizon=horizon,
        sample_dt=sample_dt,
        initial=initial,
        seed=seed,
        output_dir=d.get("output_dir"),
        params=params,
    )


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return config_from_dict(d)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


@dataclass
class RunManifest:
    kind: str
    config: dict
    version: str
    seed: int
    wall_time_s: float
    files: list
    summary: dict
    status: str  # "pass", "fail", or "error"
    error: Optional[str] = None

    def write(self, path) -> None:
        payload = _jsonable(dataclasses.asdict(self))
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class _Emitter:
    """Writes output files under one directory and records their names."""

    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.files: list[str] = []

    def csv(self, name: str, schema, rows) -> None:
        ckio.write_csv(rows, schema, self.out / name)
        self.files.append(name)

    def snapshot(self, name: str, state: State) -> None:
        ckio.write_snapshot(self.out / name, state)
        self.files.append(name)


def _joint_norm(state: State, s: float) -> float:
    return float(np.hypot(sobolev_norm(state.u, s), sobolev_norm(state.v, s)))


def _axpy(f: SpectralField, g: SpectralField, c: float) -> SpectralField:
    return SpectralField(f.coeffs + c * g.coeffs, f.grid)


def _random_direction(g: Grid, rng: np.random.Generator, s: float, band: float):
    """Unit-joint-norm perturbation direction on the resolved band."""
    parts = []
    for _ in range(2):
        c = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        c *= g.keep * (1.0 + np.abs(g.xi)) ** (-1.0)
        if band > 0.0:
            c[np.abs(g.xi) > band] = 0.0
        parts.append(forward(SpectralField(c, g).values(), g))
    du, dv = parts
    scale = float(np.hypot(sobolev_norm(du, s), sobolev_norm(dv, s)))
    if scale == 0.0:
        raise ValueError("degenerate perturbation direction")
    return SpectralField(du.coeffs / scale, g), SpectralField(dv.coeffs / scale, g)


def _drift_summary(rows) -> dict:
    """Relative drift of each conserved column over the run."""
    names = DIAGNOSTICS_SCHEMA[1:7]
    arr = np.asarray(rows, dtype=np.float64)
    out = {}
    for j, name in enumerate(names, start=1):
        col = arr[:, j]
        if not np.all(np.isfinite(col)):
            continue
        ref = max(1.0, abs(col[0]))
        out[name] = float(np.max(np.abs(col - col[0])) / ref)
    return out


def _run_simulate(cfg: ExperimentConfig, emit: _Emitter):
    rng = np.random.default_rng(cfg.seed)
    state = make_initial(cfg.initial, cfg.grid, rng)
    emit.snapshot("snapshot_initial.ckdv", state)
    s = float(cfg.params.get("s", 1.0))
    rec = Recorder(cfg.system, s)
    if cfg.horizon > 0.0:
        traj = simulate(
            state, cfg.system, cfg.horizon, cfg.stepper,
            observers=(rec,), sample_dt=cfg.sample_dt,
        )
        emit.snapshot("snapshot_final.ckdv", traj.states[-1])
        final_t = traj.states[-1].t
    else:
        rec(state)
        final_t = state.t
    rows = [r.row() for r in rec.records]
    emit.csv("diagnostics.csv", DIAGNOSTICS_SCHEMA, rows)
    ok = all(r.valid for r in rec.records)
    summary = {
        "records": len(rows),
        "final_time": final_t,
        "drift": _drift_summary(rows),
    }
    return summary, ok


def _run_lipschitz(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    s = float(p.get("s", 1.0))
    deltas = [float(x) for x in p.get("deltas", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))]
    n_dirs = int(p.get("n_directions", 1))
    band = float(p.get("direction_band", 0.0))
    rng = np.random.default_rng(cfg.seed)
    base0 = make_initial(cfg.initial, cfg.grid, rng)
    base_norm = _joint_norm(base0, s)
    if base_norm == 0.0:
        raise ValueError("relative perturbation ladder needs nonzero initial data")
    base = simulate(base0, cfg.system, cfg.horizon, cfg.stepper, sample_dt=cfg.sample_dt)
    rows = []
    stab = []
    for d_idx in range(n_dirs):
        du, dv = _random_direction(cfg.grid, rng, s, band)
        ratios = {}
        for delta in deltas:
            eps = delta * base_norm
            pert0 = State(_axpy(base0.u, du, eps), _axpy(base0.v, dv, eps), 0.0)
            pert = simulate(
                pert0, cfg.system, cfg.horizon, cfg.stepper, sample_dt=cfg.sample_dt
            )
            sup = 0.0
            for sa, sb in zip(base.states, pert.states):
                if abs(sa.t - sb.t) > 1e-10:
                    raise RuntimeError("trajectory sampling cadence mismatch")
                diff = State(_axpy(sb.u, sa.u, -1.0), _axpy(sb.v, sa.v, -1.0), sa.t)
                sup = max(sup, _joint_norm(diff, s))
            ratios[delta] = sup / eps
            rows.append([d_idx, delta, eps, ratios[delta]])
        if 1e-4 in ratios and 1e-5 in ratios and ratios[1e-4] > 0.0:
            stab.append(abs(ratios[1e-5] - ratios[1e-4]) / ratios[1e-4])
    emit.csv("lipschitz.csv", ["direction", "delta_rel", "delta_abs", "ratio"], rows)
    summary = {
        "base_norm": base_norm,
        "max_ratio": max(r[3] for r in rows),
        "stabilization_rel_diff": max(stab) if stab else None,
    }
    ok = all(np.isfinite(r[3]) for r in rows)
    return summary, ok


def _scaled_state(base: State, lam: float) -> State:
    """lam^2 u0(lam x) on the box shrunk by lam; grid samples map exactly."""
    g = base.grid
    g2 = Grid(g.n, g.period / lam, g.dealias_fraction)
    lam2 = lam * lam
    return State(
        forward(lam2 * base.u.values(), g2),
        forward(lam2 * base.v.values(), g2),
        0.0,
    )


def _run_scaling(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    lam = float(p.get("lam", 2.0))
    lambdas = [float(x) for x in p.get("lambdas", (1.0, 2.0, 4.0, 8.0))]
    s_values = [float(x) for x in p.get("s_values", (-1.5, -1.0, -0.75, 0.0, 1.0))]
    if not isinstance(cfg.system, HirotaSatsuma) or cfg.system.a == 0.0:
        raise ValueError("scaling covariance is set up for the two-wave system with a != 0")
    rng = np.random.default_rng(cfg.seed)
    base0 = make_initial(cfg.initial, cfg.grid, rng)

    base = simulate(base0, cfg.system, cfg.horizon, cfg.stepper, sample_dt=cfg.sample_dt)
    lam3 = lam**3
    scaled0 = _scaled_state(base0, lam)
    st2 = StepperConfig(cfg.stepper.dt / lam3, cfg.stepper.scheme, cfg.stepper.cfl_guard)
    scaled = simulate(
        scaled0, cfg.system, cfg.horizon / lam3, st2, sample_dt=cfg.sample_dt / lam3
    )
    times = [st.t for st in scaled.states]
    predicted = scaling_map(base, lam, times=times, out_grid=scaled0.grid)
    cov_rows = []
    for got, want in zip(scaled.states, predicted.states):
        eu = float(np.max(np.abs(got.u.values() - want.u.values())))
        ev = float(np.max(np.abs(got.v.values() - want.v.values())))
        cov_rows.append([got.t, eu, ev])
    emit.csv("covariance.csv", ["t", "max_err_u", "max_err_v"], cov_rows)
    cov_max = max(max(r[1], r[2]) for r in cov_rows)

    norm_rows = []
    fit_rows = []
    exponents = {}
    for s in s_values:
        norms = []
        for lam_i in lambdas:
            val = sobolev_norm(_scaled_state(base0, lam_i).u, s)
            norms.append(val)
            norm_rows.append([s, lam_i, val])
        if len(lambdas) >= 2 and all(v > 0.0 for v in norms):
            slope = float(np.polyfit(np.log(lambdas), np.log(norms), 1)[0])
        else:
            slope = float("nan")
        exponents[s] = slope
        fit_rows.append([s, slope, 1.5 + s])
    emit.csv("scaling_norms.csv", ["s", "lambda", "norm"], norm_rows)
    emit.csv("scaling_fit.csv", ["s", "fitted_exponent", "expected_exponent"], fit_rows)
    summary = {
        "lam": lam,
        "covariance_max_err": cov_max,
        "exponents": {("%g" % s): exponents[s] for s in s_values},
    }
    ok = np.isfinite(cov_max)
    return summary, ok


def _run_picard(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    state0 = make_initial(cfg.initial, cfg.grid, rng)
    s = float(p.get("s", 0.0))
    iters, report = picard_iterate(
        state0,
        cfg.system,
        cfg.horizon,
        n_iters=int(p.get("n_iters", 8)),
        time_resolution=int(p.get("time_resolution", 201)),
        s=s,
        apply_cutoffs=bool(p.get("apply_cutoffs", False)),
    )
    rows = []
    for k, d in enumerate(report.diffs):
        ratio = report.ratios[k - 1] if 0 < k <= len(report.ratios) else float("nan")
        rows.append([k, d, ratio])
    emit.csv("picard.csv", ["iteration", "diff", "ratio"], rows)
    summary = {
        "contraction_ratio": report.contraction_ratio,
        "converged": report.converged,
    }
    # the comparison only means something at a fixed point; a divergent
    # iterate would also blow up the reference simulation
    if report.converged and bool(p.get("compare_stepper", True)) and cfg.horizon > 0.0:
        traj = simulate(
            state0, cfg.system, cfg.horizon, cfg.stepper,
            sample_dt=max(cfg.horizon, cfg.stepper.dt),
        )
        last = iters[-1].states[-1]
        ref = traj.states[-1]
        summary["stepper_linf"] = float(
            max(
                np.max(np.abs(last.u.values() - ref.u.values())),
                np.max(np.abs(last.v.values() - ref.v.values())),
            )
        )
    ok = all(np.isfinite(d) for d in report.diffs)
    return summary, ok


def _run_convergence(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    dts = sorted((float(x) for x in p.get("dt_values", (4e-3, 2e-3, 1e-3, 5e-4))), reverse=True)
    ref_dt = float(p.get("reference_dt", dts[-1] / 4.0))
    if ref_dt >= dts[-1]:
        raise ValueError("reference_dt must be finer than every entry of dt_values")
    rng = np.random.default_rng(cfg.seed)
    state0 = make_initial(cfg.initial, cfg.grid, rng)
    T = cfg.horizon

    def final_state(dt: float) -> State:
        st = StepperConfig(dt, cfg.stepper.scheme, cfg.stepper.cfl_guard)
        return simulate(state0, cfg.system, T, st, sample_dt=max(T, dt)).states[-1]

    ref = final_state(ref_dt)
    errs = []
    for dt in dts:
        got = final_state(dt)
        errs.append(
            float(
                max(
                    np.max(np.abs(got.u.values() - ref.u.values())),
                    np.max(np.abs(got.v.values() - ref.v.values())),
                )
            )
        )
    rows = []
    orders = []
    for i, (dt, err) in enumerate(zip(dts, errs)):
        if i == 0:
            order = float("nan")
        else:
            order = float(np.log(errs[i - 1] / err) / np.log(dts[i - 1] / dt))
            orders.append(order)
        rows.append([dt, err, order])
    emit.csv("convergence.csv", ["dt", "error", "order"], rows)
    fitted = float(np.polyfit(np.log(dts), np.log(errs), 1)[0]) if min(errs) > 0 else float("nan")
    summary = {"orders": orders, "fitted_order": fitted, "reference_dt": ref_dt}
    ok = bool(np.isfinite(fitted))
    return summary, ok


def _run_bourgain(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    s = float(p.get("s", 0.0))
    b = float(p.get("b", 0.6))
    b_prime = float(p.get("b_prime", -0.3))
    a = float(p.get("a", 1.0))
    n_x = int(p.get("n_x", 128))
    period_x = float(p.get("period_x", 16.0 * np.pi))
    n_t = int(p.get("n_t", 512))
    period_t = float(p.get("period_t", 8.0))
    n_fields = int(p.get("n_fields", 50))
    t_values = tuple(float(x) for x in p.get("t_values", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)))

    gx = Grid(n_x, period_x)
    u0 = forward(np.exp(-(gx.x**2)), gx)
    rep = linear_estimate_check(
        u0, a, s, b, b_prime, T=max(t_values),
        n_fields=n_fields, seed=cfg.seed, n_t=n_t, t_ladder=t_values,
    )
    emit.csv(
        "linear_free.csv",
        ["field", "ratio"],
        [[i, r] for i, r in enumerate(rep.free_ratios)],
    )
    emit.csv(
        "linear_duhamel.csv",
        ["T", "ratio"],
        [[t, r] for t, r in zip(rep.duhamel_T, rep.duhamel_ratios)],
    )

    speeds = tuple(float(x) for x in p.get("embedding_speeds", (2.0, 1.0, 3.0)))
    pair_first = tuple(float(x) for x in p.get("pair_first", (1.0, 3.0)))
    pair_second = tuple(float(x) for x in p.get("pair_second", (1.5, 2.5)))
    n_embed = int(p.get("n_embed_fields", 64))
    stg = make_st_grid(min(n_x, 64), period_x, min(n_t, 256), period_t)
    rng = np.random.default_rng((cfg.seed, 1))
    emb_rows = []
    eqv_rows = []
    for i in range(n_embed):
        F = random_field(stg, rng, decay=0.5)
        er = embedding_check(F, speeds[0], speeds[1], speeds[2], s, b)
        emb_rows.append([i, er.lhs, er.rhs, er.constant, er.passed])
        qr = intersection_equivalence(F, pair_first, pair_second, s, b)
        eqv_rows.append([i, qr.norm_first, qr.norm_second, qr.c_lo, qr.c_hi, qr.passed])
    emit.csv("embedding.csv", ["field", "lhs", "rhs", "constant", "passed"], emb_rows)
    emit.csv(
        "equivalence.csv",
        ["field", "norm_first", "norm_second", "c_lo", "c_hi", "passed"],
        eqv_rows,
    )
    summary = {
        "free_cv": rep.free_cv,
        "duhamel_exponent": rep.fitted_exponent,
        "duhamel_target": rep.target_exponent,
        "embedding_all_pass": all(r[4] for r in emb_rows),
        "equivalence_all_pass": all(r[5] for r in eqv_rows),
    }
    ok = bool(
        np.isfinite(rep.free_cv)
        and summary["embedding_all_pass"]
        and summary["equivalence_all_pass"]
    )
    return summary, ok


def _run_kernels(cfg: ExperimentConfig, emit: _Emitter):
    ids = list(cfg.params.get("kernels", list(KERNELS)))
    unknown = sorted(set(ids) - set(KERNELS))
    if unknown:
        raise ConfigError(f"unknown kernel id(s): {', '.join(unknown)}")
    reports = [kernel_bound_check(kid)[1] for kid in ids]
    rows = [
        [r.kernel_id, r.max_base, r.max_refined, r.rel_change, r.stable]
        for r in reports
    ]
    emit.csv(
        "kernels.csv",
        ["kernel", "max_value", "max_refined", "rel_change", "stable"],
        rows,
    )
    summary = {
        "kernels": len(rows),
        "all_stable": all(r.stable for r in reports),
        "max_rel_change": max(r.rel_change for r in reports),
    }
    return summary, summary["all_stable"]


def _run_noneq(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    tab = nonequivalence_demo(
        float(p.get("a0", 1.0)),
        float(p.get("a1", -1.0)),
        float(p.get("s", 0.0)),
        float(p.get("b", 3.0)),
        [float(x) for x in p.get("radii", (8.0, 16.0, 32.0, 64.0))],
    )
    rows = [
        [R, dv, cv]
        for R, dv, cv in zip(tab.radii, tab.divergent_norms, tab.convergent_norms)
    ]
    emit.csv("nonequivalence.csv", ["R", "divergent_norm", "convergent_norm"], rows)
    summary = {
        "growth_exponent": tab.growth_exponent,
        "final_rel_change": tab.final_rel_change,
        "stabilized": tab.stabilized,
    }
    ok = bool(tab.stabilized and tab.growth_exponent > 0.0)
    return summary, ok


_RUNNERS = {
    "simulate": _run_simulate,
    "lipschitz_probe": _run_lipschitz,
    "scaling_probe": _run_scaling,
    "picard_study": _run_picard,
    "convergence_study": _run_convergence,
    "bourgain_suite": _run_bourgain,
    "kernel_suite": _run_kernels,
    "nonequivalence": _run_noneq,
}


def run(config: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute one experiment; the manifest is written last, as a completion marker."""
    from . import __version__

    out = Path(out_dir if out_dir is not None else (config.output_dir or "."))
    out.mkdir(parents=True, exist_ok=True)
    emit = _Emitter(out)
    t0 = time.perf_counter()
    error = None
    try:
        summary, ok = _RUNNERS[config.kind](config, emit)
        status = "pass" if ok else "fail"
    except Exception as e:  # recorded, not raised: the manifest is the report
        summary = {}
        status = "error"
        error = f"{type(e).__name__}: {e}"
    manifest = RunManifest(
        kind=config.kind,
        config=_jsonable(config.raw),
        version=__version__,
        seed=config.seed,
        wall_time_s=time.perf_counter() - t0,
        files=list(emit.files),
        summary=_jsonable(summary),
        status=status,
        error=error,
    )
    manifest.write(out / "manifest.json")
    return manifest
