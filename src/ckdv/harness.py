"""Experiment harness: one-pass config parsing, runners, run manifests.

Every experiment is a pure function of (config, seed).  A run writes
its CSV tables and snapshots first and the manifest last, so the
presence of manifest.json marks a completed run; its status field
records failures instead of leaving half-written output behind.

Each config block has one table, key -> (converter, default); `_parse`
checks a block against it in one pass, so runners read typed values.
Each experiment kind is declared once, in its `KINDS` record: its CLI
subcommand, its top-level keys, its params table, the rule that spans
its keys, its work record and its runner.  The parser, the work
budget, `run` and the CLI all read that record.  Each runner returns its
summary and its checks; a run passes when every check does.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import operator
import os
import platform
import time
from dataclasses import MISSING, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

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
from .bourgain.estimates import NONEQ_REL_CHANGE_BOUND, check_linear_estimate, check_nonequivalence, check_speeds
from .bourgain.kernels import REL_CHANGE_BOUND, check_kernel_id
from .diagnostics import COLUMNS, _laws, collect, loglog_slope, record_for, sobolev_norm
from .grid import Grid, SpectralField, forward, inverse, to_full
from .solver import StepperConfig, check_picard, picard_iterate, schedule, simulate
from .systems import (
    Feng,
    GearGrimshaw,
    GeneralCoupled,
    HirotaSatsuma,
    Sakovich,
    State,
    diagonal_form,
    lower,
)

class ConfigError(ValueError):
    """Malformed configuration; rejected before any computation."""


def _parse(block, table: dict, where: str, make=dict):
    """make(**values) of `block` checked against `table`; any fault is a ConfigError.

    A default of MISSING marks a required key; other defaults pass through
    their converter like given values.  An unreadable file is a fault too.
    A nested block's ConfigError passes through, naming its own block.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(map(str, set(block) - set(table)))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = [repr(k) for k, (_, default) in table.items() if default is MISSING and k not in block]
    if missing:
        raise ConfigError(f"{where} missing {', '.join(missing)}")
    values = {}
    try:
        for key, (convert, default) in table.items():
            at = f"{where}: '{key}'"
            values[key] = convert(block.get(key, default))
        at = f"{where}:"
        return make(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError, OSError) as e:
        raise ConfigError(f"{at} {e}") from None


def _pick(block, key: str, choices: dict, where: str, default=None):
    """(name, entry) of `choices` that block[key] names."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    name = block.get(key, default)
    if not (isinstance(name, str) and name in choices):
        raise ConfigError(f"{where}: unknown {key} {name!r} (choices: {', '.join(choices)})")
    return name, choices[name]


def _finite(v) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"must be a finite number, got {v!r}")
    return float(v)


def _int(v) -> int:
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    if not _finite(v).is_integer():
        raise ValueError(f"must be an integer, got {v!r}")
    return int(v)


def _check(convert, ok, what: str):
    """Converter: `convert`, then reject a value for which ok(value) is false."""
    def checked(v):
        x = convert(v)
        if not ok(x):
            raise ValueError(f"must be {what}, got {v!r}")
        return x
    return checked


_positive = _check(_finite, lambda x: x > 0.0, "positive")
# Grid refuses these sizes too, but its message names n, not whether n_x or n_t is at fault
_pow2 = _check(_int, lambda n: n >= 16 and n & (n - 1) == 0, "a power of two >= 16")
_nonneg = _check(_finite, lambda x: x >= 0.0, ">= 0")
_count = _check(_int, lambda n: n >= 1, "an integer >= 1")
_seed = _check(_int, lambda n: 0 <= n < 2**64, "an integer in [0, 2**64)")
_text = _check(lambda v: v, lambda v: isinstance(v, str), "a string")


def _list_of(convert, length=None):
    """Converter: a non-empty list (of exactly `length` entries if given), each converted."""
    def converted(v):
        if not isinstance(v, (list, tuple)) or not v or len(v) != (length or len(v)):
            raise ValueError(f"must be a list of {length or 'one or more'} entries, got {v!r}")
        return [convert(x) for x in v]
    return converted


def _distinct(convert, least: int = 1):
    """Converter: a list of `least` or more distinct entries, each converted; a run does each once,
    and a ladder that an exponent or a stabilization is fitted over takes least = 2."""
    what = "two or more distinct values" if least == 2 else "distinct values"
    return _check(_list_of(convert), lambda v: len(set(v)) == len(v) >= least, what)


def _kernel_id(v) -> str:
    check_kernel_id(v)
    return v


def _fields(cls, convert=_finite, **special) -> dict:
    """Table of a dataclass: one converter per field, the dataclass's defaults."""
    return {f.name: (special.get(f.name, convert), f.default) for f in dataclasses.fields(cls)}


_SYSTEMS = {
    "hirota_satsuma": (HirotaSatsuma, _fields(HirotaSatsuma)),
    "feng": (Feng, _fields(Feng)),
    "gear_grimshaw": (GearGrimshaw, _fields(GearGrimshaw)),
    "general_coupled": (GeneralCoupled, _fields(GeneralCoupled)),
    "sakovich": (Sakovich, _fields(Sakovich, _list_of(_list_of(_finite, 2), 2))),
}

_GRID = {"n": (_int, MISSING), "period": (_finite, MISSING)}
_STEPPER = _fields(StepperConfig)


def build_system(d: dict):
    """The system spec of a config block; its dispersion must have a real eigenbasis."""
    name, (cls, table) = _pick(d, "name", _SYSTEMS, "system")

    def make(**values):
        spec = cls(**values)
        diagonal_form(spec)  # NotApplicable for a complex or defective dispersion
        return spec

    return _parse({k: v for k, v in d.items() if k != "name"}, table, f"system '{name}'", make)


def build_grid(d: dict) -> Grid:
    return _parse(d, _GRID, "grid", Grid)


def build_stepper(d: dict) -> StepperConfig:
    return _parse(d, _STEPPER, "stepper", StepperConfig)


def _band_noise(g: Grid, rng: np.random.Generator, decay: float, band: float) -> np.ndarray:
    """Grid samples of complex Gaussian coefficients damped by (1 + |xi|)^-decay,
    kept on the resolved band and, when band > 0, on |xi| <= band."""
    c = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    c *= g.keep * (1.0 + np.abs(g.xi)) ** -decay
    if band > 0.0:
        c[np.abs(g.xi) > band] = 0.0
    return SpectralField(c, g).values()


def _random_band(p: dict, g: Grid, rng: np.random.Generator) -> np.ndarray:
    # scaled to peak at the amplitude
    vals = _band_noise(g, rng, p["decay"], p["band"])
    peak = np.max(np.abs(vals))
    if peak > 0.0:
        vals = vals * (p["amplitude"] / peak)
    return vals


# each initial profile: its key table, and its sampler (p, grid, rng) -> grid samples
_PROFILES = {
    "zero": ({}, lambda p, g, rng: np.zeros(g.n)),
    "gaussian": (
        {"amplitude": (_finite, 1.0), "width": (_positive, 1.0), "center": (_finite, 0.0)},
        lambda p, g, rng: p["amplitude"] * np.exp(-(((g.x - p["center"]) / p["width"]) ** 2)),
    ),
    "sine": (
        {"amplitude": (_finite, 1.0), "mode": (_int, 1), "phase": (_finite, 0.0)},
        lambda p, g, rng: p["amplitude"] * np.sin(2.0 * np.pi * p["mode"] * g.x / g.period + p["phase"]),
    ),
    "modulated_gaussian": (
        {"amplitude": (_finite, 1.0), "width": (_positive, 1.0), "center": (_finite, 0.0), "mode": (_int, 12)},
        lambda p, g, rng: p["amplitude"] * np.exp(-(((g.x - p["center"]) / p["width"]) ** 2))
        * np.cos(2.0 * np.pi * p["mode"] * (g.x - p["center"]) / g.period),
    ),
    # (c/2) sech^2(sqrt(c)/2 (x - x0)) travels right at speed c under w_t + w_xxx + 6 w w_x = 0
    "soliton": (
        {"speed": (_positive, 4.0), "center": (_finite, 0.0)},
        lambda p, g, rng: 0.5 * p["speed"] / np.cosh(0.5 * np.sqrt(p["speed"]) * (g.x - p["center"])) ** 2,
    ),
    "random_band": ({"amplitude": (_finite, 1.0), "band": (_nonneg, 0.0), "decay": (_finite, 2.0)}, _random_band),
}


def _parse_profile(d, where: str) -> dict:
    kind, (table, _) = _pick(d, "kind", _PROFILES, where, default="zero")
    return _parse(d, {"kind": (_text, kind), **table}, where)


_INITIAL = {side: (partial(_parse_profile, where=f"initial.{side}"), {}) for side in ("u", "v")}


def make_initial(d: Optional[dict], g: Grid, rng: np.random.Generator) -> State:
    init = _parse({} if d is None else d, _INITIAL, "initial")
    u, v = (forward(_PROFILES[p["kind"]][1](p, g, rng), g) for p in (init["u"], init["v"]))
    return State(u, v, 0.0)


_SEED = {"seed": (_seed, 0)}
_DYNAMICS = {
    "system": (build_system, MISSING),
    "grid": (build_grid, MISSING),
    "stepper": (build_stepper, MISSING),
    "initial": (partial(_parse, table=_INITIAL, where="initial"), {}),
    "horizon": (_finite, 0.0),
    **_SEED,
}
# a sampled run stores a state every sample_dt; Picard samples time_resolution points instead
_SAMPLED = {**_DYNAMICS, "sample_dt": (_finite, 0.01)}


# The work budget: each kind's `work` gives the bytes its run holds at once and the points it passes
# over.  A point is the budget's unit of run time: configs/bourgain.json takes 10.1-10.3 ns per charged
# point on a 2-core host (best of 15), so MAX_POINTS is about 5 minutes there.  Every shipped config
# and benchmark workload sits at least 100x below each budget.
MAX_SNAPSHOT_BYTES = 2**31
MAX_POINTS = 3 * 10**10


@dataclass(kw_only=True)
class ExperimentConfig:
    """A validated config; a key its kind does not take stays None."""

    kind: str
    raw: dict
    output_dir: Optional[str]
    params: dict
    horizon: Optional[float] = None
    sample_dt: Optional[float] = None
    seed: Optional[int] = None
    system: object = None
    grid: Optional[Grid] = None
    stepper: Optional[StepperConfig] = None
    initial: Optional[dict] = None
    snapshot: Optional[State] = None

    def __post_init__(self):
        # the budget (a dynamics kind's record first calls solver.schedule, which refuses what simulate cannot use),
        # the kind's rule, then the data; _parse makes a ValueError a ConfigError
        k = KINDS[self.kind]
        held, points = k.work(self)
        if held > MAX_SNAPSHOT_BYTES or points > MAX_POINTS:
            raise ValueError(f"the run holds {held:.3g} bytes at once and passes over {points:.3g} points; "
                             f"the budget is {MAX_SNAPSHOT_BYTES} bytes and {MAX_POINTS:.3g} points")
        fault = (k.rule and k.rule(self)) or (self.initial is not None and _nonzero_data(self))
        if fault:
            raise ValueError(fault)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Validate, type and default every block of a config in one pass."""
    kind, k = _pick(d, "kind", KINDS, "config")
    table = {
        "kind": (_text, MISSING),
        "output_dir": (lambda v: None if v is None else _text(v), None),
        **k.top,
        "params": (partial(_parse, table=k.params, where=f"params for '{kind}'"), {}),
    }
    return _parse(d, table, f"{kind} config", partial(ExperimentConfig, raw=d))


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path))


def _jsonable(obj, strict: bool = False):
    """obj in plain Python types; `strict` writes a non-finite float as "inf", "-inf" or "nan", as JSON must."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, strict) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, strict) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return str(x) if strict and not math.isfinite(x) else x
    if isinstance(obj, np.ndarray):
        return [_jsonable(v, strict) for v in obj.tolist()]
    return obj


@dataclass
class RunManifest:
    kind: str
    config: dict
    version: str
    seed: Optional[int]  # None for a kind that draws nothing at random
    wall_time_s: float
    files: list
    summary: dict
    checks: list  # check_bound entries; empty on error
    status: str  # "pass" when every check passed, "fail", or "error"
    env: dict  # python and numpy versions, and the number of CPUs the run could use
    error: Optional[str] = None

    def write(self, path) -> None:
        payload = _jsonable(dataclasses.asdict(self), strict=True)
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


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


# The acceptance bound of each check that a runner shares with a paper
# criterion, as (relation, bound); the criteria read them from here.
BOUNDS = {
    "fitted_order": ("in", (3.7, 4.3)),  # c03: the RK4 order window
    "covariance_max_err": ("<", 1e-6),  # c05: scaling covariance of the solver
    "exponent_err": ("<=", 0.05),  # c05: each fitted norm exponent against 1.5 + s
    "contraction_ratio": ("<", 0.9),  # c06: small-data Picard contraction
    "stepper_linf": ("<", 1e-6),  # c06: the Picard fixed point against the stepper
    "free_cv": ("<", 1e-2),  # c10: spread of the free-evolution ratios
    "duhamel_exponent_err": ("<=", 0.1),  # c10: Duhamel exponent against b' + 1 - b
    "stabilization_rel_diff": ("<", 1e-3),  # the Lipschitz ratio settles as delta -> 0
    "V_drift": ("<", 1e-6),  # c02: max |V - V(0)| / |V(0)| of the two-wave Hamiltonian
    "F_drift": ("<", 1e-8),  # c02: the same for the two-wave quadratic law F
    "phi3_drift": ("<", 1e-8),  # c02: the same for the internal-wave quadratic law phi3
    "growth_exponent": (">", 0.0),  # c09: the divergent norms grow with the radius
    "final_rel_change": ("<", NONEQ_REL_CHANGE_BOUND),  # c09: the convergent norms settle
    "max_rel_change": ("<", REL_CHANGE_BOUND),  # c11: each kernel's sup is stable under refinement
}

_RELATIONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq,
    "in": lambda v, b: b[0] <= v <= b[1],
}


def check_bound(name: str, value, relation: str, bound) -> dict:
    """One entry of a run's checks: `value relation bound`, and whether it holds."""
    passed = bool(_RELATIONS[relation](value, bound))
    return {"name": name, "value": value, "relation": relation, "bound": bound, "passed": passed}


def _joint_norm(coeffs: np.ndarray, g: Grid, s: float) -> np.ndarray:
    """hypot of the H^s norms of u and v, for full-layout coefficients (..., 2, n)."""
    norms = sobolev_norm(SpectralField(coeffs, g), s)
    return np.hypot(norms[..., 0], norms[..., 1])


def _sup_gaps(a: np.ndarray, b: np.ndarray, g: Grid) -> np.ndarray:
    """max over the grid of |a - b| per sample and component, for half spectra (..., 2, n/2+1)."""
    values = [inverse(SpectralField(to_full(h), g)) for h in (a, b)]
    return np.max(np.abs(values[0] - values[1]), axis=-1)


def _random_direction(g: Grid, rng: np.random.Generator, s: float, band: float):
    """Unit-joint-norm perturbation direction on the resolved band."""
    du, dv = (forward(_band_noise(g, rng, 1.0, band), g) for _ in range(2))
    scale = float(np.hypot(sobolev_norm(du, s), sobolev_norm(dv, s)))
    if scale == 0.0:
        raise ValueError("degenerate perturbation direction")
    return SpectralField(du.coeffs / scale, g), SpectralField(dv.coeffs / scale, g)


def _run_simulate(cfg: ExperimentConfig, emit: _Emitter):
    rng = np.random.default_rng(cfg.seed)
    state = make_initial(cfg.initial, cfg.grid, rng)
    emit.snapshot("snapshot_initial.ckdv", state)
    # every row, t = 0 included, reads the dealiased samples simulate records
    traj = simulate(state, cfg.system, cfg.horizon, cfg.stepper, sample_dt=cfg.sample_dt)
    if cfg.horizon > 0.0:
        emit.snapshot("snapshot_final.ckdv", State.from_half(traj.half[-1], cfg.grid, float(traj.times[-1])))
    table = collect(traj, cfg.system, cfg.params["s"])
    emit.csv("diagnostics.csv", COLUMNS, table)
    summary = {
        "records": len(table),
        "final_time": float(traj.times[-1]),
        "drift": {},
    }
    checks = [check_bound("infinite_entries", int(np.isinf(table).sum()), "==", 0)]
    for name in _laws(cfg.system):
        bounded = f"{name}_drift" in BOUNDS
        summary["drift"][name] = drift = _drift(table[:, COLUMNS.index(name)], relative=bounded)
        if bounded:
            checks.append(check_bound(f"{name}_drift", drift, *BOUNDS[f"{name}_drift"]))
    return summary, checks


def _run_diagnose(cfg: ExperimentConfig, emit: _Emitter):
    # the fields as the snapshot stores them, not dealiased
    row = record_for(cfg.snapshot, cfg.system, cfg.params["s"])
    emit.csv("diagnostics.csv", COLUMNS, [row])
    return dict(zip(COLUMNS, row)), [check_bound("infinite_entries", int(np.isinf(row).sum()), "==", 0)]


def _drift(col: np.ndarray, relative: bool) -> float:
    """The drift max |q - q0| / scale of one law's column, inf if the column is not finite.

    c02's drift, for the laws it bounds, is relative: scale |q0|, and a law
    that starts at 0 has drift 0.0 if it never moves and inf if it does.
    The other laws (phi1 = int u is 0 for odd data) take scale max(1, |q0|).
    """
    if not np.isfinite(col).all():
        return math.inf
    gap, q0 = float(np.max(np.abs(col - col[0]))), abs(float(col[0]))
    scale = q0 if relative else max(1.0, q0)
    if scale == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / scale


def _run_lipschitz(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    s = p["s"]
    rng = np.random.default_rng(cfg.seed)
    base0 = make_initial(cfg.initial, cfg.grid, rng)
    base_norm = float(_joint_norm(np.stack([base0.u.coeffs, base0.v.coeffs]), cfg.grid, s))
    base = simulate(base0, cfg.system, cfg.horizon, cfg.stepper, sample_dt=cfg.sample_dt)
    # the stabilization pair: the two smallest relative perturbations
    small, next_small = sorted(p["deltas"])[:2]
    rows = []
    stab = []
    for d_idx in range(p["n_directions"]):
        du, dv = _random_direction(cfg.grid, rng, s, p["direction_band"])
        ratios = {}
        for delta in p["deltas"]:
            eps = delta * base_norm
            pert0 = State(
                SpectralField(base0.u.coeffs + eps * du.coeffs, cfg.grid),
                SpectralField(base0.v.coeffs + eps * dv.coeffs, cfg.grid),
            )
            pert = simulate(pert0, cfg.system, cfg.horizon, cfg.stepper, sample_dt=cfg.sample_dt)
            if not np.array_equal(pert.times, base.times):
                raise RuntimeError("trajectory sampling cadence mismatch")
            sup = float(np.max(_joint_norm(to_full(pert.half - base.half), cfg.grid, s)))
            ratios[delta] = sup / eps
            rows.append([d_idx, delta, eps, ratios[delta]])
        # inf, so that the check fails, when the pair gives no finite relative difference
        a, b = ratios[small], ratios[next_small]
        stab.append(abs(a - b) / b if math.isfinite(a) and 0.0 < b < math.inf else math.inf)
    emit.csv("lipschitz.csv", ["direction", "delta_rel", "delta_abs", "ratio"], rows)
    summary = {
        "base_norm": base_norm,
        "max_ratio": max(r[3] for r in rows),
        "stabilization_rel_diff": max(stab),
    }
    nonfinite = sum(not np.isfinite(r[3]) for r in rows)
    return summary, [
        check_bound("nonfinite_ratios", nonfinite, "==", 0),
        check_bound("stabilization_rel_diff", summary["stabilization_rel_diff"], *BOUNDS["stabilization_rel_diff"]),
    ]


def _rescaled(coeffs: np.ndarray, g: Grid, lam: float) -> tuple[np.ndarray, Grid]:
    """The KdV rescaling lam^2 u(lam x) of coefficients on g, and its grid, the box shrunk by lam.

    Grid(n, L/lam) has g's sample indices, at x/lam with dx/lam, so the
    rescaled field's coefficients are exactly lam * coeffs, in either layout.
    """
    return lam * coeffs, Grid(g.n, g.period / lam)


def _run_scaling(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    lam, lambdas, s_values = p["lam"], p["lambdas"], p["s_values"]
    rng = np.random.default_rng(cfg.seed)
    base0 = make_initial(cfg.initial, cfg.grid, rng)

    base = simulate(base0, cfg.system, cfg.horizon, cfg.stepper, sample_dt=cfg.sample_dt)
    lam3 = lam**3
    c0, g2 = _rescaled(np.stack([base0.u.coeffs, base0.v.coeffs]), cfg.grid, lam)
    st2 = dataclasses.replace(cfg.stepper, dt=cfg.stepper.dt / lam3)
    scaled = simulate(
        State(SpectralField(c0[0], g2), SpectralField(c0[1], g2)),
        cfg.system, cfg.horizon / lam3, st2, sample_dt=cfg.sample_dt / lam3,
    )
    # the prediction at scaled time t is the base sample at lam^3 t
    times = lam3 * scaled.times
    if times.shape != base.times.shape or not np.allclose(times, base.times, rtol=1e-12, atol=0.0):
        raise RuntimeError("rescaled trajectory sampling cadence mismatch")
    gaps = _sup_gaps(scaled.half, _rescaled(base.half, cfg.grid, lam)[0], g2)
    cov_rows = [[t, eu, ev] for t, (eu, ev) in zip(scaled.times, gaps)]
    emit.csv("covariance.csv", ["t", "max_err_u", "max_err_v"], cov_rows)
    cov_max = float(gaps.max())
    checks = [check_bound("covariance_max_err", cov_max, *BOUNDS["covariance_max_err"])]

    norm_rows = []
    fit_rows = []
    exponents = {}
    scaled_u = [SpectralField(*_rescaled(base0.u.coeffs, cfg.grid, lam_i)) for lam_i in lambdas]
    for s in s_values:
        norms = [sobolev_norm(u, s) for u in scaled_u]
        norm_rows += [[s, lam_i, val] for lam_i, val in zip(lambdas, norms)]
        positive = all(v > 0.0 for v in norms)
        slope = loglog_slope(lambdas, norms) if positive else float("nan")
        exponents["%g" % s] = slope
        fit_rows.append([s, slope, 1.5 + s])
        checks.append(check_bound(f"exponent_err[{s:g}]", abs(slope - (1.5 + s)), *BOUNDS["exponent_err"]))
    emit.csv("scaling_norms.csv", ["s", "lambda", "norm"], norm_rows)
    emit.csv("scaling_fit.csv", ["s", "fitted_exponent", "expected_exponent"], fit_rows)
    return {"lam": lam, "covariance_max_err": cov_max, "exponents": exponents}, checks


def _run_picard(cfg: ExperimentConfig, emit: _Emitter):
    rng = np.random.default_rng(cfg.seed)
    state0 = make_initial(cfg.initial, cfg.grid, rng)
    # the params are picard_iterate's n_iters, time_resolution and s
    iters, report = picard_iterate(state0, cfg.system, cfg.horizon, **cfg.params)
    rows = []
    for k, d in enumerate(report.diffs):
        ratio = report.ratios[k - 1] if 0 < k <= len(report.ratios) else float("nan")
        rows.append([k, d, ratio])
    emit.csv("picard.csv", ["iteration", "diff", "ratio"], rows)
    summary = {
        "contraction_ratio": report.contraction_ratio,
        "converged": report.converged,
    }
    # the small-data regime: the iteration contracts onto the stepper's solution
    checks = [
        check_bound("converged", report.converged, "==", True),
        check_bound("contraction_ratio", report.contraction_ratio, *BOUNDS["contraction_ratio"]),
    ]
    # the comparison only means something at a fixed point; a divergent
    # iterate would also blow up the reference simulation
    if report.converged:
        traj = simulate(state0, cfg.system, cfg.horizon, cfg.stepper, sample_dt=max(cfg.horizon, cfg.stepper.dt))
        gaps = _sup_gaps(iters[-1].half[-1], traj.half[-1], cfg.grid)
        summary["stepper_linf"] = float(gaps.max())
        checks.append(check_bound("stepper_linf", summary["stepper_linf"], *BOUNDS["stepper_linf"]))
    return summary, checks


def _run_convergence(cfg: ExperimentConfig, emit: _Emitter):
    dts = sorted(cfg.params["dt_values"], reverse=True)
    ref_dt = cfg.stepper.dt
    rng = np.random.default_rng(cfg.seed)
    state0 = make_initial(cfg.initial, cfg.grid, rng)
    T = cfg.horizon

    def final_half(dt: float) -> np.ndarray:
        st = dataclasses.replace(cfg.stepper, dt=dt)
        return simulate(state0, cfg.system, T, st, sample_dt=max(T, dt)).half[-1]

    ref = final_half(ref_dt)
    errs = [float(_sup_gaps(final_half(dt), ref, cfg.grid).max()) for dt in dts]
    orders = [float(np.log(errs[i - 1] / errs[i]) / np.log(dts[i - 1] / dts[i])) for i in range(1, len(dts))]
    emit.csv("convergence.csv", ["dt", "error", "order"], zip(dts, errs, [float("nan"), *orders]))
    fitted = loglog_slope(dts, errs) if min(errs) > 0 else float("nan")
    summary = {"orders": orders, "fitted_order": fitted, "reference_dt": ref_dt}
    return summary, [check_bound("fitted_order", fitted, *BOUNDS["fitted_order"])]


def _run_bourgain(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    s, b, n_x, period_x = p["s"], p["b"], p["n_x"], p["period_x"]
    rep = linear_estimate_check(
        make_st_grid(n_x, period_x, p["n_t"], p["period_t"]), p["a"], s, b, p["b_prime"],
        n_fields=p["n_fields"], seed=cfg.seed, t_values=p["t_values"],
    )
    emit.csv("linear_free.csv", ["field", "ratio"], enumerate(rep.free_ratios))
    emit.csv("linear_duhamel.csv", ["T", "ratio"], zip(rep.duhamel_T, rep.duhamel_ratios))

    stg = make_st_grid(min(n_x, 64), period_x, min(p["n_t"], 256), p["period_t"])
    rng = np.random.default_rng((cfg.seed, 1))
    emb_rows = []
    eqv_rows = []
    for i in range(p["n_embed_fields"]):
        F = random_field(stg, rng, decay=0.5)
        er = embedding_check(F, *p["embedding_speeds"], s, b)
        emb_rows.append([i, er.lhs, er.rhs, er.constant, er.passed])
        qr = intersection_equivalence(F, p["pair_first"], p["pair_second"], s, b)
        eqv_rows.append([i, qr.norm_first, qr.norm_second, qr.c_lo, qr.c_hi, qr.passed])
    emit.csv("embedding.csv", ["field", "lhs", "rhs", "constant", "passed"], emb_rows)
    emit.csv("equivalence.csv", ["field", "norm_first", "norm_second", "c_lo", "c_hi", "passed"], eqv_rows)
    summary = {
        "free_cv": rep.free_cv,
        "duhamel_exponent": rep.fitted_exponent,
        "duhamel_target": rep.target_exponent,
        "embedding_all_pass": all(r[4] for r in emb_rows),
        "equivalence_all_pass": all(r[5] for r in eqv_rows),
    }
    exponent_err = abs(rep.fitted_exponent - rep.target_exponent)
    return summary, [
        check_bound("free_cv", rep.free_cv, *BOUNDS["free_cv"]),
        check_bound("duhamel_exponent_err", exponent_err, *BOUNDS["duhamel_exponent_err"]),
        check_bound("embedding_all_pass", summary["embedding_all_pass"], "==", True),
        check_bound("equivalence_all_pass", summary["equivalence_all_pass"], "==", True),
    ]


def _run_kernels(cfg: ExperimentConfig, emit: _Emitter):
    reports = []
    for kid in cfg.params["kernels"]:
        try:
            reports.append(kernel_bound_check(kid)[1])
        except Exception as e:  # the manifest names the kernel that failed
            raise RuntimeError(f"kernel {kid}: {type(e).__name__}: {e}") from e
    # argmax is the refined pass's maximizing sample, written "x;y"
    rows = [
        [r.kernel_id, r.max_base, r.max_refined, r.rel_change, r.stable,
         ";".join(ckio.format_value(v) for v in r.argmax)]
        for r in reports
    ]
    emit.csv("kernels.csv", ["kernel", "max_value", "max_refined", "rel_change", "stable", "argmax"], rows)
    summary = {
        "kernels": len(rows),
        "max_rel_change": max(r.rel_change for r in reports),
        "neval": {r.kernel_id: r.neval for r in reports},
    }
    return summary, [check_bound("max_rel_change", summary["max_rel_change"], *BOUNDS["max_rel_change"])]


def _run_noneq(cfg: ExperimentConfig, emit: _Emitter):
    p = cfg.params
    tab = nonequivalence_demo(p["a0"], p["a1"], p["s"], p["b"], p["radii"])
    rows = zip(tab.radii, tab.divergent_norms, tab.convergent_norms)
    emit.csv("nonequivalence.csv", ["R", "divergent_norm", "convergent_norm"], rows)
    summary = {
        "growth_exponent": tab.growth_exponent,
        "final_rel_change": tab.final_rel_change,
        "stabilized": tab.stabilized,
        "neval": tab.neval,
    }
    return summary, [
        check_bound("growth_exponent", tab.growth_exponent, *BOUNDS["growth_exponent"]),
        check_bound("final_rel_change", tab.final_rel_change, *BOUNDS["final_rel_change"]),
    ]


def _step_points(n: int) -> float:
    """The points of one IF-RK4 step on n grid points.  Against bourgain.json's time per point, a Hirota-Satsuma step
    measured 5,700-6,100 points at n = 16, 12,000 at 512, 37,000 at 2048, 308,000 at 2^14 and 1.0e7 at 2^18."""
    return 40.0 * (n + 128)


# A dynamics run holds a measured multiple of its samples, each of 2*(n/2+1)
# complex coefficients: the kind's tracemalloc peak per sample, rounded up, plus
# the stage buffers of a step and of a short last step and the RHS's, 32 states.
# tests/test_harness.py pins each charge between the run's peak and twice it.
def _dynamics_work(cfg: ExperimentConfig, steps: float, states: float, points: float = 0.0) -> tuple:
    """(bytes of `states` states and the workspace, 32 bytes a mode; points of `steps` IF-RK4 steps, plus `points`)."""
    n = cfg.grid.n
    return (states + 32.0) * 32.0 * (n // 2 + 1), steps * _step_points(n) + points


def _sampled_work(cfg: ExperimentConfig, runs: float, per_sample: float, points: float = 0.0) -> tuple:
    """_dynamics_work of `runs` simulate runs over the horizon, each stored sample held as `per_sample` states."""
    steps, samples = schedule(cfg.horizon, cfg.stepper.dt, cfg.sample_dt)[:2]
    return _dynamics_work(cfg, runs * steps, per_sample * samples, points)


def _spacetime_work(cfg: ExperimentConfig) -> tuple:
    """(bytes held at once, points passed over) of a bourgain_suite run, as floats.

    It holds one horizon's fields at a time: 7 complex (n_x, n_t) fields (tracemalloc reads 5.7-6.6),
    and 32 bytes per mode of each of its n_fields spatial data.  It passes over the (n_x, n_t) grid
    once for the free battery and 4 times per horizon, over n_x twice per spatial datum, and over
    the embedding grid, at most 64 x 256, 7 times per embedding field."""
    p = cfg.params
    n_x, n_t = float(p["n_x"]), float(p["n_t"])
    held = 16.0 * n_x * (7.0 * n_t + 2.0 * p["n_fields"])
    points = (n_x * n_t * (1.0 + 4.0 * len(p["t_values"])) + 2.0 * p["n_fields"] * n_x
              + 7.0 * p["n_embed_fields"] * min(n_x, 64.0) * min(n_t, 256.0))
    return held, points


def _nonzero_data(cfg: ExperimentConfig) -> Optional[str]:
    # for zero data c02's drifts and c06's gaps read 0 by construction, a Lipschitz perturbation
    # relative to the data is 0, and the scaling exponents and the convergence order are NaN
    data = make_initial(cfg.initial, cfg.grid, np.random.default_rng(cfg.seed))
    return None if np.any(data.u.coeffs) or np.any(data.v.coeffs) else "the run needs nonzero initial data"


@dataclass(frozen=True)
class KindDef:
    """One experiment kind, as the parser, the work budget, `run` and the CLI read it."""

    command: str  # the CLI subcommand
    top: dict  # the top-level keys it reads, besides kind, output_dir and params
    params: dict
    runner: Callable  # (cfg, emit) -> (summary, checks)
    work: Callable  # cfg -> (bytes held at once, points passed over), the work budget's two charges
    rule: Optional[Callable] = None  # cfg -> a fault's message or None; a library check raises ValueError


KINDS = {
    # collect holds u, v, u_x, v_x and the cubic laws' 2x-grid fields of every sample at once: 12.0 states each
    "simulate": KindDef("simulate", _SAMPLED, {"s": (_finite, 1.0)}, _run_simulate,
                        work=lambda c: _sampled_work(c, 1.0, 13.0)),
    # the base run, and one run per direction and delta; base, one perturbed run and their gaps: 6.0 states a sample
    "lipschitz_probe": KindDef(
        "lipschitz", _SAMPLED,
        {"s": (_finite, 1.0), "n_directions": (_count, 1), "direction_band": (_nonneg, 0.0),
         "deltas": (_distinct(_positive, 2), (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))},
        _run_lipschitz,
        work=lambda c: _sampled_work(c, 1 + c.params["n_directions"] * len(c.params["deltas"]), 7.0),
    ),
    # the rescaled run divides dt and the horizon alike by lam^3, so it takes as many steps; both trajectories,
    # the prediction and the gaps' grid values, 11.0 states a sample; and a weighted norm per lambda and s
    "scaling_probe": KindDef(
        "scaling", _SAMPLED,
        # at lam = 1 the rescaled run is the base run, and covariance_max_err reads 0 by construction
        {"lam": (_check(_finite, lambda x: x > 0.0 and x != 1.0, "positive and not 1"), 2.0),
         "lambdas": (_distinct(_positive, 2), (1.0, 2.0, 4.0, 8.0)),
         "s_values": (_distinct(_finite), (-1.5, -1.0, -0.75, 0.0, 1.0))},
        _run_scaling,
        # lam^2 u(lam x, lam^3 t) maps solutions to solutions only without a first-order drift
        rule=lambda c: "scaling covariance needs a system without first-order drift (R = 0 in its normal form)"
        if lower(c.system).R.any() else None,
        work=lambda c: _sampled_work(c, 2.0, 12.0, len(c.params["lambdas"]) * len(c.params["s_values"]) * c.grid.n),
    ),
    # each sample of a sweep counts as a step; whatever n_iters, it holds 12.5 arrays of (2, nt, n/2+1)
    "picard_study": KindDef(
        "picard", _DYNAMICS,
        {"n_iters": (_int, 8), "s": (_finite, 0.0), "time_resolution": (_int, 201)},
        _run_picard,
        rule=lambda c: check_picard(c.horizon, c.params["n_iters"], c.params["time_resolution"]),
        work=lambda c: _dynamics_work(c, schedule(c.horizon, c.stepper.dt, c.stepper.dt)[0] + c.params["n_iters"]
                                      * c.params["time_resolution"], 14.0 * c.params["time_resolution"]),
    ),
    # one run per dt_values entry and the reference at stepper.dt, two samples each: 25-30 states in all
    "convergence_study": KindDef(
        "convergence", _DYNAMICS, {"dt_values": (_distinct(_positive, 2), (4e-3, 2e-3, 1e-3, 5e-4))},
        _run_convergence,
        rule=lambda c: "stepper.dt, the reference step, must be finer than every entry of dt_values"
        if c.stepper.dt >= min(c.params["dt_values"]) else None,
        work=lambda c: _dynamics_work(
            c, sum(schedule(c.horizon, d, d)[0] for d in [*c.params["dt_values"], c.stepper.dt]), 8.0),
    ),
    "bourgain_suite": KindDef(
        "bourgain", _SEED,
        {"s": (_finite, 0.0), "b": (_finite, 0.6), "b_prime": (_finite, -0.3), "a": (_finite, 1.0),
         "n_x": (_pow2, 128), "period_x": (_positive, 16.0 * np.pi),
         "n_t": (_pow2, 512), "period_t": (_finite, 8.0), "n_fields": (_int, 50),
         "t_values": (_distinct(_finite), (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
         "embedding_speeds": (_list_of(_finite, 3), (2.0, 1.0, 3.0)),
         "pair_first": (_list_of(_finite, 2), (1.0, 3.0)),
         "pair_second": (_list_of(_finite, 2), (1.5, 2.5)), "n_embed_fields": (_count, 64)},
        _run_bourgain, work=_spacetime_work,
        rule=lambda c: check_linear_estimate(**{k: c.params[k] for k in ("a", "b", "b_prime", "n_fields", "t_values",
                                                                         "period_t", "n_t")})
        or check_speeds(c.params["b"], **{k: c.params[k] for k in ("embedding_speeds", "pair_first", "pair_second")}),
    ),
    # one kernel at a time, measured: a tracemalloc peak of at most 1.6 MiB and at most 1.0e6 points a kernel
    "kernel_suite": KindDef("kernels", {}, {"kernels": (_distinct(_kernel_id), tuple(KERNELS))}, _run_kernels,
                            work=lambda c: (2.0**21, 1e6 * len(c.params["kernels"]))),
    # measured per radius, on 2 to 64 radii in [8, 136): a tracemalloc peak of 0.41-0.44 MiB and 0.5-0.8e6 points
    "nonequivalence": KindDef(
        "noneq", {},
        {"a0": (_finite, 1.0), "a1": (_finite, -1.0), "s": (_finite, 0.0), "b": (_finite, 3.0),
         "radii": (_distinct(_finite), (8.0, 16.0, 32.0, 64.0))},
        _run_noneq, rule=lambda c: check_nonequivalence(**c.params),
        work=lambda c: (2.0**19 * len(c.params["radii"]), 1e6 * len(c.params["radii"])),
    ),
    # the diagnostics row of one snapshot, read at parse time; measured at n >= 1024: 226 bytes a point, 0.63-1.0 steps
    "diagnose": KindDef(
        "diagnose", {"system": (build_system, MISSING), "snapshot": (lambda v: ckio.read_snapshot(_text(v)), MISSING)},
        {"s": (_finite, 1.0)}, _run_diagnose,
        work=lambda c: (256.0 * (c.snapshot.grid.n + 2), _step_points(c.snapshot.grid.n)),
    ),
}


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def run(config: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute one experiment; the manifest is written last, as a completion marker."""
    from . import __version__

    out = Path(out_dir if out_dir is not None else (config.output_dir or "."))
    out.mkdir(parents=True, exist_ok=True)
    emit = _Emitter(out)
    t0 = time.perf_counter()
    error = None
    try:
        summary, checks = KINDS[config.kind].runner(config, emit)
        status = "pass" if all(c["passed"] for c in checks) else "fail"
    except Exception as e:  # recorded, not raised: the manifest is the report
        summary, checks = {}, []
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
        checks=_jsonable(checks),
        status=status,
        env={"python": platform.python_version(), "numpy": np.__version__, "usable_cpus": _usable_cpus()},
        error=error,
    )
    manifest.write(out / "manifest.json")
    return manifest
