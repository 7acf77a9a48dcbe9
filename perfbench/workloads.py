"""The benchmark's four workloads.

Each workload turns a seed into validated inputs (its set-up) and a fixed
list of operations.  Every operation pairs a call into ckdv with a verdict:
the acceptance bound of the matching criterion (c02, c06-c12 in
tests/test_acceptance.py), checked here on the returned report, manifest or
CSV, with the same numbers.  A verdict records each checked value beside its
bound, so a failure says what tripped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ckdv
from ckdv import bourgain
from ckdv.harness import make_initial

PERIOD = 8.0 * math.pi


@dataclass
class Check:
    name: str
    value: Any
    relation: str
    bound: Any
    passed: bool

    def __str__(self):
        mark = "ok" if self.passed else "FAILED"
        return f"{self.name} = {self.value!r} {self.relation} {self.bound!r}: {mark}"


_RELATIONS = {
    "<": lambda v, b: v < b,
    "<=": lambda v, b: v <= b,
    ">": lambda v, b: v > b,
    ">=": lambda v, b: v >= b,
    "==": lambda v, b: v == b,
}


def check(name: str, value, relation: str, bound) -> Check:
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    return Check(name, value, relation, bound, bool(_RELATIONS[relation](value, bound)))


@dataclass
class Operation:
    name: str
    call: Callable[[], Any]
    verdict: Callable[[Any], list]


def _rel_drift(values) -> float:
    """c02's drift: max |v - v0| / |v0| over the stored snapshots."""
    return max(abs(v - values[0]) for v in values) / abs(values[0])


def _read_columns(path: Path) -> dict:
    """A CSV written by the run, as text columns keyed by header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# stepper: IF-RK4 through ckdv.run on simulate configs (c02's drift bounds)

STEPPER_SYSTEMS = {
    "hirota_satsuma": {"name": "hirota_satsuma", "a": 0.5, "b": 1.0},
    "gear_grimshaw": {"name": "gear_grimshaw", "a1": 0.7, "a2": 0.3, "a3": 0.0, "b1": 2.0, "b2": 0.5},
}
# (n, dt, steps, steps between stored snapshots)
STEPPER_RUNS = ((256, 2e-4, 1000, 250), (512, 1e-4, 500, 250), (2048, 1e-4, 250, 250))
# c02: F and phi3 drift below 1e-8, V drift below 1e-6
DRIFT_BOUNDS = {
    "hirota_satsuma": (("V", 1e-6), ("F", 1e-8)),
    "gear_grimshaw": (("phi3", 1e-8),),
}


def _gaussian(rng, amplitude, width, center) -> dict:
    return {
        "kind": "gaussian",
        "amplitude": amplitude * _uniform(rng, 0.8, 1.2),
        "width": width * _uniform(rng, 0.9, 1.1),
        "center": center + _uniform(rng, -0.5, 0.5),
    }


def _stepper_config(rng, system: str, n: int, dt: float, steps: int, stride: int) -> dict:
    u = _gaussian(rng, 1.0, 1.5, 0.0)
    if n == 512:
        v = {"kind": "random_band", "amplitude": _uniform(rng, 0.4, 0.6), "band": 4.0, "decay": 2.0}
    else:
        v = _gaussian(rng, 0.5, 2.0, 2.0)
    return {
        "kind": "simulate",
        "system": dict(STEPPER_SYSTEMS[system]),
        "grid": {"n": n, "period": PERIOD},
        "stepper": {"dt": dt},
        "horizon": steps * dt,
        "sample_dt": stride * dt,
        "initial": {"u": u, "v": v},
        "seed": int(rng.integers(2**31)),
        "params": {"s": 1.0},
    }


def _stepper_op(cfg, system: str, records: int, out: Path) -> Operation:
    def verdict(manifest):
        cols = _read_columns(out / "diagnostics.csv")
        checks = [
            check("status", manifest.status, "==", "pass"),
            check("records", len(cols["t"]), "==", records),
        ]
        for col, bound in DRIFT_BOUNDS[system]:
            drift = _rel_drift([float(v) for v in cols[col]])
            checks.append(check(f"{col}_drift", drift, "<", bound))
        return checks

    return Operation(out.name, lambda: ckdv.run(cfg, out_dir=out), verdict)


def stepper(seed: int, work: Path) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for system in STEPPER_SYSTEMS:
        for n, dt, steps, stride in STEPPER_RUNS:
            cfg = ckdv.config_from_dict(_stepper_config(rng, system, n, dt, steps, stride))
            ops.append(_stepper_op(cfg, system, steps // stride + 1, work / f"{system}_n{n}"))
    return ops


# ---------------------------------------------------------------------------
# picard: c06's contractive and divergent cases against a stepper reference


def _picard_config(rng, scale: float) -> dict:
    return {
        "kind": "picard_study",
        "system": {"name": "hirota_satsuma", "a": -0.5, "b": 1.0},
        "grid": {"n": 128, "period": PERIOD},
        "stepper": {"dt": 2e-4},
        "horizon": 0.4,
        "initial": {
            "u": {"kind": "gaussian", "amplitude": scale, "width": 1.5 * _uniform(rng, 0.95, 1.05),
                  "center": _uniform(rng, -0.25, 0.25)},
            "v": {"kind": "gaussian", "amplitude": 0.5 * scale, "width": 2.0 * _uniform(rng, 0.95, 1.05),
                  "center": 2.0 + _uniform(rng, -0.25, 0.25)},
        },
        "params": {"n_iters": 24, "time_resolution": 321, "s": 0.0},
    }


def _picard_call(cfg, state0):
    p = cfg.params
    return lambda: ckdv.picard_iterate(
        state0, cfg.system, cfg.horizon,
        n_iters=p["n_iters"], time_resolution=p["time_resolution"], s=p["s"],
    )


def _sup_diff(a, b) -> float:
    return float(max(np.max(np.abs(a.u.values() - b.u.values())),
                     np.max(np.abs(a.v.values() - b.v.values()))))


def picard(seed: int, work: Path) -> list:
    rng = np.random.default_rng(seed)
    small = ckdv.config_from_dict(_picard_config(rng, 0.5))
    big = ckdv.config_from_dict(_picard_config(rng, 4.0))
    small0 = make_initial(small.initial, small.grid, rng)
    big0 = make_initial(big.initial, big.grid, rng)
    # the reference is part of set-up: the timed phase only checks against it
    ref = ckdv.simulate(small0, small.system, small.horizon, small.stepper,
                        sample_dt=small.horizon).states[-1]

    def contractive(result):
        iters, rep = result
        return [
            check("converged", rep.converged, "==", True),
            check("contraction_ratio", rep.contraction_ratio, "<", 0.9),
            check("stepper_linf", _sup_diff(iters[-1].states[-1], ref), "<", 1e-6),
        ]

    def divergent(result):
        _, rep = result
        return [
            check("converged", rep.converged, "==", False),
            check("contraction_ratio", rep.contraction_ratio, ">=", 1.0),
        ]

    return [
        Operation("contractive", _picard_call(small, small0), contractive),
        Operation("divergent", _picard_call(big, big0), divergent),
    ]


# ---------------------------------------------------------------------------
# spacetime: Bourgain-norm checks (c07, c08, c10, c12)

BOURGAIN_PARAMS = {
    "s": 0.0, "b": 0.6, "b_prime": -0.3, "a": 1.0,
    "n_x": 128, "period_x": 16.0 * math.pi, "n_t": 512, "period_t": 8.0,
    "n_fields": 50, "n_embed_fields": 64,
    "embedding_speeds": [2.0, 1.0, 3.0], "pair_first": [1.0, 3.0], "pair_second": [1.5, 2.5],
}
BANDS = (8.0, 16.0, 32.0)
# (s, a_left, a_right, a_out): one same-sign and one mixed pattern of c12
BILINEAR_CASES = {
    "bilinear_same_sign": (0.0, 1.0, 1.0, -1.0),
    "bilinear_mixed": (-0.6, 1.0, -1.0, 1.0),
}


def _bourgain_op(cfg, out: Path) -> Operation:
    def verdict(m):
        s = m.summary
        return [
            check("status", m.status, "==", "pass"),
            check("free_cv", s["free_cv"], "<", 1e-2),
            check("duhamel_exponent_err", abs(s["duhamel_exponent"] - s["duhamel_target"]), "<=", 0.1),
            check("embedding_all_pass", s["embedding_all_pass"], "==", True),
            check("equivalence_all_pass", s["equivalence_all_pass"], "==", True),
        ]

    return Operation(out.name, lambda: ckdv.run(cfg, out_dir=out), verdict)


def _bilinear_op(name: str, case, seed: int) -> Operation:
    s, a_left, a_right, a_out = case

    def call():
        return [
            bourgain.bilinear_ratio(s, 0.6, -0.4, a_left, a_right, a_out, trials=24, band=band, seed=seed)
            for band in BANDS
        ]

    def verdict(reps):
        vals = [r.max_ratio for r in reps]
        change = max(abs(vals[i + 1] - vals[i]) / vals[i] for i in range(len(vals) - 1))
        return [check(f"admissible_band{int(r.band)}", r.admissible, "==", True) for r in reps] + [
            check("band_ladder_change", change, "<", 0.20)
        ]

    return Operation(name, call, verdict)


def spacetime(seed: int, work: Path) -> list:
    rng = np.random.default_rng(seed)
    cfg = ckdv.config_from_dict(
        {"kind": "bourgain_suite", "seed": int(rng.integers(2**31)), "params": dict(BOURGAIN_PARAMS)}
    )
    ops = [_bourgain_op(cfg, work / "bourgain_suite")]
    for name, case in BILINEAR_CASES.items():
        ops.append(_bilinear_op(name, case, int(rng.integers(2**31))))
    a, a0, a1 = (float(x) for x in rng.uniform(-3.0, 3.0, size=3))

    def scan_verdict(scan):
        return [check("max_ratio", scan.max_ratio, "<=", scan.bound)]

    ops.append(Operation(
        "pointwise_scan",
        lambda: bourgain.pointwise_bound_scan(a, a0, a1, n_side=1000, extent=1000.0),
        scan_verdict,
    ))
    return ops


# ---------------------------------------------------------------------------
# quadrature: the eleven-kernel suite (c11) and norm nonequivalence (c09).
# Both are deterministic quadratures, so this workload ignores the seed.

KERNEL_IDS = sorted(bourgain.KERNELS)


def quadrature(seed: int, work: Path) -> list:
    kernels = ckdv.config_from_dict({"kind": "kernel_suite", "params": {"kernels": KERNEL_IDS}})
    noneq = ckdv.config_from_dict({
        "kind": "nonequivalence",
        "params": {"a0": 1.0, "a1": -1.0, "s": 0.0, "b": 3.0, "radii": [8.0, 16.0, 32.0, 64.0]},
    })
    k_out, n_out = work / "kernel_suite", work / "nonequivalence"

    def kernel_verdict(m):
        cols = _read_columns(k_out / "kernels.csv")
        checks = [
            check("status", m.status, "==", "pass"),
            check("kernels", len(cols["kernel"]), "==", len(KERNEL_IDS)),
        ]
        for kid, stable, rel in zip(cols["kernel"], cols["stable"], cols["rel_change"]):
            checks.append(check(f"{kid}.stable", stable, "==", "true"))
            checks.append(check(f"{kid}.rel_change", float(rel), "<", 0.05))
        return checks

    def noneq_verdict(m):
        s = m.summary
        return [
            check("status", m.status, "==", "pass"),
            check("growth_exponent", s["growth_exponent"], ">", 0.0),
            check("stabilized", s["stabilized"], "==", True),
            check("final_rel_change", s["final_rel_change"], "<", 1e-3),
        ]

    return [
        Operation("kernel_suite", lambda: ckdv.run(kernels, out_dir=k_out), kernel_verdict),
        Operation("nonequivalence", lambda: ckdv.run(noneq, out_dir=n_out), noneq_verdict),
    ]


WORKLOADS = {
    "stepper": stepper,
    "picard": picard,
    "spacetime": spacetime,
    "quadrature": quadrature,
}
