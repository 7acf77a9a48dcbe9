"""Experiment configuration validation and the run-to-manifest pipeline."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdv import (
    ConfigError,
    Feng,
    GearGrimshaw,
    GeneralCoupled,
    HirotaSatsuma,
    Sakovich,
    State,
    config_from_dict,
    load_config,
    run,
)
from ckdv import harness
from ckdv.bourgain import (
    LinearEstimateReport,
    embedding_check,
    intersection_equivalence,
    linear_estimate_check,
    make_st_grid,
    nonequivalence_demo,
    random_field,
)
from ckdv.diagnostics import COLUMNS
from ckdv.grid import Grid
from ckdv.io import read_csv
from ckdv.harness import (
    build_grid,
    build_stepper,
    build_system,
    make_initial,
)
from ckdv.solver import picard_iterate, simulate
from ckdv.systems import SpectralRhs


def simulate_config(**over):
    base = {
        "kind": "simulate",
        "system": {"name": "hirota_satsuma", "a": -0.5, "b": 1.0},
        "grid": {"n": 64, "period": 8.0 * np.pi},
        "stepper": {"dt": 5e-3},
        "horizon": 0.05,
        "sample_dt": 0.025,
        "initial": {"u": {"kind": "gaussian", "amplitude": 0.5}},
        "seed": 1,
    }
    base.update(over)
    return base


def unsampled_config(kind, **over):
    """simulate_config for a dynamics kind that takes no sample_dt."""
    d = simulate_config(kind=kind, **over)
    del d["sample_dt"]
    return d


def test_build_system_each_kind():
    assert build_system({"name": "hirota_satsuma", "a": 1.0, "b": 2.0}) == HirotaSatsuma(1.0, 2.0)
    assert isinstance(build_system({"name": "feng", "a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}), Feng)
    assert isinstance(
        build_system({"name": "gear_grimshaw", "a1": 0.0, "a2": 0.0, "a3": 0.0, "b1": 1.0, "b2": 1.0}),
        GearGrimshaw,
    )
    gen = build_system(
        {"name": "general_coupled", "a11": 1.0, "a12": 0.0, "a21": 0.0, "a22": 1.0,
         "b1": 0.0, "b2": 0.0, "b3": 0.0, "b4": 0.0, "b5": 0.0, "b6": 0.0}
    )
    assert isinstance(gen, GeneralCoupled)
    sak = build_system(
        {"name": "sakovich", "A0": [[0, 0], [0, 0]], "A1": [[0, 0], [0, 0]], "A2": [[1, 0], [0, 1]]}
    )
    assert isinstance(sak, Sakovich)


def test_build_system_rejections():
    with pytest.raises(ConfigError):
        build_system({"a": 1.0})
    with pytest.raises(ConfigError):
        build_system({"name": "kdv"})
    with pytest.raises(ConfigError):
        build_system({"name": "hirota_satsuma", "a": 1.0, "b": 1.0, "zz": 3})
    with pytest.raises(ConfigError):
        build_system({"name": "hirota_satsuma", "a": 1.0})  # missing b
    with pytest.raises(ConfigError, match="A0"):
        build_system({"name": "sakovich", "A0": "x", "A1": [[1, 0], [0, 1]], "A2": [[1, 0], [0, 1]]})


def test_build_grid_and_stepper_rejections():
    with pytest.raises(ConfigError):
        build_grid({"n": 300, "period": 1.0})
    with pytest.raises(ConfigError):
        build_grid({"n": 64, "period": -1.0})
    with pytest.raises(ConfigError):
        build_grid({"n": 64, "period": 1.0, "oops": 2})
    with pytest.raises(ConfigError, match="integer"):
        build_grid({"n": 256.7, "period": 1.0})  # not truncated to 256
    with pytest.raises(ConfigError):
        build_stepper({"dt": -0.1})
    with pytest.raises(ConfigError):
        build_stepper({"scheme": "IFRK4"})
    with pytest.raises(ConfigError):
        build_stepper({"dt": 1e-3, "scheme": "euler"})
    with pytest.raises(ConfigError, match="scheme"):
        build_stepper({"dt": 1e-3, "scheme": "IFRK4"})  # IF-RK4 is the only scheme, not a key
    with pytest.raises(ConfigError, match="cfl_guard"):
        build_stepper({"dt": 1e-3, "cfl_guard": "x"})


def test_config_validation_matrix():
    ok = config_from_dict(simulate_config())
    assert ok.kind == "simulate" and ok.grid.n == 64

    with pytest.raises(ConfigError):
        config_from_dict([1, 2])
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(bogus=1))
    with pytest.raises(ConfigError):
        config_from_dict({**simulate_config(), "kind": "nope"})
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(params={"nope": 1}))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(params=[1]))
    missing = simulate_config()
    del missing["stepper"]
    with pytest.raises(ConfigError):
        config_from_dict(missing)
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(initial={"u": {"kind": "vortex"}}))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(initial={"u": {"kind": "gaussian", "sigma": 1.0}}))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(initial={"u": 3}))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(initial=3))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(grid=3))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(stepper=3))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(horizon=-1.0))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(sample_dt=0.0))
    with pytest.raises(ConfigError):
        config_from_dict(simulate_config(horizon="soon"))
    with pytest.raises(ConfigError):  # a JSON integer too large for a float
        config_from_dict(simulate_config(horizon=10**400))
    with pytest.raises(ConfigError, match="mode"):  # not truncated to 1
        config_from_dict(simulate_config(initial={"u": {"kind": "sine", "mode": 1.5}}))
    with pytest.raises(ConfigError, match="kernels"):  # not split into characters
        config_from_dict({"kind": "kernel_suite", "params": {"kernels": "peak_pair"}})
    # the work budget: 2e11 steps, each one stored; then the points budget alone, then the bytes budget alone
    with pytest.raises(ConfigError, match="budget"):
        config_from_dict(simulate_config(horizon=1e9, sample_dt=1e-4))
    with pytest.raises(ConfigError, match="9.98e[+]10 points"):  # 13 runs of 1e6 steps at n = 64, few samples
        config_from_dict(simulate_config(kind="lipschitz_probe", horizon=5e3, sample_dt=5e3,
                                         params={"n_directions": 3, "deltas": [1e-2, 1e-3, 1e-4, 1e-5]}))
    with pytest.raises(ConfigError, match="6.86e[+]09 bytes"):  # 5e5 steps, within the points budget, each stored
        config_from_dict(simulate_config(horizon=2.5e3, sample_dt=5e-3))
    with pytest.raises(ConfigError, match="budget"):  # each of a sweep's 201 samples counts as a step
        config_from_dict(unsampled_config("picard_study", params={"n_iters": 10**6, "time_resolution": 201}))
    # Picard runs without cutoffs and always checks a converged run against the stepper
    for key in ("apply_cutoffs", "compare_stepper"):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(unsampled_config("picard_study", params={key: True}))


# each of these used to pass validation and then end the run as status "error";
# each case names the message of its own rule, so no other fault can stand in for it
_B_RANGE = "need -1/2 < b_prime <= 0 <= b <= b_prime + 1"
_LADDER = "must be two or more distinct values"
_HORIZONS = "t_values needs two or more distinct horizons in (0, 1]"
RUN_TIME_FAILURES = {
    "negative_seed": (simulate_config(seed=-1), "'seed' must be an integer in [0, 2**64)"),
    "s_not_a_number": (simulate_config(params={"s": "abc"}), "'s' must be a finite number"),
    "coefficient_not_a_number": (
        simulate_config(system={"name": "hirota_satsuma", "a": "x", "b": 1.0}), "'a' must be a finite number"
    ),
    "gaussian_width_0": (
        simulate_config(initial={"u": {"kind": "gaussian", "width": 0}}), "'width' must be positive"
    ),
    "nan_amplitude": (
        simulate_config(initial={"u": {"kind": "gaussian", "amplitude": float("nan")}}),
        "'amplitude' must be a finite number",
    ),
    "picard_horizon_0": (unsampled_config("picard_study", horizon=0.0), "the horizon T must be finite and positive"),
    "picard_n_iters_0": (unsampled_config("picard_study", params={"n_iters": 0}), "n_iters must be at least 2"),
    # one sweep gives one distance, whose fitted ratio is 0: c06's contraction check would test nothing
    "picard_n_iters_1": (unsampled_config("picard_study", params={"n_iters": 1}), "n_iters must be at least 2"),
    "picard_even_time_resolution": (
        unsampled_config("picard_study", params={"time_resolution": 200}), "time_resolution must be odd and at least 9"
    ),
    # zero data contract at once and match the stepper exactly: c06's checks would read 0 by construction
    "picard_no_initial": ({**unsampled_config("picard_study"), "initial": {}}, "needs nonzero initial data"),
    # zero data: c02's drifts read 0 by construction, the scaling exponents and the convergence order NaN
    "simulate_no_initial": ({**simulate_config(), "initial": {}}, "needs nonzero initial data"),
    "scaling_no_initial": ({**simulate_config(kind="scaling_probe"), "initial": {}}, "needs nonzero initial data"),
    "convergence_no_initial": (
        {**unsampled_config("convergence_study", params={"dt_values": [4e-2, 2e-2]}), "initial": {}},
        "needs nonzero initial data",
    ),
    "simulate_horizon_negative": (simulate_config(horizon=-1.0), "the horizon T must be finite and nonnegative"),
    "simulate_sample_dt_0": (simulate_config(sample_dt=0.0), "sample_dt must be finite and positive"),
    # Picard's stepper reference runs simulate too
    "picard_horizon_negative": (
        unsampled_config("picard_study", horizon=-1.0), "the horizon T must be finite and nonnegative"
    ),
    # at lam = 1 the rescaled run is the base run: covariance_max_err would read 0 by construction
    "scaling_lam_1": (simulate_config(kind="scaling_probe", params={"lam": 1.0}), "'lam' must be positive and not 1"),
    "lipschitz_deltas_not_a_list": (
        simulate_config(kind="lipschitz_probe", params={"deltas": "abc"}), "'deltas' must be a list"
    ),
    "convergence_one_dt": (
        unsampled_config("convergence_study", params={"dt_values": [1e-3]}), f"'dt_values' {_LADDER}"
    ),
    "scaling_repeated_lambdas": (
        simulate_config(kind="scaling_probe", params={"lambdas": [2.0, 2.0]}), f"'lambdas' {_LADDER}"
    ),
    "scaling_repeated_s_values": (
        simulate_config(kind="scaling_probe", params={"s_values": [1.0, 1.0]}), "'s_values' must be distinct values"
    ),
    # a repeated entry once two distinct ones are present: each entry is one run or one set of rows
    "convergence_repeated_dt": (
        unsampled_config("convergence_study", params={"dt_values": [4e-2, 2e-2, 2e-2]}), f"'dt_values' {_LADDER}"
    ),
    "scaling_repeated_lambda": (
        simulate_config(kind="scaling_probe", params={"lambdas": [1.0, 2.0, 2.0]}), f"'lambdas' {_LADDER}"
    ),
    # the stabilization check compares the two smallest deltas
    "lipschitz_repeated_deltas": (
        simulate_config(kind="lipschitz_probe", params={"deltas": [1e-2, 1e-2]}), f"'deltas' {_LADDER}"
    ),
    "lipschitz_one_delta": (simulate_config(kind="lipschitz_probe", params={"deltas": [1e-2]}), f"'deltas' {_LADDER}"),
    "lipschitz_no_initial": (
        {**simulate_config(kind="lipschitz_probe"), "initial": {}}, "needs nonzero initial data"
    ),
    "lipschitz_zero_amplitude": (
        simulate_config(kind="lipschitz_probe", initial={"u": {"kind": "gaussian", "amplitude": 0.0}}),
        "needs nonzero initial data",
    ),
    **{
        f"bourgain_{name}": ({"kind": "bourgain_suite", "params": params}, message)
        for name, (params, message) in {
            "n_x_100": ({"n_x": 100}, "'n_x' must be a power of two >= 16"),
            "n_t_24": ({"n_t": 24}, "'n_t' must be a power of two >= 16"),
            "n_t_8": ({"n_t": 8}, "'n_t' must be a power of two >= 16"),
            "a_0": ({"a": 0}, "a must be nonzero"),
            "embedding_speed_0": (
                {"embedding_speeds": [2.0, 0.0, 3.0]}, "the speeds in embedding_speeds must be nonzero"
            ),
            "embedding_reference_speeds_equal": (
                {"embedding_speeds": [2.0, 1.0, 1.0]}, "reference speeds in embedding_speeds must differ"
            ),
            "pair_speed_0": ({"pair_second": [0.0, 2.5]}, "the speeds in pair_second must be nonzero"),
            "pair_speeds_equal": ({"pair_first": [1.0, 1.0]}, "reference speeds in pair_first must differ"),
            "b_negative": ({"b": -0.1}, _B_RANGE),
            "b_prime_positive": ({"b_prime": 0.1}, _B_RANGE),
            "b_above_b_prime_plus_1": ({"b": 0.9}, _B_RANGE),
            "t_value_above_1": ({"t_values": [0.5, 1.5]}, _HORIZONS),
            "one_t_value": ({"t_values": [0.5]}, _HORIZONS),
            "repeated_t_values": ({"t_values": [0.5, 0.5]}, "'t_values' must be distinct values"),
            # one field has no spread: c10's free_cv would be 0 by construction
            "n_fields_1": ({"n_fields": 1}, "n_fields must be at least 2"),
            # psi_T lives on |t| < 2T: a step of 0.25 against T = 0.1 keeps only t = 0, whose Duhamel ratio is 0
            "time_step_too_coarse": (
                {"n_x": 16, "n_t": 32, "n_fields": 2, "n_embed_fields": 2},
                "the time step period_t / n_t = 0.25 must be below 2 * min(t_values) = 0.2",
            ),
        }.items()
    },
    "nonequivalence_b_0.4": (
        {"kind": "nonequivalence", "params": {"b": 0.4}}, "the construction needs b > 1/2"
    ),
    "nonequivalence_s_too_low": (
        {"kind": "nonequivalence", "params": {"s": -3.0}}, "the construction needs s > 1/2 - b"
    ),
    "nonequivalence_a0_0": ({"kind": "nonequivalence", "params": {"a0": 0.0}}, "a0 must be nonzero"),
    "nonequivalence_a1_0": ({"kind": "nonequivalence", "params": {"a1": 0.0}}, "a1 must be nonzero"),
    "nonequivalence_one_radius": (
        {"kind": "nonequivalence", "params": {"radii": [8.0]}}, "needs two or more distinct positive radii"
    ),
    "nonequivalence_repeated_radii": (
        {"kind": "nonequivalence", "params": {"radii": [8.0, 8.0]}}, "'radii' must be distinct values"
    ),
    # a repeated kernel would run twice and write two identical kernels.csv rows
    "kernels_repeated_id": (
        {"kind": "kernel_suite", "params": {"kernels": ["level_set", "level_set"]}}, "'kernels' must be distinct values"
    ),
}


def _params(config: dict) -> dict:
    """The params of a config dict over its kind's defaults, typed as the parser types them."""
    given = config.get("params", {})
    return {k: convert(given.get(k, d)) for k, (convert, d) in harness.KINDS[config["kind"]].params.items()}


def _linear_owner(config):
    p = _params(config)
    linear_estimate_check(make_st_grid(p["n_x"], p["period_x"], p["n_t"], p["period_t"]), p["a"], p["s"], p["b"],
                          p["b_prime"], n_fields=p["n_fields"], t_values=p["t_values"])


def _speeds_owner(config):
    p = _params(config)
    F = random_field(make_st_grid(16, 4.0 * np.pi, 32), np.random.default_rng(0))
    embedding_check(F, *p["embedding_speeds"], p["s"], p["b"])
    intersection_equivalence(F, p["pair_first"], p["pair_second"], p["s"], p["b"])


def _simulate_owner(config):
    cfg = config_from_dict(simulate_config())  # the case's system, grid, stepper and data
    state0 = make_initial(cfg.initial, cfg.grid, np.random.default_rng(cfg.seed))
    simulate(state0, cfg.system, config["horizon"], cfg.stepper, sample_dt=config.get("sample_dt", cfg.stepper.dt))


def _picard_owner(config):
    cfg = config_from_dict(unsampled_config("picard_study"))  # the case's system, grid and data
    state0 = make_initial(cfg.initial, cfg.grid, np.random.default_rng(cfg.seed))
    picard_iterate(state0, cfg.system, config["horizon"], **_params(config))


# the library entry point that owns each refusal above, called with the same values
LIBRARY_OWNERS = {
    **dict.fromkeys(
        [f"bourgain_{name}" for name in ("a_0", "b_negative", "b_prime_positive", "b_above_b_prime_plus_1",
                                         "t_value_above_1", "one_t_value", "n_fields_1",
                                         "time_step_too_coarse")],
        _linear_owner,
    ),
    **dict.fromkeys(
        [f"bourgain_{name}" for name in ("embedding_speed_0", "embedding_reference_speeds_equal",
                                         "pair_speed_0", "pair_speeds_equal")],
        _speeds_owner,
    ),
    **dict.fromkeys(
        [f"nonequivalence_{name}" for name in ("b_0.4", "s_too_low", "a0_0", "a1_0", "one_radius")],
        lambda config: nonequivalence_demo(**_params(config)),
    ),
    **dict.fromkeys(
        ["picard_horizon_0", "picard_n_iters_0", "picard_n_iters_1", "picard_even_time_resolution"], _picard_owner
    ),
    **dict.fromkeys(
        ["simulate_horizon_negative", "simulate_sample_dt_0", "picard_horizon_negative"], _simulate_owner
    ),
}


@pytest.mark.parametrize("name", sorted(RUN_TIME_FAILURES))
def test_run_time_failures_rejected_up_front(name):
    config, message = RUN_TIME_FAILURES[name]
    with pytest.raises(ConfigError, match=re.escape(message)) as refused:
        config_from_dict(config)
    assert set(LIBRARY_OWNERS) < set(RUN_TIME_FAILURES)
    if name in LIBRARY_OWNERS:  # one wording: the parse-time message ends with the owner's own
        with pytest.raises(ValueError) as owner:
            LIBRARY_OWNERS[name](config)
        assert str(refused.value).endswith(f": {owner.value}")


def test_parsed_params_are_typed_and_defaulted():
    cfg = config_from_dict(unsampled_config("picard_study", params={"n_iters": 4.0}))
    assert cfg.params == {"n_iters": 4, "time_resolution": 201, "s": 0.0}
    assert type(cfg.params["n_iters"]) is int
    assert cfg.initial["u"] == {"kind": "gaussian", "amplitude": 0.5, "width": 1.0, "center": 0.0}
    assert cfg.initial["v"] == {"kind": "zero"}
    assert cfg.sample_dt is None
    # a convergence study's reference is its own stepper.dt, finer than every dt_values entry
    conv = config_from_dict(unsampled_config("convergence_study", params={"dt_values": [1e-2, 4e-2]}))
    assert conv.params == {"dt_values": [1e-2, 4e-2]} and conv.stepper.dt == 5e-3
    for dt_values in ([5e-3, 1e-2], [1e-3, 1e-2]):
        with pytest.raises(ConfigError, match=re.escape("stepper.dt, the reference step, must be finer")):
            config_from_dict(unsampled_config("convergence_study", params={"dt_values": dt_values}))
    static = config_from_dict({"kind": "kernel_suite"})
    assert static.horizon is None and static.sample_dt is None and static.seed is None


def test_top_level_keys_per_kind():
    dynamics = {"system", "grid", "stepper", "initial", "horizon", "seed"}
    accepted = {
        "simulate": dynamics | {"sample_dt"},
        "lipschitz_probe": dynamics | {"sample_dt"},
        "scaling_probe": dynamics | {"sample_dt"},
        "picard_study": dynamics,
        "convergence_study": dynamics,
        "bourgain_suite": {"seed"},
        "kernel_suite": set(),
        "nonequivalence": set(),
        "diagnose": {"system", "snapshot"},
    }
    assert {kind: set(k.top) for kind, k in harness.KINDS.items()} == accepted
    # every kind has a work record: KindDef.work has no default
    assert {f.name: f.default for f in dataclasses.fields(harness.KindDef)}["work"] is dataclasses.MISSING
    for kind, keys in accepted.items():
        with pytest.raises(ConfigError, match=re.escape(f"unknown key(s) in {kind} config: extra")):
            config_from_dict({"kind": kind, "output_dir": None, "params": {}, "extra": 1, **dict.fromkeys(keys)})


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIG_FILES = sorted(CONFIG_DIR.glob("*.json"))
MUTANTS = (None, "x", float("nan"), -1, 1.5, 1e12, 1e-12, [], [0.5, "x"], {}, {"k": 1})


def _paths(node, path=()):
    """Every (path, node) in a JSON tree, root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_shipped_configs_validate_or_raise_config_error(data):
    d = json.loads(data.draw(st.sampled_from(CONFIG_FILES)).read_text())
    path, node = data.draw(st.sampled_from(list(_paths(d))))
    ops = (["add"] if isinstance(node, dict) else []) + (["replace", "drop"] if path else [])
    op = data.draw(st.sampled_from(ops))
    if op == "add":
        node["unknown_key"] = data.draw(st.sampled_from(MUTANTS))
    else:
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(MUTANTS))
    try:
        config_from_dict(d)
    except ConfigError:
        pass


def test_shipped_configs_sit_far_below_the_work_budget():
    for path in CONFIG_FILES:
        cfg = load_config(path)
        held, points = harness.KINDS[cfg.kind].work(cfg)
        assert 100 * held <= harness.MAX_SNAPSHOT_BYTES, path.name
        assert 100 * points <= harness.MAX_POINTS, path.name


def _shipped(name: str, params=None, **over) -> dict:
    """A shipped config with some top-level keys, and some params, replaced."""
    d = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    d["params"] = {**d.get("params", {}), **(params or {})}
    return {**d, **over}


_N512 = {"n": 512, "period": 8.0 * np.pi}
# runs at sizes where the charged arrays outweigh Python's own allocations:
# n = 512 with every step stored, Picard's (2, nt, n/2+1) arrays, convergence
# runs at n = 4096 and 16384, and space-time grids of 128 x 512 and 256 x 1024
PEAK_CASES = {
    "simulate_hs": _shipped("simulate", grid=_N512, sample_dt=2e-4, horizon=0.05),
    "simulate_gg": _shipped("gear_grimshaw", grid=_N512, sample_dt=2e-4, horizon=0.05),
    "lipschitz": _shipped("lipschitz", {"n_directions": 1, "deltas": [1e-3, 1e-4]}, grid=_N512, sample_dt=5e-4,
                          horizon=0.05),
    "scaling": _shipped("scaling", grid=_N512, sample_dt=2e-4, horizon=0.05),
    # a coarse reference step: the stepper reference holds two samples whatever its dt
    "picard_n_iters_2": _shipped("picard", {"n_iters": 2}, stepper={"dt": 2e-3}),
    "picard_n_iters_24": _shipped("picard", stepper={"dt": 2e-3}),
    **{f"convergence_n{n}": _shipped("convergence", grid={"n": n, "period": 8.0 * np.pi}, stepper={"dt": 4e-4},
                                     horizon=3.2e-3) for n in (4096, 16384)},
    "bourgain_128x512": _shipped("bourgain"),
    "bourgain_256x1024": _shipped("bourgain", {"n_x": 256, "n_t": 1024}),
}


def test_budget_refuses_runs_that_would_not_fit_and_admits_one_that_would():
    # about 24 GiB and 7.7 GiB held at once, where a charge of one state per stored sample read 2 GiB or less
    for runaway, charged in (
        (_shipped("simulate", grid={"n": 2048, "period": 8.0 * np.pi}, stepper={"dt": 1e-4}, sample_dt=1e-4,
                  horizon=6.5), "2.77e+10"),
        (_shipped("picard", {"time_resolution": 5001, "n_iters": 2}, grid={"n": 8192, "period": 8.0 * np.pi}),
         "9.18e+09"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"holds {charged} bytes at once")):
            config_from_dict(runaway)
    # about 1.7e9 bytes held at once, where a charge of 12 fields read 3.2e9
    config_from_dict(_shipped("bourgain", {"n_x": 4096, "n_t": 4096}))


@pytest.mark.parametrize("name", sorted(PEAK_CASES))
def test_work_charge_lies_between_the_runs_peak_and_twice_it(tmp_path, name):
    cfg = config_from_dict(PEAK_CASES[name])
    held, _ = harness.KINDS[cfg.kind].work(cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        manifest = run(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert manifest.error is None
    assert peak <= held <= 2 * peak, held / peak


def test_every_kind_has_a_shipped_config():
    # the README promises one working example per kind
    assert {json.loads(path.read_text())["kind"] for path in CONFIG_FILES} == set(harness.KINDS)


def test_config_static_kinds_reject_dynamics_blocks():
    with pytest.raises(ConfigError):
        config_from_dict(
            {"kind": "kernel_suite", "grid": {"n": 64, "period": 1.0}}
        )
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "nonequivalence", "initial": {}})
    cfg = config_from_dict({"kind": "kernel_suite"})
    assert cfg.system is None and cfg.grid is None and cfg.stepper is None


def test_config_kernel_ids_checked_up_front():
    with pytest.raises(ConfigError, match="unknown kernel id"):
        config_from_dict({"kind": "kernel_suite", "params": {"kernels": ["peak_pair", "nope"]}})


def test_load_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(simulate_config()))
    cfg = load_config(path)
    assert cfg.kind == "simulate"
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_make_initial_profiles():
    g = Grid(64, 8.0 * np.pi)
    rng = np.random.default_rng(0)
    st = make_initial(None, g, rng)
    assert np.max(np.abs(st.u.coeffs)) == 0.0

    st = make_initial({"u": {"kind": "gaussian", "amplitude": 2.0, "width": 1.5}}, g, rng)
    assert np.max(st.u.values()) == pytest.approx(2.0, rel=1e-12)

    st = make_initial({"u": {"kind": "sine", "mode": 2, "amplitude": 0.5}}, g, rng)
    want = 0.5 * np.sin(2.0 * np.pi * 2.0 * g.x / g.period)
    assert np.max(np.abs(st.u.values() - want)) < 1e-12

    st = make_initial({"u": {"kind": "soliton", "speed": 4.0}}, g, rng)
    assert np.max(st.u.values()) == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(ConfigError):
        make_initial({"u": {"kind": "soliton", "speed": -1.0}}, g, rng)

    a = make_initial({"u": {"kind": "random_band", "band": 2.0}}, g, np.random.default_rng(7))
    b = make_initial({"u": {"kind": "random_band", "band": 2.0}}, g, np.random.default_rng(7))
    assert np.array_equal(a.u.coeffs, b.u.coeffs)
    assert np.max(np.abs(a.u.values())) == pytest.approx(1.0, rel=1e-12)


def test_run_writes_manifest_and_files(tmp_path):
    cfg = config_from_dict(simulate_config())
    manifest = run(cfg, out_dir=tmp_path)
    assert manifest.status == "pass"
    assert manifest.error is None
    assert manifest.seed == 1
    assert "diagnostics.csv" in manifest.files
    assert "snapshot_initial.ckdv" in manifest.files
    assert "snapshot_final.ckdv" in manifest.files
    for name in manifest.files:
        assert (tmp_path / name).exists()
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["status"] == "pass"
    assert payload["kind"] == "simulate"
    assert payload["summary"]["records"] >= 2
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)


def test_manifest_is_strict_json(tmp_path, strict_json):
    # u = 0 has every H^s norm 0, so no exponent is fitted: each reads NaN
    cfg = config_from_dict(simulate_config(
        kind="scaling_probe", initial={"v": {"kind": "gaussian", "amplitude": 0.5}}
    ))
    manifest = run(cfg, out_dir=tmp_path)
    assert all(np.isnan(x) for x in manifest.summary["exponents"].values())  # floats in memory
    payload = strict_json(tmp_path / "manifest.json")
    assert set(payload["summary"]["exponents"].values()) == {"nan"}
    assert harness._jsonable([math.inf, -math.inf, math.nan, 1.5], strict=True) == ["inf", "-inf", "nan", 1.5]


def test_simulate_builds_two_states(monkeypatch, tmp_path):
    # one for the diagnostics table of the stacked samples, one for the final snapshot
    made = []
    from_half = State.from_half.__func__
    monkeypatch.setattr(State, "from_half", classmethod(lambda cls, *a: made.append(1) or from_half(cls, *a)))
    assert run(config_from_dict(simulate_config()), out_dir=tmp_path).status == "pass"
    assert len(made) == 2


def test_simulate_first_row_does_not_depend_on_horizon(tmp_path):
    # the t = 0 row reads the dealiased initial state whether or not the run steps
    d = json.loads((Path(__file__).resolve().parent.parent / "configs" / "simulate.json").read_text())
    rows = {}
    for horizon in (0.0, 0.05):
        out = tmp_path / str(horizon)
        assert run(config_from_dict({**d, "horizon": horizon}), out_dir=out).status == "pass"
        rows[horizon] = (out / "diagnostics.csv").read_text().splitlines()[1]
    assert rows[0.0] == rows[0.05]
    assert not (tmp_path / "0.0" / "snapshot_final.ckdv").exists()
    assert (tmp_path / "0.05" / "snapshot_final.ckdv").exists()


def test_run_records_errors_in_manifest(tmp_path):
    blow = simulate_config(
        initial={"u": {"kind": "gaussian", "amplitude": 80.0}},
        stepper={"dt": 5e-2},
        horizon=1.0,
    )
    manifest = run(config_from_dict(blow), out_dir=tmp_path)
    assert manifest.status == "error"
    assert "BlowupDetected" in manifest.error
    assert (tmp_path / "manifest.json").exists()


def test_run_is_deterministic(tmp_path):
    cfg_d = simulate_config(initial={"u": {"kind": "random_band", "band": 3.0}})
    run(config_from_dict(cfg_d), out_dir=tmp_path / "a")
    run(config_from_dict(cfg_d), out_dir=tmp_path / "b")
    for name in ("diagnostics.csv", "snapshot_final.ckdv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_two_runs_write_the_same_env(tmp_path):
    cfg = config_from_dict(simulate_config())
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    env = [json.loads((tmp_path / d / "manifest.json").read_text())["env"] for d in "ab"]
    assert env[0] == env[1]
    assert set(env[0]) == {"python", "numpy", "usable_cpus"}  # no run calls scipy, so its version explains nothing
    assert env[0]["usable_cpus"] == harness._usable_cpus() >= 1
    assert env[0]["numpy"] == np.__version__


def test_run_seed_changes_random_data(tmp_path):
    base = simulate_config(initial={"u": {"kind": "random_band", "band": 3.0}})
    run(config_from_dict(base), out_dir=tmp_path / "a")
    run(config_from_dict({**base, "seed": 2}), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() != (
        tmp_path / "b" / "diagnostics.csv"
    ).read_bytes()


def test_lipschitz_stabilization_pair_is_the_two_smallest_deltas(tmp_path):
    cfg = simulate_config(kind="lipschitz_probe", params={"deltas": [3e-3, 3e-4], "n_directions": 1})
    m = run(config_from_dict(cfg), out_dir=tmp_path)
    assert m.status == "pass"
    _, rows = read_csv(tmp_path / "lipschitz.csv")
    ratio = {r[1]: r[3] for r in rows}
    want = abs(ratio[3e-4] - ratio[3e-3]) / ratio[3e-3]
    assert m.summary["stabilization_rel_diff"] == pytest.approx(want, rel=1e-15)


BOURGAIN_CHEAP = {
    "kind": "bourgain_suite",
    "params": {"n_x": 16, "n_t": 32, "n_fields": 2, "n_embed_fields": 2, "t_values": [0.5, 1.0]},
}


def replaced(**fields):
    """Patch of a call returning a report, or (value, report): the report with `fields` replaced."""
    def patch(call):
        def patched(*args, **kwargs):
            out = call(*args, **kwargs)
            if isinstance(out, tuple):
                return out[0], dataclasses.replace(out[1], **fields)
            return dataclasses.replace(out, **fields)
        return patched
    return patch


def linear_estimate(free_cv, exponent):
    """Patch of linear_estimate_check: a fixed report with Duhamel target 0.1."""
    rep = LinearEstimateReport([1.0, 1.0], free_cv, [0.5, 1.0], [1.0, 1.0], exponent, 0.1)
    return lambda call: lambda *args, **kwargs: rep


def sup_gaps(op):
    """Patch of _sup_gaps: `op` applied to each gap it returns."""
    return lambda call: lambda a, b, g: op(call(a, b, g))


def law_moves(column):
    """Patch of collect: `column` of the table gains 1e-3 t."""
    def patch(call):
        def collect(*args):
            table = call(*args)
            table[:, COLUMNS.index(column)] += 1e-3 * table[:, COLUMNS.index("t")]
            return table
        return collect
    return patch


def laws_at_zero(then=lambda call: call):
    """Patch of collect: the V and F columns read 0, as zero data would give; then `then`'s patch."""
    def patch(call):
        def collect(*args):
            table = call(*args)
            table[:, [COLUMNS.index("V"), COLUMNS.index("F")]] = 0.0
            return table
        return then(collect)
    return patch


PEAK_PAIR = {"kind": "kernel_suite", "params": {"kernels": ["peak_pair"]}}
# zero data are refused at parse time, so the laws are set to 0 in the table instead
HS_CONSERVING = simulate_config(system={"name": "hirota_satsuma", "a": 0.5, "b": 1.0})

# case -> (config, harness name patched, patch, the checks that then fail)
VERDICT_CASES = {
    "simulate_infinite": (
        simulate_config(), "collect", lambda call: lambda *a: call(*a) + np.inf,
        ["infinite_entries", "V_drift", "F_drift"],  # a non-finite column has no finite drift
    ),
    # a law that starts at 0 drifts by 0.0 while it stays there and by inf once it moves
    "simulate_zero_data": (HS_CONSERVING, "collect", laws_at_zero(), []),
    "simulate_zero_data_V_moves": (HS_CONSERVING, "collect", laws_at_zero(law_moves("V")), ["V_drift"]),
    # NaN norms of the (samples, 2, n) trajectory gaps, not of the (2, n) base state;
    # NaN ratios leave no finite stabilization difference, so that check fails too
    "lipschitz_nonfinite": (
        simulate_config(kind="lipschitz_probe", params={"deltas": [3e-3, 3e-4], "n_directions": 1}),
        "_joint_norm", lambda call: lambda c, g, s: call(c, g, s) * (np.nan if c.ndim == 3 else 1.0),
        ["nonfinite_ratios", "stabilization_rel_diff"],
    ),
    # squared gap norms make each ratio proportional to delta: the two smallest differ tenfold
    "lipschitz_not_linear": (
        simulate_config(kind="lipschitz_probe", params={"deltas": [3e-3, 3e-4], "n_directions": 1}),
        "_joint_norm", lambda call: lambda c, g, s: call(c, g, s) ** (2.0 if c.ndim == 3 else 1.0),
        ["stabilization_rel_diff"],
    ),
    "bourgain_within": (BOURGAIN_CHEAP, "linear_estimate_check", linear_estimate(1e-3, 0.15), []),
    "bourgain_free_cv": (BOURGAIN_CHEAP, "linear_estimate_check", linear_estimate(2e-2, 0.15), ["free_cv"]),
    "bourgain_exponent_high": (
        BOURGAIN_CHEAP, "linear_estimate_check", linear_estimate(1e-3, 0.25), ["duhamel_exponent_err"]
    ),
    "bourgain_exponent_low": (
        BOURGAIN_CHEAP, "linear_estimate_check", linear_estimate(1e-3, -0.05), ["duhamel_exponent_err"]
    ),
    "bourgain_embedding": ("bourgain.json", "embedding_check", replaced(passed=False), ["embedding_all_pass"]),
    "bourgain_equivalence": (
        "bourgain.json", "intersection_equivalence", replaced(passed=False), ["equivalence_all_pass"]
    ),
    # raising every error to a power scales the fitted order by it: 4.06 -> 8.1 or 2.0
    "convergence_order_high": ("convergence.json", "_sup_gaps", sup_gaps(lambda e: e**2.0), ["fitted_order"]),
    "convergence_order_low": ("convergence.json", "_sup_gaps", sup_gaps(lambda e: e**0.5), ["fitted_order"]),
    "kernel_below_bound": (PEAK_PAIR, "kernel_bound_check", replaced(rel_change=0.049), []),
    "kernel_at_bound": (PEAK_PAIR, "kernel_bound_check", replaced(rel_change=0.05), ["max_rel_change"]),
    # two kernels make a pool of two workers (on two or more CPUs), so the patch runs in a worker
    "kernel_at_bound_two_kernels": (
        {"kind": "kernel_suite", "params": {"kernels": ["peak_pair", "level_set"]}},
        "kernel_bound_check", replaced(rel_change=0.05), ["max_rel_change"],
    ),
    "scaling_covariance": ("scaling.json", "_sup_gaps", sup_gaps(lambda e: e + 1e-6), ["covariance_max_err"]),
    # the box of lam*u0(lam x) shrinks by lam, so period^-0.1 adds 0.1 to the fitted exponent at s = 1
    "scaling_exponent": (
        "scaling.json", "sobolev_norm",
        lambda call: lambda f, s: call(f, s) * (f.grid.period ** -0.1 if s == 1.0 else 1.0),
        ["exponent_err[1]"],
    ),
    "picard_converged": ("picard.json", "picard_iterate", replaced(converged=False), ["converged"]),
    "picard_contraction": (
        "picard.json", "picard_iterate", replaced(contraction_ratio=0.9), ["contraction_ratio"]
    ),
    "picard_stepper_gap": ("picard.json", "_sup_gaps", sup_gaps(lambda e: e + 1e-6), ["stepper_linf"]),
    "noneq_growth": (
        "nonequivalence.json", "nonequivalence_demo", replaced(growth_exponent=0.0), ["growth_exponent"]
    ),
    "noneq_settling": (
        "nonequivalence.json", "nonequivalence_demo", replaced(final_rel_change=1e-3), ["final_rel_change"]
    ),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_run_passes_only_when_every_check_does(monkeypatch, tmp_path, case, strict_json):
    config, name, patch, failing = VERDICT_CASES[case]
    monkeypatch.setattr(harness, name, patch(getattr(harness, name)))
    cfg = load_config(CONFIG_DIR / config) if isinstance(config, str) else config_from_dict(config)
    manifest = run(cfg, out_dir=tmp_path)
    assert [c["name"] for c in manifest.checks if not c["passed"]] == failing
    assert manifest.status == ("fail" if failing else "pass")
    # the file holds the same checks, a non-finite value written as a string
    assert strict_json(tmp_path / "manifest.json")["checks"] == harness._jsonable(manifest.checks, strict=True)


def test_bourgain_period_t_sets_the_linear_study_box(tmp_path):
    # the linear study once built its own box, 8 wide, so period_t 8 and 16 wrote identical CSVs
    for period_t in (8.0, 16.0):
        params = {**BOURGAIN_CHEAP["params"], "n_t": 128, "t_values": [0.5, 1.0], "period_t": period_t}
        cfg = {**BOURGAIN_CHEAP, "params": params}
        assert run(config_from_dict(cfg), out_dir=tmp_path / str(period_t)).status != "error"
    for name in ("linear_free.csv", "linear_duhamel.csv"):
        assert (tmp_path / "8.0" / name).read_bytes() != (tmp_path / "16.0" / name).read_bytes()


def test_scaling_covariance_catches_a_zero_order_term(monkeypatch, tmp_path):
    # u_t = ... + 1e-3 u breaks the KdV scaling, so the rescaled run leaves lam * base.half;
    # the norm ladder reads only the initial data, so its exponents still pass
    call = SpectralRhs.__call__
    monkeypatch.setattr(SpectralRhs, "__call__", lambda self, w, t, out=None: call(self, w, t, out) + 1e-3 * w)
    manifest = run(load_config(CONFIG_DIR / "scaling.json"), out_dir=tmp_path)
    assert [c["name"] for c in manifest.checks if not c["passed"]] == ["covariance_max_err"]


# Gear-Grimshaw without the r term: no first-order drift, so lam^2 u(lam x, lam^3 t) is a symmetry
GG_NO_DRIFT = {"name": "gear_grimshaw", "a1": 0.7, "a2": 0.3, "a3": 0.4, "b1": 2.0, "b2": 0.5}


def test_scaling_probe_takes_any_drift_free_system(tmp_path):
    data = json.loads((CONFIG_DIR / "scaling.json").read_text())
    manifest = run(config_from_dict({**data, "system": GG_NO_DRIFT}), out_dir=tmp_path)
    assert manifest.status == "pass"
    assert manifest.summary["covariance_max_err"] <= harness.BOUNDS["covariance_max_err"][1]


def test_scaling_probe_rejects_a_first_order_drift():
    data = json.loads((CONFIG_DIR / "scaling.json").read_text())
    with pytest.raises(ConfigError, match="needs a system without first-order drift"):
        config_from_dict({**data, "system": {**GG_NO_DRIFT, "r": 0.3}})


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.name)
def test_shipped_config_passes(path, shipped_run):
    assert shipped_run(path.stem)[0].status == "pass"


@pytest.mark.parametrize("system, drifts", [
    ({"name": "hirota_satsuma", "a": -0.5, "b": 1.0}, ["V_drift", "F_drift"]),
    ({"name": "gear_grimshaw", "a1": 0.7, "a2": 0.3, "a3": 0.4, "b1": 2.0, "b2": 0.5}, ["phi3_drift"]),
    ({"name": "feng", "a": 0.5, "b": 1.0, "c": 2.0, "d": 0.5}, ["F_drift"]),  # F = int u^2 + (2b/c) v^2
    ({"name": "general_coupled", "a11": 1.0, "a12": 0.0, "a21": 0.0, "a22": 0.5,
      "b1": 0.2, "b2": 0.3, "b3": 0.4, "b4": 0.5, "b5": 0.6, "b6": 0.7}, []),
    ({"name": "feng", "a": -1.0, "b": 2.0, "c": 3.0, "d": 0.5}, ["F_drift"]),  # d != 0: no Hamiltonian V
    ({"name": "feng", "a": 0.5, "b": 1.0, "c": 3.0, "d": 0.0}, ["V_drift", "F_drift"]),  # Hirota-Satsuma
])
def test_simulate_checks_c02_drift_of_each_law_the_system_conserves(monkeypatch, tmp_path, system, drifts):
    # v != 0 exercises each law's v terms.  At n = 64 the dealiased flow of such data drifts V by
    # ~2e-5 whatever dt, so the grid is finer: V drifts below 2e-9 here, F and phi3 below 2e-10
    cfg = config_from_dict(simulate_config(
        system=system, grid={"n": 128, "period": 8.0 * np.pi}, stepper={"dt": 2.5e-3},
        initial={"u": {"kind": "gaussian", "amplitude": 0.5}, "v": {"kind": "gaussian", "amplitude": 0.5, "center": 1.0}},
    ))
    manifest = run(cfg, out_dir=tmp_path / "exact")
    assert manifest.status == "pass"
    assert [c["name"] for c in manifest.checks] == ["infinite_entries", *drifts]
    # a 1e-3 w term grows each quadratic law by about 2e-3 per unit time, past c02's 1e-8
    call = SpectralRhs.__call__
    monkeypatch.setattr(SpectralRhs, "__call__", lambda self, w, t, out=None: call(self, w, t, out) + 1e-3 * w)
    patched = run(cfg, out_dir=tmp_path / "patched")
    assert [c["name"] for c in patched.checks if not c["passed"]] == drifts
    assert patched.status == ("fail" if drifts else "pass")
    # the summary reports each checked law's drift as its check does; here |V(0)|, |F(0)| < 1
    for m in (manifest, patched):
        assert {c["name"]: c["value"] for c in m.checks[1:]} == {
            f"{law}_drift": d for law, d in m.summary["drift"].items() if f"{law}_drift" in drifts
        }


@pytest.mark.parametrize("d", [0.0, 0.5])
def test_feng_conserves_f_with_both_fields_moving(tmp_path, d):
    # v != 0 brings in F's (2b/c) int v^2 term, which c != 3 sets apart from Hirota-Satsuma's 2b/3
    initial = {"u": {"kind": "gaussian", "amplitude": 0.5}, "v": {"kind": "gaussian", "amplitude": 0.25, "center": 1.0}}
    system = {"name": "feng", "a": -1.0, "b": 2.0, "c": 1.5, "d": d}
    manifest = run(config_from_dict(simulate_config(system=system, initial=initial)), out_dir=tmp_path)
    assert [c["name"] for c in manifest.checks] == ["infinite_entries", "F_drift"]
    assert manifest.status == "pass"


def test_gear_grimshaw_config_conserves_phi3_and_phi4(shipped_run):
    drift = shipped_run("gear_grimshaw")[0].summary["drift"]
    assert drift["phi3"] < 1e-8 and drift["phi4"] < 1e-8  # c02's bound


# c01's Gear-Grimshaw constants: coupled at third order, alpha+- = 3, -1
GG_C01 = {"name": "gear_grimshaw", "a1": 0.7, "a2": 0.3, "a3": 2.0, "b1": 1.0, "b2": 1.0}


@pytest.mark.parametrize(
    "config, check", [("picard.json", "stepper_linf"), ("convergence.json", "fitted_order")]
)
def test_cross_coupled_study_meets_its_bound(tmp_path, config, check):
    # c06's 1e-6 between the Picard fixed point and the stepper; c03's order window
    d = json.loads((CONFIG_DIR / config).read_text())
    manifest = run(config_from_dict({**d, "system": GG_C01}), out_dir=tmp_path)
    assert manifest.status == "pass"
    assert check in [c["name"] for c in manifest.checks]
