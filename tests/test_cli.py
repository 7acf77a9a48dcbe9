"""Exit codes and output of the console entry point, driven through main()."""

import dataclasses
import json
import re

import numpy as np
import pytest

from ckdv import (
    ConfigError,
    HirotaSatsuma,
    State,
    cli,
    field_from_callable,
    harness,
    read_snapshot,
    record_for,
    write_snapshot,
)
from ckdv.bourgain import kernel_bound_check, nonequivalence_demo
from ckdv.cli import build_parser, main
from ckdv.diagnostics import COLUMNS
from ckdv.grid import Grid
from ckdv.io import format_value


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def simulate_payload(**over):
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


def unsampled_payload(kind, **over):
    """simulate_payload for a dynamics kind that takes no sample_dt."""
    d = simulate_payload(kind=kind, **over)
    del d["sample_dt"]
    return d


def assert_rejected(tmp_path, capsys, command, payload, word):
    """The config exits 2 with `word` in the message and writes no output."""
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["simulate"]) == 2  # kind needs --config
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["simulate", "--config", write_config(tmp_path, simulate_payload(initial={"u": 3}))]) == 2
    diag = write_config(tmp_path, diagnose_payload(snapshot_file(tmp_path)), name="diag.json")
    assert main(["diagnose", "--config", diag, "--out", str(tmp_path / "d")]) == 0
    assert main(["diagnose", "--config", diag, "--seed", "1"]) == 2  # diagnose draws nothing at random
    capsys.readouterr()


def test_bad_value_exits_2_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_payload(initial={"u": {"kind": "gaussian", "width": 0}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "width" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, payload, word",
    [
        ("bourgain", {"kind": "bourgain_suite", "params": {"n_x": 100}}, "power of two"),
        ("noneq", {"kind": "nonequivalence", "params": {"b": 0.4}}, "b > 1/2"),
    ],
)
def test_library_precondition_exits_2_before_any_output(tmp_path, capsys, command, payload, word):
    assert_rejected(tmp_path, capsys, command, payload, word)


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("picard", unsampled_payload("picard_study", params={"n_iters": 1}), "n_iters"),
        ("bourgain", {"kind": "bourgain_suite", "params": {"n_fields": 1}}, "n_fields"),
        ("kernels", {"kind": "kernel_suite", "params": {"kernels": ["level_set", "level_set"]}}, "kernels"),
    ],
)
def test_config_whose_check_would_test_nothing_exits_2(tmp_path, capsys, command, payload, key):
    # one sweep fits a ratio of 0, one field has a spread of 0, a repeated kernel runs twice;
    # the library's checks name n_iters and n_fields bare, the parser's converters quote the key
    word = f"'{key}' must be" if key == "kernels" else f"{key} must be at least 2"
    assert_rejected(tmp_path, capsys, command, payload, word)


_RUNAWAY_SPACETIME = f"the budget is {harness.MAX_SNAPSHOT_BYTES} bytes and {harness.MAX_POINTS:.3g} points"
_N_2_18 = {"grid": {"n": 2**18, "period": 8.0 * np.pi}, "stepper": {"dt": 1e-4}}


# each kind with a work budget, asked for runaway work: steps, samples, bytes or points
@pytest.mark.parametrize(
    "command, payload, word",
    [
        ("simulate", simulate_payload(horizon=1e9, sample_dt=1e-4), "budget"),
        ("lipschitz", simulate_payload(kind="lipschitz_probe", horizon=1e6), "budget"),
        ("scaling", simulate_payload(kind="scaling_probe", horizon=1e6), "budget"),
        ("picard", unsampled_payload("picard_study", params={"n_iters": 10**6}), "budget"),
        ("convergence", unsampled_payload("convergence_study", horizon=1e6, params={"dt_values": [1e-2, 2e-2]}),
         "budget"),
        ("bourgain", {"kind": "bourgain_suite", "params": {"n_x": 2**14, "n_t": 2**14}}, _RUNAWAY_SPACETIME),
        ("bourgain", {"kind": "bourgain_suite", "params": {"n_fields": 10**9}}, _RUNAWAY_SPACETIME),
        ("bourgain", {"kind": "bourgain_suite", "params": {"n_embed_fields": 10**9}}, _RUNAWAY_SPACETIME),
        # IF-RK4 steps at n = 2^18, about 0.1 s each: 9e6 steps, and 1e5, which a charge blind to n admits
        ("simulate", simulate_payload(**_N_2_18, horizon=900.0, sample_dt=900.0), "budget"),
        ("simulate", simulate_payload(**_N_2_18, horizon=10.0, sample_dt=10.0), "budget"),
        ("noneq", {"kind": "nonequivalence", "params": {"radii": list(range(1, 10**4 + 1))}}, "budget"),
    ],
)
def test_runaway_work_exits_2_before_the_runner(tmp_path, capsys, monkeypatch, command, payload, word):
    def never(cfg, emit):
        raise AssertionError("the runner of a runaway config was called")

    kind = payload["kind"]
    monkeypatch.setitem(harness.KINDS, kind, dataclasses.replace(harness.KINDS[kind], runner=never))
    assert_rejected(tmp_path, capsys, command, payload, word)


@pytest.mark.parametrize("key", ["apply_cutoffs", "compare_stepper"])
def test_removed_picard_keys_exit_2(tmp_path, capsys, key):
    assert_rejected(tmp_path, capsys, "picard", unsampled_payload("picard_study", params={key: True}), key)


def test_removed_dealias_fraction_key_exits_2(tmp_path, capsys):
    # every grid keeps |k| <= n/3, so the key is unknown even at its old default
    grid = {"n": 64, "period": 8.0 * np.pi, "dealias_fraction": 2.0 / 3.0}
    word = "unknown key(s) in grid: dealias_fraction"
    assert_rejected(tmp_path, capsys, "simulate", simulate_payload(grid=grid), word)


# each key that a kind accepted without reading it, and the reference step rule
@pytest.mark.parametrize(
    "command, payload, word",
    [
        *[(cmd, {"kind": kind, "horizon": 1.0}, "horizon")
          for cmd, kind in (("bourgain", "bourgain_suite"), ("kernels", "kernel_suite"), ("noneq", "nonequivalence"))],
        *[(cmd, {"kind": kind, "sample_dt": 0.05}, "sample_dt")
          for cmd, kind in (("bourgain", "bourgain_suite"), ("kernels", "kernel_suite"), ("noneq", "nonequivalence"))],
        ("picard", simulate_payload(kind="picard_study"), "sample_dt"),
        ("convergence", simulate_payload(kind="convergence_study", params={"dt_values": [1e-2, 2e-2]}), "sample_dt"),
        ("kernels", {"kind": "kernel_suite", "seed": 0}, "seed"),
        ("noneq", {"kind": "nonequivalence", "seed": 0}, "seed"),
        ("convergence",
         unsampled_payload("convergence_study", params={"dt_values": [1e-2, 2e-2], "reference_dt": 1e-3}),
         "reference_dt"),
        ("convergence", unsampled_payload("convergence_study", params={"dt_values": [2e-3, 1e-2]}), "stepper.dt"),
    ],
)
def test_unread_keys_exit_2(tmp_path, capsys, command, payload, word):
    assert_rejected(tmp_path, capsys, command, payload, word)


# a11 = a22 with a12*a21 < 0 gives a complex pair; a21 = 0 with a12 != 0 a Jordan block
@pytest.mark.parametrize("a21, problem", [(-1.0, "has complex eigenvalues"), (0.0, "is defective")])
def test_dispersion_without_eigenbasis_exits_2(tmp_path, capsys, a21, problem):
    system = {"name": "general_coupled", "a11": 1.0, "a12": 1.0, "a21": a21, "a22": 1.0,
              **{f"b{i}": 0.0 for i in range(1, 7)}}
    word = f"system 'general_coupled': dispersion matrix {problem}"
    assert_rejected(tmp_path, capsys, "simulate", simulate_payload(system=system), word)


# subcommand -> (kind, takes --seed, needs --config)
SUBCOMMANDS = {
    "simulate": ("simulate", True, True),
    "lipschitz": ("lipschitz_probe", True, True),
    "scaling": ("scaling_probe", True, True),
    "picard": ("picard_study", True, True),
    "convergence": ("convergence_study", True, True),
    "bourgain": ("bourgain_suite", True, False),
    "kernels": ("kernel_suite", False, False),
    "noneq": ("nonequivalence", False, False),
    "diagnose": ("diagnose", False, False),
}


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    listed = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(listed) == sorted(SUBCOMMANDS)


def test_seed_flag_only_where_a_seed_is_read(capsys):
    parser = build_parser()
    for command, (_, takes_seed, _) in SUBCOMMANDS.items():
        if takes_seed:
            assert parser.parse_args([command, "--seed", "1"]).seed == 1
        else:
            assert main([command, "--seed", "1"]) == 2
            assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_kind_and_config(monkeypatch, capsys, command):
    kind, _, needs_config = SUBCOMMANDS[command]
    assert build_parser().parse_args([command]).kind == kind
    # stop at the parse: the config a run without --config starts from
    seen = []

    def stop(d):
        seen.append(d)
        raise ConfigError("stopped")

    monkeypatch.setattr(cli, "config_from_dict", stop)
    assert main([command]) == 2
    err = capsys.readouterr().err
    if needs_config:
        assert err == f"ckdv: subcommand for kind '{kind}' requires --config\n" and seen == []
    else:
        assert seen == [{"kind": kind}]


def test_kind_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_payload())
    assert main(["picard", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "does not match" in err


def test_simulate_pass_and_quiet(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_payload())
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "status: pass" in text
    assert "check infinite_entries: 0 == 0 ok" in text.splitlines()
    assert "manifest.json" in text
    assert (out / "manifest.json").exists()

    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_simulate_blowup_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        simulate_payload(
            initial={"u": {"kind": "gaussian", "amplitude": 80.0}},
            stepper={"dt": 5e-2},
            horizon=1.0,
        ),
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    payload = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert payload["status"] == "error"
    capsys.readouterr()


def test_seed_override_lands_in_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, simulate_payload(initial={"u": {"kind": "random_band", "band": 3.0}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "9", "--quiet"]) == 0
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["seed"] == 9
    assert payload["config"]["seed"] == 9
    capsys.readouterr()

    assert main(["simulate", "--config", cfg, "--seed", "-3"]) == 2
    capsys.readouterr()


def test_out_of_range_seed_exits_2_before_any_output(tmp_path, capsys):
    # the config's own seed check owns the range: the flag is parsed as a plain int
    cfg = write_config(tmp_path, simulate_payload())
    out = tmp_path / "o"
    for seed in ("-1", str(2**64)):
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", seed]) == 2
        assert "'seed' must be an integer in [0, 2**64)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def test_kernels_restricted_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "kernel_suite", "params": {"kernels": ["peak_pair"]}})
    out = tmp_path / "o"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
    assert "status: pass" in capsys.readouterr().out
    payload = json.loads((out / "manifest.json").read_text())
    assert payload["seed"] is None  # a kernel suite draws nothing at random
    assert payload["summary"]["kernels"] == 1
    _, report = kernel_bound_check("peak_pair")
    assert payload["summary"]["neval"] == {"peak_pair": report.neval}
    head, row = (out / "kernels.csv").read_text().splitlines()
    assert head == "kernel,max_value,max_refined,rel_change,stable,argmax"
    assert row.split(",")[-1] == ";".join(format_value(v) for v in report.argmax)


def test_failed_check_is_printed_and_exits_1(tmp_path, capsys, monkeypatch):
    check = harness.kernel_bound_check

    def at_bound(kernel_id):
        peak, rep = check(kernel_id)
        return peak, dataclasses.replace(rep, rel_change=0.05)

    monkeypatch.setattr(harness, "kernel_bound_check", at_bound)
    cfg = write_config(tmp_path, {"kind": "kernel_suite", "params": {"kernels": ["peak_pair"]}})
    assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "status: fail" in lines
    assert "check max_rel_change: 0.05 < 0.05 FAILED" in lines


def test_noneq_quick_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "kind": "nonequivalence",
            "params": {"a0": 1.0, "a1": -1.0, "s": 0.0, "b": 3.0,
                       "radii": [8.0, 16.0, 32.0, 64.0]},
        },
    )
    assert main(["noneq", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert payload["summary"]["stabilized"] is True
    tab = nonequivalence_demo(1.0, -1.0, 0.0, 3.0, [8.0, 16.0, 32.0, 64.0])
    assert payload["summary"]["neval"] == tab.neval > 0
    capsys.readouterr()


def snapshot_file(tmp_path):
    g = Grid(64, 8.0 * np.pi)
    st = State(
        field_from_callable(lambda x: np.exp(-(x**2)), g),
        field_from_callable(lambda x: 0.5 * np.cos(x), g),
        t=0.25,
    )
    path = tmp_path / "state.ckdv"
    write_snapshot(path, st)
    return str(path)


def diagnose_payload(snapshot, system=None, **params):
    return {"kind": "diagnose", "system": system or {"name": "hirota_satsuma", "a": -0.5, "b": 1.0},
            "snapshot": snapshot, "params": params}


def test_diagnose_happy_path(tmp_path, capsys, strict_json):
    snap = snapshot_file(tmp_path)
    cfg = write_config(tmp_path, diagnose_payload(snap, s=1.0), name="diag.json")
    out = tmp_path / "d"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the row of the stored fields, not dealiased
    row = record_for(read_snapshot(snap), HirotaSatsuma(-0.5, 1.0), 1.0)
    assert (out / "diagnostics.csv").read_text().splitlines() == [
        ",".join(COLUMNS), ",".join(format_value(v) for v in row)
    ]
    assert lines == [
        "status: pass", *(f"{c}: {v}" for c, v in zip(COLUMNS, row.tolist())), "infinite_entries: 0",
        "check infinite_entries: 0 == 0 ok", f"manifest: {out / 'manifest.json'}",
    ]
    payload = strict_json(out / "manifest.json")  # HS leaves phi1-phi4 NaN, written as "nan"
    assert payload["kind"] == "diagnose" and payload["files"] == ["diagnostics.csv"]
    assert payload["summary"]["t"] == 0.25 and payload["summary"]["phi1"] == "nan"
    assert [c["name"] for c in payload["checks"]] == ["infinite_entries"]


def test_diagnose_infinite_functional_exits_1(tmp_path, capsys, strict_json):
    g = Grid(64, 8.0 * np.pi)
    path = tmp_path / "huge.ckdv"
    write_snapshot(path, State(field_from_callable(lambda x: 1e200 * np.exp(-(x**2)), g),
                               field_from_callable(lambda x: np.exp(-(x**2)), g)))
    system = {"name": "gear_grimshaw", "a1": 0.0, "a2": 0.0, "a3": 0.0, "b1": 1.0, "b2": 1.0}
    cfg = write_config(tmp_path, diagnose_payload(str(path), system), name="diag.json")
    out = tmp_path / "d"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "status: fail" in lines and "phi3: inf" in lines  # phi3 = int(b2 u^2 + b1 v^2) dx overflows
    check = strict_json(out / "manifest.json")["checks"][0]
    assert check["name"] == "infinite_entries" and check["value"] > 0 and not check["passed"]
    assert "inf" in (out / "diagnostics.csv").read_text().splitlines()[1].split(",")


def test_diagnose_rejections(tmp_path, capsys):
    snap = snapshot_file(tmp_path)
    feng = {"name": "feng", "a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}
    stub = tmp_path / "stub.ckdv"
    stub.write_bytes(b"CKDV\x01\x00")  # shorter than the snapshot header
    for name, payload, word in [
        ("extra", dict(diagnose_payload(snap, feng), extra=1), "unknown key(s) in diagnose config: extra"),
        ("top_s", dict(diagnose_payload(snap, feng), s=1.0), "unknown key(s) in diagnose config: s"),
        ("bad_s", diagnose_payload(snap, feng, s="abc"), "'s' must be a finite number"),
        ("missing", diagnose_payload(str(tmp_path / "nope.ckdv"), feng), "'snapshot' [Errno 2] No such file"),
        ("truncated", diagnose_payload(str(stub), feng), "length 6, shorter than the 28-byte header"),
    ]:
        out = tmp_path / name
        assert main(["diagnose", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert word in capsys.readouterr().err, name
        assert not out.exists()
