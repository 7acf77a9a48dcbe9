"""ordered_map: the inline map's results, warnings and errors, from forked workers that all exit."""

import json
import multiprocessing
import os
import warnings
from pathlib import Path

import pytest
from scipy.integrate import IntegrationWarning

from ckdv import config_from_dict, load_config, run
from ckdv import harness
from ckdv.bourgain import HypothesisViolation, estimates, kernel_bound_check, nonequivalence_demo
from ckdv.parallel import ordered_map

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KERNEL_IDS = ["peak_pair", "level_set", "mixed_region_b2"]


def cpus(monkeypatch, n):
    """Make ordered_map see n usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def two_cpus(monkeypatch):
    cpus(monkeypatch, 2)


@pytest.fixture(autouse=True)
def no_process_left_behind():
    yield
    assert multiprocessing.active_children() == []


def warn_task(x):
    warnings.warn(f"task {x}", IntegrationWarning)
    return x


def warn_same(x):
    warnings.warn("the same warning", IntegrationWarning)
    return x


def raise_at_2(x):
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x


def test_closures_map_in_order_on_workers(two_cpus):
    # a lambda cannot be pickled: only indices go to the workers
    out = ordered_map(lambda x: (x * x, os.getpid()), range(7))
    assert [v for v, _ in out] == [x * x for x in range(7)]
    assert os.getpid() not in {pid for _, pid in out}
    assert ordered_map(abs, []) == []


def test_import_loads_no_process_machinery(fresh_python):
    # the helper imports it on first use, so a run that forks nothing pays nothing for it
    code = "import sys, ckdv; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    assert fresh_python(code) == "[]"


@pytest.mark.parametrize("cfg", [
    {"kind": "kernel_suite", "params": {"kernels": KERNEL_IDS[:2]}},
    {"kind": "nonequivalence", "params": {"radii": [4.0, 8.0]}},
], ids=["kernel_suite", "nonequivalence"])
def test_fan_out_callers_fork_with_the_quadrature_loaded(fresh_python, cfg):
    # forked workers inherit the parent's modules: a caller that reached ordered_map
    # before importing scipy.integrate would have every worker import it again
    code = f"""
import sys, tempfile
from ckdv import config_from_dict, harness, run
from ckdv.bourgain import estimates

loaded = []
def spy(fn, items):
    loaded.append("scipy.integrate" in sys.modules)
    return [fn(x) for x in items]
harness.ordered_map = estimates.ordered_map = spy
assert run(config_from_dict({cfg!r}), out_dir=tempfile.mkdtemp()).status != "error"
print(loaded)
"""
    assert fresh_python(code) == "[True]"


@pytest.mark.parametrize("n_cpus, n_items", [(1, 4), (2, 1)])
def test_width_one_maps_inline(monkeypatch, n_cpus, n_items):
    cpus(monkeypatch, n_cpus)
    assert ordered_map(lambda x: os.getpid(), range(n_items)) == [os.getpid()] * n_items


def test_worker_warnings_reach_the_parent_filters_in_task_order(two_cpus):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ordered_map(warn_task, range(4)) == [0, 1, 2, 3]
    assert [str(w.message) for w in caught] == ["task 0", "task 1", "task 2", "task 3"]
    assert {(w.category, w.filename) for w in caught} == {(IntegrationWarning, __file__)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        with pytest.raises(IntegrationWarning, match="^task 0$"):
            ordered_map(warn_task, range(4))


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_default_filter_shows_a_repeated_warning_once(monkeypatch, n_cpus):
    # re-emitted against the warning module's registry, as the inline map warns
    cpus(monkeypatch, n_cpus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        ordered_map(warn_same, range(4))
    assert [str(w.message) for w in caught] == ["the same warning"]


def test_worker_exception_reraises_with_its_type_and_message(two_cpus):
    with pytest.raises(ValueError, match="^bad item 2$"):
        ordered_map(raise_at_2, range(5))


def test_kernel_suite_equals_the_serial_map(monkeypatch, tmp_path):
    serial = [kernel_bound_check(k)[1] for k in KERNEL_IDS]
    seen = []

    def spy(fn, items):
        seen.extend(ordered_map(fn, items))
        return seen

    monkeypatch.setattr(harness, "ordered_map", spy)
    cfg = config_from_dict({"kind": "kernel_suite", "params": {"kernels": KERNEL_IDS}})
    for n in (1, 2):
        cpus(monkeypatch, n)
        seen.clear()
        assert run(cfg, out_dir=tmp_path / str(n)).status == "pass"
        # values, argmax, neval and every other field of each report
        assert [rep for _, rep in seen] == serial
    for name in ("kernels.csv", "manifest.json"):
        one, two = ((tmp_path / str(n) / name).read_text() for n in (1, 2))
        if name == "manifest.json":
            one, two = ({**json.loads(t), "wall_time_s": 0, "env": 0} for t in (one, two))
        assert one == two


def test_nonequivalence_ladder_equals_the_inline_map(two_cpus, monkeypatch):
    p = load_config(CONFIG_DIR / "nonequivalence.json").params
    args = (p["a0"], p["a1"], p["s"], p["b"], p["radii"])
    forked = nonequivalence_demo(*args)
    monkeypatch.setattr(estimates, "ordered_map", lambda fn, items: [fn(x) for x in items])
    # norms, growth exponent, final_rel_change and neval, bit for bit
    assert nonequivalence_demo(*args) == forked


def test_a_raising_kernel_writes_the_serial_error(monkeypatch, tmp_path):
    def broken(kid):
        if kid == "level_set":
            raise HypothesisViolation("hypothesis failed: patched")
        return kernel_bound_check(kid)

    monkeypatch.setattr(harness, "kernel_bound_check", broken)
    cfg = config_from_dict({"kind": "kernel_suite", "params": {"kernels": KERNEL_IDS}})
    for n in (1, 2):
        cpus(monkeypatch, n)
        manifest = run(cfg, out_dir=tmp_path / str(n))
        assert (manifest.status, manifest.error) == ("error", "HypothesisViolation: hypothesis failed: patched")
        assert multiprocessing.active_children() == []
