"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function of each loaded ckdv module,
plus the numpy.fft transforms and the scipy integrators they call, at every
module-level name that refers to it, so a call is traced whichever name the
caller resolves (harness and solver import functions by name).  `uninstall`
puts the originals back.

Each thread keeps its own span stack: the kernel suite runs on a thread pool,
and a single shared stack would charge one thread's children to another
thread's span and give negative self times.  A span's self time is its
duration minus the time of the child spans on the same thread.  Every span
carries the id of the benchmark operation that was running when it started.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np
import numpy.fft
import scipy.integrate

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn")
# span record: name id, operation id, thread no, span seq, parent seq, start, end
SPAN_FIELDS = ("name", "op", "thread", "seq", "parent", "start", "end")


class _ThreadState:
    def __init__(self, no: int):
        self.no = no
        self.stack: list = []  # frames [child_time, seq]
        self.seq = 0
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0])  # calls, s, self_s, cpu_s
        self.counters: dict = defaultdict(float)
        self.spans = array("d")


def _simulate_steps(args, kwargs) -> int:
    """IF-RK4 steps simulate() takes for (initial, spec, T, config), as it counts them."""
    T = args[2] if len(args) > 2 else kwargs["T"]
    dt = (args[3] if len(args) > 3 else kwargs["config"]).dt
    n_full = int(np.floor(T / dt + 1e-9))
    return n_full + (1 if T - n_full * dt >= 1e-12 * max(1.0, T) else 0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._thread_no = itertools.count()
        self._patches: list = []
        self.op = 0

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(next(self._thread_no))
            self._local.state = st
            self._states.append(st)
            return st

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, cpu: bool = False, after=None):
        """fn, recording one span per call; after(counters, args, kwargs, result) adds counts."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, st.seq]
            st.seq += 1
            stack.append(frame)
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = st.stats[nid]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if cpu:
                    rec[3] += time.thread_time() - c0
                st.spans.extend((nid, tracer.op, st.no, frame[1], parent, t0, t1))
            if after is not None:
                after(st.counters, args, kwargs, result)
            return result

        return traced

    def _counting_quad(self, quad):
        """scipy quad that counts integrand evaluations into scipy.quad.neval."""
        tracer = self

        def counted(func, *args, **kwargs):
            n = [0]

            def integrand(*a):
                n[0] += 1
                return func(*a)

            try:
                return quad(integrand, *args, **kwargs)
            finally:
                tracer._state().counters["scipy.quad.neval"] += n[0]

        return counted

    # -- installation ------------------------------------------------------

    def _targets(self) -> dict:
        """id(original) -> traced replacement, for everything to be traced."""
        targets = {}
        for mod in self._ckdv_modules():
            short = mod.__name__.removeprefix("ckdv.")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                targets[id(obj)] = (obj, self.wrap(name, obj, **_HOOKS.get(name, {})))
        for fname in FFT_FUNCTIONS:
            fn = getattr(numpy.fft, fname)
            targets[id(fn)] = (fn, self.wrap("numpy.fft", fn, after=_count_fft))
        cs = scipy.integrate.cumulative_simpson
        targets[id(cs)] = (cs, self.wrap("scipy.cumulative_simpson", cs))
        quad = scipy.integrate.quad
        targets[id(quad)] = (quad, self.wrap("scipy.quad", self._counting_quad(quad)))
        return targets

    @staticmethod
    def _ckdv_modules() -> list:
        return [m for n, m in sorted(sys.modules.items()) if (n == "ckdv" or n.startswith("ckdv.")) and m]

    def install(self) -> None:
        targets = self._targets()
        for mod in self._ckdv_modules() + [numpy.fft]:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = targets.get(id(obj))
                if hit is not None:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = hit[1]

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            ns[attr] = obj
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far, flat: <span>.calls, .s, .self_s, .cpu_s and every counter."""
        totals: dict = defaultdict(float)
        for st in list(self._states):
            for nid, rec in list(st.stats.items()):
                for stat, v in zip(("calls", "s", "self_s", "cpu_s"), rec):
                    totals[f"{self.names[nid]}.{stat}"] += v
            for k, v in list(st.counters.items()):
                totals[k] += v
        return dict(totals)

    def span_count(self) -> int:
        return sum(len(st.spans) for st in self._states) // len(SPAN_FIELDS)

    def write(self, stem: Path) -> None:
        """Spans to <stem>.npy (one row per span) and the name table to <stem>.json."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        rows = np.concatenate(
            [np.frombuffer(st.spans, dtype=np.float64) for st in self._states] or [np.zeros(0)]
        ).reshape(-1, len(SPAN_FIELDS))
        np.save(f"{stem}.npy", rows)
        meta = {"fields": list(SPAN_FIELDS), "names": self.names, "spans": len(rows)}
        Path(f"{stem}.json").write_text(json.dumps(meta, indent=1) + "\n")


def _count_fft(counters, args, kwargs, result) -> None:
    counters["numpy.fft.points"] += result.size
    counters["numpy.fft.bytes"] += getattr(args[0], "nbytes", 0) + result.nbytes


def _count_steps(counters, args, kwargs, result) -> None:
    counters["solver.simulate.steps"] += _simulate_steps(args, kwargs)


def _count_sweeps(counters, args, kwargs, result) -> None:
    diffs = result[1].diffs
    counters["solver.picard.sweeps"] += len(diffs)
    counters["solver.picard.useful_sweeps"] += sum(1 for d in diffs if d > 1e-14 * diffs[0])


def _count_trials(counters, args, kwargs, result) -> None:
    counters["bourgain.estimates.bilinear_ratio.trials"] += len(result.ratios)


def _io_bytes(path_index: int):
    def count(counters, args, kwargs, result) -> None:
        counters["io.bytes"] += os.path.getsize(args[path_index])

    return count


_HOOKS = {
    "solver.simulate": {"after": _count_steps},
    "solver.picard_iterate": {"after": _count_sweeps},
    "bourgain.estimates.bilinear_ratio": {"after": _count_trials},
    "bourgain.kernels.kernel_bound_check": {"cpu": True},
    "io.write_csv": {"after": _io_bytes(2)},
    "io.write_snapshot": {"after": _io_bytes(0)},
}
