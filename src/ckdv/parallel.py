"""ordered_map: an order-keeping map on one forked worker per usable CPU, for the
quadratures whose Python integrands hold the interpreter lock, so threads cannot overlap them."""

import os
import sys
import warnings

_job = None  # in a worker: the (fn, items) of the map it serves


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _start(fn, items) -> None:  # the worker initializer; a fork-context pool hands it fn and items unpickled
    global _job
    _job = fn, items


def _task(i: int):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = _job[0](_job[1][i]), None
        except Exception as e:  # re-raised in the parent, in task order
            out = None, e
    return *out, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], on min(len(items), usable_cpus()) forked workers, or inline at width 1.

    Only indices and results are pickled, so fn may be a closure.  The parent re-emits each
    task's warnings, as from the module that warned, and re-raises its exception, in task order.
    The workers inherit only the modules the parent has imported, so import what fn needs before
    the call; a module first imported inside fn is imported again by every worker."""
    items = list(items)
    width = min(len(items), usable_cpus())
    if width <= 1:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    out, fork = [], multiprocessing.get_context("fork")
    with ProcessPoolExecutor(width, fork, initializer=_start, initargs=(fn, items)) as pool:
        for value, error, caught in pool.map(_task, range(len(items))):  # a raise cancels the rest
            for message, category, path, line in caught:
                mod = next((m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == path), None)
                warnings.warn_explicit(message, category, path, line, mod and mod.__name__,
                                       mod and vars(mod).setdefault("__warningregistry__", {}))
            if error is not None:
                raise error
            out.append(value)
    return out
