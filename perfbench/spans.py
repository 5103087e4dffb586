"""In-memory span recorder for the traced benchmark run, and span analysis.

The recorder wraps the public functions of the package's modules from the
outside: every module namespace that holds a binding to a public tvfspec
function gets a wrapper in its place, so calls that resolve the name at call
time (``cli.simulate``, ``evaluate.simulate``, ``model.check_stability`` from
inside ``model``) are all seen.  A span is named after the module that
defines the function (its layer), and records the namespace it was called
through as ``site``.

Spans are plain tuples kept in a list and written out once, when the traced
process ends.  Only the process that installed the recorder records; pool
workers forked from it call straight through, because their memory is lost
when they exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

PACKAGE = "tvfspec"
# Public methods traced in addition to module-level functions.
METHODS = (("cli", "Run", "finish"),)


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _ma_lags(fn, args, kwargs, result):
    return {"lags": int(_bound(fn, args, kwargs)["lags"])}


def _chosen_lags(fn, args, kwargs, result):
    return {"lags": int(result)}


def _sample_size(fn, args, kwargs, result):
    return {"T": int(_bound(fn, args, kwargs)["T"])}


def _periodogram_bytes(fn, args, kwargs, result):
    # N periodogram operators of K x K complex128 entries per call.
    n, k, _ = result.shape
    return {"bytes": n * k * k * 16}


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


# Counters recorded on the span of one function, from its arguments and result.
HOOKS = {
    "model.ma_coefficients": _ma_lags,
    "model.choose_ma_order": _chosen_lags,
    "model.simulate": _sample_size,
    "estimator.local_periodogram_grid": _periodogram_bytes,
    "ingest.write_spectral_grid": _file_bytes,
}


class Recorder:
    """Wraps package functions and keeps their spans in memory.

    A span is ``(id, parent_id, name, site, start, end, attrs)`` with times
    from ``time.monotonic``; ``parent_id`` is None for a top-level span.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._pid = os.getpid()

    def wrap(self, fn, name, site):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            attrs = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    attrs = hook(fn, args, kwargs, result)
                return result
            finally:
                end = time.monotonic()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, site, start, end, attrs)

        return traced

    def install(self, modules):
        """Wrap every public package function bound in any of ``modules``.

        ``modules`` maps a layer name to its module object.
        """
        for site, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith(PACKAGE + "."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                setattr(module, attr, self.wrap(obj, name, site))
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(getattr(cls, method), f"{layer}.{cls_name}.{method}", layer))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": [s for s in self.spans if s is not None]}, fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)["spans"]


def layer_stats(spans):
    """Per-name ``calls``, ``busy_s`` (inclusive) and ``self_s``.

    Busy time counts only spans with no ancestor of the same name, so a
    function that re-enters itself is not counted twice.  Self time is a
    span's duration minus the durations of its direct children; children of
    one span never overlap because the traced process is single-threaded.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, name, site, start, end, attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {}
    for sid, parent, name, site, start, end, attrs in spans:
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        duration = end - start
        entry["self_s"] += duration - child_time.get(sid, 0.0)
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            entry["busy_s"] += duration
    return stats


def attr_values(spans, name, key):
    return [s[6][key] for s in spans if s[2] == name and s[6] and key in s[6]]


def top_level_s(spans):
    return sum(s[5] - s[4] for s in spans if s[1] is None)


def replication_times(spans):
    """Seconds per Monte Carlo replication, keyed by sample size T.

    One replication runs ``simulate``, then ``estimate_grid``, then ``imse``
    under one parent; its span runs from the start of that ``simulate`` to
    the end of the ``imse`` that closes it.
    """
    out = {}
    last_simulate = {}
    for sid, parent, name, site, start, end, attrs in sorted(spans, key=lambda s: s[4]):
        if name == "model.simulate" and attrs:
            last_simulate[parent] = (start, attrs["T"])
        elif name == "evaluate.imse" and parent in last_simulate:
            begin, T = last_simulate.pop(parent)
            out.setdefault(T, []).append(end - begin)
    return out


def median(values, default=0.0):
    return statistics.median(values) if values else default
