"""Spans around the public functions of fracbinom, and the per-layer metrics.

Only public functions are wrapped, and each is replaced at every module
global of the package that binds it (a `from .x import f` binding included),
so internal helpers may be renamed or deleted without touching this file.
A function that no longer exists is skipped.

A span is recorded only when its group differs from the group of the
innermost open span: `ml_one` calling `ml`, or `variance` calling `mean`,
stays one span, and the nested call's time belongs to the outer one.
Spans are kept in flat arrays while the run lasts and written to a file
when it ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from array import array

import numpy as np

# (module, public function) -> group.  Groups are the layers of the report.
GROUPS = {
    ("fracbinom.mittag_leffler", "ml"): "ml",
    ("fracbinom.mittag_leffler", "ml_one"): "ml",
    ("fracbinom.analytics", "pmf"): "pmf",
    ("fracbinom.analytics", "pure_birth_pmf"): "pmf",
    ("fracbinom.analytics", "mean"): "moments",
    ("fracbinom.analytics", "variance"): "moments",
    ("fracbinom.analytics", "second_factorial_moment"): "moments",
    ("fracbinom.analytics", "extinction_probability"): "extinction",
    ("fracbinom.sampler", "ensemble"): "ensemble",
    ("fracbinom.sampler", "fractional_values_at"): "marginal",
    ("fracbinom.sampler", "fractional_value_at"): "marginal",
    ("fracbinom.sampler", "inverse_subordinator_sample"): "subordinator",
    ("fracbinom.sampler", "stable_subordinator_unit"): "subordinator",
    ("fracbinom.sampler", "fractional_path"): "path",
    ("fracbinom.sampler", "classical_path"): "path",
}
GROUP_NAMES = sorted(set(GROUPS.values()))

# Argument bands of the Mittag-Leffler evaluator, in u = |z|**(1/alpha), at
# the bounds its module documents.  They label arguments, not code paths.
ML_BINS = ("alpha1", "series", "contour", "asymptotic")
_LOG_SERIES_MAX_U = math.log(4.0)
_LOG_ASYMP_MIN_U = math.log(36.0)


def _ml_bin(alpha, x):
    if alpha == 1.0:
        return 0
    if x == 0.0:
        return 1
    log_u = math.log(x) / alpha
    if log_u <= _LOG_SERIES_MAX_U:
        return 1
    if log_u >= _LOG_ASYMP_MIN_U:
        return 3
    return 2


class Tracer:
    """Records spans while `active`; `op` tags each span with the op id.

    The span buffers are allocated whole, before the timed phase, and grow
    only if a run outlasts them.  glibc raises its trim threshold when a large
    mapped block is freed, after which it stops handing freed heap back to the
    system; buffers that grow by appending free such blocks and made traced
    pmf_scan ops 25-40% faster than untraced ones, whose numpy temporaries
    are paged in again and again.  Sequence repetition allocates each buffer
    once and frees nothing.
    """

    def __init__(self, capacity=1 << 20):
        self.active = False
        self.op = -1
        self.n = 0
        self.group = array("b", [0]) * capacity
        self.start = array("d", [0.0]) * capacity
        self.end = array("d", [0.0]) * capacity
        self.parent = array("i", [0]) * capacity
        self.op_id = array("i", [0]) * capacity
        self.count = array("q", [0]) * capacity
        self.failed = array("b", [0]) * capacity
        self.ml_bins = [0, 0, 0, 0]
        self._open = []  # (span index, group id) of the open spans

    def _buffers(self):
        return (self.group, self.start, self.end, self.parent, self.op_id, self.count, self.failed)

    def _grow(self):
        for buf in self._buffers():
            buf.extend(array(buf.typecode, [0]) * len(buf))

    def install(self):
        """Wrap every public function of GROUPS at each global binding it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fracbinom" or name.startswith("fracbinom."))
        ]
        for (mod_name, fn_name), group in GROUPS.items():
            home = sys.modules.get(mod_name)
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, GROUP_NAMES.index(group), fn_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, fn, gid, fn_name):
        counter = self._counter(fn, fn_name)
        tracer = self
        group, start, end, parent = self.group, self.start, self.end, self.parent
        op_id, count, failed, open_ = self.op_id, self.count, self.failed, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (open_ and open_[-1][1] == gid):
                return fn(*args, **kwargs)
            index = tracer.n
            if index == len(start):
                tracer._grow()
            tracer.n = index + 1
            group[index] = gid
            parent[index] = open_[-1][0] if open_ else -1
            op_id[index] = tracer.op
            open_.append((index, gid))
            start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[index] = clock()
                failed[index] = 1
                open_.pop()
                raise
            end[index] = clock()
            open_.pop()
            if counter is not None:
                count[index] = counter(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, fn_name):
        """Work count of one call: scalar evaluations, draws or jumps."""
        if fn_name in ("ml", "ml_one"):
            names = list(inspect.signature(fn).parameters)
            a_pos, z_pos = names.index("alpha"), names.index("z")
            bins = self.ml_bins

            def ml_count(args, kwargs, result):
                alpha = args[a_pos] if len(args) > a_pos else kwargs["alpha"]
                z = args[z_pos] if len(args) > z_pos else kwargs["z"]
                if isinstance(z, (float, int)) and isinstance(alpha, (float, int)):
                    bins[_ml_bin(float(alpha), abs(float(z)))] += 1
                    return 1
                a_arr, z_arr = np.broadcast_arrays(
                    np.asarray(alpha, dtype=float), np.asarray(z, dtype=float)
                )
                for a, x in zip(a_arr.ravel(), np.abs(z_arr).ravel()):
                    bins[_ml_bin(float(a), float(x))] += 1
                return z_arr.size

            return ml_count
        if fn_name == "ensemble":
            return lambda args, kwargs, result: result.n_paths * len(result.t_grid)
        if fn_name in ("fractional_path", "classical_path"):
            return lambda args, kwargs, result: len(result.times) - 1
        return None

    def arrays(self):
        names = ("group", "start", "end", "parent", "op", "count", "failed")
        return {name: np.array(buf[: self.n]) for name, buf in zip(names, self._buffers())}

    def write(self, path):
        """Write the spans (and the group names) as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, groups=np.array(GROUP_NAMES), **self.arrays())


def _inside(spans, outer, inner):
    """Per span of group `outer`: time covered by its descendants of group `inner`."""
    group, parent = spans["group"], spans["parent"]
    dur = spans["end"] - spans["start"]
    covered = np.zeros(len(group))
    idx = np.flatnonzero(group == inner)
    anc = parent[idx]
    while len(idx):
        keep = anc >= 0
        idx, anc = idx[keep], anc[keep]
        np.add.at(covered, anc, dur[idx])
        anc = parent[anc]
    return covered[group == outer]


def layer_metrics(tracer, ops):
    """Per-layer metrics of one traced run of `ops` ops, as name -> (value, unit).

    Times and counts are per op attempted, so runs that complete different
    numbers of rounds compare directly.
    """
    spans = tracer.arrays()
    gid = {name: GROUP_NAMES.index(name) for name in GROUP_NAMES}
    g = {name: spans["group"] == gid[name] for name in GROUP_NAMES}
    dur = spans["end"] - spans["start"]
    ok = spans["failed"] == 0

    def busy(name):
        return float(dur[g[name]].sum())

    def work(name):
        return int(spans["count"][g[name]].sum())

    def own(name):
        """Time in `name` spans minus the Mittag-Leffler time inside them."""
        return busy(name) - float(_inside(spans, gid[name], gid["ml"]).sum())

    def median_ms(mask):
        return float(np.median(dur[mask]) * 1e3) if mask.any() else 0.0

    # cold pmf: the first pmf span of each op (one parameter set per op)
    pmf_idx = np.flatnonzero(g["pmf"])
    _, first = np.unique(spans["op"][pmf_idx], return_index=True)
    cold = np.zeros(len(dur), dtype=bool)
    cold[pmf_idx[first]] = True
    warm = g["pmf"] & ~cold

    evals, draws = work("ml"), work("ensemble")
    metrics = {
        "mittag_leffler.calls": (int(g["ml"].sum()) / ops, "count/op"),
        "mittag_leffler.evals": (evals / ops, "count/op"),
        "mittag_leffler.busy_s": (busy("ml") / ops, "s/op"),
        "mittag_leffler.us_per_eval": (busy("ml") / evals * 1e6 if evals else 0.0, "us"),
    }
    for name, n in zip(ML_BINS, tracer.ml_bins):
        metrics[f"mittag_leffler.evals.{name}"] = (n / ops, "count/op")
    metrics.update({
        "analytics.pmf.calls": (int(g["pmf"].sum()) / ops, "count/op"),
        "analytics.pmf.failed": (int((g["pmf"] & ~ok).sum()) / ops, "count/op"),
        "analytics.pmf.cold_ms": (median_ms(cold & ok), "ms"),
        "analytics.pmf.warm_ms": (median_ms(warm & ok), "ms"),
        "analytics.pmf.self_s": (own("pmf") / ops, "s/op"),
        "analytics.moments.busy_s": (busy("moments") / ops, "s/op"),
        "analytics.extinction.busy_s": (busy("extinction") / ops, "s/op"),
        "analytics.extinction.self_s": (own("extinction") / ops, "s/op"),
        "sampler.ensemble.busy_s": (busy("ensemble") / ops, "s/op"),
        "sampler.marginal_draws": (draws / ops, "count/op"),
        "sampler.draws_per_s": (draws / busy("ensemble") if draws else 0.0, "1/s"),
        "sampler.subordinator.busy_s": (busy("subordinator") / ops, "s/op"),
        "sampler.fractional_path.busy_s": (busy("path") / ops, "s/op"),
        "sampler.path_jumps": (work("path") / ops, "count/op"),
    })
    return metrics
