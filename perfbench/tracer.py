"""Span recorder that wraps ngcorr's public functions from the outside.

ngcorr modules bind imported names at import time (``from .fock import
distance``), so a wrapper is installed under every name in every ngcorr
module that holds the original function.  The numpy.linalg kernels are
looked up as ``np.linalg.<name>`` at call time and are wrapped on the
numpy.linalg module itself.

Each span records its name, start, end, parent span and thread.  Spans stay
in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

#: (module, function) pairs timed as layers; metric names drop "ngcorr.".
LAYERS = (
    ("ngcorr.states", "make_state"),
    ("ngcorr.channels", "apply_loss"),
    ("ngcorr.channels", "ecs_loss_analytic"),
    ("ngcorr.gaussian", "moments_from_fock"),
    ("ngcorr.gaussian", "reference_gaussian_fock"),
    ("ngcorr.gaussian", "gaussian_mi"),
    ("ngcorr.gaussian", "gaussian_log_negativity"),
    ("ngcorr.measures", "reference_state"),
    ("ngcorr.measures", "mutual_information"),
    ("ngcorr.measures", "delta_ng"),
    ("ngcorr.measures", "ng_correlation"),
    ("ngcorr.fock", "truncate_state"),
    ("ngcorr.fock", "partial_trace"),
    ("ngcorr.fock", "distance"),
    ("ngcorr.fock", "fidelity"),
    ("ngcorr.entanglement", "eof_two_qubit"),
    ("ngcorr.xstate", "ecs_to_xstate"),
    ("ngcorr.figures", "run_figure"),
    ("ngcorr.cli", "write_csv"),
)

#: Dense eigensolves and SVDs, the kernel layer under every measure.
KERNELS = ("eigh", "eigvalsh", "eigvals", "svd")

#: lru_cache'd functions whose sizes are read at the end of a run.
CACHES = (("ngcorr.channels", "loss_kraus"), ("ngcorr.fock", "quadrature_ops"))


def layer_names():
    return [m.removeprefix("ngcorr.") + "." + f for m, f in LAYERS] + [
        "numpy.linalg." + k for k in KERNELS
    ]


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name in layer_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units["numpy.linalg.n3_g"] = "Gn3"
    units["numpy.linalg.complex_calls"] = "count"
    for m, f in CACHES:
        units[m.removeprefix("ngcorr.") + "." + f + ".cache_entries"] = "count"
    return units


def _kernel_work(name, a):
    """n^3 of the operand (m n min(m, n) for an SVD), times any batch size."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 0, False
    m, n = shape[-2], shape[-1]
    batch = 1
    for s in shape[:-2]:
        batch *= s
    work = m * n * min(m, n) if name == "svd" else n**3
    return batch * work, a.dtype.kind == "c"


class Recorder:
    """Holds the spans of one process; install() wraps, spans() reads them."""

    def __init__(self):
        self._spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, name, fn, kernel=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "thread": threading.get_ident()}
                if kernel:
                    span["n3"], span["complex"] = _kernel_work(name, args[0])
                self._spans.append(span)

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ngcorr" or n.startswith("ngcorr."))]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(mod_name.removeprefix("ngcorr.") + "." + fn_name,
                                 original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        import numpy.linalg as la

        for k in KERNELS:
            setattr(la, k, self._wrap("numpy.linalg." + k, getattr(la, k), kernel=True))

    def spans(self):
        return list(self._spans)


def aggregate(spans):
    """Per-layer calls and self times, plus the kernel operation counts.

    A span's self time is its duration minus the durations of its child
    spans; children share the parent's thread and run one after another.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for name in layer_names():
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
    n3 = 0
    complex_calls = 0
    for s in spans:
        out[s["name"] + ".calls"] += 1
        out[s["name"] + ".self_s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        if "n3" in s:
            n3 += s["n3"]
            complex_calls += s["complex"]
    out["numpy.linalg.n3_g"] = n3 * 1e-9
    out["numpy.linalg.complex_calls"] = complex_calls
    return out


def cache_entries():
    """Current sizes of the lru_caches in CACHES, read through cache_info()."""
    return {m.removeprefix("ngcorr.") + "." + f + ".cache_entries":
            getattr(sys.modules[m], f).cache_info().currsize for m, f in CACHES}


def write_jsonl(spans, path):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
