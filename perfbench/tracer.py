"""Span tracing of the ternrc layers, installed from outside the package.

Each layer function is wrapped at its lookup site: the module namespace its
caller resolves the name from (``ternrc.harness.readout_batch``, not
``ternrc.readout.readout_batch``, because the harness imported it by name).
A wrapper records the call count and the span's self time (its duration
minus the time covered by nested spans), plus optional work counters
computed from the call's arguments and result. Spans are kept in memory as
per-layer sums; nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter


class TraceError(RuntimeError):
    """A wrapped name is missing or an exercised layer recorded no calls."""


def sweeps(mask) -> int:
    """Detector sweeps one measurement of ``mask`` costs on the hardware: a
    Boolean mask is one plane, a ternary mask is two planes measured in
    sequence."""
    return 1 if mask.mode == "boolean" else 2


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> dict:
    ba = _signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_forward(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    sub, n = a["substrate"], len(a["batch"])
    counts["substrate.forward_batch.patterns"] += n
    # complex K x D transmission applied to a real D-vector: 4 flops per entry
    counts["substrate.forward_batch.gflop_computed"] += 4.0 * n * sub.n_nodes * sub.n_inputs / 1e9


def _count_drift(counts, fn, args, kwargs, result):
    counts["substrate.advance_drift.steps"] += _bound(fn, args, kwargs)["steps"]


def _count_measure(counts, fn, args, kwargs, result):
    # read the mask without binding the signature: this runs about 10 000
    # times per driver call, untraced runs included
    mask = kwargs["mask"] if "mask" in kwargs else args[1]
    counts["harness.BatchReadout.measure.sweeps"] += sweeps(mask)


def _count_propose(counts, fn, args, kwargs, result):
    counts["optimizer.propose.mirrors"] += _bound(fn, args, kwargs)["n"]


def _count_train(counts, fn, args, kwargs, result):
    counts["optimizer.train.epochs"] += len(result.history)
    counts["optimizer.train.accepted"] += result.n_accepted


def _count_sweep(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["baselines.lambda_sweep.solves"] += len(a["grid"]) * a["folds"]


#: (lookup module, attribute, layer name, counter). An attribute "Cls.meth"
#: patches a method on a class of that module.
SITES = (
    ("ternrc.tasks", "make_glyph_dataset", "tasks.make_glyph_dataset", None),
    ("ternrc.harness", "load_mnist", "tasks.load_mnist", None),
    ("ternrc.harness", "make_onevsall_batch", "tasks.make_onevsall_batch", None),
    ("ternrc.harness", "make_header_batch", "tasks.make_header_batch", None),
    ("ternrc.harness", "forward_batch", "substrate.forward_batch", _count_forward),
    ("ternrc.harness", "states_matrix", "substrate.states_matrix", None),
    ("ternrc.harness", "build_substrate", "substrate.build_substrate", None),
    ("ternrc.harness", "advance_drift", "substrate.advance_drift", _count_drift),
    ("ternrc.harness", "readout_batch", "readout.readout_batch", None),
    # the optimizer calls the rig through __call__, evaluation and the
    # stability loop through measure; both are the same hardware contract
    ("ternrc.harness", "BatchReadout.measure", "harness.BatchReadout.measure", _count_measure),
    ("ternrc.harness", "BatchReadout.__call__", "harness.BatchReadout.measure", _count_measure),
    ("ternrc.optimizer", "propose", "optimizer.propose", _count_propose),
    ("ternrc.optimizer", "nmse", "optimizer.nmse", None),
    ("ternrc.harness", "nmse", "optimizer.nmse", None),
    ("ternrc.baselines", "nmse", "optimizer.nmse", None),
    ("ternrc.harness", "evaluate", "optimizer.evaluate", None),
    ("ternrc.harness", "train", "optimizer.train", _count_train),
    ("ternrc.harness", "lambda_sweep", "baselines.lambda_sweep", _count_sweep),
    ("ternrc.harness", "ridge_fit", "baselines.ridge_fit", None),
    ("ternrc.harness", "ridge_eval", "baselines.ridge_eval", None),
    ("ternrc.harness", "consistency", "harness.consistency", None),
    ("ternrc.harness", "make_task_batches", "harness.make_task_batches", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in SITES))

#: the sites of the optimizer's ``forward_pass(mask) -> trace`` contract, where
#: detector sweeps are counted, so that a simulator shortcut below it cannot
#: lower the simulated hardware cost; the only sites of an untraced run
MEASURE_SITES = tuple(site for site in SITES if site[2] == "harness.BatchReadout.measure")

COUNTERS = ("substrate.forward_batch.patterns", "substrate.forward_batch.gflop_computed",
            "substrate.advance_drift.steps", "harness.BatchReadout.measure.sweeps",
            "optimizer.propose.mirrors", "optimizer.train.epochs",
            "baselines.lambda_sweep.solves")

#: per-layer metrics that must repeat exactly between traced runs of one seed
EXACT = ("harness.BatchReadout.measure.sweeps", "optimizer.train.epochs",
         "optimizer.train.accept_ratio", "baselines.lambda_sweep.solves")


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, current value) of one lookup site."""
    owner = importlib.import_module(module_name)
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or path[-1] not in vars(owner):
        raise TraceError(f"wrapped name {module_name}.{attr} no longer exists")
    return owner, path[-1], vars(owner)[path[-1]]


class Tracer:
    """Context manager that wraps ``sites`` (default: every site in
    :data:`SITES`) while active.

    ``stats[layer]`` holds ``[calls, self seconds]``; ``counts`` holds the
    work counters. :meth:`root` times the top-level driver call, whose self
    time is driver work that no layer span covers.
    """

    def __init__(self, sites=SITES):
        self.sites = sites
        self.stats = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple] = []  # (owner, name, original)

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, layer, counter in self.sites:
                owner, name, fn = _resolve(module_name, attr)
                self._saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(fn, layer, counter))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def _wrap(self, fn, layer, counter):
        stack, stat, counts = self._stack, self.stats[layer], self.counts

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if counter is not None:
                counter(counts, fn, args, kwargs, result)
            return result

        return span

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span; returns (result, wall seconds, self
        seconds)."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._stack.pop()
        return result, dt, dt - child


def layer_metrics(tracers, run_s: float, harness_self_s: float) -> dict:
    """Per-layer metrics summed over ``tracers``; ``run_s`` and
    ``harness_self_s`` come from the traced driver call (the last tracer)."""
    stats = defaultdict(lambda: [0, 0.0])
    counts = defaultdict(int)
    for t in tracers:
        for layer, (calls, s) in t.stats.items():
            stats[layer][0] += calls
            stats[layer][1] += s
        for k, v in t.counts.items():
            counts[k] += v
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = stats[layer][0]
        out[f"{layer}.s"] = stats[layer][1]
    for k in COUNTERS:
        out[k] = counts[k]
    epochs = counts["optimizer.train.epochs"]
    out["optimizer.train.accept_ratio"] = counts["optimizer.train.accepted"] / epochs if epochs else 0.0
    named = sum(s for _, s in tracers[-1].stats.values())
    out["harness.self_s"] = harness_self_s
    out["trace.coverage"] = named / run_s
    return out
