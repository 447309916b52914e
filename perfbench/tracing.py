"""Span recorder for the traced benchmark run.

The recorder wraps every public function and public method of the package's
layer modules from outside, by replacing module and class attributes, so the
package itself carries no hooks.  Each call becomes one span: name, start,
end, parent span, operation id and an optional work count.  Spans stay in
memory as flat integer columns and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("features", "autodiff", "model", "losses", "trainer", "converter", "metrics")

# operation ids below 0 mark spans outside the timed operations
SETUP = -1
CHECK = -2


def _width(x) -> int:
    return np.shape(getattr(x, "data", x))[1]


# work counted per span, read from the call's arguments or result
_WORK = {
    "converter.convert": lambda args, kwargs, out: len(out.n_hat),
    "model.VtnModel.decode":
        lambda args, kwargs, out: _width(kwargs["tgt_in"] if "tgt_in" in kwargs else args[1]),
    "metrics.dtw": lambda args, kwargs, out: _width(args[0]) * _width(args[1]),
}


class Tracer:
    """Records one span per call into a layer's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.op_id = SETUP
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        mods = {layer: importlib.import_module(f"vtn.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items() if n == "vtn" or n.startswith("vtn.")]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    # modules that imported the function by name hold their
                    # own reference; replace it everywhere in the package
                    for m in package:
                        for a, v in list(vars(m).items()):
                            if v is obj:
                                self._patch(m, a, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, v in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(v):
                self._patch(cls, attr, self._wrap(v, name))
            elif isinstance(v, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(v.__func__, name)))
            elif isinstance(v, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(v.__func__, name)))

    def _patch(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        work = _WORK.get(name)
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(name_id)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op.append(rec.op_id)
            rec.work.append(0)
            rec.end.append(0)
            rec._stack.append(idx)
            rec.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter_ns()
                rec._stack.pop()
            if work is not None:
                rec.work[idx] = work(args, kwargs, out)
            return out

        return span

    # -- output -------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def dump(self, path) -> None:
        np.savez(path, **self.columns())


UNITS = {
    "converter.steps_per_s": "steps/s",
    "converter.self_s": "s",
    "model.decode_s": "s",
    "model.decode_cols_per_step": "columns/step",
    "model.encode_s": "s",
    "model.forward_s": "s",
    "losses.self_s": "s",
    "losses.pair_calls": "calls",
    "autodiff.backward_s": "s",
    "autodiff.adam_s": "s",
    "autodiff.weight_norm_calls": "calls",
    "autodiff.op_calls": "calls",
    "autodiff.matmul_s": "s",
    "autodiff.conv1d_s": "s",
    "autodiff.softmax_s": "s",
    "autodiff.layer_norm_s": "s",
    "trainer.make_batch_s": "s",
    "trainer.clip_s": "s",
    "features.prep_s": "s",
    "features.load_s": "s",
    "features.corpus_s": "s",
    "metrics.dtw_s": "s",
    "metrics.dtw_ns_per_cell": "ns/cell",
    "metrics.scores_s": "s",
}


def layer_metrics(cols: dict[str, np.ndarray], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from recorded spans, per timed operation unless the
    name says otherwise."""
    names = list(cols["names"])
    name, parent, op = cols["name"], cols["parent"], cols["op"]
    dur = (cols["end_ns"] - cols["start_ns"]) * 1e-9
    work = cols["work"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    timed = op >= 0
    span_layer = np.asarray([n.split(".", 1)[0] for n in names])[name]

    def ids(*qualnames):
        return [names.index(q) for q in qualnames if q in names]

    def sel(*qualnames, where=timed):
        return where & np.isin(name, ids(*qualnames))

    def per_op(x):
        return float(x) / n_ops

    def ratio(num, den):
        return float(num) / den if den else 0.0

    convert = sel("converter.convert")
    decode = sel("model.VtnModel.decode")
    dtw = sel("metrics.dtw")
    steps = work[convert].sum()
    return {
        "converter.steps_per_s": ratio(steps, dur[convert].sum()),
        "converter.self_s": per_op(self_time[timed & (span_layer == "converter")].sum()),
        "model.decode_s": per_op(dur[decode].sum()),
        "model.decode_cols_per_step": ratio(work[decode].sum(), steps),
        "model.encode_s": per_op(dur[sel("model.VtnModel.encode")].sum()),
        "model.forward_s": per_op(dur[sel("model.VtnModel.forward")].sum()),
        "losses.self_s": per_op(self_time[timed & (span_layer == "losses")].sum()),
        "losses.pair_calls": per_op(sel("losses.pair_loss").sum()),
        "autodiff.backward_s": per_op(dur[sel("autodiff.Tensor.backward")].sum()),
        "autodiff.adam_s": per_op(dur[sel("autodiff.adam_step")].sum()),
        "autodiff.weight_norm_calls": per_op(sel("autodiff.weight_norm_apply").sum()),
        "autodiff.op_calls": per_op((timed & (span_layer == "autodiff")).sum()),
        "autodiff.matmul_s": per_op(dur[sel("autodiff.matmul")].sum()),
        "autodiff.conv1d_s": per_op(dur[sel("autodiff.conv1d")].sum()),
        "autodiff.softmax_s": per_op(dur[sel("autodiff.masked_softmax_columns")].sum()),
        "autodiff.layer_norm_s": per_op(dur[sel("autodiff.layer_norm")].sum()),
        "trainer.make_batch_s": per_op(dur[sel("trainer.make_batch")].sum()),
        "trainer.clip_s": per_op(dur[sel("trainer.clip_global_norm")].sum()),
        "features.prep_s": per_op(dur[sel("features.normalize", "features.denormalize",
                                          "features.stack", "features.unstack",
                                          "features.adjust_output_stats")].sum()),
        "features.load_s": per_op(dur[sel("features.load_features")].sum()),
        "features.corpus_s": float(dur[sel("features.gen_synthetic_corpus",
                                           where=op == SETUP)].sum()),
        "metrics.dtw_s": per_op(dur[dtw].sum()),
        "metrics.dtw_ns_per_cell": ratio(dur[dtw].sum() * 1e9, work[dtw].sum()),
        "metrics.scores_s": per_op(dur[sel("metrics.mcd", "metrics.lfc",
                                           "metrics.ldr_deviation")].sum()),
    }
