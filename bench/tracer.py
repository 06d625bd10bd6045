"""Spans around calls into gopnet, recorded from outside the package.

A Tracer patches each function where its caller resolves it.
``gopnet.progression`` imports ``finetune``, ``evaluate_candidate`` and
``evaluate_metrics`` by name and looks up ``search_operator_set`` in its own
namespace, so all four are replaced in that module; ``NeuronBlock.forward``
and ``GopLayer.forward`` are replaced on their classes.  Spans stay in memory
until ``per_layer_metrics`` reduces them; leaving the ``with`` block restores
every original.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import gopnet.progression as progression
from gopnet.network import GopLayer, NeuronBlock
from gopnet.operators import NodalOp, PoolOp

ROOT = "run"

# finetune's caller names which finetune it is
_FINETUNE_KIND = {"grow_layer": "step", "run_progression": "final"}

PER_LAYER = {
    "progression.search.s": "s",
    "progression.search.layer0.s": "s",
    "progression.search.layer1.s": "s",
    "progression.search.candidates": "count",
    "progression.search.candidates_failed": "count",
    "progression.rollbacks": "count",
    "progression.other.s": "s",
    "network.block_forward.search.s": "s",
    "network.block_forward.eval.s": "s",
    "network.block_forward.separable.s": "s",
    "network.block_forward.nonseparable.s": "s",
    "network.block_forward.calls": "count",
    "network.nodal_bytes": "bytes",
    "network.nodal_peak_bytes": "bytes",
    "network.existing_forward.s": "s",
    "network.block_forward.minor_faults": "count",
    "ridge.evaluate_candidate.s": "s",
    "ridge.evaluate_candidate.calls": "count",
    "ridge.solves": "count",
    "ridge.failed": "count",
    "training.finetune.step.s": "s",
    "training.finetune.final.s": "s",
    "training.finetune.calls": "count",
    "training.sgd_steps": "count",
    "training.us_per_sgd_step": "us",
    "training.diverged": "count",
    "training.evaluate_metrics.s": "s",
    "trace.overhead_frac": "frac",
    "run.minor_faults": "count",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for none
    attrs: dict = field(default_factory=dict)
    end: float = 0.0
    faults: int = 0  # minor page faults while the span was open

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call into the patched gopnet functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._patch(progression, "search_operator_set", "progression.search",
                        _search_attrs, _search_outcome)
            self._patch(progression, "evaluate_candidate",
                        "ridge.evaluate_candidate", _ridge_attrs)
            self._patch(progression, "finetune", "training.finetune",
                        _finetune_attrs)
            self._patch(progression, "evaluate_metrics",
                        "training.evaluate_metrics")
            self._patch(NeuronBlock, "forward", "network.block_forward",
                        _block_attrs)
            self._patch(GopLayer, "forward", "network.layer_forward")
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    @contextmanager
    def span(self, name: str):
        span = self._begin(name, {})
        try:
            yield span
        finally:
            self._end(span)

    def _begin(self, name: str, attrs: dict) -> Span:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent, attrs,
                               faults=-_minor_faults()))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.faults += _minor_faults()
        self._open.pop()

    def _patch(self, owner, attr: str, name: str, describe=None,
               outcome=None) -> None:
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = {}
            if describe is not None:
                attrs = describe(signature.bind(*args, **kwargs).arguments,
                                 sys._getframe(1).f_code.co_name)
            span = tracer._begin(name, attrs)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer._end(span)
            if outcome is not None:
                span.attrs.update(outcome(result))
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _search_attrs(args: dict, caller: str) -> dict:
    return {"layer": args["layer_index"], "candidates": len(args["library"])}


def _search_outcome(result) -> dict:
    return {"failed": sum(score is None for score in result.candidate_scores)}


def _ridge_attrs(args: dict, caller: str) -> dict:
    return {"solves": len(args["c_grid"])}


def _finetune_attrs(args: dict, caller: str) -> dict:
    spec = args["spec"]
    n = len(args["data_train"][0])
    epochs = sum(int(e) for _, e in spec.lr_schedule)
    return {"kind": _FINETUNE_KIND.get(caller, caller),
            "sgd_steps": epochs * math.ceil(n / spec.batch_size)}


def _block_attrs(args: dict, caller: str) -> dict:
    block = args["self"]
    op = block.op_set
    separable = (op.nodal in (NodalOp.MULTIPLICATION, NodalOp.QUADRATIC)
                 and op.pool is PoolOp.SUMMATION)
    return {"separable": separable,
            "nodal_bytes": len(args["inputs"]) * block.fan_in * block.width * 8}


def per_layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals over every ROOT span in ``spans``, divided by their
    count; ``network.nodal_peak_bytes`` is the largest single tensor.

    ``progression.rollbacks`` and ``trace.overhead_frac`` come from outside
    the spans and are left at 0.
    """
    m = dict.fromkeys(PER_LAYER, 0.0)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    under_search = [False] * len(spans)
    in_run = [False] * len(spans)
    finetune_s = 0.0
    for i, s in enumerate(spans):
        parent = spans[s.parent] if s.parent >= 0 else None
        under_search[i] = parent is not None and (
            parent.name == "progression.search" or under_search[s.parent])
        # calls made outside a ROOT span, such as the output check's
        # forwards, are not part of the measured run
        in_run[i] = s.name == ROOT or (parent is not None and in_run[s.parent])
        if not in_run[i]:
            continue
        if s.name == ROOT:
            m["progression.other.s"] += s.duration - child_time[i]
            m["run.minor_faults"] += s.faults
        elif s.name == "progression.search":
            m["progression.search.s"] += s.duration - child_time[i]
            layer_key = f"progression.search.layer{s.attrs['layer']}.s"
            if layer_key in m:
                m[layer_key] += s.duration
            m["progression.search.candidates"] += s.attrs["candidates"]
            m["progression.search.candidates_failed"] += s.attrs.get(
                "failed", s.attrs["candidates"])
        elif s.name == "network.block_forward":
            where = "search" if under_search[i] else "eval"
            kind = "separable" if s.attrs["separable"] else "nonseparable"
            m[f"network.block_forward.{where}.s"] += s.duration
            m[f"network.block_forward.{kind}.s"] += s.duration
            m["network.block_forward.calls"] += 1
            m["network.block_forward.minor_faults"] += s.faults
            m["network.nodal_bytes"] += s.attrs["nodal_bytes"]
            m["network.nodal_peak_bytes"] = max(m["network.nodal_peak_bytes"],
                                                s.attrs["nodal_bytes"])
        elif s.name == "network.layer_forward":
            if parent is not None and parent.name == ROOT:
                m["network.existing_forward.s"] += s.duration
        elif s.name == "ridge.evaluate_candidate":
            m["ridge.evaluate_candidate.s"] += s.duration
            m["ridge.evaluate_candidate.calls"] += 1
            m["ridge.solves"] += s.attrs["solves"]
            m["ridge.failed"] += "raised" in s.attrs
        elif s.name == "training.finetune":
            key = f"training.finetune.{s.attrs['kind']}.s"
            if key in m:
                m[key] += s.duration
            finetune_s += s.duration
            m["training.finetune.calls"] += 1
            m["training.sgd_steps"] += s.attrs["sgd_steps"]
            m["training.diverged"] += "raised" in s.attrs
        elif s.name == "training.evaluate_metrics":
            m["training.evaluate_metrics.s"] += s.duration
    if m["training.sgd_steps"]:
        m["training.us_per_sgd_step"] = 1e6 * finetune_s / m["training.sgd_steps"]
    runs = sum(s.name == ROOT for s in spans)
    for key in m:
        if key not in ("network.nodal_peak_bytes", "training.us_per_sgd_step"):
            m[key] /= max(runs, 1)
    return m
