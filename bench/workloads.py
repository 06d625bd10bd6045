"""Benchmark workloads: seeded inputs, the timed call into gopnet, and the
check that the call's outputs are right.

Each workload has a fixed pool of ``pool_size`` inputs; entry j is a dataset
whose data and split come from ``input_seed(j)``.  A run visits the entries in
the order ``pool_order(seed)`` gives, a permutation of the pool drawn from
--seed, and starts over at its head when it has visited them all.  Every
entry's outcome is recorded in expected.json, so every sample of every run is
checked against a recorded outcome, whatever the seed.  gopnet receives only
the dataset; its own seeds stay at their defaults.  Why each workload exists
is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gopnet import (
    GopNetwork,
    Metric,
    ProgressionConfig,
    ProgressionReport,
    TrainSpec,
    Variant,
    run_progression,
)
from gopnet.data import Dataset
from gopnet.synth import as_dataset, noisy_tabular, two_moons

SPLIT = {"train": 0.6, "val": 0.2, "test": 0.2}
# A recorded final loss may differ by this share, far above rounding noise
# and far below what a change to the finetune does.
LOSS_RTOL = 1e-6


def input_seed(entry: int) -> int:
    """Seed of the data and split of pool entry ``entry``."""
    return int(np.random.SeedSequence([entry]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Dataset]  # input seed -> split dataset
    config: ProgressionConfig
    pool_size: int

    def inputs(self, entry: int) -> Dataset:
        return self.make_inputs(input_seed(entry))

    def pool_order(self, seed: int) -> list[int]:
        """The pool entries a run with this --seed visits, in order."""
        return np.random.default_rng(seed).permutation(self.pool_size).tolist()

    def run(self, dataset: Dataset):
        return run_progression(dataset, self.config)


def _moons(s: int) -> Dataset:
    return as_dataset(*two_moons(500, 0.2, seed=s), SPLIT, seed=s)


def _tabular(s: int) -> Dataset:
    return as_dataset(*noisy_tabular(400, 32, seed=s), SPLIT, seed=s)


# n_min = max_layer_width gives one block, so one step, per layer: every
# sample does nearly the same growth work whatever its data.  A 55-second run
# on a 2-vCPU machine visits about 50 moons_gop and 28 tabular_rn samples.
# tabular_rn's test accuracy varies widely between datasets, so its pool is
# one that every run visits whole, and run medians do not hang on the subset.
WORKLOADS = {w.name: w for w in (
    # one 144-candidate search at fan-in 2, one step finetune, the final one
    Workload("moons_gop", _moons,
             ProgressionConfig(max_layer_width=40, max_layers=1), 64),
    # searches at fan-in 32 and 40, no step finetune, a short final one
    Workload("tabular_rn", _tabular,
             ProgressionConfig(variant=Variant.HEMLRN, rate_metric=Metric.MSE,
                               n_min=40, max_layer_width=40, max_layers=2,
                               train_spec=TrainSpec(lr_schedule=((0.01, 10),))),
             24),
)}


# ---------------------------------------------------------------------------
# What a run produced
# ---------------------------------------------------------------------------

def fingerprint(net: GopNetwork, report: ProgressionReport) -> dict:
    """What a run learned: per-layer widths, the chosen op set of every step,
    params, flops, and the final loss and accuracy of every split, which the
    final finetune sets."""
    return {
        "widths": [layer.width for layer in net.hidden],
        "op_sets": [str(s.chosen_op_set) for s in report.steps],
        "params": report.params,
        "flops": report.flops,
        "final_metrics": report.final_metrics,
    }


def digests(net: GopNetwork, report: ProgressionReport) -> dict:
    """sha256 of report.to_dict() and of the model JSON."""
    report_json = json.dumps(report.to_dict(), sort_keys=True)
    return {
        "report": hashlib.sha256(report_json.encode()).hexdigest(),
        "model": hashlib.sha256(net.to_json().encode()).hexdigest(),
    }


def rollbacks(report: ProgressionReport) -> int:
    """Growth steps and layers that were tried and then undone."""
    return (sum(not s.accepted for s in report.steps)
            + sum(not r.accepted for r in report.layers))


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

def check(workload: Workload, dataset: Dataset, net: GopNetwork,
          report: ProgressionReport, expected: dict | None) -> list[str]:
    """Problems with one run's outputs; empty when they are right.

    Every run is checked for internal consistency, recomputed from the model
    itself.  When ``expected`` holds the fingerprint recorded for this
    input, the run must reproduce it: the structure exactly, the final
    losses within ``LOSS_RTOL`` and the final accuracies within one example.
    """
    problems = []
    if report.final_finetune_diverged:
        problems.append("the final finetune diverged")
    doc = net.to_dict()
    counted = sum(len(b["weights"]) * len(b["weights"][0]) + len(b["bias"])
                  for layer in doc["layers"] for b in layer["blocks"])
    counted += (len(doc["output"]["weights"]) * len(doc["output"]["weights"][0])
                + len(doc["output"]["bias"]))
    if not report.params == net.count_params() == counted:
        problems.append(f"params {report.params}, network counts "
                        f"{net.count_params()}, model JSON holds {counted}")
    if report.flops != net.count_flops():
        problems.append(f"flops {report.flops} != {net.count_flops()}")

    X_test = dataset.X_split("test")
    with np.errstate(over="ignore", invalid="ignore"):
        out = net.forward(X_test)
        reloaded = GopNetwork.from_json(net.to_json()).forward(X_test)
    if not np.array_equal(out, reloaded, equal_nan=True):
        problems.append("model JSON round trip changes the outputs")
    accuracy = float(np.mean(out.argmax(axis=1) == dataset.y_split("test")))
    reported = report.final_metrics["test"]["accuracy"]
    if accuracy != reported:
        problems.append(f"test accuracy {reported} reported, {accuracy} recomputed")

    mse = workload.config.rate_metric is Metric.MSE
    for n, step in enumerate(report.steps):
        best = None
        for index, score in zip(step.candidate_indices, step.candidate_scores):
            if score is not None and (best is None or (
                    score < best[0] if mse else score > best[0])):
                best = (score, index)
        if best is None or best[1] != step.chosen_op_set.index:
            problems.append(f"step {n} chose {step.chosen_op_set}, not the "
                            "first best-scoring candidate")
    for li, layer in enumerate(net.hidden):
        kept = [s for s in report.steps if s.layer_index == li and s.accepted]
        if [b.op_set for b in layer.blocks] != [s.chosen_op_set for s in kept]:
            problems.append(f"layer {li} blocks differ from its accepted steps")
        if layer.width != sum(s.block_width for s in kept):
            problems.append(f"layer {li} width differs from its accepted steps")

    if expected is not None:
        problems += _differences(fingerprint(net, report), expected, dataset)
    return problems


def _differences(got: dict, want: dict, dataset: Dataset) -> list[str]:
    problems = [f"{key} {got[key]} differs from the recorded {want.get(key)}"
                for key in ("widths", "op_sets", "params", "flops")
                if got[key] != want.get(key)]
    for split, recorded in want["final_metrics"].items():
        final = got["final_metrics"][split]
        one_example = 1 / len(dataset.y_split(split))
        if not (math.isclose(final["loss"], recorded["loss"], rel_tol=LOSS_RTOL)
                and abs(final["accuracy"] - recorded["accuracy"])
                <= 1.5 * one_example):
            problems.append(f"final {split} metrics {final} differ from the "
                            f"recorded {recorded}")
    return problems
