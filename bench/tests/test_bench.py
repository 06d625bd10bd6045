"""Self-tests of the benchmark harness on tiny workloads (about a second)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

from run import add_import_paths  # noqa: E402

add_import_paths()

import gopnet.progression as progression  # noqa: E402
from gopnet import ProgressionConfig, TrainSpec  # noqa: E402
from gopnet.network import GopLayer, NeuronBlock  # noqa: E402
from gopnet.synth import as_dataset, two_moons  # noqa: E402

import harness  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import SPLIT, WORKLOADS, Workload, check, fingerprint  # noqa: E402

EPOCHS = 3
BATCH = 32


def _tiny_inputs(s):
    return as_dataset(*two_moons(80, 0.2, seed=s), SPLIT, seed=s)


TINY = Workload("tiny", _tiny_inputs, ProgressionConfig(
    n_min=4, n_i=2, max_layer_width=8, max_layers=2,
    op_set_indices=tuple(range(0, 144, 9)),
    train_spec=TrainSpec(lr_schedule=((0.01, EPOCHS),), batch_size=BATCH)),
    pool_size=4)
COUNTS = ("progression.search.candidates", "ridge.solves", "training.sgd_steps",
          "network.nodal_bytes", "network.block_forward.calls",
          "training.finetune.calls", "ridge.evaluate_candidate.calls")


def _traced_metrics():
    sample, spans = harness.traced_sample(TINY, _tiny_inputs(7), "7.0", None)
    assert sample.problems == []
    return tracer.per_layer_metrics(spans)


def test_computed_counts_repeat_exactly():
    first, second = _traced_metrics(), _traced_metrics()
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["training.sgd_steps"] > 0
    assert first["network.nodal_bytes"] > 0


def test_counts_follow_from_the_calls():
    m = _traced_metrics()
    n_train = len(_tiny_inputs(7).y_split("train"))
    assert m["progression.search.candidates"] > 0
    assert m["ridge.solves"] == 3 * m["ridge.evaluate_candidate.calls"]
    assert m["training.sgd_steps"] == (
        m["training.finetune.calls"] * EPOCHS * math.ceil(n_train / BATCH))
    assert m["training.finetune.step.s"] > 0 and m["training.finetune.final.s"] > 0
    assert m["network.block_forward.search.s"] > 0
    assert 0 < m["network.nodal_peak_bytes"] <= m["network.nodal_bytes"]
    assert 0 <= m["network.block_forward.minor_faults"] <= m["run.minor_faults"]


def test_calls_outside_the_run_are_not_counted():
    dataset = _tiny_inputs(7)
    with tracer.Tracer() as t:
        with t.span(tracer.ROOT):
            net, _ = TINY.run(dataset)
        inside, recorded = tracer.per_layer_metrics(t.spans), len(t.spans)
        net.forward(dataset.X_split("test"))
    assert len(t.spans) > recorded
    assert tracer.per_layer_metrics(t.spans) == inside


def test_tracing_does_not_change_results():
    plain = harness.run_sample(TINY, _tiny_inputs(3), "3.0", None)
    traced, spans = harness.traced_sample(TINY, _tiny_inputs(3), "3.0", None)
    assert plain.problems == [] and traced.problems == []
    assert plain.digests == traced.digests
    assert spans[0].name == tracer.ROOT


def _current():
    return (progression.search_operator_set, progression.evaluate_candidate,
            progression.finetune, progression.evaluate_metrics,
            NeuronBlock.forward, GopLayer.forward)


def test_wrappers_are_removed_on_exit():
    originals = _current()
    with tracer.Tracer():
        assert all(a is not b for a, b in zip(_current(), originals))
    assert _current() == originals
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("inside the traced block")
    assert _current() == originals


def test_output_check_compares_recorded_fingerprints():
    dataset = _tiny_inputs(5)
    net, report = TINY.run(dataset)
    recorded = fingerprint(net, report)
    assert check(TINY, dataset, net, report, recorded) == []
    altered = dict(recorded, params=recorded["params"] + 1)
    assert check(TINY, dataset, net, report, altered) != []
    final = recorded["final_metrics"]
    for change in ({"loss": final["test"]["loss"] * 1.001},
                   {"accuracy": final["test"]["accuracy"] - 0.1}):
        other = dict(final, test=dict(final["test"], **change))
        altered = dict(recorded, final_metrics=other)
        assert check(TINY, dataset, net, report, altered) != []


def test_output_check_fails_a_diverged_final_finetune():
    dataset = _tiny_inputs(5)
    net, report = TINY.run(dataset)
    report.final_finetune_diverged = True
    assert check(TINY, dataset, net, report, None) != []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pool_entry_has_a_recorded_outcome(name):
    workload = WORKLOADS[name]
    order = workload.pool_order(3)
    assert sorted(order) == list(range(workload.pool_size))
    assert order == workload.pool_order(3) != workload.pool_order(4)
    recorded = json.loads(harness.EXPECTED_PATH.read_text())[name]
    assert sorted(recorded, key=int) == [str(e) for e in range(workload.pool_size)]


def test_times_are_scaled_by_the_slowdown_around_them():
    samples = [harness.Sample("0", 2.0, slowdown=2.0),
               harness.Sample("1", 1.5, slowdown=1.0),
               harness.Sample("2", 3.0, slowdown=1.5)]
    e2e = harness.end_to_end(samples, [(0.5, 2.0), (0.4, 1.0), (0.1, 1.0)])
    assert e2e["run_s"] == 1.5  # median of 1.0, 1.5 and 2.0, not of the walls
    assert e2e["setup_s"] == 0.25


def test_slowdown_reads_the_reference_kernels():
    times = speed.kernel_times()
    assert sorted(times) == sorted(speed.NOMINAL_S)
    assert all(t > 0 for t in times.values())
    assert 0.1 < speed.slowdown() < 10


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "moons_gop", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
