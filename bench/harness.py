"""Measurement loop and report of the gopnet benchmark; entered from run.py.

A run times samples of one workload until the next would end after
``--seconds``; there is always at least one.  Between samples it reads the
machine's slowdown (speed.py), and each timing is divided by the mean of the
readings taken just before and just after it.  With ``--trace 0`` it reports
the end-to-end metrics, and times set-up in fresh processes spread over the
run.  With ``--trace 1`` every sample runs twice,
untraced and traced, and it reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed
import tracer
from run import PINNED_THREADS
from workloads import WORKLOADS, check, digests, fingerprint, rollbacks

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "frac",
}


@dataclass
class Sample:
    key: str                 # the pool entry, as in expected.json
    run_s: float             # wall time
    problems: list = field(default_factory=list)
    fingerprint: dict | None = None  # None when the call raised
    digests: dict | None = None
    test_accuracy: float = math.nan
    test_loss: float = math.nan
    rollbacks: int = 0
    identical: bool = False  # report digest equals the recorded one
    slowdown: float = 1.0    # the machine's, around the call (speed.py)

    @property
    def nominal_s(self) -> float:
        """run_s at the machine's nominal speed."""
        return self.run_s / self.slowdown


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time import and first dataset, print it, exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv, started: float) -> int:
    """``started`` is the perf_counter reading taken before gopnet's import."""
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    entries = workload.pool_order(args.seed)
    first_dataset = workload.inputs(entries[0])
    setup_s = time.perf_counter() - started
    if args.probe_setup:
        print(setup_s)
        return 0
    speed.kernel_times()  # a process's first calls run slow: not a reading
    setup = [(setup_s, speed.slowdown())]
    print("env " + json.dumps(environment()))
    expected = json.loads(EXPECTED_PATH.read_text()).get(workload.name, {})

    samples, traced, spans = measure(workload, args, entries, first_dataset,
                                     expected, setup)
    attempted = samples + traced
    failed = sum(bool(x.problems) for x in attempted)
    if not args.trace:
        print("setup_s (wall s, slowdown) " + json.dumps(
            [[round(x, 4), round(f, 4)] for x, f in setup]))
    e2e = end_to_end(samples, setup)
    print_summary(e2e, samples, failed, len(attempted))
    if args.trace:
        metrics = tracer.per_layer_metrics(spans)
        metrics["progression.rollbacks"] = statistics.mean(
            x.rollbacks for x in traced)
        metrics["trace.overhead_frac"] = (sum(x.run_s for x in traced)
                                          / sum(x.run_s for x in samples) - 1)
        units = tracer.PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def measure(workload, args, entries: list[int], first_dataset,
            expected: dict, setup: list[tuple[float, float]]):
    """Untraced samples, traced samples (with --trace 1) and their spans.

    With --trace 0 it also appends to ``setup`` the set-up times of fresh
    processes, taken between samples at even intervals of the run, so that
    the median of ``setup`` sees the machine over the same span as run_s,
    each with the slowdown around it.  ``setup`` holds (seconds, slowdown)
    pairs; its last slowdown is the reading taken before the first sample.
    """
    start = time.perf_counter()
    deadline = start + args.seconds
    probes = [] if args.trace else [
        start + k * args.seconds / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)]
    samples, traced, spans = [], [], []
    before = setup[-1][1]
    index = 0
    while True:
        entry = entries[index % len(entries)]
        dataset = first_dataset if index == 0 else workload.inputs(entry)
        key = str(entry)
        want = expected.get(key)
        if not args.trace:
            samples.append(run_sample(workload, dataset, key, want))
        else:
            # alternate which of the pair runs first, so that neither side
            # always pays for the first call's allocations
            if index % 2:
                again, new_spans = traced_sample(workload, dataset, key, want)
                sample = run_sample(workload, dataset, key, want)
            else:
                sample = run_sample(workload, dataset, key, want)
                again, new_spans = traced_sample(workload, dataset, key, want)
            if sample.digests is not None and again.digests != sample.digests:
                again.problems.append("traced run gives other results")
            samples.append(sample)
            traced.append(again)
            spans += new_spans
        kernels = speed.kernel_times()
        after = speed.slowdown(kernels)
        samples[-1].slowdown = (before + after) / 2
        before = after
        for x in [samples[-1]] + traced[-1:]:
            if want is None:
                x.problems.append(f"no outcome recorded for pool entry {key}")
            elif x.digests is not None:
                x.identical = x.digests["report"] == want["report_sha256"]
        _print_sample(samples[-1], traced[-1] if args.trace else None, kernels)
        index += 1
        while probes and time.perf_counter() >= probes[0]:
            probes.pop(0)
            before = _probe_setup(args, before, setup)
        per_index = statistics.median(x.run_s for x in samples) * (1 + args.trace)
        if time.perf_counter() + per_index > deadline:
            for _ in probes:
                before = _probe_setup(args, before, setup)
            return samples, traced, spans


def run_sample(workload, dataset, key: str, expected: dict | None,
               trace: tracer.Tracer | None = None) -> Sample:
    """One timed call into gopnet on ``dataset``, then the output check."""
    start = time.perf_counter()
    try:
        if trace is None:
            net, report = workload.run(dataset)
        else:
            with trace.span(tracer.ROOT):
                net, report = workload.run(dataset)
    except Exception as exc:  # a failing sample is counted, not fatal
        return Sample(key, time.perf_counter() - start,
                      [f"raised {type(exc).__name__}: {exc}"])
    run_s = time.perf_counter() - start
    test = report.final_metrics["test"]
    return Sample(key, run_s, check(workload, dataset, net, report, expected),
                  fingerprint(net, report), digests(net, report),
                  test["accuracy"], test["loss"], rollbacks(report))


def traced_sample(workload, dataset, key: str,
                  expected: dict | None) -> tuple[Sample, list]:
    """run_sample under a Tracer; also returns the recorded spans."""
    with tracer.Tracer() as t:
        sample = run_sample(workload, dataset, key, expected, t)
    return sample, t.spans


def _probe_setup(args, before: float, setup: list) -> float:
    """Append to ``setup`` the set-up time of a fresh process (gopnet import
    and first dataset) and the slowdown around it, given the reading
    ``before`` it; return the reading after it."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    after = speed.slowdown()
    setup.append((float(out.stdout.strip().splitlines()[-1]), (before + after) / 2))
    return after


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{name: os.environ.get(name) for name in PINNED_THREADS},
    }


def end_to_end(samples: list[Sample], setup: list[tuple[float, float]]) -> dict:
    """run_s and setup_s are medians of times at the nominal speed."""
    # once per pool entry: a run that starts the pool over repeats datasets
    accuracies = list({x.key: x.test_accuracy for x in samples
                       if x.fingerprint is not None}.values())
    return {
        "run_s": statistics.median(x.nominal_s for x in samples),
        "setup_s": statistics.median(x / f for x, f in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_accuracy": statistics.mean(accuracies) if accuracies else math.nan,
    }


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return f"no percentile above the median has ten samples beyond it (n = {n})"
    p = math.floor(100 * (n - 10) / n)
    return f"p{p} {sorted(times)[n - 11]:.4f} s (n = {n})"


def print_summary(e2e: dict, samples: list[Sample], failed: int,
                  attempted: int) -> None:
    """The end-to-end figures that BENCHMARK.json does not bound."""
    print(f"run_s median {e2e['run_s']:.4f} s at nominal speed over "
          f"{len(samples)} samples; " + tail([x.nominal_s for x in samples]))
    print(f"wall-clock run_s median "
          f"{statistics.median(x.run_s for x in samples):.4f} s; slowdown "
          f"median {statistics.median(x.slowdown for x in samples):.4f}")
    ok = [x for x in samples if x.fingerprint is not None]
    if ok:
        print(f"test_loss {statistics.mean(x.test_loss for x in ok):.6g} mse "
              f"(mean); params "
              f"{statistics.median(x.fingerprint['params'] for x in ok):g} count, "
              f"flops {statistics.median(x.fingerprint['flops'] for x in ok):g} "
              "count (medians)")
    print(f"failed_frac {failed / attempted:.4g} frac ({failed} of {attempted})")
    identical = sum(x.identical for x in samples)
    print(f"{identical} of {len(samples)} samples bit-identical to the "
          "recorded reports (sha256 of report.to_dict())")


def _print_sample(sample: Sample, traced: Sample | None,
                  kernels: dict) -> None:
    line = {"sample": sample.key, "run_s": round(sample.run_s, 4),
            "slowdown": round(sample.slowdown, 4),
            "kernels_after_s": {k: round(v, 5) for k, v in kernels.items()},
            "fingerprint": sample.fingerprint, "digests": sample.digests,
            "identical": sample.identical}
    if traced is not None:
        line["traced_run_s"] = round(traced.run_s, 4)
    problems = sample.problems + (traced.problems if traced else [])
    if problems:
        line["problems"] = problems
    print("sample " + json.dumps(line))
