"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavy end-to-end runs are shared across criteria through cached helpers.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import json
import os
import time

import numpy as np
import pytest

from gopnet.cli import main as cli_main
from gopnet.data import (
    apply_feature_standardization,
    load_csv,
    one_hot,
    split_dataset,
)
from gopnet.network import GopLayer, GopNetwork, NeuronBlock, NormState
from gopnet.operators import (
    ActivationOp,
    NodalOp,
    OperatorSet,
    PoolOp,
    activation_forward,
    activation_grad,
    enumerate_operator_sets,
    nodal_forward,
    nodal_grad,
    pool_forward,
    pool_grad,
)
from gopnet.progression import (
    Metric,
    ProgressionConfig,
    Variant,
    run_pop_baseline,
    run_progression,
)
from gopnet.ridge import solve_augmented, solve_ridge
from gopnet.synth import as_dataset, gaussian_blobs, two_moons, xor_blobs
from gopnet.training import (
    TrainableSelection,
    TrainSpec,
    backward,
    training_loss,
)

FD_H = 1e-5
KINK_TOL = 1e-3


def announce(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# Criterion 1: operator gradient suite
# ---------------------------------------------------------------------------

def central(fn, x, h=FD_H):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def rel_err(fd, g):
    return abs(fd - g) / max(abs(g), 1e-6)


def test_criterion_01_operator_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    checks = 0
    for op in NodalOp:
        for _ in range(100):
            w, y = rng.uniform(-2, 2, size=2)
            dw, dy = nodal_grad(op, w, y)
            assert rel_err(central(lambda v: nodal_forward(op, v, y), w), dw) < 1e-4
            assert rel_err(central(lambda v: nodal_forward(op, w, v), y), dy) < 1e-4
            checks += 1
    for op in PoolOp:
        done = 0
        while done < 100:
            z = rng.uniform(-2, 2, size=6)
            if op is PoolOp.MAXIMUM:
                top2 = np.sort(z)[-2:]
                if top2[1] - top2[0] < KINK_TOL:
                    continue
            grad = pool_grad(op, z)
            k = int(rng.integers(6))

            def fn(v, k=k, z=z):
                z2 = z.copy()
                z2[k] = v
                return pool_forward(op, z2)

            assert rel_err(central(fn, z[k]), grad[k]) < 1e-4
            done += 1
            checks += 1
    for op in ActivationOp:
        done = 0
        while done < 100:
            x = rng.uniform(-2, 2)
            if op in (ActivationOp.RELU, ActivationOp.ELU) and abs(x) < KINK_TOL:
                continue
            g = activation_grad(op, x)
            assert rel_err(central(lambda v: activation_forward(op, v), x), g) < 1e-4
            done += 1
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(1, f"{checks} finite-difference checks across all 16 operators "
                f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: perceptron equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_perceptron_equivalence():
    rng = np.random.default_rng(2)
    W = rng.normal(size=(6, 15))
    b = rng.normal(size=15)
    block = NeuronBlock(OperatorSet(NodalOp.MULTIPLICATION, PoolOp.SUMMATION,
                                    ActivationOp.SIGMOID), W, b)
    layer = GopLayer([block], NormState(mean=np.zeros(15), std=np.ones(15),
                                        scale=np.ones(15), shift=np.zeros(15)))
    X = rng.normal(size=(1000, 6))
    dense = 1.0 / (1.0 + np.exp(-(X @ W + b)))
    gap = np.abs(layer.forward(X) - dense).max()
    assert gap < 1e-12
    announce(2, f"GOP layer == dense sigmoid layer, max |diff| = {gap:.2e} "
                f"over 1000 inputs")


# ---------------------------------------------------------------------------
# Criterion 3: ridge oracle
# ---------------------------------------------------------------------------

def stacked_lstsq_oracle(H, Y, c):
    d = H.shape[1]
    A = np.vstack([H, np.sqrt(c) * np.eye(d)])
    rhs = np.vstack([Y, np.zeros((d, Y.shape[1]))])
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


def test_criterion_03_ridge_oracle():
    rng = np.random.default_rng(3)
    branches = {"primal": 0, "dual": 0}
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(2, 31))
        C = int(rng.integers(1, 5))
        c = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
        H = rng.normal(size=(n, d))
        Y = rng.normal(size=(n, C))
        gap = np.abs(solve_ridge(H, Y, c) - stacked_lstsq_oracle(H, Y, c)).max()
        worst = max(worst, gap)
        assert gap < 1e-8
        branches["dual" if d >= n else "primal"] += 1
    assert branches["primal"] > 0 and branches["dual"] > 0
    for _ in range(10):
        H = rng.normal(size=(40, 10))
        Y = rng.normal(size=(40, 3))
        split = int(rng.integers(1, 10))
        gap = np.abs(solve_ridge(H, Y, 0.3)
                     - solve_augmented(H[:, :split], H[:, split:], Y, 0.3)).max()
        assert gap < 1e-10
    announce(3, f"50 instances vs stacked-lstsq oracle "
                f"({branches['primal']} primal / {branches['dual']} dual), "
                f"worst |diff| = {worst:.2e}; augmented == unsplit")


# ---------------------------------------------------------------------------
# Criterion 4: full-network gradient check
# ---------------------------------------------------------------------------

def _kink_adjacent(block, X):
    Z, x, _ = block.forward_parts(X)
    if block.op_set.activation in (ActivationOp.RELU, ActivationOp.ELU):
        if np.abs(x).min() < KINK_TOL:
            return True
    if block.op_set.pool is PoolOp.MAXIMUM and Z.shape[1] >= 2:
        top2 = np.sort(Z, axis=1)[:, -2:, :]
        if (top2[:, 1, :] - top2[:, 0, :]).min() < KINK_TOL:
            return True
    return False


def _clean_setup(op_set, attempt):
    rng = np.random.default_rng(10_000 + 31 * op_set.index + attempt)
    block = NeuronBlock(op_set, rng.uniform(-1, 1, size=(4, 16)),
                        rng.uniform(-1, 1, size=16))
    X = rng.uniform(-1.5, 1.5, size=(20, 4))
    if _kink_adjacent(block, X):
        return None
    norm = NormState()
    norm.fit(block.forward(X))
    net = GopNetwork(4, [GopLayer([block], norm)],
                     rng.normal(size=(16, 2)) * 0.4, rng.normal(size=2) * 0.1)
    Y = one_hot(rng.integers(0, 2, size=20), 2)
    return net, X, Y, rng


def test_criterion_04_full_network_gradient_check():
    started = time.perf_counter()
    rng0 = np.random.default_rng(4)
    sampled = [enumerate_operator_sets()[i]
               for i in rng0.choice(144, size=20, replace=False)]
    total = 0
    for op_set in sampled:
        setup = None
        for attempt in range(50):
            setup = _clean_setup(op_set, attempt)
            if setup is not None:
                break
        assert setup is not None, f"no kink-free setup found for {op_set}"
        net, X, Y, rng = setup
        selection = TrainableSelection.all_blocks(net)
        grads = backward(net, X, Y, selection)
        block = net.hidden[0].blocks[0]
        dW, db = grads.blocks[(0, 0)]
        dB, dbias = grads.output
        coords = []
        for _ in range(6):
            coords.append(("w", (int(rng.integers(4)), int(rng.integers(16)))))
        coords.append(("b", (int(rng.integers(16)),)))
        for _ in range(2):
            coords.append(("B", (int(rng.integers(16)), int(rng.integers(2)))))
        coords.append(("obias", (0,)))
        for kind, idx in coords:
            array, grad = {
                "w": (block.weights, dW),
                "b": (block.bias, db),
                "B": (net.output_weights, dB),
                "obias": (net.output_bias, dbias),
            }[kind]
            original = array[idx]
            array[idx] = original + FD_H
            up = training_loss(net, X, Y, selection)
            array[idx] = original - FD_H
            down = training_loss(net, X, Y, selection)
            array[idx] = original
            fd = (up - down) / (2 * FD_H)
            assert rel_err(fd, grad[idx]) < 1e-4, \
                f"{op_set} {kind}{idx}: fd={fd} analytic={grad[idx]}"
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    announce(4, f"{total} coordinates across 20 operator sets in a 4-16-2 "
                f"network in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 5 and 6: end-to-end synthetic runs (shared)
# ---------------------------------------------------------------------------

def synthetic_dataset(kind, seed, n=500):
    if kind == "moons":
        X, y = two_moons(n, 0.2, seed=1000 + seed)
    else:
        X, y = xor_blobs(n, 0.35, seed=1000 + seed)
    return as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=seed)


@functools.lru_cache(maxsize=None)
def variant_runs(kind: str, variant: Variant, rate: Metric = Metric.ACCURACY,
                 n: int = 500, max_layers: int = 8):
    runs = []
    for seed in range(5):
        ds = synthetic_dataset(kind, seed, n)
        started = time.perf_counter()
        net, report = run_progression(ds, ProgressionConfig(
            variant=variant, rate_metric=rate, max_layers=max_layers,
            seed=seed))
        runs.append({
            "accuracy": report.final_metrics["test"]["accuracy"],
            "blocks": sum(len(layer.blocks) for layer in net.hidden),
            "layers": len(net.hidden),
            "params": report.params,
            "seconds": time.perf_counter() - started,
        })
    return runs


def test_criterion_05_end_to_end_hemlgop():
    moons = variant_runs("moons", Variant.HEMLGOP)
    xor = variant_runs("xor", Variant.HEMLGOP)
    for runs in (moons, xor):
        assert max(r["seconds"] for r in runs) < 300.0
    moons_acc = float(np.median([r["accuracy"] for r in moons]))
    xor_acc = float(np.median([r["accuracy"] for r in xor]))
    moons_blocks = float(np.median([r["blocks"] for r in moons]))
    xor_blocks = float(np.median([r["blocks"] for r in xor]))
    moons_layers = float(np.median([r["layers"] for r in moons]))
    assert moons_acc >= 0.95
    assert moons_blocks <= 3
    assert moons_layers <= 1
    assert xor_acc >= 0.95
    assert xor_blocks <= 3
    announce(5, f"two-moons median acc {moons_acc:.3f} with {moons_blocks:.0f} "
                f"blocks / {moons_layers:.0f} layer; xor median acc "
                f"{xor_acc:.3f} with {xor_blocks:.0f} blocks (5 seeds, defaults)")


def test_criterion_06_variant_compactness_ordering():
    # loss-driven growth on a noisy benchmark is the regime of the
    # compactness claim: without per-step finetuning the RN variants keep
    # buying loss improvements with more random neurons, while the finetuned
    # variants extract more per block and stop earlier.  On trivially
    # separable data RN growth stalls immediately, so the noisy two-moons
    # suite carries the comparison.
    params = {
        v: float(np.median([
            r["params"]
            for r in variant_runs("moons", v, Metric.MSE, n=400, max_layers=2)
        ]))
        for v in Variant
    }
    assert params[Variant.HEMLGOP] <= params[Variant.HEMLRN]
    assert params[Variant.HOMLGOP] <= params[Variant.HOMLRN]
    announce(6, f"median params on noisy two-moons: hemlgop "
                f"{params[Variant.HEMLGOP]:.0f} <= hemlrn "
                f"{params[Variant.HEMLRN]:.0f}; homlgop "
                f"{params[Variant.HOMLGOP]:.0f} <= homlrn "
                f"{params[Variant.HOMLRN]:.0f}")


# ---------------------------------------------------------------------------
# Criterion 7: stopping-rule properties
# ---------------------------------------------------------------------------

def test_criterion_07_stopping_rules():
    spec = TrainSpec(lr_schedule=((0.01, 3), (0.001, 2)), batch_size=16,
                     dropout_hidden=0.1, dropout_input=0.0)

    X, y = gaussian_blobs(n=160, separation=8.0, seed=1)
    ds = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=1)
    net, report = run_progression(ds, ProgressionConfig(
        n_min=6, n_i=4, max_layer_width=14, eps_n=float("inf"), max_layers=1,
        train_spec=spec, seed=1))
    assert len(net.hidden) == 1 and len(net.hidden[0].blocks) == 1

    net, report = run_progression(ds, ProgressionConfig(
        n_min=6, n_i=4, max_layer_width=14, eps_l=float("inf"), max_layers=3,
        train_spec=spec, seed=1))
    assert len(net.hidden) == 1

    X, y = two_moons(220, 0.2, seed=0)
    ds_nv = as_dataset(X, y, {"train": 0.7, "test": 0.3}, seed=0)
    eps = 1e-6
    net, report = run_progression(ds_nv, ProgressionConfig(
        n_min=6, n_i=4, max_layer_width=20, eps_n=eps, max_layers=1,
        rate_metric=Metric.MSE, train_spec=spec, seed=0))
    chain = [s.metric_after for s in report.steps if s.accepted]
    assert len(chain) >= 2
    for before, after in zip(chain, chain[1:]):
        assert (before - after) / before >= eps

    cfg_a = ProgressionConfig(n_min=6, n_i=4, max_layer_width=14,
                              eps_n=float("inf"), max_layers=1,
                              train_spec=spec, seed=4)
    cfg_b = ProgressionConfig(n_min=6, n_i=4, max_layer_width=6,
                              eps_n=float("inf"), max_layers=1,
                              train_spec=spec, seed=4)
    X, y = gaussian_blobs(n=160, separation=8.0, seed=4)
    ds4 = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=4)
    net_a, rep_a = run_progression(ds4, cfg_a)
    net_b, rep_b = run_progression(ds4, cfg_b)
    assert not rep_a.steps[-1].accepted
    assert net_a.to_json() == net_b.to_json()

    announce(7, "infinite eps_n -> one block; infinite eps_l -> one layer; "
                f"accepted-loss chain decreasing by >= {eps} relative; "
                "rejected increment rolled back bit-exactly")


# ---------------------------------------------------------------------------
# Criterion 8: POP baseline accounting and timing
# ---------------------------------------------------------------------------

def test_criterion_08_pop_accounting_and_timing():
    X, y = gaussian_blobs(n=120, separation=6.0, seed=8)
    ds = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=8)
    pop_spec = TrainSpec(lr_schedule=((0.01, 2),), batch_size=32,
                         dropout_hidden=0.1, dropout_input=0.0)
    net, pop_report = run_pop_baseline(ds, [20], target_mse=float("inf"),
                                       epochs=20, train_spec=pop_spec, seed=8)
    assert len(pop_report.candidate_trainings) == 4 * 144

    _, hem_report = run_progression(ds, ProgressionConfig(seed=8))
    assert pop_report.wall_time > hem_report.wall_time
    announce(8, f"one-layer template logged exactly {4 * 144} candidate "
                f"trainings; POP {pop_report.wall_time:.1f}s > HeMLGOP "
                f"{hem_report.wall_time:.1f}s on the same dataset")


# ---------------------------------------------------------------------------
# Criterion 9: PIMA soft reproduction
# ---------------------------------------------------------------------------

PIMA_HELP = """\
criterion 9 needs the PIMA Indians Diabetes dataset (768 rows, 8 numeric
features + binary label), which cannot be fetched in this offline sandbox
and is not redistributed with the package.  Supply it as a CSV (classic
layout: no header, label last) at tests/data/pima.csv or set GOPNET_PIMA_CSV
to its path, then re-run.  The protocol below runs unchanged once the file
exists."""


def _find_pima():
    candidates = [os.environ.get("GOPNET_PIMA_CSV"),
                  os.path.join(os.path.dirname(__file__), "data", "pima.csv")]
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def _load_pima(path):
    try:
        ds = load_csv(path, label_column=-1, header=False)
    except Exception:
        ds = load_csv(path, label_column=-1, header=True)
    assert ds.n_features == 8, f"expected 8 features, got {ds.n_features}"
    assert ds.n_classes == 2
    return ds


def _run_pima_protocol(base, seeds=(0, 1, 2)):
    accs, params = [], []
    for seed in seeds:
        ds = split_dataset(base, {"train": 0.6, "test": 0.4}, seed=seed)
        ds = apply_feature_standardization(ds)
        net, report = run_progression(ds, ProgressionConfig(seed=seed))
        accs.append(report.final_metrics["test"]["accuracy"])
        params.append(report.params)
    return float(np.median(accs)), float(np.median(params))


def test_criterion_09_pima_soft_reproduction():
    path = _find_pima()
    if path is None:
        pytest.fail(PIMA_HELP)
    started = time.perf_counter()
    med_acc, med_params = _run_pima_protocol(_load_pima(path))
    elapsed = time.perf_counter() - started
    assert med_acc >= 0.75
    assert med_params <= 5000
    assert elapsed < 600.0
    announce(9, f"PIMA 60/40 median accuracy {med_acc:.3f} with "
                f"{med_params:.0f} params over 3 seeds in {elapsed:.0f}s")


def test_pima_protocol_machinery_on_synthetic_standin():
    # supporting evidence for criterion 9 where the real CSV is unavailable:
    # the identical protocol on a PIMA-shaped noisy tabular problem
    from gopnet.synth import noisy_tabular

    X, y = noisy_tabular(seed=9000)
    base = as_dataset(X, y)
    med_acc, med_params = _run_pima_protocol(base, seeds=(0,))
    assert med_acc >= 0.70
    assert med_params <= 5000
    print(f"\nSUPPORTING 9: PASS (stand-in 60/40 accuracy {med_acc:.3f} "
          f"with {med_params:.0f} params)")


# ---------------------------------------------------------------------------
# Criterion 10: run determinism
# ---------------------------------------------------------------------------

def test_criterion_10_run_determinism(tmp_path):
    csv_path = tmp_path / "moons.csv"
    X, y = two_moons(200, 0.2, seed=5)
    rows = ["x1,x2,label"] + [f"{float(a)!r},{float(b)!r},c{c}"
                              for (a, b), c in zip(X, y)]
    csv_path.write_text("\n".join(rows) + "\n")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"path": str(csv_path), "label_column": "label"},
        "variant": "hemlgop",
        "seed": 7,
        "progression": {"n_min": 8, "n_i": 4, "max_layer_width": 16,
                        "max_layers": 2},
        "train": {"lr_schedule": [[0.01, 3], [0.001, 2]], "batch_size": 16,
                  "dropout_hidden": 0.1, "dropout_input": 0.0,
                  "weight_reg": {"kind": "max-norm", "value": 2.0},
                  "loss": "mse"},
    }))
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert cli_main(["train", "--config", str(cfg_path), "--out", out1]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--out", out2]) == 0
    same = []
    for name in ("model.json", "report.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b
        same.append(f"{name} ({len(a)} bytes)")
    announce(10, "byte-identical across reruns: " + ", ".join(same))
