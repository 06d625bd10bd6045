"""Pinned digests of small runs through the finetune paths the benchmark's
all-live finetunes never reach.

The values were recorded before finetune built its per-call plan, so they
hold every training path to the bits it had then: frozen batch-norm columns
next to a live block (steps after a layer's first), weight decay with
cross-entropy, gradients into a lower batch-norm layer, no regularization or
dropout, a run without step finetunes, and POP/PMLP, whose standardized
layers are frozen throughout.
"""

import hashlib
import json

import pytest

from gopnet.operators import OperatorSet
from gopnet.progression import (
    Metric,
    ProgressionConfig,
    Variant,
    run_pmlp_baseline,
    run_pop_baseline,
    run_progression,
)
from gopnet.synth import as_dataset, two_moons
from gopnet.training import Decay, LossKind, TrainSpec

SCHEDULE = ((0.01, 4), (0.001, 3))
GROWTH = {
    # layer 0 keeps one block and rejects a second; layer 1 is rejected
    "hemlgop": {},
    # two kept layers, so the final finetune reaches layer 0 through layer 1
    "decay_cross_entropy": dict(train_spec=TrainSpec(
        lr_schedule=SCHEDULE, weight_reg=Decay(1e-3),
        loss=LossKind.CROSS_ENTROPY)),
    # four blocks in layer 0, three finetuned next to frozen columns
    "no_reg_no_dropout": dict(rate_metric=Metric.MSE, train_spec=TrainSpec(
        lr_schedule=SCHEDULE, weight_reg=None, dropout_hidden=0.0,
        dropout_input=0.0)),
    "hemlrn": dict(variant=Variant.HEMLRN),
}
POP_SPEC = TrainSpec(lr_schedule=((0.01, 2),), batch_size=16)

# case -> (sha256 of json.dumps(report.to_dict(), sort_keys=True),
#          sha256 of net.to_json())
DIGESTS = {
    "hemlgop": (
        "bbfe475c7a1b63a835bbdecf2e5d53c5b8d284dbd6a6a88f85129ae7251a18c6",
        "fab0fdd340bb5805666fa09db9748eef514bd79aa9bf0e387209cb157b192429"),
    "decay_cross_entropy": (
        "870084794cf58e5f6e85e1e96d812d5dabccb47fc4ef6d72c213d00cfb0f8b54",
        "7a70f0ff0958dcdbd7c1533f0dd13726ecd7882bce334d4d1b120385c20498d9"),
    "no_reg_no_dropout": (
        "b9c0ef10426d5e8b93f037f20d170bc865294d9958cf415db24dd61cf705860a",
        "969372bbaf0a495905df85a7b83f7505e477386a5deb412037b2b61dc7fa6d84"),
    "hemlrn": (
        "0604d19668392237ca8213462fcf2a716fdea86137e08a5b83cbb356ecbbcaf5",
        "4e1a6187d630e351dc2cb6ee4d82c85b0e1d4dfeb08986b22ede25cfad0d3f5b"),
    "pop": (
        "e33818a564f9f2c03025c95aa5f3489bac7353b133213e8d50a15493439477d7",
        "caab77947c5b793964bca8d975c262d6b429272bf01d53e1cef917c24fc3dbc4"),
    "pmlp": (
        "93fe98d7d5e59df2a046a8d9f34b41c9b5a43eab48a5d2b844bb856550864beb",
        "36a0d0ef3d600d579cdb5bc5052eb7714c860ea4f1b2ac278ff1ca879e8b1150"),
}


def run(case):
    X, y = two_moons(160)
    ds = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=0)
    if case == "pop":
        library = [OperatorSet.from_index(i) for i in (0, 29, 77, 130)]
        return run_pop_baseline(ds, [6, 4], target_mse=0.0, epochs=2,
                                train_spec=POP_SPEC, seed=3, library=library)
    if case == "pmlp":
        return run_pmlp_baseline(ds, [6, 4], target_mse=0.0, epochs=3,
                                 train_spec=POP_SPEC, seed=3)
    config = dict(n_min=8, n_i=4, max_layer_width=20, max_layers=2,
                  train_spec=TrainSpec(lr_schedule=SCHEDULE))
    return run_progression(ds, ProgressionConfig(**{**config, **GROWTH[case]}))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(DIGESTS))
def test_run_keeps_its_recorded_digests(case):
    net, report = run(case)
    assert (sha256(json.dumps(report.to_dict(), sort_keys=True)),
            sha256(net.to_json())) == DIGESTS[case]
