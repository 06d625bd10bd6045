import copy
import functools
import json
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from gopnet import network
from gopnet.data import one_hot
from gopnet.errors import (
    AllCandidatesFailed,
    ConfigError,
    DegenerateBaseline,
    DimensionMismatch,
    NonFiniteLoss,
    SingularSystem,
)
from gopnet.network import GopNetwork, NeuronBlock
from gopnet.operators import (
    LIBRARY_SIZE,
    ActivationOp,
    NodalOp,
    OperatorSet,
    PERCEPTRON_SET,
    STD_FLOOR,
    PoolOp,
)
from gopnet.progression import (
    LayerRecord,
    Metric,
    ProgressionConfig,
    SearchResult,
    Variant,
    derive_seed,
    improvement_rate,
    run_pmlp_baseline,
    run_pop_baseline,
    run_progression,
    search_operator_set,
)
from gopnet.ridge import evaluate_candidate
from gopnet.synth import as_dataset, gaussian_blobs, noise_labels, two_moons
from gopnet.training import LossKind, TrainLog, TrainSpec, finetune

FAST_SPEC = TrainSpec(lr_schedule=((0.01, 3), (0.001, 2)), batch_size=16,
                      dropout_hidden=0.1, dropout_input=0.0)
TINY_SPEC = TrainSpec(lr_schedule=((0.01, 2),), batch_size=16,
                      dropout_hidden=0.0, dropout_input=0.0)


def fast_config(**kw):
    base = dict(n_min=6, n_i=4, max_layer_width=14, train_spec=FAST_SPEC,
                max_layers=2, seed=0)
    base.update(kw)
    return ProgressionConfig(**base)


def diverge_step(monkeypatch, seed, layer, step):
    """Make the finetune of (layer, step) corrupt its new block and diverge."""
    import gopnet.progression as progression

    def fake(net, data_train, data_val, spec, selection):
        if spec.seed == derive_seed(seed, 1, layer, step):
            net.hidden[layer].blocks[-1].weights[:] = np.nan
            raise NonFiniteLoss("diverged", epoch=0)
        return finetune(net, data_train, data_val, spec, selection)
    monkeypatch.setattr(progression, "finetune", fake)


def nan_after_step(monkeypatch, seed, layer, step):
    """Let the finetune of (layer, step) return normally, then set its new
    block's weights to NaN, so only the rate metric that follows sees it."""
    import gopnet.progression as progression

    def fake(net, data_train, data_val, spec, selection):
        log = finetune(net, data_train, data_val, spec, selection)
        if spec.seed == derive_seed(seed, 1, layer, step):
            net.hidden[layer].blocks[-1].weights[:] = np.nan
        return log
    monkeypatch.setattr(progression, "finetune", fake)


def final_finetune_as(monkeypatch, final_seed, final):
    """Route the finetune whose spec seed is ``final_seed`` to ``final``."""
    import gopnet.progression as progression

    def fake(net, data_train, data_val, spec, selection):
        train = final if spec.seed == final_seed else finetune
        return train(net, data_train, data_val, spec, selection)
    monkeypatch.setattr(progression, "finetune", fake)


def poisoned_finetune(spec):
    """The real finetune under ``spec``, on the training targets with the
    last row scaled by 1e200: the loss of the batch that draws it overflows,
    after earlier batches have updated the network."""
    def train(net, data_train, data_val, _, selection):
        X, Y = data_train
        Y = Y.copy()
        Y[-1] *= 1e200
        with pytest.raises(NonFiniteLoss,
                           match="non-finite training loss at epoch 0") as raised:
            finetune(net, (X, Y), data_val, spec, selection)
        raise raised.value
    return train


def skipped_finetune(*args):
    return TrainLog()


def blob_dataset(seed=0, n=160, val=True, separation=8.0):
    X, y = gaussian_blobs(n=n, separation=separation, seed=seed)
    fractions = ({"train": 0.6, "val": 0.2, "test": 0.2} if val
                 else {"train": 0.7, "test": 0.3})
    return as_dataset(X, y, fractions, seed=seed)


class TestImprovementRate:
    def test_loss_form(self):
        assert improvement_rate(1.0, 0.9, Metric.MSE) == pytest.approx(0.1)

    def test_no_change_is_zero(self):
        assert improvement_rate(0.5, 0.5, Metric.MSE) == 0.0
        assert improvement_rate(0.5, 0.5, Metric.ACCURACY) == 0.0

    def test_accuracy_form(self):
        assert improvement_rate(0.80, 0.84, Metric.ACCURACY) == pytest.approx(0.05)

    def test_degenerate_baseline(self):
        with pytest.raises(DegenerateBaseline):
            improvement_rate(0.0, 0.1, Metric.MSE)


def per_candidate_search(width, library, X_layer, Y, existing,
                         config, layer_index, step_index, Y_val=None):
    """search_operator_set as one block forward per candidate: the loop the
    grouped search must reproduce bit for bit."""
    n = len(Y)
    best = None
    indices, scores = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for op_set in library:
            rng = np.random.default_rng(np.random.SeedSequence(
                [config.seed, layer_index, step_index, op_set.index]))
            W = rng.uniform(-1.0, 1.0, size=(X_layer.shape[1], width))
            b = rng.uniform(-1.0, 1.0, size=width)
            indices.append(op_set.index)
            H_raw = NeuronBlock(op_set, W, b).forward(X_layer)
            mean = H_raw[:n].mean(axis=0)
            std = np.maximum(H_raw[:n].std(axis=0), STD_FLOOR)
            H_bar = (H_raw - mean) / std
            if not np.isfinite(H_bar).all():
                scores.append(None)
                continue
            H = H_bar if existing is None else np.hstack([existing, H_bar])
            try:
                result = evaluate_candidate(
                    H[:n], Y, config.c_grid, config.rate_metric,
                    None if Y_val is None else H[n:], Y_val)
            except (SingularSystem, np.linalg.LinAlgError):
                scores.append(None)
                continue
            scores.append(result.score)
            if best is None or config.rate_metric.better(result.score,
                                                         best.score):
                best = SearchResult(op_set, W, b, mean, std, result.B,
                                    result.score, indices, scores)
    if best is None:
        raise AllCandidatesFailed(
            f"all {len(library)} operator-set candidates failed")
    return best


@st.composite
def search_libraries(draw):
    """Library indices in any order: single sets, repeats, and runs of
    consecutive sets that fill, split or straddle (nodal, pool) groups."""
    indices = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, LIBRARY_SIZE - 1))
        length = draw(st.integers(1, 8))
        indices += range(start, min(start + length, LIBRARY_SIZE))
    return draw(st.permutations(indices)) if draw(st.booleans()) else indices


class TestSearchOperatorSet:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.X = rng.uniform(-2, 2, size=(80, 3))
        self.Y = one_hot((self.X[:, 0] > 0).astype(int), 2)

    @given(seed=st.integers(0, 2**32 - 1), indices=search_libraries(),
           width=st.integers(1, 6), fan_in=st.integers(1, 12),
           budget=st.integers(1, 1 << 17),
           specials=st.lists(st.tuples(
               st.integers(0, 10**6), st.integers(0, 11),
               st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300])),
               max_size=3),
           with_existing=st.booleans(), with_val=st.booleans(),
           metric=st.sampled_from(Metric))
    # a width-1 block over more than 8 inputs sums its fan-in pairwise
    @example(seed=0, indices=list(range(24)), width=1, fan_in=12,
             budget=1 << 17, specials=[], with_existing=False,
             with_val=False, metric=Metric.MSE)
    @settings(max_examples=60, deadline=None)
    def test_grouped_search_has_the_bits_of_one_forward_per_candidate(
            self, seed, indices, width, fan_in, budget, specials,
            with_existing, with_val, metric):
        rng = np.random.default_rng(seed)
        n, n_val = 24, 8 if with_val else 0
        X = rng.normal(scale=2.0, size=(n + n_val, fan_in))
        for row, col, value in specials:
            X[row % len(X), col % fan_in] = value
        Y = one_hot(rng.integers(0, 3, n), 3)
        Y_val = one_hot(rng.integers(0, 3, n_val), 3) if with_val else None
        existing = rng.normal(size=(n + n_val, 2)) if with_existing else None
        config = fast_config(seed=seed, rate_metric=metric,
                             op_set_indices=tuple(indices))
        args = (width, config.library(), X, Y, existing, config, 1, 2, Y_val)
        outcomes = []
        for search in (search_operator_set, per_candidate_search):
            with mock.patch.object(network, "FORWARD_CHUNK_BYTES", budget):
                try:
                    outcomes.append(search(*args))
                except AllCandidatesFailed as exc:
                    outcomes.append(str(exc))
        grouped, reference = outcomes
        if isinstance(reference, str):
            assert grouped == reference
            return
        for name in ("weights", "bias", "mean", "std", "B"):
            a, b = getattr(grouped, name), getattr(reference, name)
            assert a.shape == b.shape, name
            assert_array_equal(a.view(np.uint64), b.view(np.uint64), name)
        assert grouped.weights.base is None and grouped.bias.base is None
        assert grouped.op_set == reference.op_set
        assert (np.float64(grouped.score).view(np.uint64)
                == np.float64(reference.score).view(np.uint64))
        assert grouped.candidate_indices == reference.candidate_indices
        assert grouped.candidate_scores == reference.candidate_scores

    def test_single_set_library_returns_that_set(self):
        config = fast_config(op_set_indices=(77,))
        found = search_operator_set(4, config.library(), self.X, self.Y,
                                    None, config, 0, 0)
        assert found.op_set.index == 77
        assert found.candidate_indices == [77]

    def test_same_seed_gives_bitwise_identical_scores(self):
        config = fast_config()
        library = config.library()[:20]
        a = search_operator_set(4, library, self.X, self.Y, None, config, 0, 0)
        b = search_operator_set(4, library, self.X, self.Y, None, config, 0, 0)
        assert a.candidate_scores == b.candidate_scores
        assert_array_equal(a.weights, b.weights)

    def test_different_step_changes_draws(self):
        config = fast_config()
        library = config.library()[:5]
        a = search_operator_set(4, library, self.X, self.Y, None, config, 0, 0)
        b = search_operator_set(4, library, self.X, self.Y, None, config, 0, 1)
        assert not np.array_equal(a.weights, b.weights)

    def test_candidate_value_error_propagates(self, monkeypatch):
        import gopnet.progression as progression

        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr(progression, "evaluate_candidate", broken)
        config = fast_config()
        with pytest.raises(ValueError, match="programming error"):
            search_operator_set(4, config.library()[:3], self.X, self.Y,
                                None, config, 0, 0)

    def test_non_finite_committed_features_fail_the_search(self):
        config = fast_config()
        existing = np.ones((80, 2))
        existing[5, 1] = np.nan
        with pytest.raises(AllCandidatesFailed, match="non-finite"):
            search_operator_set(4, config.library()[:3], self.X, self.Y,
                                existing, config, 0, 1)
        # a NaN in a validation row: rows 80.. of the stacked row set
        X_rows = np.vstack([self.X, self.X[:20]])
        existing = np.ones((100, 2))
        existing[85, 1] = np.nan
        with pytest.raises(AllCandidatesFailed, match="non-finite"):
            search_operator_set(4, config.library()[:3], X_rows, self.Y,
                                existing, config, 0, 1, self.Y[:20])

    def test_validation_rows_score_candidates(self):
        """Scores and choice equal separate train/val forwards, bit for bit."""
        config = fast_config(rate_metric=Metric.MSE)
        library = config.library()[::12]
        rng = np.random.default_rng(1)
        X_val = rng.uniform(-2, 2, size=(30, 3))
        Y_val = one_hot((X_val[:, 0] > 0).astype(int), 2)
        existing = rng.normal(size=(110, 5))
        found = search_operator_set(4, library, np.vstack([self.X, X_val]),
                                    self.Y, existing, config, 0, 1, Y_val)
        scores, fits = [], {}
        with np.errstate(all="ignore"):
            for op_set in library:
                draw = np.random.default_rng(np.random.SeedSequence(
                    [config.seed, 0, 1, op_set.index]))
                block = NeuronBlock(op_set, draw.uniform(-1, 1, (3, 4)),
                                    draw.uniform(-1, 1, 4))
                H, H_val = block.forward(self.X), block.forward(X_val)
                mean = H.mean(axis=0)
                std = np.maximum(H.std(axis=0), STD_FLOOR)
                H = np.hstack([existing[:80], (H - mean) / std])
                H_val = np.hstack([existing[80:], (H_val - mean) / std])
                if not (np.isfinite(H).all() and np.isfinite(H_val).all()):
                    scores.append(None)
                    continue
                try:
                    result = evaluate_candidate(H, self.Y, config.c_grid,
                                                Metric.MSE, H_val, Y_val)
                except SingularSystem:
                    scores.append(None)
                    continue
                scores.append(result.score)
                fits[op_set.index] = result.B
        assert found.candidate_indices == [op.index for op in library]
        assert found.candidate_scores == scores
        finite = [(s, i) for i, s in zip(found.candidate_indices, scores)
                  if s is not None]
        assert found.op_set.index == min(finite)[1]
        assert_array_equal(found.B, fits[found.op_set.index])

    def test_layer_rows_must_match_the_targets(self):
        config = fast_config()
        with pytest.raises(DimensionMismatch):
            search_operator_set(4, config.library()[:3], self.X, self.Y,
                                None, config, 0, 0, self.Y[:20])

    def test_overflow_in_standardization_fails_the_candidate(self):
        # finite raw features whose column mean overflows
        config = fast_config(op_set_indices=(OperatorSet(
            NodalOp.MULTIPLICATION, PoolOp.SUMMATION, ActivationOp.RELU).index,))
        X = np.random.default_rng(2).uniform(0.5, 1.0, size=(80, 3)) * 1e307
        with pytest.raises(AllCandidatesFailed, match="all 1"):
            search_operator_set(4, config.library(), X, self.Y, None,
                                config, 0, 0)

    def test_planted_teacher_ranks_near_top(self):
        planted = OperatorSet(NodalOp.HARMONIC, PoolOp.SUMMATION,
                              ActivationOp.TANH)
        width = 16
        ranks = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = rng.uniform(-4.0, 4.0, size=(400, 4))
            teacher = NeuronBlock(planted, rng.uniform(-1, 1, (4, width)),
                                  rng.uniform(-1, 1, width))
            H = teacher.forward(X)
            H = (H - H.mean(axis=0)) / np.maximum(H.std(axis=0), 1e-6)
            Y = H @ rng.normal(size=(width, 2))
            config = fast_config(seed=seed, rate_metric=Metric.MSE)
            found = search_operator_set(width, config.library(), X, Y, None,
                                        config, 0, 0)
            scores = [np.inf if s is None else s for s in found.candidate_scores]
            order = np.argsort(scores)
            rank = int(np.flatnonzero(
                np.array(found.candidate_indices)[order] == planted.index)[0])
            ranks.append(rank)
        assert np.median(ranks) < 5


class TestNullBaseline:
    @pytest.mark.parametrize("n_minority", [80, 30])
    def test_cross_entropy_rates_start_from_the_class_prior(self, n_minority):
        """Step 0 and layer 0 rate against the constant predictor scored in
        the run's own loss: under cross-entropy, the training class prior."""
        X, y = two_moons(160, seed=0)
        keep = (y == 0) | (np.cumsum(y == 1) <= n_minority)
        ds = as_dataset(X[keep], y[keep],
                        {"train": 0.6, "val": 0.2, "test": 0.2}, seed=0)
        spec = TrainSpec(lr_schedule=((0.01, 2),), loss=LossKind.CROSS_ENTROPY)
        _, report = run_progression(ds, ProgressionConfig(
            n_min=8, n_i=4, max_layer_width=12, max_layers=1, seed=0,
            rate_metric=Metric.MSE, train_spec=spec))
        prior = ds.targets("train").mean(axis=0)
        baseline = -np.mean(ds.targets("val") @ np.log(prior))
        first = report.steps[0].metric_after
        last = [s for s in report.steps if s.accepted][-1].metric_after
        assert report.steps[0].r_value == pytest.approx(
            (baseline - first) / baseline, rel=1e-9)
        assert report.layers[0].r_value == pytest.approx(
            (baseline - last) / baseline, rel=1e-9)
        assert report.steps[0].r_value > 0


class TestGrowthStopping:
    def test_infinite_eps_n_keeps_exactly_one_block(self):
        ds = blob_dataset(seed=1)
        net, report = run_progression(ds, fast_config(
            eps_n=float("inf"), max_layers=1, seed=1))
        assert len(net.hidden) == 1
        assert len(net.hidden[0].blocks) == 1
        assert net.hidden[0].width == 6
        rejected = [s for s in report.steps if not s.accepted]
        assert len(rejected) == 1

    def test_infinite_eps_l_keeps_exactly_one_layer(self):
        ds = blob_dataset(seed=2)
        net, report = run_progression(ds, fast_config(
            eps_l=float("inf"), seed=2))
        assert len(net.hidden) == 1
        assert sum(1 for r in report.layers if r.accepted) == 1

    def test_accepted_losses_strictly_decreasing_on_train_rate_split(self):
        X, y = two_moons(220, 0.2, seed=0)
        ds = as_dataset(X, y, {"train": 0.7, "test": 0.3}, seed=0)
        config = fast_config(seed=0, eps_n=1e-6, max_layers=1,
                             max_layer_width=20, rate_metric=Metric.MSE)
        net, report = run_progression(ds, config)
        chain = [s.metric_after for s in report.steps if s.accepted]
        assert len(chain) >= 2
        for before, after in zip(chain, chain[1:]):
            assert after < before
            assert (before - after) / before >= 1e-6

    def test_rejected_step_rolls_back_bit_exactly(self):
        # config A tries a second block and must reject it; config B cannot
        # even attempt one.  Identical final models prove exact rollback.
        ds = blob_dataset(seed=4)
        cfg_a = fast_config(eps_n=float("inf"), max_layers=1, seed=4)
        cfg_b = fast_config(eps_n=float("inf"), max_layers=1, seed=4,
                            max_layer_width=6)
        net_a, report_a = run_progression(ds, cfg_a)
        net_b, report_b = run_progression(ds, cfg_b)
        assert net_a.to_json() == net_b.to_json()
        assert len(report_a.steps) == len(report_b.steps) + 1
        assert not report_a.steps[-1].accepted

    def test_first_layer_divergence_raises(self, monkeypatch):
        diverge_step(monkeypatch, 5, layer=0, step=0)
        with pytest.raises(NonFiniteLoss):
            run_progression(blob_dataset(seed=5), fast_config(seed=5))

    def test_new_layer_divergence_keeps_the_previous_layers(self, monkeypatch):
        ds = blob_dataset(seed=5)
        one_layer, _ = run_progression(ds, fast_config(seed=5, max_layers=1))
        diverge_step(monkeypatch, 5, layer=1, step=0)
        net, report = run_progression(ds, fast_config(seed=5, max_layers=2))
        assert report.layers[-1] == LayerRecord(1, 0, -1.0, False)
        assert net.to_json() == one_layer.to_json()

    def test_later_step_divergence_is_rejected_and_rolled_back(self,
                                                               monkeypatch):
        ds = blob_dataset(seed=5)
        one_block, _ = run_progression(ds, fast_config(
            seed=5, max_layers=1, max_layer_width=6))
        diverge_step(monkeypatch, 5, layer=0, step=1)
        net, report = run_progression(ds, fast_config(seed=5, max_layers=1))
        step = report.steps[1]
        assert (step.accepted, step.r_value, step.metric_after) == (
            False, -1.0, float("inf"))
        assert net.to_json() == one_block.to_json()

    def test_later_step_non_finite_rate_is_rejected_and_rolled_back(
            self, monkeypatch):
        ds = blob_dataset(seed=5)
        one_block, _ = run_progression(ds, fast_config(
            seed=5, max_layers=1, max_layer_width=6, rate_metric=Metric.MSE))
        nan_after_step(monkeypatch, 5, layer=0, step=1)
        net, report = run_progression(ds, fast_config(
            seed=5, max_layers=1, rate_metric=Metric.MSE))
        step = report.steps[1]
        assert (step.accepted, step.r_value, step.metric_after) == (
            False, -1.0, float("inf"))
        assert net.to_json() == one_block.to_json()

    def test_first_block_non_finite_rate_raises(self, monkeypatch):
        nan_after_step(monkeypatch, 5, layer=0, step=0)
        with pytest.raises(NonFiniteLoss,
                           match="first block of layer 0 diverged"):
            run_progression(blob_dataset(seed=5),
                            fast_config(seed=5, rate_metric=Metric.MSE))

    @staticmethod
    def _fail_search(monkeypatch, layer, step):
        """Make every candidate of (layer, step)'s search fail."""
        import gopnet.progression as progression

        def fake(width, library, X_layer, Y, existing, config,
                 layer_index, step_index, Y_val=None):
            if (layer_index, step_index) == (layer, step):
                raise AllCandidatesFailed(
                    f"all {len(library)} operator-set candidates failed")
            return search_operator_set(width, library, X_layer, Y, existing,
                                       config, layer_index, step_index, Y_val)
        monkeypatch.setattr(progression, "search_operator_set", fake)

    @pytest.mark.parametrize("variant", [Variant.HEMLGOP, Variant.HOMLRN])
    def test_later_step_search_failure_ends_the_layer(self, monkeypatch,
                                                      variant):
        ds = blob_dataset(seed=5)
        one_block, one_report = run_progression(ds, fast_config(
            seed=5, max_layers=1, max_layer_width=6, variant=variant))
        self._fail_search(monkeypatch, layer=0, step=1)
        net, report = run_progression(ds, fast_config(seed=5, max_layers=1,
                                                      variant=variant))
        assert net.to_json() == one_block.to_json()
        assert report.to_dict() == one_report.to_dict()

    def test_first_step_search_failure_raises(self, monkeypatch):
        self._fail_search(monkeypatch, layer=1, step=0)
        with pytest.raises(AllCandidatesFailed, match="all 144"):
            run_progression(blob_dataset(seed=5), fast_config(seed=5))

    @staticmethod
    def _overflowing_run(epochs, batch_size=32, causes=None):
        """Default growth at lr 1e4, where the loss explodes and weight norms
        overflow to inf; the message of every NonFiniteLoss that finetune
        raises is appended to ``causes``."""
        import gopnet.progression as progression

        def recording_finetune(*args):
            try:
                return finetune(*args)
            except NonFiniteLoss as exc:
                if causes is not None:
                    causes.append(str(exc))
                raise

        X, y = two_moons(160)
        ds = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=0)
        config = ProgressionConfig(max_layers=1, train_spec=TrainSpec(
            lr_schedule=((1e4, epochs),), batch_size=batch_size))
        with warnings.catch_warnings(), mock.patch.object(
                progression, "finetune", recording_finetune):
            warnings.simplefilter("error", RuntimeWarning)
            return run_progression(ds, config)

    def test_weight_norm_overflow_is_divergence(self, monkeypatch):
        # with the loss-growth rule switched off the first block's finetune
        # survives; the second step's output-weight norm overflows, and so
        # does the final finetune's
        import gopnet.training as training

        monkeypatch.setattr(training, "DIVERGENCE_RATIO", float("inf"))
        causes = []
        _, report = self._overflowing_run(1, batch_size=12, causes=causes)
        step = report.steps[1]
        assert (step.accepted, step.r_value, step.metric_after) == (
            False, -1.0, float("inf"))
        assert report.final_finetune_diverged
        assert causes == ["non-finite weight norm at epoch 0"] * 2

    def test_first_block_weight_norm_overflow_raises(self):
        causes = []
        with pytest.raises(NonFiniteLoss,
                           match="first block of layer 0 diverged"):
            self._overflowing_run(1, batch_size=4, causes=causes)
        assert causes == ["non-finite weight norm at epoch 0"]

    def test_finite_loss_explosion_of_the_first_block_raises(self):
        # the first block's losses stay finite (2e19 in epoch 0)
        with pytest.raises(NonFiniteLoss,
                           match="first block of layer 0 diverged"):
            self._overflowing_run(3)

    def test_one_epoch_explosion_of_the_first_block_raises(self):
        # the reference is the loss before the first update, so one epoch
        # is enough to see the explosion
        causes = []
        with pytest.raises(NonFiniteLoss,
                           match="first block of layer 0 diverged"):
            self._overflowing_run(1, causes=causes)
        assert len(causes) == 1
        assert causes[0].startswith("training diverged at epoch 0")

    def test_diverged_final_finetune_hands_back_the_grown_network(
            self, monkeypatch):
        ds, config = blob_dataset(seed=6), fast_config(seed=6, max_layers=1)
        final_seed = derive_seed(config.seed, 2)
        final_finetune_as(monkeypatch, final_seed,
                          poisoned_finetune(replace(FAST_SPEC, seed=0)))
        net, report = run_progression(ds, config)
        final_finetune_as(monkeypatch, final_seed, skipped_finetune)
        skipped, _ = run_progression(ds, config)
        assert report.final_finetune_diverged
        assert net.to_json() == skipped.to_json()

    def test_noise_labels_stop_well_before_cap(self):
        widths = []
        for seed in range(5):
            X, y = noise_labels(240, 4, seed=seed)
            ds = as_dataset(X, y, {"train": 0.5, "val": 0.25, "test": 0.25},
                            seed=seed)
            config = fast_config(seed=seed, max_layers=1, n_min=4, n_i=2,
                                 max_layer_width=40, rate_metric=Metric.MSE,
                                 op_set_indices=tuple(range(0, 144, 12)))
            net, _ = run_progression(ds, config)
            widths.append(net.hidden[0].width)
        assert np.median(widths) <= 20


class TestVariants:
    @pytest.mark.parametrize("variant", [Variant.HOMLGOP, Variant.HOMLRN])
    def test_homogeneous_layers_share_one_op_set(self, variant):
        ds = blob_dataset(seed=5, val=False)  # train-split rate, improves easily
        config = fast_config(variant=variant, seed=5, eps_n=0.0,
                             max_layers=1)
        net, report = run_progression(ds, config)
        layer = net.hidden[0]
        assert len(layer.blocks) >= 2
        assert len({b.op_set.index for b in layer.blocks}) == 1
        search_steps = [s for s in report.steps if s.layer_index == 0]
        assert len(search_steps[0].candidate_indices) > 1
        assert len(search_steps[1].candidate_indices) == 1

    def test_heterogeneous_layers_may_mix_op_sets(self):
        ds = blob_dataset(seed=6, val=False)
        config = fast_config(variant=Variant.HEMLGOP, seed=6, eps_n=0.0,
                             max_layers=1)
        net, report = run_progression(ds, config)
        steps = [s for s in report.steps if s.layer_index == 0]
        assert all(len(s.candidate_indices) == 144 for s in steps)

    def test_rn_variant_keeps_candidate_draws_when_lr_is_zero(self):
        ds = blob_dataset(seed=7, val=False)
        zero_spec = TrainSpec(lr_schedule=((0.0, 1),), batch_size=32,
                              dropout_hidden=0.0, dropout_input=0.0)
        config = fast_config(variant=Variant.HEMLRN, seed=7, eps_n=0.0,
                             max_layers=1, train_spec=zero_spec)
        net, report = run_progression(ds, config)
        accepted = [s for s in report.steps if s.accepted]
        assert len(accepted) == len(net.hidden[0].blocks)
        for step_index, (step, block) in enumerate(zip(accepted,
                                                       net.hidden[0].blocks)):
            rng = np.random.default_rng(np.random.SeedSequence(
                [config.seed, 0, step_index, step.chosen_op_set.index]))
            expected_w = rng.uniform(-1, 1, size=block.weights.shape)
            assert_array_equal(block.weights, expected_w)


def two_layer_moons_run():
    """(model JSON, report JSON) of a small run that grows two layers of
    two and three blocks."""
    X, y = two_moons(60, seed=4)
    ds = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=4)
    net, report = run_progression(ds, fast_config(seed=4, eps_n=0.0,
                                                  eps_l=0.0))
    return net.to_json(), json.dumps(report.to_dict())


default_budget_run = functools.cache(two_layer_moons_run)


class TestRunProgression:
    def test_separable_blobs_single_layer_high_accuracy(self):
        accs, layer_counts = [], []
        for seed in range(5):
            ds = blob_dataset(seed=20 + seed, n=200)
            net, report = run_progression(ds, fast_config(seed=seed))
            accs.append(report.final_metrics["test"]["accuracy"])
            layer_counts.append(len(net.hidden))
        assert np.median(accs) >= 0.99
        assert np.median(layer_counts) == 1

    def test_report_is_deterministic_and_params_consistent(self):
        ds = blob_dataset(seed=8)
        config = fast_config(seed=8)
        net1, report1 = run_progression(ds, config)
        net2, report2 = run_progression(ds, config)
        assert net1.to_json() == net2.to_json()
        assert json.dumps(report1.to_dict()) == json.dumps(report2.to_dict())
        assert report1.params == net1.count_params()
        manual = sum(b.fan_in * b.width + b.width
                     for layer in net1.hidden for b in layer.blocks)
        manual += net1.output_weights.size + net1.output_bias.size
        assert report1.params == manual

    @given(budget=st.one_of(st.sampled_from([1, 4096, 1 << 30]),
                            st.integers(1, 1 << 20)))
    @settings(max_examples=5, deadline=None)
    def test_outputs_do_not_depend_on_the_forward_chunk_budget(self, budget):
        reference = default_budget_run()
        with mock.patch.object(network, "FORWARD_CHUNK_BYTES", budget):
            assert two_layer_moons_run() == reference

    def test_three_class_problem(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0, 0], [6, 0], [3, 5]], dtype=float)
        X = np.vstack([rng.normal(size=(80, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 80)
        ds = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=0)
        net, report = run_progression(ds, fast_config(
            n_min=8, n_i=4, max_layer_width=16, seed=0))
        assert net.n_classes == 3
        assert report.final_metrics["test"]["accuracy"] >= 0.95
        assert net.output_weights.shape[1] == 3

    def test_no_test_split_leakage(self):
        # corrupting the test split must not change the learned model
        ds = blob_dataset(seed=11)
        corrupted = copy.deepcopy(ds)
        test_idx = corrupted.splits["test"]
        corrupted.X[test_idx] = 1e3
        corrupted.y[test_idx] = 0
        config = fast_config(seed=11)
        net_a, _ = run_progression(ds, config)
        net_b, _ = run_progression(corrupted, config)
        assert net_a.to_json() == net_b.to_json()

    def test_histogram_counts_blocks(self):
        ds = blob_dataset(seed=9)
        net, report = run_progression(ds, fast_config(seed=9))
        n_blocks = sum(len(layer.blocks) for layer in net.hidden)
        for category in ("nodal", "pool", "activation"):
            assert sum(report.operator_histogram[category].values()) == n_blocks

    def test_finetune_callers_are_the_names_the_bench_tracer_files(
            self, monkeypatch):
        """bench/tracer.py files finetune time under step or final by the
        calling function: grow_layer for each step, run_progression once."""
        import gopnet.progression as progression

        callers = []

        def recording_finetune(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return finetune(*args)
        monkeypatch.setattr(progression, "finetune", recording_finetune)
        _, report = run_progression(blob_dataset(seed=3), fast_config(
            seed=3, variant=Variant.HEMLGOP))
        assert len(report.steps) >= 2
        assert callers == ["grow_layer"] * len(report.steps) + ["run_progression"]

    def test_invalid_config_rejected(self):
        ds = blob_dataset(seed=0)
        with pytest.raises(ConfigError):
            run_progression(ds, fast_config(n_min=0))
        with pytest.raises(ConfigError):
            run_progression(ds, fast_config(n_min=100, max_layer_width=50))
        with pytest.raises(ConfigError):
            run_progression(ds, fast_config(op_set_indices=(999,)))
        for c in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                run_progression(ds, fast_config(c_grid=(0.1, c)))
        for eps in ({"eps_n": float("nan")}, {"eps_l": float("nan")}):
            with pytest.raises(ConfigError):
                run_progression(ds, fast_config(**eps))
        # integer fields fail validation, naming the field, before any search
        for field, value in (("n_min", 2.5), ("n_i", 1.5), ("n_i", False),
                             ("max_layer_width", 9.0), ("max_layers", 1.5),
                             ("seed", 1.5), ("seed", -1)):
            with pytest.raises(ConfigError, match=field):
                run_progression(ds, fast_config(**{field: value}))
        # typed fields: strings, booleans and non-members name the field
        for field, value in (("eps_n", "0.1"), ("eps_l", True),
                             ("rate_metric", "loss"), ("variant", "hemlrn"),
                             ("c_grid", ("1",)), ("c_grid", 0.1),
                             ("op_set_indices", (1.5,)),
                             ("op_set_indices", (True,)),
                             ("train_spec", {})):
            with pytest.raises(ConfigError, match=field):
                run_progression(ds, fast_config(**{field: value}))
        # a mistyped loss no longer trains and reports cross-entropy
        with pytest.raises(ConfigError, match="loss"):
            run_progression(ds, fast_config(
                train_spec=replace(FAST_SPEC, loss="mse")))


def tiny_pop_dataset(seed=0):
    X, y = gaussian_blobs(n=60, separation=6.0, seed=seed)
    return as_dataset(X, y, {"train": 0.7, "test": 0.3}, seed=seed)


class TestPopBaseline:
    def test_single_layer_template_logs_4x144_trainings(self):
        ds = tiny_pop_dataset()
        net, report = run_pop_baseline(ds, [3], target_mse=float("inf"),
                                       epochs=1, train_spec=TINY_SPEC, seed=0)
        assert len(report.candidate_trainings) == 4 * 144
        assert len(net.hidden) == 2  # hidden stage + GOP output stage
        assert not report.template_exhausted

    def test_single_set_library_degenerates_to_fixed_training(self):
        ds = tiny_pop_dataset()
        net, report = run_pop_baseline(ds, [3], target_mse=float("inf"),
                                       epochs=2, train_spec=TINY_SPEC, seed=1,
                                       library=[PERCEPTRON_SET])
        assert len(report.candidate_trainings) == 1
        ops = {b.op_set.index for layer in net.hidden for b in layer.blocks}
        assert ops == {PERCEPTRON_SET.index}

    def test_pmlp_matches_pop_with_perceptron_library(self):
        ds = tiny_pop_dataset()
        net_pop, _ = run_pop_baseline(ds, [3, 3], target_mse=0.05, epochs=2,
                                      train_spec=TINY_SPEC, seed=2,
                                      library=[PERCEPTRON_SET])
        net_pmlp, report = run_pmlp_baseline(ds, [3, 3], target_mse=0.05,
                                             epochs=2, train_spec=TINY_SPEC,
                                             seed=2)
        assert net_pop.to_json() == net_pmlp.to_json()
        assert report.candidate_trainings == []
        assert len(report.layer_trainings) >= 1

    def test_template_exhausted_is_reported_not_fatal(self):
        ds = tiny_pop_dataset()
        net, report = run_pmlp_baseline(ds, [2], target_mse=1e-12, epochs=1,
                                        train_spec=TINY_SPEC, seed=3)
        assert report.template_exhausted
        assert isinstance(net, GopNetwork)

    def test_separable_blobs_meet_target_with_one_layer(self):
        ds = tiny_pop_dataset(seed=4)
        spec = TrainSpec(lr_schedule=((0.1, 2),), batch_size=16,
                         dropout_hidden=0.0, dropout_input=0.0)
        net, report = run_pmlp_baseline(ds, [8, 8], target_mse=0.2, epochs=60,
                                        train_spec=spec, seed=4)
        assert report.layers[0].met_target
        assert len(net.hidden) == 2

    def test_diverged_final_finetune_keeps_searched_network(self, monkeypatch):
        def run(final):
            final_finetune_as(monkeypatch, derive_seed(5, 10_000), final)
            return run_pmlp_baseline(tiny_pop_dataset(), [3], target_mse=0.0,
                                     epochs=1, train_spec=TINY_SPEC, seed=5)

        net, report = run(poisoned_finetune(replace(TINY_SPEC, seed=1)))
        skipped, _ = run(skipped_finetune)
        assert report.final_finetune_diverged
        assert report.to_dict()["final_finetune_diverged"] is True
        assert net.to_json() == skipped.to_json()
        assert report.train_logs == []
        assert np.isfinite(report.final_metrics["train"]["loss"])

    def test_a_diverged_candidate_is_its_seeded_initialization(
            self, monkeypatch):
        """_train_shln scores a candidate whose finetune raises inf, and
        hands back its network as initialized: the same call with the
        finetune skipped."""
        import gopnet.progression as progression

        X, y = gaussian_blobs(n=40, separation=6.0, seed=7)
        Y = one_hot(y, 2)
        poisoned = Y.copy()
        poisoned[-1] *= 1e200
        args = (3, PERCEPTRON_SET, PERCEPTRON_SET, 2, TINY_SPEC, 0)
        net, mse = progression._train_shln(X, poisoned, *args)
        monkeypatch.setattr(progression, "finetune", skipped_finetune)
        initial, _ = progression._train_shln(X, Y, *args)
        assert mse == float("inf")
        assert net.to_json() == initial.to_json()

    def test_gis_searches_output_then_hidden_operator_per_pass(self):
        library = [OperatorSet.from_index(i) for i in (0, 17, 101)]
        _, report = run_pop_baseline(tiny_pop_dataset(), [3],
                                     target_mse=float("inf"), epochs=1,
                                     train_spec=TINY_SPEC, seed=0,
                                     library=library)
        records = report.candidate_trainings
        assert [(r.gis_pass, r.role) for r in records] == [
            (gis_pass, role) for gis_pass in (1, 2)
            for role in ("output", "hidden") for _ in library]
        blocks = [records[i:i + 3] for i in range(0, 12, 3)]
        for block in blocks:
            fixed = "hidden_op" if block[0].role == "output" else "output_op"
            assert all(getattr(r, fixed) == getattr(block[0], fixed)
                       for r in block)
        for searched, following in zip(blocks, blocks[1:]):
            role = searched[0].role + "_op"
            winner = min(searched, key=lambda r: r.train_mse)
            assert getattr(following[0], role) == getattr(winner, role)
        best = min(records, key=lambda r: r.train_mse)
        summary = report.layers[0]
        assert (summary.hidden_op, summary.output_op, summary.train_mse) == (
            best.hidden_op, best.output_op, best.train_mse)

    def test_empty_template_rejected(self):
        with pytest.raises(ConfigError):
            run_pop_baseline(tiny_pop_dataset(), [], 0.1, 1)
