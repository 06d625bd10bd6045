import copy
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

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
from gopnet.training import TrainLog, TrainSpec, finetune

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


class TestSearchOperatorSet:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.X = rng.uniform(-2, 2, size=(80, 3))
        self.Y = one_hot((self.X[:, 0] > 0).astype(int), 2)

    def test_single_set_library_returns_that_set(self):
        config = fast_config(op_set_indices=(77,))
        found = search_operator_set(4, 3, config.library(), self.X, self.Y,
                                    None, config, 0, 0)
        assert found.op_set.index == 77
        assert found.candidate_indices == [77]

    def test_same_seed_gives_bitwise_identical_scores(self):
        config = fast_config()
        library = config.library()[:20]
        a = search_operator_set(4, 3, library, self.X, self.Y, None, config, 0, 0)
        b = search_operator_set(4, 3, library, self.X, self.Y, None, config, 0, 0)
        assert a.candidate_scores == b.candidate_scores
        assert_array_equal(a.weights, b.weights)

    def test_different_step_changes_draws(self):
        config = fast_config()
        library = config.library()[:5]
        a = search_operator_set(4, 3, library, self.X, self.Y, None, config, 0, 0)
        b = search_operator_set(4, 3, library, self.X, self.Y, None, config, 0, 1)
        assert not np.array_equal(a.weights, b.weights)

    def test_candidate_value_error_propagates(self, monkeypatch):
        import gopnet.progression as progression

        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr(progression, "evaluate_candidate", broken)
        config = fast_config()
        with pytest.raises(ValueError, match="programming error"):
            search_operator_set(4, 3, config.library()[:3], self.X, self.Y,
                                None, config, 0, 0)

    def test_non_finite_committed_features_fail_the_search(self):
        config = fast_config()
        existing = np.ones((80, 2))
        existing[5, 1] = np.nan
        with pytest.raises(AllCandidatesFailed, match="non-finite"):
            search_operator_set(4, 3, config.library()[:3], self.X, self.Y,
                                existing, config, 0, 1)
        # a NaN in a validation row: rows 80.. of the stacked row set
        X_rows = np.vstack([self.X, self.X[:20]])
        existing = np.ones((100, 2))
        existing[85, 1] = np.nan
        with pytest.raises(AllCandidatesFailed, match="non-finite"):
            search_operator_set(4, 3, config.library()[:3], X_rows, self.Y,
                                existing, config, 0, 1, self.Y[:20])

    def test_validation_rows_score_candidates(self):
        """Scores and choice equal separate train/val forwards, bit for bit."""
        config = fast_config(rate_metric=Metric.MSE)
        library = config.library()[::12]
        rng = np.random.default_rng(1)
        X_val = rng.uniform(-2, 2, size=(30, 3))
        Y_val = one_hot((X_val[:, 0] > 0).astype(int), 2)
        existing = rng.normal(size=(110, 5))
        found = search_operator_set(4, 3, library, np.vstack([self.X, X_val]),
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
            search_operator_set(4, 3, config.library()[:3], self.X, self.Y,
                                None, config, 0, 0, self.Y[:20])

    def test_overflow_in_standardization_fails_the_candidate(self):
        # finite raw features whose column mean overflows
        config = fast_config(op_set_indices=(OperatorSet(
            NodalOp.MULTIPLICATION, PoolOp.SUMMATION, ActivationOp.RELU).index,))
        X = np.random.default_rng(2).uniform(0.5, 1.0, size=(80, 3)) * 1e307
        with pytest.raises(AllCandidatesFailed, match="all 1"):
            search_operator_set(4, 3, config.library(), X, self.Y, None,
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
            found = search_operator_set(width, 4, config.library(), X, Y, None,
                                        config, 0, 0)
            scores = [np.inf if s is None else s for s in found.candidate_scores]
            order = np.argsort(scores)
            rank = int(np.flatnonzero(
                np.array(found.candidate_indices)[order] == planted.index)[0])
            ranks.append(rank)
        assert np.median(ranks) < 5


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

    @staticmethod
    def _overflowing_run(epochs):
        """Default growth at lr 1e4, where weight norms overflow to inf."""
        X, y = two_moons(160)
        ds = as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}, seed=0)
        config = ProgressionConfig(max_layers=1, train_spec=TrainSpec(
            lr_schedule=((1e4, epochs),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_progression(ds, config)

    def test_weight_norm_overflow_is_divergence(self):
        # the first block's finetune stays finite; the second step's
        # output-weight norm overflows, and so does the final finetune's
        _, report = self._overflowing_run(3)
        step = report.steps[1]
        assert (step.accepted, step.r_value, step.metric_after) == (
            False, -1.0, float("inf"))
        assert report.final_finetune_diverged

    def test_first_block_weight_norm_overflow_raises(self):
        with pytest.raises(NonFiniteLoss,
                           match="first block of layer 0 diverged"):
            self._overflowing_run(5)

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
        assert report.layer_summaries[0].met_target
        assert len(net.hidden) == 2

    def test_diverged_final_finetune_keeps_searched_network(self, monkeypatch):
        import gopnet.progression as progression

        def run(final):
            def fake(net, data_train, data_val, spec, selection):
                if spec.seed == derive_seed(5, 10_000):
                    return final(net)
                return finetune(net, data_train, data_val, spec, selection)
            monkeypatch.setattr(progression, "finetune", fake)
            return run_pmlp_baseline(tiny_pop_dataset(), [3], target_mse=0.0,
                                     epochs=1, train_spec=TINY_SPEC, seed=5)

        def diverge(net):
            net.hidden[0].blocks[0].weights[:] = np.nan
            raise NonFiniteLoss("diverged", epoch=0)

        net, report = run(diverge)
        skipped, _ = run(lambda net: TrainLog())
        assert report.final_finetune_diverged
        assert report.to_dict()["final_finetune_diverged"] is True
        assert net.to_json() == skipped.to_json()
        assert report.train_logs == []
        assert np.isfinite(report.final_metrics["train"]["loss"])

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
        summary = report.layer_summaries[0]
        assert (summary.hidden_op, summary.output_op, summary.train_mse) == (
            best.hidden_op, best.output_op, best.train_mse)

    def test_empty_template_rejected(self):
        with pytest.raises(ConfigError):
            run_pop_baseline(tiny_pop_dataset(), [], 0.1, 1)
