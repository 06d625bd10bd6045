import copy
import hashlib
import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from gopnet.data import one_hot
from gopnet.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    NonFiniteLoss,
    UnfitNormalization,
)
from gopnet.network import GopLayer, GopNetwork, NeuronBlock, NormMode, NormState
from gopnet.operators import (
    ActivationOp,
    NodalOp,
    OperatorSet,
    PoolOp,
    activation_forward,
    activation_grad,
    nodal_forward,
    nodal_grad,
    pool_forward_batch,
    pool_grad_batch,
)
from gopnet import network, training
from gopnet.ridge import solve_ridge
from gopnet.training import (
    Decay,
    LossKind,
    MaxNorm,
    TrainableSelection,
    TrainLog,
    TrainLogRow,
    TrainSpec,
    backward,
    evaluate_metrics,
    finetune,
    init_batchnorm_from_standardization,
    loss_and_grad,
    training_loss,
)

PERCEPTRON = OperatorSet(NodalOp.MULTIPLICATION, PoolOp.SUMMATION,
                         ActivationOp.SIGMOID)
FD_H = 1e-6


def build_net(rng, op_set, input_dim=3, width=5, n_classes=2, fit_n=40,
              batchnorm=False, scale_rand=False):
    block = NeuronBlock(op_set, rng.uniform(-1, 1, size=(input_dim, width)),
                        rng.uniform(-1, 1, size=width))
    norm = NormState()
    norm.fit(block.forward(rng.normal(size=(fit_n, input_dim))))
    layer = GopLayer([block], norm)
    if batchnorm:
        init_batchnorm_from_standardization(layer)
        if scale_rand:
            norm.scale = rng.uniform(0.5, 1.5, size=width)
            norm.shift = rng.uniform(-0.5, 0.5, size=width)
    return GopNetwork(input_dim, [layer],
                      rng.normal(size=(width, n_classes)) * 0.3,
                      rng.normal(size=n_classes) * 0.1)


def fd_gradient(net, X, Y, selection, array, index, loss=LossKind.MSE):
    original = array[index]
    array[index] = original + FD_H
    up = training_loss(net, X, Y, selection, loss)
    array[index] = original - FD_H
    down = training_loss(net, X, Y, selection, loss)
    array[index] = original
    return (up - down) / (2.0 * FD_H)


def check_block_grads(net, X, Y, selection, rng, rtol=1e-4, atol=1e-6,
                      loss=LossKind.MSE, n_coords=6):
    grads = backward(net, X, Y, selection, loss)
    for (li, bi), (dW, db) in grads.blocks.items():
        block = net.hidden[li].blocks[bi]
        coords = [tuple(c) for c in
                  zip(rng.integers(0, block.weights.shape[0], n_coords),
                      rng.integers(0, block.weights.shape[1], n_coords))]
        for idx in coords:
            fd = fd_gradient(net, X, Y, selection, block.weights, idx, loss)
            assert np.isclose(fd, dW[idx], rtol=rtol, atol=atol), \
                f"weight {idx} of block ({li},{bi}): fd={fd} analytic={dW[idx]}"
        j = int(rng.integers(0, block.bias.shape[0]))
        fd = fd_gradient(net, X, Y, selection, block.bias, j, loss)
        assert np.isclose(fd, db[j], rtol=rtol, atol=atol)
    if grads.output is not None:
        dB, dbias = grads.output
        idx = (int(rng.integers(0, net.output_weights.shape[0])),
               int(rng.integers(0, net.output_weights.shape[1])))
        fd = fd_gradient(net, X, Y, selection, net.output_weights, idx, loss)
        assert np.isclose(fd, dB[idx], rtol=rtol, atol=atol)
        fd = fd_gradient(net, X, Y, selection, net.output_bias, 0, loss)
        assert np.isclose(fd, dbias[0], rtol=rtol, atol=atol)
    return grads


class TestBackward:
    def test_zero_network_zero_targets_gives_zero_output_grads(self):
        rng = np.random.default_rng(0)
        net = build_net(rng, PERCEPTRON)
        net.output_weights[:] = 0.0
        net.output_bias[:] = 0.0
        X = rng.normal(size=(6, 3))
        Y = np.zeros((6, 2))
        grads = backward(net, X, Y, TrainableSelection(None))
        assert_array_equal(grads.output[0], np.zeros_like(net.output_weights))
        assert_array_equal(grads.output[1], np.zeros_like(net.output_bias))

    def test_single_perceptron_hand_chain_rule(self):
        # one input, one sigmoid neuron, identity norm, scalar output
        w, b, v, c = 0.7, -0.2, 1.3, 0.4
        x, t = 0.9, 1.0
        net = GopNetwork(
            1,
            [GopLayer([NeuronBlock(PERCEPTRON, np.array([[w]]), np.array([b]))],
                      NormState(mean=np.zeros(1), std=np.ones(1),
                                scale=np.ones(1), shift=np.zeros(1)))],
            np.array([[v]]), np.array([c]))
        selection = TrainableSelection.all_blocks(net)
        grads = backward(net, np.array([[x]]), np.array([[t]]), selection)
        u = w * x + b
        s = 1.0 / (1.0 + np.exp(-u))
        p = v * s + c
        dp = 2.0 * (p - t)
        ds = s * (1.0 - s)
        assert_allclose(grads.output[0][0, 0], dp * s, rtol=1e-12)
        assert_allclose(grads.output[1][0], dp, rtol=1e-12)
        assert_allclose(grads.blocks[(0, 0)][0][0, 0], dp * v * ds * x, rtol=1e-12)
        assert_allclose(grads.blocks[(0, 0)][1][0], dp * v * ds, rtol=1e-12)

    def test_gaussian_correlation_tanh_block_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        op = OperatorSet(NodalOp.GAUSSIAN, PoolOp.CORRELATION1, ActivationOp.TANH)
        net = build_net(rng, op, input_dim=4, width=6)
        X = rng.normal(size=(12, 4))
        Y = one_hot(rng.integers(0, 2, size=12), 2)
        check_block_grads(net, X, Y, TrainableSelection.all_blocks(net), rng)

    def test_batchnorm_training_mode_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        op = OperatorSet(NodalOp.HARMONIC, PoolOp.SUMMATION, ActivationOp.TANH)
        net = build_net(rng, op, batchnorm=True, scale_rand=True)
        X = rng.normal(size=(16, 3))
        Y = one_hot(rng.integers(0, 2, size=16), 2)
        selection = TrainableSelection.all_blocks(net)
        grads = check_block_grads(net, X, Y, selection, rng)
        norm = net.hidden[0].norm
        dscale, dshift = grads.norm[0]
        for j in range(3):
            fd = fd_gradient(net, X, Y, selection, norm.scale, j)
            assert np.isclose(fd, dscale[j], rtol=1e-4, atol=1e-6)
            fd = fd_gradient(net, X, Y, selection, norm.shift, j)
            assert np.isclose(fd, dshift[j], rtol=1e-4, atol=1e-6)

    def test_two_layer_backprop_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        ops = [OperatorSet(NodalOp.DOG, PoolOp.SUMMATION, ActivationOp.SIGMOID),
               OperatorSet(NodalOp.QUADRATIC, PoolOp.CORRELATION2,
                           ActivationOp.INVERSE_ABSOLUTE)]
        fan_in = 3
        layers = []
        for op, width in zip(ops, (5, 4)):
            block = NeuronBlock(op, rng.uniform(-1, 1, (fan_in, width)),
                                rng.uniform(-1, 1, width))
            norm = NormState()
            norm.fit(block.forward(rng.normal(size=(30, fan_in))))
            layers.append(GopLayer([block], norm))
            fan_in = width
        net = GopNetwork(3, layers, rng.normal(size=(4, 2)) * 0.3,
                         np.zeros(2))
        X = rng.normal(size=(10, 3))
        Y = one_hot(rng.integers(0, 2, size=10), 2)
        check_block_grads(net, X, Y, TrainableSelection.all_blocks(net), rng)

    def test_cross_entropy_gradients(self):
        rng = np.random.default_rng(11)
        net = build_net(rng, PERCEPTRON)
        X = rng.normal(size=(9, 3))
        Y = one_hot(rng.integers(0, 2, size=9), 2)
        check_block_grads(net, X, Y, TrainableSelection.all_blocks(net), rng,
                          loss=LossKind.CROSS_ENTROPY)

    def test_every_operator_set_backprops_correctly(self):
        # 4-input / 3-neuron / 2-class network per operator set, 10 random
        # coordinates each against finite differences; kink-adjacent setups
        # are re-drawn
        from gopnet.operators import enumerate_operator_sets

        def kink_adjacent(block, X):
            Z, x, _ = block.forward_parts(X)
            if block.op_set.activation in (ActivationOp.RELU, ActivationOp.ELU):
                if np.abs(x).min() < 1e-3:
                    return True
            if block.op_set.pool is PoolOp.MAXIMUM and Z.shape[1] >= 2:
                top2 = np.sort(Z, axis=1)[:, -2:, :]
                if (top2[:, 1, :] - top2[:, 0, :]).min() < 1e-3:
                    return True
            return False

        for op_set in enumerate_operator_sets():
            net = X = None
            for attempt in range(40):
                rng = np.random.default_rng(50_000 + 131 * op_set.index + attempt)
                block = NeuronBlock(op_set, rng.uniform(-1, 1, (4, 3)),
                                    rng.uniform(-1, 1, 3))
                X = rng.uniform(-1.5, 1.5, size=(10, 4))
                if kink_adjacent(block, X):
                    continue
                norm = NormState()
                norm.fit(block.forward(X))
                net = GopNetwork(4, [GopLayer([block], norm)],
                                 rng.normal(size=(3, 2)) * 0.4,
                                 rng.normal(size=2) * 0.1)
                break
            assert net is not None, f"no kink-free setup for {op_set}"
            Y = one_hot(rng.integers(0, 2, size=10), 2)
            selection = TrainableSelection.all_blocks(net)
            grads = backward(net, X, Y, selection)
            block = net.hidden[0].blocks[0]
            dW, db = grads.blocks[(0, 0)]
            dB, dbias = grads.output
            targets = [(block.weights, dW,
                        (int(rng.integers(4)), int(rng.integers(3))))
                       for _ in range(6)]
            targets.append((block.bias, db, (int(rng.integers(3)),)))
            targets.append((net.output_weights, dB,
                            (int(rng.integers(3)), int(rng.integers(2)))))
            targets.append((net.output_bias, dbias, (0,)))
            targets.append((net.output_bias, dbias, (1,)))
            for array, grad, idx in targets:
                fd = fd_gradient(net, X, Y, selection, array, idx)
                assert abs(fd - grad[idx]) / max(abs(grad[idx]), 1e-6) < 1e-4, \
                    f"{op_set} at {idx}: fd={fd} analytic={grad[idx]}"

    def test_unselected_parameters_absent(self):
        rng = np.random.default_rng(1)
        net = build_net(rng, PERCEPTRON)
        X = rng.normal(size=(5, 3))
        Y = one_hot(rng.integers(0, 2, size=5), 2)
        grads = backward(net, X, Y, TrainableSelection(None))
        assert grads.blocks == {} and grads.norm == {}
        assert grads.output is not None

    def test_selection_validates_references(self):
        rng = np.random.default_rng(1)
        net = build_net(rng, PERCEPTRON)
        for bad in (TrainableSelection((3, 0)), TrainableSelection((0, 1))):
            with pytest.raises(ConfigError):
                backward(net, np.ones((2, 3)), np.ones((2, 2)), bad)


class TestFinetune:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.net = build_net(self.rng, PERCEPTRON, input_dim=2, width=4)
        self.X = self.rng.normal(size=(40, 2))
        self.Y = one_hot((self.X[:, 0] > 0).astype(int), 2)

    def test_zero_learning_rate_leaves_parameters_bit_identical(self):
        net = copy.deepcopy(self.net)
        spec = TrainSpec(lr_schedule=((0.0, 3),), seed=5)
        finetune(net, (self.X, self.Y), None, spec,
                 TrainableSelection.all_blocks(net))
        assert_array_equal(net.hidden[0].blocks[0].weights,
                           self.net.hidden[0].blocks[0].weights)
        assert_array_equal(net.output_weights, self.net.output_weights)
        assert_array_equal(net.output_bias, self.net.output_bias)

    def test_frozen_parameters_bit_identical(self):
        rng = np.random.default_rng(0)
        block2 = NeuronBlock(PERCEPTRON, rng.uniform(-1, 1, (2, 3)),
                             rng.uniform(-1, 1, 3))
        net = copy.deepcopy(self.net)
        net.hidden[0].blocks.append(block2)
        net.hidden[0].norm.extend(np.zeros(3), np.ones(3))
        net.output_weights = rng.normal(size=(7, 2))
        before = copy.deepcopy(net)
        spec = TrainSpec(lr_schedule=((0.01, 4),), seed=3)
        finetune(net, (self.X, self.Y), None, spec,
                 TrainableSelection.newest_block(net))
        assert_array_equal(net.hidden[0].blocks[0].weights,
                           before.hidden[0].blocks[0].weights)
        assert_array_equal(net.hidden[0].blocks[0].bias,
                           before.hidden[0].blocks[0].bias)
        assert not np.array_equal(net.hidden[0].blocks[1].weights,
                                  before.hidden[0].blocks[1].weights)
        assert not np.array_equal(net.output_weights, before.output_weights)

    def test_convex_linear_training_reaches_ridge_optimum(self):
        rng = np.random.default_rng(8)
        net = build_net(rng, PERCEPTRON, input_dim=3, width=5)
        X = rng.normal(size=(60, 3))
        Y = one_hot(rng.integers(0, 2, size=60), 2)
        H = net.hidden_forward(X)
        optimum = float(np.mean((H @ solve_ridge(H, Y, 0.0) - Y) ** 2))
        spec = TrainSpec(lr_schedule=((0.5, 150), (0.1, 150)), batch_size=60,
                         dropout_hidden=0.0, dropout_input=0.0,
                         weight_reg=None, seed=0)
        finetune(net, (X, Y), None, spec, TrainableSelection(None))
        final, _ = evaluate_metrics(net, X, Y)
        assert final <= optimum + 1e-3

    def test_fixed_seed_reproduces_trainlog_bit_for_bit(self):
        spec = TrainSpec(lr_schedule=((0.01, 3),), seed=11)
        log1 = finetune(copy.deepcopy(self.net), (self.X, self.Y),
                        (self.X, self.Y), spec,
                        TrainableSelection.all_blocks(self.net))
        log2 = finetune(copy.deepcopy(self.net), (self.X, self.Y),
                        (self.X, self.Y), spec,
                        TrainableSelection.all_blocks(self.net))
        assert log1.as_records() == log2.as_records()

    def test_max_norm_constraint_holds(self):
        net = copy.deepcopy(self.net)
        limit = 0.5
        spec = TrainSpec(lr_schedule=((0.05, 5),), weight_reg=MaxNorm(limit),
                         seed=2)
        finetune(net, (self.X, self.Y), None, spec,
                 TrainableSelection.all_blocks(net))
        rows = np.linalg.norm(net.hidden[0].blocks[0].weights, axis=1)
        assert (rows <= limit + 1e-9).all()
        out_rows = np.linalg.norm(net.output_weights, axis=1)
        assert (out_rows <= limit + 1e-9).all()

    def test_weight_decay_shrinks_weights_at_zero_gradient(self):
        rng = np.random.default_rng(0)
        net = build_net(rng, PERCEPTRON, input_dim=2, width=3)
        X = np.zeros((8, 2))
        Y = np.zeros((8, 2))
        net.output_bias[:] = 0.0
        # zero inputs and zero normalized features: loss gradient is zero for
        # block weights, so only decay acts on them
        net.hidden[0].norm.mean[:] = net.hidden[0].blocks[0].forward(X)[0]
        before = np.abs(net.hidden[0].blocks[0].weights).sum()
        spec = TrainSpec(lr_schedule=((0.1, 3),), dropout_hidden=0.0,
                         dropout_input=0.0, weight_reg=Decay(0.1), seed=0)
        finetune(net, (X, Y), None, spec,
                 TrainableSelection((0, 0), include_output=False))
        after = np.abs(net.hidden[0].blocks[0].weights).sum()
        assert after < before

    def test_dropout_off_at_inference(self):
        net = copy.deepcopy(self.net)
        spec = TrainSpec(lr_schedule=((0.01, 2),), dropout_hidden=0.5,
                         dropout_input=0.3, seed=1)
        finetune(net, (self.X, self.Y), None, spec,
                 TrainableSelection.all_blocks(net))
        assert_array_equal(net.forward(self.X), net.forward(self.X))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_aborts_with_epoch(self):
        net = copy.deepcopy(self.net)
        net.output_weights[:] = 1e300
        net.output_bias[:] = 1e300
        spec = TrainSpec(lr_schedule=((1e6, 4),), dropout_hidden=0.0,
                         dropout_input=0.0, weight_reg=None, seed=0)
        with pytest.raises(NonFiniteLoss) as err:
            finetune(net, (self.X, self.Y * 1e300), None, spec,
                     TrainableSelection.all_blocks(net))
        assert err.value.epoch == 0

    def test_finite_loss_explosion_aborts_with_epoch(self):
        net = copy.deepcopy(self.net)
        spec = TrainSpec(lr_schedule=((5.0, 4),), dropout_hidden=0.0,
                         dropout_input=0.0, weight_reg=None, seed=0)
        with pytest.raises(NonFiniteLoss, match="diverged at epoch 1") as err:
            finetune(net, (self.X, self.Y), None, spec,
                     TrainableSelection.all_blocks(net))
        assert err.value.epoch == 1
        assert np.isfinite(net.forward(self.X)).all()

    def test_explosion_within_the_first_epoch_aborts(self):
        # the reference is the loss of the first batch, before any update
        net = copy.deepcopy(self.net)
        spec = TrainSpec(lr_schedule=((1e2, 1),), dropout_hidden=0.0,
                         dropout_input=0.0, weight_reg=None, seed=0)
        with pytest.raises(NonFiniteLoss, match="diverged at epoch 0") as err:
            finetune(net, (self.X, self.Y), None, spec,
                     TrainableSelection.all_blocks(net))
        assert err.value.epoch == 0

    def test_non_finite_validation_loss_aborts(self):
        X_val = self.X.copy()
        X_val[3, 1] = np.nan
        spec = TrainSpec(lr_schedule=((0.01, 3),), seed=0)
        with pytest.raises(NonFiniteLoss) as err:
            finetune(copy.deepcopy(self.net), (self.X, self.Y),
                     (X_val, self.Y), spec,
                     TrainableSelection.all_blocks(self.net))
        assert err.value.epoch == 0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TrainSpec(lr_schedule=()).validate()
        with pytest.raises(ConfigError):
            TrainSpec(lr_schedule=((0.001, 5), (0.01, 5))).validate()
        for epochs in (0, 2.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainSpec(lr_schedule=((0.01, epochs),)).validate()
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainSpec(lr_schedule=((lr, 5),)).validate()
        # malformed stages: a triple, a single, a bare rate, a boolean epoch
        # count and a string rate, each named in the message
        for schedule in (((0.1, 2, 3),), ((0.1,),), (0.1,), ((0.1, True),),
                         (("0.1", 2),)):
            with pytest.raises(ConfigError, match="lr_schedule stage 0"):
                TrainSpec(lr_schedule=schedule).validate()
        # integer fields: each failure names the field
        for field, value in (("batch_size", 2.5), ("batch_size", 0),
                             ("batch_size", True), ("seed", 1.5),
                             ("seed", -1), ("seed", "3")):
            with pytest.raises(ConfigError, match=field):
                TrainSpec(**{field: value}).validate()
        # typed fields: a string, a boolean or a mistyped member names the field
        for field, value in (("dropout_hidden", "0.3"), ("dropout_input", True),
                             ("loss", "mse"), ("weight_reg", "max-norm")):
            with pytest.raises(ConfigError, match=field):
                TrainSpec(**{field: value}).validate()
        for reg, field in ((MaxNorm("2"), "limit"), (Decay("2"), "lam"),
                           (MaxNorm(True), "limit")):
            with pytest.raises(ConfigError, match=field):
                TrainSpec(weight_reg=reg).validate()
        with pytest.raises(ConfigError):
            TrainSpec(dropout_hidden=1.0).validate()
        for reg in (MaxNorm(-1.0), MaxNorm(0.0), MaxNorm(float("inf")),
                    MaxNorm(float("nan")), Decay(-5.0), Decay(float("inf")),
                    Decay(float("nan"))):
            with pytest.raises(ConfigError):
                TrainSpec(weight_reg=reg).validate()
        TrainSpec().validate()
        TrainSpec(weight_reg=Decay(0.0)).validate()


class TestBatchNormInit:
    def test_conversion_preserves_outputs(self):
        rng = np.random.default_rng(5)
        net = build_net(rng, PERCEPTRON, input_dim=3, width=6, fit_n=80)
        layer = net.hidden[0]
        X = rng.normal(size=(100, 3))
        before = layer.forward(X)
        init_batchnorm_from_standardization(layer)
        assert layer.norm.mode is NormMode.BATCHNORM
        after = layer.forward(X)
        assert np.abs(after - before).max() < 1e-12

    def test_scale_shift_start_at_identity(self):
        rng = np.random.default_rng(5)
        net = build_net(rng, PERCEPTRON)
        layer = net.hidden[0]
        init_batchnorm_from_standardization(layer)
        assert_array_equal(layer.norm.scale, np.ones(layer.width))
        assert_array_equal(layer.norm.shift, np.zeros(layer.width))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        net = build_net(rng, PERCEPTRON)
        layer = net.hidden[0]
        init_batchnorm_from_standardization(layer)
        layer.norm.scale[0] = 2.0
        init_batchnorm_from_standardization(layer)
        assert layer.norm.scale[0] == 2.0

    def test_unfit_raises(self):
        layer = GopLayer([NeuronBlock(PERCEPTRON, np.ones((2, 2)),
                                      np.zeros(2))], NormState())
        with pytest.raises(UnfitNormalization):
            init_batchnorm_from_standardization(layer)

    def test_running_stats_update_only_for_selected_columns(self):
        rng = np.random.default_rng(6)
        net = build_net(rng, PERCEPTRON, input_dim=2, width=3)
        block2 = NeuronBlock(PERCEPTRON, rng.uniform(-1, 1, (2, 3)),
                             rng.uniform(-1, 1, 3))
        net.hidden[0].blocks.append(block2)
        net.hidden[0].norm.extend(np.full(3, 0.25), np.full(3, 2.0))
        net.output_weights = rng.normal(size=(6, 2))
        init_batchnorm_from_standardization(net.hidden[0])
        frozen_mean = net.hidden[0].norm.mean[:3].copy()
        X = rng.normal(size=(30, 2))
        Y = one_hot(rng.integers(0, 2, size=30), 2)
        spec = TrainSpec(lr_schedule=((0.01, 2),), seed=0)
        finetune(net, (X, Y), None, spec, TrainableSelection.newest_block(net))
        assert_array_equal(net.hidden[0].norm.mean[:3], frozen_mean)
        assert not np.array_equal(net.hidden[0].norm.mean[3:], np.full(3, 0.25))


def middle_block_net(rng):
    """A batch-norm layer of three blocks over 3 inputs, then a one-block
    batch-norm layer."""
    ops = [OperatorSet(NodalOp.HARMONIC, PoolOp.SUMMATION, ActivationOp.TANH),
           OperatorSet(NodalOp.DOG, PoolOp.CORRELATION1, ActivationOp.SIGMOID),
           OperatorSet(NodalOp.EXPONENTIAL, PoolOp.SUMMATION,
                       ActivationOp.SOFTPLUS)]
    fit = rng.normal(size=(40, 3))
    layers = []
    for layer_ops, fan_in in ((ops, 3), (ops[:1], 9)):
        blocks = [NeuronBlock(op, rng.uniform(-1, 1, (fan_in, width)),
                              rng.uniform(-1, 1, width))
                  for op, width in zip(layer_ops, (3, 4, 2))]
        norm = NormState()
        norm.fit(np.concatenate([b.forward(fit) for b in blocks], axis=1))
        layer = GopLayer(blocks, norm)
        init_batchnorm_from_standardization(layer)
        norm.scale = rng.uniform(0.5, 1.5, size=layer.width)
        norm.shift = rng.uniform(-0.5, 0.5, size=layer.width)
        layers.append(layer)
        fit = layer.forward(fit)
    return GopNetwork(3, layers, rng.normal(size=(3, 2)) * 0.5,
                      rng.normal(size=2) * 0.1)


# recorded by the block-set selection code, which wrote this selection as
# frozenset({(0, 1), (0, 2), (1, 0)})
MIDDLE_BLOCK_FINETUNE_SHA256 = (
    "74b1490bd68a1442c57cfd73f44c6fed17e45c58dbe8e2b2a8b7d2b0abc1ecae")


class TestMiddleBlockSpan:
    """Training starts at the middle block of three, so layer 0 keeps a
    frozen prefix before its live columns and layer 1 trains whole."""

    def setup_method(self):
        self.rng = np.random.default_rng(17)
        self.net = middle_block_net(self.rng)
        self.X = self.rng.normal(size=(14, 3))
        self.Y = one_hot(self.rng.integers(0, 2, size=14), 2)
        self.selection = TrainableSelection((0, 1))

    def test_gradients_match_finite_difference(self):
        grads = check_block_grads(self.net, self.X, self.Y, self.selection,
                                  self.rng)
        trained = [(0, 1), (0, 2), (1, 0)]
        assert sorted(grads.blocks) == trained and sorted(grads.norm) == [0, 1]
        norm = self.net.hidden[0].norm
        dscale, dshift = grads.norm[0]
        assert dscale.shape == dshift.shape == (6,)
        for j in range(6):
            fd = fd_gradient(self.net, self.X, self.Y, self.selection,
                             norm.scale, 3 + j)
            assert np.isclose(fd, dscale[j], rtol=1e-4, atol=1e-6)
            fd = fd_gradient(self.net, self.X, self.Y, self.selection,
                             norm.shift, 3 + j)
            assert np.isclose(fd, dshift[j], rtol=1e-4, atol=1e-6)

    def test_finetune_reruns_bit_for_bit_and_leaves_the_prefix(self):
        spec = TrainSpec(lr_schedule=((0.05, 3),), batch_size=5, seed=4)
        runs = []
        for _ in range(2):
            net = copy.deepcopy(self.net)
            log = finetune(net, (self.X, self.Y), (self.X, self.Y), spec,
                           self.selection)
            runs.append((net.to_json(), log.as_records()))
        assert runs[0] == runs[1]
        assert hashlib.sha256(json.dumps(runs[0]).encode()).hexdigest() == (
            MIDDLE_BLOCK_FINETUNE_SHA256)
        net = GopNetwork.from_json(runs[0][0])
        before, after = self.net.hidden[0], net.hidden[0]
        assert_array_equal(after.blocks[0].weights, before.blocks[0].weights)
        for bi in (1, 2):
            assert not np.array_equal(after.blocks[bi].weights,
                                      before.blocks[bi].weights)
        assert not np.array_equal(net.hidden[1].blocks[0].weights,
                                  self.net.hidden[1].blocks[0].weights)
        for name in ("mean", "std", "scale", "shift"):
            assert_array_equal(getattr(after.norm, name)[:3],
                               getattr(before.norm, name)[:3])
            assert not np.array_equal(getattr(after.norm, name)[3:],
                                      getattr(before.norm, name)[3:])
            assert not np.array_equal(getattr(net.hidden[1].norm, name),
                                      getattr(self.net.hidden[1].norm, name))


class TestHandWrittenReductions:
    """training.py writes mean, var, the MSE mean and the row norm as the
    np.add.reduce calls numpy's own code makes; they must keep its bytes,
    also on the F-ordered mask gathers the batch statistics are taken over."""

    @given(H=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2,
                                                max_side=40),
                        elements=st.floats(-1e3, 1e3)),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_they_equal_the_library_calls(self, H, data):
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=H.shape[1],
                                           max_size=H.shape[1])))
        mask[data.draw(st.integers(0, H.shape[1] - 1))] = True  # as any_live
        for h in (H, H[:, mask]):
            n = len(h)
            mean = np.add.reduce(h, axis=0) / n
            centered = h - mean
            var = np.add.reduce(centered * centered, axis=0) / n
            for ours, numpys in ((mean, h.mean(axis=0)), (var, h.var(axis=0)),
                                 (np.add.reduce(h * h, axis=None) / h.size,
                                  np.mean(h * h)),
                                 (np.sqrt(np.add.reduce(h * h, axis=1)),
                                  np.linalg.norm(h, axis=1))):
                assert np.array_equal(np.asarray(ours).view(np.uint64),
                                      np.asarray(numpys).view(np.uint64))


class TestLossHead:
    """loss_and_grad writes through the buffers of the one loss head the
    step uses; it must keep the bits of the loss computed with fresh
    temporaries."""

    @pytest.mark.parametrize("loss", list(LossKind))
    @given(P=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2,
                                                max_side=12),
                        elements=st.floats(-1e3, 1e3)),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_it_has_the_bits_of_fresh_temporaries(self, loss, P, data):
        Y = one_hot(np.array(data.draw(st.lists(
            st.integers(0, P.shape[1] - 1), min_size=len(P),
            max_size=len(P)))), P.shape[1])
        value, dP = loss_and_grad(P, Y, loss)
        want_value, want_dP = reference_loss_and_grad(P, Y, loss)
        assert float_bits(value) == float_bits(want_value)
        assert_same_bits([dP], [want_dP])


# ---------------------------------------------------------------------------
# The per-epoch loop against the per-batch one
# ---------------------------------------------------------------------------

# The SGD step as it was before its operator calls were bound and its
# passes wrote into plan buffers, kept here unchanged as the reference that
# finetune's step must keep the bits of: the operators go through the public
# lookups, the block forward and backward are inlined, and every temporary
# is a fresh array.

@dataclass
class ReferenceLayerPlan:
    spans: list
    visit: list
    live: slice | None
    live_norm: tuple | None
    frozen: tuple | None
    frozen_gain: tuple | None
    Z: list
    scratch: list


@dataclass
class ReferenceGradients:
    blocks: dict
    norm: dict
    output: tuple | None


@dataclass
class ReferencePlan:
    layers: list
    lowest: int
    include_output: bool
    grads: ReferenceGradients


@dataclass
class ReferenceCache:
    inputs: np.ndarray
    Z: tuple
    x: tuple
    xhat: np.ndarray | None
    batch_stats: np.ndarray | None
    a: np.ndarray
    drop_mask: np.ndarray | None


def reference_slots(net, selection):
    """(owner, name) of every trained array in flat-buffer order, and the
    keys of the trained blocks and batch-norm layers: weight matrices (the
    trained blocks from the top layer down, then the output map), the block
    biases in the same order, each trained batch-norm layer's scale and
    shift, the output bias."""
    lowest, first = selection.first_trained(net)
    blocks, norm_keys = {}, []
    for li in range(len(net.hidden) - 1, lowest - 1, -1):
        layer = net.hidden[li]
        for bi in range(first if li == lowest else 0, len(layer.blocks)):
            blocks[li, bi] = layer.blocks[bi]
        if layer.norm.mode is NormMode.BATCHNORM:
            norm_keys.append(li)
    output = ([(net, "output_weights"), (net, "output_bias")]
              if selection.include_output else [])
    slots = ([(b, "weights") for b in blocks.values()] + output[:1]
             + [(b, "bias") for b in blocks.values()]
             + [(net.hidden[li].norm, name) for li in norm_keys
                for name in ("scale", "shift")]
             + output[1:])
    return slots, list(blocks), norm_keys


def reference_views(flat, arrays):
    """Consecutive views of ``flat`` shaped, and ordered in memory, as
    ``arrays``."""
    views, start = [], 0
    for a in arrays:
        order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
        views.append(flat[start:start + a.size].reshape(a.shape, order=order))
        start += a.size
    return views


def reference_plan(net, selection, rows):
    slots, block_keys, norm_keys = reference_slots(net, selection)
    arrays = [getattr(owner, name) for owner, name in slots]
    grad = np.zeros(sum(a.size for a in arrays))
    n_matrices = len(block_keys) + selection.include_output
    lowest, first = selection.first_trained(net)
    scratch = [np.empty(max(rows * layer.fan_in * b.width for layer in net.hidden
                            for b in layer.blocks)) for _ in range(3)]
    layers = []
    for li, layer in enumerate(net.hidden):
        norm = layer.norm
        spans = [layer.block_slice(bi) for bi in range(len(layer.blocks))]
        visit = ([] if li < lowest
                 else list(range(first if li == lowest else 0, len(spans))))
        trained = slice(spans[visit[0]].start, layer.width) if visit else None
        live = trained if norm.mode is NormMode.BATCHNORM else None
        frozen = slice(0, layer.width if live is None else live.start)
        shapes = [(rows, layer.fan_in, b.width) for b in layer.blocks]
        layers.append(ReferenceLayerPlan(
            spans, visit, live,
            None if live is None else (norm.scale[live], norm.shift[live]),
            (frozen, norm.scale[frozen], norm.mean[frozen], norm.std[frozen],
             norm.shift[frozen]) if frozen.stop > 0 else None,
            (trained, norm.scale[trained] / norm.std[trained])
            if trained is not None and live is None else None,
            [np.empty(shape) for shape in shapes],
            [tuple(f[:np.prod(shape)].reshape(shape) for f in scratch)
             for shape in shapes]))
    views = reference_views(grad, arrays)
    biases = views[n_matrices:]
    norm_grads = biases[len(block_keys):len(block_keys) + 2 * len(norm_keys)]
    grads = ReferenceGradients(
        dict(zip(block_keys, zip(views, biases))),
        {li: (dscale[layers[li].live], dshift[layers[li].live])
         for li, dscale, dshift in zip(norm_keys, norm_grads[::2],
                                       norm_grads[1::2])},
        (views[n_matrices - 1], views[-1]) if selection.include_output else None)
    return ReferencePlan(layers, lowest, selection.include_output, grads)


def reference_block_parts(block, inputs, Z_out):
    Z = nodal_forward(block.op_set.nodal, block.weights[None],
                      inputs[:, :, None], Z_out)
    x = pool_forward_batch(block.op_set.pool, Z) + block.bias
    return Z, x, activation_forward(block.op_set.activation, x)


def reference_block_backward(block, inputs, Z, x, dh, want_inputs, scratch,
                             out):
    G, S, T = scratch
    dx = dh * activation_grad(block.op_set.activation, x)
    dZ = dx[:, None, :]
    if block.op_set.pool is not PoolOp.SUMMATION:
        dZ = np.multiply(dZ, pool_grad_batch(block.op_set.pool, Z, G, T), out=G)
    gw, gy = nodal_grad(block.op_set.nodal, block.weights[None, :, :],
                        inputs[:, :, None], want_inputs, (Z, S, T))
    dW, dbias = out
    dW = np.multiply(dZ, gw, out=Z).sum(axis=0, out=dW)
    dbias = dx.sum(axis=0, out=dbias)
    dinputs = np.multiply(dZ, gy, out=Z).sum(axis=2) if want_inputs else None
    return dW, dbias, dinputs


def reference_forward_train(net, X, plan, input_mask=None, hidden_masks=None):
    a = X if input_mask is None else X * input_mask
    caches = []
    for li, (layer, lp) in enumerate(zip(net.hidden, plan.layers)):
        inputs = a
        Zs, xs, hs = zip(*(reference_block_parts(block, inputs, Z[:len(inputs)])
                           for block, Z in zip(layer.blocks, lp.Z)))
        H_raw = hs[0] if len(hs) == 1 else np.concatenate(hs, axis=1)
        out = np.empty_like(H_raw)
        if lp.frozen is not None:
            sp, scale, mean, std, shift = lp.frozen
            out[:, sp] = scale * (H_raw[:, sp] - mean) / std + shift
        xhat = batch_stats = None
        if lp.live is not None:
            h_live = np.asfortranarray(H_raw[:, lp.live])
            n = len(h_live)
            batch_stats = np.empty((2, h_live.shape[1]))
            batch_mean, sigma = batch_stats
            np.divide(np.add.reduce(h_live, axis=0), n, out=batch_mean)
            centered = h_live - batch_mean
            np.sqrt(np.add.reduce(centered * centered, axis=0) / n
                    + training.BN_EPS, out=sigma)
            xhat = centered / sigma
            scale, shift = lp.live_norm
            out[:, lp.live] = scale * xhat + shift
        drop_mask = None if hidden_masks is None else hidden_masks[li]
        a = out if drop_mask is None else np.multiply(out, drop_mask, out=out)
        caches.append(ReferenceCache(inputs, Zs, xs, xhat, batch_stats, a,
                                     drop_mask))
    return a @ net.output_weights + net.output_bias, caches


def reference_backward(net, caches, dP, plan):
    grads = plan.grads
    if plan.include_output:
        dB, dbias = grads.output
        np.matmul(caches[-1].a.T, dP, out=dB)
        dP.sum(axis=0, out=dbias)
    dA = dP @ net.output_weights.T
    for li in range(len(net.hidden) - 1, plan.lowest - 1, -1):
        layer, lp, cache = net.hidden[li], plan.layers[li], caches[li]
        dout = dA if cache.drop_mask is None else dA * cache.drop_mask
        dH_raw = np.empty(dout.shape)
        if lp.frozen_gain is not None:
            sp, gain = lp.frozen_gain
            np.multiply(dout[:, sp], gain, out=dH_raw[:, sp])
        if lp.live is not None:
            d_live = np.asfortranarray(dout[:, lp.live])
            xhat = cache.xhat
            n = len(d_live)
            dxhat = d_live * lp.live_norm[0]
            mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=0) / n
            dH_raw[:, lp.live] = (dxhat - np.add.reduce(dxhat, axis=0) / n
                                  - xhat * mean_dxhat_xhat) / cache.batch_stats[1]
            dscale, dshift = grads.norm[li]
            np.add.reduce(d_live * xhat, axis=0, out=dscale)
            np.add.reduce(d_live, axis=0, out=dshift)
        need_dinputs = li > plan.lowest
        dinputs = np.zeros_like(cache.inputs) if need_dinputs else None
        rows = len(cache.inputs)
        for bi in lp.visit:
            _, _, dblock = reference_block_backward(
                layer.blocks[bi], cache.inputs, cache.Z[bi], cache.x[bi],
                dH_raw[:, lp.spans[bi]], need_dinputs,
                [s[:rows] for s in lp.scratch[bi]], grads.blocks[(li, bi)])
            if need_dinputs:
                dinputs += dblock
        dA = dinputs
    return grads


def reference_loss_and_grad(P, Y, loss):
    if loss is LossKind.MSE:
        diff = P - Y
        mse = np.add.reduce(diff * diff, axis=None) / diff.size
        return float(mse), (2.0 / diff.size) * diff
    shifted = P - P.max(axis=1, keepdims=True)
    expP = np.exp(shifted)
    probs = expP / expP.sum(axis=1, keepdims=True)
    n = P.shape[0]
    value = float(-np.sum(Y * (shifted - np.log(expP.sum(axis=1, keepdims=True)))) / n)
    return value, (probs - Y) / n


def reference_evaluate_metrics(net, X, Y, loss):
    with np.errstate(over="ignore", invalid="ignore"):
        P = net.forward(X)
        value, _ = reference_loss_and_grad(P, Y, loss)
        accuracy = float(np.mean(P.argmax(axis=1) == Y.argmax(axis=1)))
    return value, accuracy


def reference_project_rows(W, limit, epoch):
    norms = np.sqrt(np.add.reduce(W * W, axis=1))
    if norms.max() <= limit:
        return
    if not np.isfinite(norms).all():
        raise NonFiniteLoss(f"non-finite weight norm at epoch {epoch}", epoch=epoch)
    over = norms > limit
    W[over] *= (limit / norms[over])[:, None]


def per_batch_finetune(net, data_train, data_val, spec, selection):
    """finetune with one gather, dropout draw and hit count per batch, the
    reference step above and an update block by block, each block projected
    before the next is updated: the loop whose log, raise and trained state
    the per-epoch finetune must reproduce bit for bit."""
    spec.validate()
    selection.validate(net)
    X, Y = data_train
    X = np.asarray(X, dtype=float)
    plan = reference_plan(net, selection, min(spec.batch_size, len(X)))
    Y = np.asarray(Y, dtype=float)
    labels = Y.argmax(axis=1)
    rng = np.random.default_rng(spec.seed)
    log = TrainLog()
    loss_limit = None
    n = X.shape[0]
    lrs = [lr for lr, epochs in spec.lr_schedule for _ in range(int(epochs))]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch_index, lr in enumerate(lrs):
            order = rng.permutation(n)
            loss_sum = 0.0
            hits = 0
            for start in range(0, n, spec.batch_size):
                idx = order[start:start + spec.batch_size]
                input_mask = hidden_masks = None
                if spec.dropout_input > 0.0:
                    input_mask = ((rng.random((len(idx), X.shape[1]))
                                   >= spec.dropout_input)
                                  / (1.0 - spec.dropout_input))
                if spec.dropout_hidden > 0.0:
                    hidden_masks = [(rng.random((len(idx), layer.width))
                                     >= spec.dropout_hidden)
                                    / (1.0 - spec.dropout_hidden)
                                    for layer in net.hidden]
                P, caches = reference_forward_train(net, X[idx], plan,
                                                    input_mask, hidden_masks)
                batch_loss, dP = reference_loss_and_grad(P, Y[idx], spec.loss)
                if not np.isfinite(batch_loss):
                    raise NonFiniteLoss(
                        f"non-finite training loss at epoch {epoch_index}",
                        epoch=epoch_index)
                if loss_limit is None:
                    loss_limit = training.DIVERGENCE_RATIO * max(
                        batch_loss, training.DIVERGENCE_FLOOR)
                loss_sum += batch_loss * len(idx)
                hits += int((P.argmax(axis=1) == labels[idx]).sum())
                grads = reference_backward(net, caches, dP, plan)
                block_by_block_update(net, grads, lr, spec, plan, epoch_index)
                for li, (lp, cache) in enumerate(zip(plan.layers, caches)):
                    if lp.live is None:
                        continue
                    norm = net.hidden[li].norm
                    mean, std = norm.mean[lp.live], norm.std[lp.live]
                    batch_mean, sigma = cache.batch_stats
                    mean *= training.BN_MOMENTUM
                    mean += (1.0 - training.BN_MOMENTUM) * batch_mean
                    std *= training.BN_MOMENTUM
                    std += (1.0 - training.BN_MOMENTUM) * sigma
            train_loss = loss_sum / n
            diverged = train_loss > loss_limit
            val_loss = val_acc = None
            if data_val is not None:
                val_loss, val_acc = reference_evaluate_metrics(
                    net, data_val[0], data_val[1], spec.loss)
                diverged = diverged or not np.isfinite(val_loss)
            if diverged:
                raise NonFiniteLoss(
                    f"training diverged at epoch {epoch_index} (training loss "
                    f"{train_loss:.3g}, validation loss {val_loss})",
                    epoch=epoch_index)
            log.rows.append(TrainLogRow(epoch_index, lr, train_loss, hits / n,
                                        val_loss, val_acc))
    return log


def block_by_block_update(net, grads, lr, spec, plan, epoch):
    decay = spec.weight_reg.lam if isinstance(spec.weight_reg, Decay) else 0.0
    max_norm = spec.weight_reg.limit if isinstance(spec.weight_reg, MaxNorm) else None
    for (li, bi), (dW, db) in grads.blocks.items():
        block = net.hidden[li].blocks[bi]
        block.weights -= lr * (dW + decay * block.weights if decay else dW)
        block.bias -= lr * db
        if max_norm is not None:
            reference_project_rows(block.weights, max_norm, epoch)
    for li, (dscale, dshift) in grads.norm.items():
        scale, shift = plan.layers[li].live_norm
        scale -= lr * dscale
        shift -= lr * dshift
    if grads.output is not None:
        dB, dbias = grads.output
        W = net.output_weights
        W -= lr * (dB + decay * W if decay else dB)
        net.output_bias -= lr * dbias
        if max_norm is not None:
            reference_project_rows(W, max_norm, epoch)


NORM_FIELDS = ("mean", "std", "scale", "shift")


def held_arrays(net):
    """Every parameter and statistic array of the network, in a fixed order."""
    arrays = []
    for layer in net.hidden:
        for block in layer.blocks:
            arrays += [block.weights, block.bias]
        arrays += [getattr(layer.norm, name) for name in NORM_FIELDS]
    return arrays + [net.output_weights, net.output_bias]


def assert_same_bits(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert a.shape == b.shape
        assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def float_bits(value):
    return None if value is None else int(np.float64(value).view(np.uint64))


def run_outcome(train, net, *args):
    """(log rows or the raised NonFiniteLoss, as bits) of one training call."""
    try:
        log = train(net, *args)
    except NonFiniteLoss as exc:
        return ("raised", str(exc), exc.epoch)
    return [(row.epoch, float_bits(row.lr), float_bits(row.train_loss),
             float_bits(row.train_accuracy), float_bits(row.val_loss),
             float_bits(row.val_accuracy)) for row in log.rows]


OPS = (PERCEPTRON,
       OperatorSet(NodalOp.HARMONIC, PoolOp.SUMMATION, ActivationOp.TANH),
       OperatorSet(NodalOp.DOG, PoolOp.CORRELATION1, ActivationOp.SIGMOID),
       OperatorSet(NodalOp.EXPONENTIAL, PoolOp.MAXIMUM, ActivationOp.ELU),
       OperatorSet(NodalOp.GAUSSIAN, PoolOp.CORRELATION2,
                   ActivationOp.SOFTPLUS))


@st.composite
def finetune_cases(draw):
    layers = draw(st.lists(
        st.tuples(st.lists(st.tuples(st.sampled_from(OPS), st.integers(1, 3)),
                           min_size=1, max_size=3),
                  st.booleans()),  # batch-norm layer
        min_size=1, max_size=2))
    start = draw(st.one_of(st.none(), st.integers(0, len(layers) - 1).flatmap(
        lambda li: st.tuples(st.just(li),
                             st.integers(0, len(layers[li][0]) - 1)))))
    n = draw(st.integers(1, 20))
    spec = TrainSpec(
        lr_schedule=((draw(st.sampled_from([0.01, 0.3, 30.0])),
                      draw(st.integers(1, 3))),),
        batch_size=draw(st.integers(1, n + 3)),
        dropout_input=draw(st.sampled_from([0.0, 0.2, 0.5])),
        dropout_hidden=draw(st.sampled_from([0.0, 0.3])),
        weight_reg=draw(st.sampled_from([None, MaxNorm(2.0), MaxNorm(0.1),
                                         Decay(0.01), Decay(0.0)])),
        loss=draw(st.sampled_from(LossKind)),
        seed=draw(st.integers(0, 2**32 - 1)))
    return (layers, TrainableSelection(start, draw(st.booleans())), n, spec,
            draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


def random_net(rng, layers, fortran_output=False, input_dim=3, n_classes=3):
    hidden, fit, fan_in = [], rng.normal(size=(30, input_dim)), input_dim
    for blocks, batchnorm in layers:
        layer = GopLayer([NeuronBlock(op, rng.uniform(-1, 1, (fan_in, width)),
                                      rng.uniform(-1, 1, width))
                          for op, width in blocks])
        layer.norm.fit(layer.raw_forward(fit))
        if batchnorm:
            init_batchnorm_from_standardization(layer)
            layer.norm.scale = rng.uniform(0.5, 1.5, size=layer.width)
            layer.norm.shift = rng.uniform(-0.5, 0.5, size=layer.width)
        hidden.append(layer)
        fit, fan_in = layer.forward(fit), layer.width
    # a one-row matmul with an F-ordered output map takes other bits
    output = rng.normal(size=(fan_in, n_classes))
    return GopNetwork(input_dim, hidden,
                      np.asfortranarray(output) if fortran_output else output,
                      rng.normal(size=n_classes) * 0.1)


def check_against_per_batch(case):
    """finetune on ``case`` keeps the per-batch loop's log or raise, bit for
    bit, and its trained state (the pre-call state after a raise), in the
    arrays the caller held."""
    layers, selection, n, spec, with_val, fortran_output, seed = case
    rng = np.random.default_rng(seed)
    net = random_net(rng, layers, fortran_output)
    X = rng.normal(size=(n, 3))
    Y = one_hot(rng.integers(0, 3, n), 3)
    val = (rng.normal(size=(5, 3)), one_hot(rng.integers(0, 3, 5), 3)) \
        if with_val else None
    reference, before = copy.deepcopy(net), copy.deepcopy(net)
    held = held_arrays(net)
    ours = run_outcome(finetune, net, (X, Y), val, spec, selection)
    want = run_outcome(per_batch_finetune, reference, (X, Y), val, spec,
                       selection)
    assert ours == want
    assert all(a is b for a, b in zip(held_arrays(net), held))
    raised = isinstance(want, tuple)
    assert_same_bits(held, held_arrays(before if raised else reference))


class TestPerEpochLoop:
    """finetune gathers and counts once per epoch, draws its dropout masks in
    runs of whole batches, and updates every parameter with one subtraction
    in a step that writes into plan buffers; on a return it must keep the
    bits of the per-batch loop over the reference step, after a raise hand
    back the pre-call network, and either way leave the caller the arrays it
    held."""

    @given(case=finetune_cases())
    # raises at epoch 1, after a whole epoch of updates: two batch-norm
    # layers, a start block in the middle of layer 0, dropout, validation
    @example(case=(
        [([(OPS[1], 2), (PERCEPTRON, 3)], True), ([(OPS[2], 2)], True)],
        TrainableSelection((0, 1), True), 12,
        TrainSpec(lr_schedule=((30.0, 3),), batch_size=5, dropout_input=0.2,
                  dropout_hidden=0.3, weight_reg=MaxNorm(2.0),
                  loss=LossKind.CROSS_ENTROPY, seed=9),
        True, False, 9))
    @settings(max_examples=200, deadline=None)
    def test_it_has_the_bits_of_the_per_batch_loop(self, case):
        check_against_per_batch(case)

    # budgets of one batch per run (every budget below one batch's draws),
    # and of a few batches per run with a shorter last run
    @given(case=finetune_cases(), budget=st.sampled_from([1, 600, 2000]))
    @settings(max_examples=60, deadline=None)
    def test_dropout_runs_keep_the_bits(self, case, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "FORWARD_CHUNK_BYTES", budget)
            check_against_per_batch(case)

    def test_a_raise_hands_back_the_held_arrays(self):
        # the validation loss is NaN after the first epoch
        net = build_net(np.random.default_rng(5), PERCEPTRON, batchnorm=True)
        held = held_arrays(net)
        X = np.random.default_rng(6).normal(size=(10, 3))
        Y = one_hot(np.arange(10) % 2, 2)
        X_val = X.copy()
        X_val[0, 0] = np.nan
        before = [a.copy() for a in held]
        with pytest.raises(NonFiniteLoss, match="epoch 0"):
            finetune(net, (X, Y), (X_val, Y),
                     TrainSpec(lr_schedule=((0.01, 2),), batch_size=4),
                     TrainableSelection.all_blocks(net))
        after = held_arrays(net)
        assert all(a is b for a, b in zip(after, held))
        # the epoch's updates, running statistics included, are gone
        assert_same_bits(after, before)


class TestPlanHandsBack:
    """backward, training_loss and finetune run on one plan kind: from its
    setup until it exits, the network holds views of one flat buffer in
    place of the trained arrays and running statistics, and then the
    caller's arrays again, with their bytes (backward and training_loss
    change no value)."""

    @staticmethod
    def case():
        # two batch-norm layers, a start block in the middle of layer 0, so
        # both layers' running mean and std are rebound too
        rng = np.random.default_rng(31)
        net = random_net(rng, [([(OPS[1], 2), (PERCEPTRON, 3)], True),
                               ([(OPS[2], 2)], True)])
        X = rng.normal(size=(7, 3))
        return net, X, one_hot(rng.integers(0, 3, 7), 3)

    @pytest.mark.parametrize("call", [backward, training_loss])
    def test_the_passes_hand_back_every_array(self, call):
        net, X, Y = self.case()
        held = held_arrays(net)
        before = [a.copy() for a in held]
        call(net, X, Y, TrainableSelection((0, 1)), LossKind.CROSS_ENTROPY)
        assert all(a is b for a, b in zip(held_arrays(net), held))
        assert_same_bits(held_arrays(net), before)

    def test_a_raise_in_the_setup_hands_back_every_array(self, monkeypatch):
        def fail(*args):
            raise MemoryError("no buffers")
        # raised after the setup rebound the trained arrays and layer 0's
        # running statistics
        monkeypatch.setattr(training, "_LayerPlan", fail)
        net, X, Y = self.case()
        held = held_arrays(net)
        before = [a.copy() for a in held]
        selection = TrainableSelection((0, 1))
        for call in (lambda: backward(net, X, Y, selection),
                     lambda: training_loss(net, X, Y, selection),
                     lambda: finetune(net, (X, Y), None, TrainSpec(),
                                      selection)):
            with pytest.raises(MemoryError):
                call()
            assert all(a is b for a, b in zip(held_arrays(net), held))
            assert_same_bits(held_arrays(net), before)


def overflow_case():
    """A batch-norm layer of two blocks, both trained, whose targets hold
    one row of 1e200: the batch that draws it sends the first block's
    weights to a non-finite row norm."""
    rng = np.random.default_rng(23)
    blocks = [NeuronBlock(op, rng.uniform(-1, 1, (3, width)),
                          rng.uniform(-1, 1, width))
              for op, width in ((PERCEPTRON, 3), (OPS[1], 2))]
    layer = GopLayer(blocks)
    layer.norm.fit(layer.raw_forward(rng.normal(size=(40, 3))))
    init_batchnorm_from_standardization(layer)
    net = GopNetwork(3, [layer], rng.normal(size=(5, 2)) * 0.5,
                     rng.normal(size=2) * 0.1)
    X = rng.normal(size=(16, 3))
    Y = one_hot(rng.integers(0, 2, 16), 2)
    Y[13] *= 1e200  # the last batch of the first epoch draws it
    spec = TrainSpec(lr_schedule=((0.05, 2),), batch_size=4,
                     weight_reg=MaxNorm(2.0), loss=LossKind.CROSS_ENTROPY,
                     seed=3)
    return net, (X, Y), spec, TrainableSelection.all_blocks(net)


class TestMaxNormRaise:
    def test_an_overflowing_step_hands_back_the_pre_call_network(self):
        net, data, spec, selection = overflow_case()
        before = copy.deepcopy(net)
        held = held_arrays(net)
        with pytest.raises(NonFiniteLoss,
                           match="non-finite weight norm at epoch 0"):
            finetune(net, data, None, spec, selection)
        assert all(a is b for a, b in zip(held_arrays(net), held))
        assert_same_bits(held_arrays(net), held_arrays(before))


class TestFinetuneMemory:
    def test_peak_grows_with_n_only_by_the_permuted_copies(self):
        """One epoch of a 200-wide batch-norm layer over 8 features draws
        1.7 KB of dropout masks per row; runs of whole batches under
        FORWARD_CHUNK_BYTES keep that out of the growth in N, which is left
        with the epoch's O(N (d + C)) arrays: the permuted X, Y and labels,
        the head's outputs, the labels, the permutation and the hit count's
        argmax and comparison."""
        d, C, n = 8, 3, 1000
        rng = np.random.default_rng(4)
        spec = TrainSpec(lr_schedule=((0.01, 1),))

        def peak(rows):
            net = random_net(rng, [([(PERCEPTRON, 200)], True)], input_dim=d,
                             n_classes=C)
            X = rng.normal(size=(rows, d))
            Y = one_hot(rng.integers(0, C, rows), C)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                finetune(net, (X, Y), None, spec,
                         TrainableSelection.all_blocks(net))
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        copies_per_row = 8 * (d + 2 * C + 4) + 1
        assert peak(4 * n) - peak(n) <= 3 * n * copies_per_row


class TestTargetChecks:
    """finetune and evaluate_metrics take [N, C] targets for N >= 1 input
    rows and the network's C classes, checked before any compute."""

    CASES = {
        "one column for two classes": (10, lambda Y: Y[:, :1]),
        "three columns for two classes": (10, lambda Y: np.hstack([Y, Y[:, :1]])),
        "seven rows for ten inputs": (10, lambda Y: Y[:7]),
        "1-D targets": (10, lambda Y: Y.argmax(axis=1)),
    }

    @staticmethod
    def case(rows, targets):
        net = build_net(np.random.default_rng(8), PERCEPTRON, n_classes=2)
        X = np.random.default_rng(9).normal(size=(rows, 3))
        return net, X, targets(one_hot(np.arange(rows) % 2, 2))

    @staticmethod
    def no_compute(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("computed before the targets were checked")
        monkeypatch.setattr(training, "_plan", fail)
        monkeypatch.setattr(GopNetwork, "forward", fail)

    @pytest.mark.parametrize("name", list(CASES))
    def test_finetune_rejects_a_target_mismatch(self, name, monkeypatch):
        net, X, Y = self.case(*self.CASES[name])
        self.no_compute(monkeypatch)
        with pytest.raises(DimensionMismatch, match="training data"):
            finetune(net, (X, Y), None, TrainSpec(),
                     TrainableSelection.all_blocks(net))

    @pytest.mark.parametrize("name", list(CASES))
    def test_finetune_rejects_a_validation_target_mismatch(self, name,
                                                           monkeypatch):
        net, X, Y = self.case(*self.CASES[name])
        _, X_ok, Y_ok = self.case(10, lambda Y: Y)
        self.no_compute(monkeypatch)
        with pytest.raises(DimensionMismatch, match="validation data"):
            finetune(net, (X_ok, Y_ok), (X, Y), TrainSpec(),
                     TrainableSelection.all_blocks(net))

    @pytest.mark.parametrize("name", list(CASES))
    def test_evaluate_metrics_rejects_a_target_mismatch(self, name,
                                                        monkeypatch):
        net, X, Y = self.case(*self.CASES[name])
        self.no_compute(monkeypatch)
        with pytest.raises(DimensionMismatch, match=r"\[N, C\]"):
            evaluate_metrics(net, X, Y)

    def test_zero_rows_are_empty_input(self, monkeypatch):
        net, X, Y = self.case(0, lambda Y: Y)
        _, X_ok, Y_ok = self.case(10, lambda Y: Y)
        self.no_compute(monkeypatch)
        selection = TrainableSelection.all_blocks(net)
        with pytest.raises(EmptyInput, match="training data"):
            finetune(net, (X, Y), None, TrainSpec(), selection)
        with pytest.raises(EmptyInput, match="validation data"):
            finetune(net, (X_ok, Y_ok), (X, Y), TrainSpec(), selection)
        with pytest.raises(EmptyInput):
            evaluate_metrics(net, X, Y)

    def test_matching_targets_train_and_score(self):
        net, X, Y = self.case(10, lambda Y: Y)
        log = finetune(net, (X, Y), (X, Y), TrainSpec(lr_schedule=((0.01, 1),)),
                       TrainableSelection.all_blocks(net))
        assert (log.rows[0].val_loss, log.rows[0].val_accuracy) == \
            evaluate_metrics(net, X, Y)
