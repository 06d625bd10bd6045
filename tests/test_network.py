import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gopnet import network
from gopnet.errors import (
    ConfigError,
    DimensionMismatch,
    FormatError,
    UnfitNormalization,
)
from gopnet.network import (
    GopLayer,
    GopNetwork,
    NeuronBlock,
    NormMode,
    NormState,
    load_model,
    save_model,
)
from gopnet.operators import (
    ActivationOp,
    NodalOp,
    OperatorSet,
    PoolOp,
    activation_forward,
    enumerate_operator_sets,
)

PERCEPTRON = OperatorSet(NodalOp.MULTIPLICATION, PoolOp.SUMMATION,
                         ActivationOp.SIGMOID)


def identity_norm(width):
    return NormState(mean=np.zeros(width), std=np.ones(width),
                     scale=np.ones(width), shift=np.zeros(width))


def random_network(rng, input_dim=3, widths=(6, 4), n_classes=2):
    layers = []
    fan_in = input_dim
    op_sets = [
        OperatorSet(NodalOp.HARMONIC, PoolOp.CORRELATION1, ActivationOp.TANH),
        OperatorSet(NodalOp.GAUSSIAN, PoolOp.SUMMATION, ActivationOp.SIGMOID),
    ]
    for width, op_set in zip(widths, op_sets):
        block = NeuronBlock(op_set, rng.normal(size=(fan_in, width)),
                            rng.normal(size=width))
        norm = NormState()
        norm.fit(block.forward(rng.normal(size=(50, fan_in))))
        layers.append(GopLayer([block], norm))
        fan_in = width
    return GopNetwork(input_dim, layers, rng.normal(size=(fan_in, n_classes)),
                      rng.normal(size=n_classes))


class TestBlockForward:
    def test_perceptron_block_at_origin(self):
        block = NeuronBlock(PERCEPTRON, np.array([[1.0], [1.0]]), np.zeros(1))
        out = block.forward(np.array([[0.0, 0.0]]))
        assert_array_equal(out, [[0.5]])

    def test_perceptron_block_equals_dense_sigmoid_layer(self, rng):
        W = rng.normal(size=(5, 7))
        b = rng.normal(size=7)
        X = rng.normal(size=(20, 5))
        block = NeuronBlock(PERCEPTRON, W, b)
        expected = 1.0 / (1.0 + np.exp(-(X @ W + b)))
        assert np.abs(block.forward(X) - expected).max() < 1e-12

    def test_quadratic_maximum_relu_example(self):
        op = OperatorSet(NodalOp.QUADRATIC, PoolOp.MAXIMUM, ActivationOp.RELU)
        block = NeuronBlock(op, np.array([[1.0], [-1.0]]), np.zeros(1))
        out = block.forward(np.array([[2.0, 3.0]]))
        assert_array_equal(out, [[4.0]])

    def test_dimension_mismatch(self):
        block = NeuronBlock(PERCEPTRON, np.ones((2, 3)), np.zeros(3))
        # more rows than one forward chunk: the error names the whole input
        n = network.FORWARD_CHUNK_BYTES // (8 * 2 * 3) + 5
        with pytest.raises(DimensionMismatch, match=rf"\({n}, 5\)"):
            block.forward(np.ones((n, 5)))

    def test_forward_parts_end_in_forward(self, rng):
        op = OperatorSet(NodalOp.DOG, PoolOp.CORRELATION1, ActivationOp.TANH)
        block = NeuronBlock(op, rng.normal(size=(4, 3)), rng.normal(size=3))
        X = rng.normal(size=(6, 4))
        Z, x, h = block.forward_parts(X)
        assert (Z.shape, x.shape) == ((6, 4, 3), (6, 3))
        assert_array_equal(h, block.forward(X))

    @pytest.mark.parametrize("fan_in, width", [
        (6, 5),
        # one row's nodal tensor alone exceeds the budget
        (64, network.FORWARD_CHUNK_BYTES // (8 * 64) + 1)])
    def test_row_chunks_match_one_whole_forward(self, fan_in, width, rng):
        chunk = max(1, network.FORWARD_CHUNK_BYTES // (8 * fan_in * width))
        X = rng.normal(scale=2.0, size=(3 * chunk + 5, fan_in))
        for op_set in enumerate_operator_sets():
            block = NeuronBlock(op_set, rng.uniform(-1, 1, (fan_in, width)),
                                rng.uniform(-1, 1, width))
            for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
                with np.errstate(all="ignore"):
                    chunked = block.forward(X[:n])
                    pre = block.forward(X[:n], activate=False)
                    _, x, whole = block.forward_parts(X[:n])
                assert chunked.shape == (n, width)
                assert np.array_equal(chunked, whole, equal_nan=True), (op_set, n)
                assert np.array_equal(pre, x, equal_nan=True), (op_set, n)

        # six blocks that share nodal and pool operators, run as one block of
        # their weights side by side: each span, activated, is its own forward
        group = len(ActivationOp)
        chunk = max(1, network.FORWARD_CHUNK_BYTES // (8 * fan_in * group * width))
        X = rng.normal(scale=2.0, size=(3 * chunk + 5, fan_in))
        library = enumerate_operator_sets()
        for start in range(0, len(library), group):
            blocks = [NeuronBlock(op_set, rng.uniform(-1, 1, (fan_in, width)),
                                  rng.uniform(-1, 1, width))
                      for op_set in library[start:start + group]]
            wide = NeuronBlock(blocks[0].op_set,
                               np.hstack([b.weights for b in blocks]),
                               np.concatenate([b.bias for b in blocks]))
            for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
                with np.errstate(all="ignore"):
                    pre = wide.forward(X[:n], activate=False)
                    # into a caller's buffer that holds stale values
                    buffer = np.full(len(X) * wide.width, np.nan)
                    out = buffer[:n * wide.width].reshape(n, wide.width)
                    assert wide.forward(X[:n], activate=False, out=out) is out
                    assert np.array_equal(out, pre, equal_nan=True)
                    for j, block in enumerate(blocks):
                        span = activation_forward(
                            block.op_set.activation,
                            pre[:, j * width:(j + 1) * width])
                        assert np.array_equal(span, block.forward(X[:n]),
                                              equal_nan=True), (block.op_set, n)


class TestBlockBackward:
    def test_returns_only_what_is_asked(self, rng):
        block = NeuronBlock(PERCEPTRON, rng.normal(size=(4, 3)), rng.normal(size=3))
        X = rng.normal(size=(6, 4))
        Z, x, _ = block.forward_parts(X)
        dh = rng.normal(size=(6, 3))
        dW, dbias, dinputs = block.backward(X, Z, x, dh, False)
        assert (dW.shape, dbias.shape, dinputs) == ((4, 3), (3,), None)
        Z, x, _ = block.forward_parts(X)  # backward consumed the first Z
        dW, dbias, dinputs = block.backward(X, Z, x, dh, True)
        assert (dW.shape, dbias.shape, dinputs.shape) == ((4, 3), (3,), (6, 4))
        # the parameter grads go into the caller's arrays when it passes them
        out = (np.full((4, 3), np.nan), np.full(3, np.nan))
        Z, x, _ = block.forward_parts(X)
        into = block.backward(X, Z, x, dh, True, out=out)
        assert into[0] is out[0] and into[1] is out[1]
        for a, b in zip(into, (dW, dbias, dinputs)):
            assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_perceptron_backward_is_dense_backward(self, rng):
        W, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        block = NeuronBlock(PERCEPTRON, W, b)
        X = rng.normal(size=(6, 4))
        Z, x, h = block.forward_parts(X)
        dh = rng.normal(size=(6, 3))
        dW, dbias, dinputs = block.backward(X, Z, x, dh, True)
        dx = dh * h * (1.0 - h)
        assert np.abs(dW - X.T @ dx).max() < 1e-12
        assert np.abs(dbias - dx.sum(axis=0)).max() < 1e-12
        assert np.abs(dinputs - dx @ W.T).max() < 1e-12


class TestNormState:
    def test_standardize_analytic_example(self):
        norm = NormState()
        H = np.array([[1.0], [2.0], [3.0]])
        norm.fit(H)
        out = norm.apply(H)
        assert_allclose(out[:, 0], [-1.22474487, 0.0, 1.22474487], atol=1e-8)

    def test_identity_stats_are_identity(self, rng):
        H = rng.normal(size=(10, 4))
        assert_array_equal(identity_norm(4).apply(H), H)

    def test_batchnorm_inverse_transform_recovers_raw(self, rng):
        H = rng.normal(size=(40, 3)) * 2.0 + 1.0
        norm = NormState(mode=NormMode.BATCHNORM)
        norm.fit(H)
        norm.scale = norm.std.copy()
        norm.shift = norm.mean.copy()
        assert np.abs(norm.apply(H) - H).max() < 1e-12

    def test_unfit_raises(self):
        with pytest.raises(UnfitNormalization):
            NormState().apply(np.ones((2, 2)))

    def test_refit_after_transform_gives_unit_stats(self, rng):
        H = rng.normal(size=(200, 5)) * 3.0 + 4.0
        norm = NormState()
        norm.fit(H)
        once = norm.apply(H)
        norm2 = NormState()
        norm2.fit(once)
        twice = norm2.apply(once)
        assert np.abs(twice.mean(axis=0)).max() < 1e-10
        assert np.abs(twice.std(axis=0) - 1.0).max() < 1e-10

    def test_std_floor(self):
        norm = NormState()
        norm.fit(np.ones((5, 2)))
        assert (norm.std == 1e-6).all()


class TestNetworkForward:
    def test_zero_hidden_layers_disallowed(self):
        with pytest.raises(ConfigError):
            GopNetwork(2, [], np.ones((2, 2)), np.zeros(2))

    def test_identity_output_reproduces_layer_forward(self, rng):
        block = NeuronBlock(PERCEPTRON, rng.normal(size=(3, 4)),
                            rng.normal(size=4))
        layer = GopLayer([block], identity_norm(4))
        net = GopNetwork(3, [layer], np.eye(4), np.zeros(4))
        X = rng.normal(size=(10, 3))
        assert_array_equal(net.forward(X), layer.forward(X))

    def test_argmax_defines_predicted_class(self):
        op = OperatorSet(NodalOp.MULTIPLICATION, PoolOp.SUMMATION,
                         ActivationOp.TANH)
        block = NeuronBlock(op, np.array([[2.0]]), np.array([0.0]))
        layer = GopLayer([block], identity_norm(1))
        net = GopNetwork(1, [layer], np.array([[1.0, -1.0]]), np.zeros(2))
        # positive hidden feature -> class 0 wins, negative -> class 1
        assert net.predict(np.array([[3.0]]))[0] == 0
        assert net.predict(np.array([[-3.0]]))[0] == 1

    def test_dimension_chain_validated(self, rng):
        block = NeuronBlock(PERCEPTRON, np.ones((3, 4)), np.zeros(4))
        layer = GopLayer([block], identity_norm(4))
        with pytest.raises(ConfigError):
            GopNetwork(3, [layer], np.ones((5, 2)), np.zeros(2))

    def test_forward_rejects_wrong_input_dim(self, rng):
        net = random_network(rng)
        with pytest.raises(DimensionMismatch):
            net.forward(np.ones((4, 9)))

    def test_forward_is_deterministic(self, rng):
        net = random_network(rng)
        X = rng.normal(size=(17, 3))
        assert_array_equal(net.forward(X), net.forward(X))

    def test_inference_saturates_rather_than_warns(self):
        """sin(inf) is invalid and 2 * 1e308 overflows in the block, the
        normalization overflows on a std of 1e-300, and inf @ 0 is invalid
        in the head: each inference entry point runs through them without a
        warning and returns the bits it returns under np.errstate."""
        op = OperatorSet(NodalOp.HARMONIC, PoolOp.SUMMATION, ActivationOp.TANH)
        block = NeuronBlock(op, np.array([[1.0, -0.5], [0.5, 2.0]]),
                            np.zeros(2))
        norm = identity_norm(2)
        norm.scale[0], norm.std[0] = 1e308, 1e-300
        layer = GopLayer([block], norm)
        net = GopNetwork(2, [layer], np.array([[0.0, 1.0], [0.0, 1.0]]),
                         np.zeros(2))
        X = np.array([[np.inf, 1.0], [1e308, 1e308]])
        calls = (net.predict, net.forward, net.hidden_forward, layer.forward,
                 block.forward, lambda X: np.concatenate(
                     [part.ravel() for part in block.forward_parts(X)]))
        with np.errstate(all="ignore"):
            want = [call(X) for call in calls]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [call(X) for call in calls]
        for ours, reference in zip(got, want):
            assert ours.dtype == reference.dtype
            assert ours.tobytes() == reference.tobytes()

    def test_perceptron_network_matches_hand_rolled_mlp(self, rng):
        w1 = rng.normal(size=(4, 6))
        b1 = rng.normal(size=6)
        w2 = rng.normal(size=(6, 3))
        b2 = rng.normal(size=3)
        net = GopNetwork(
            4,
            [GopLayer([NeuronBlock(PERCEPTRON, w1, b1)], identity_norm(6))],
            w2, b2)
        X = rng.normal(size=(100, 4))
        hand = 1.0 / (1.0 + np.exp(-(X @ w1 + b1))) @ w2 + b2
        assert np.abs(net.forward(X) - hand).max() < 1e-12


class TestCounting:
    def test_param_count_example(self):
        rng = np.random.default_rng(0)
        block = NeuronBlock(PERCEPTRON, rng.normal(size=(8, 40)),
                            rng.normal(size=40))
        layer = GopLayer([block], identity_norm(40))
        net = GopNetwork(8, [layer], rng.normal(size=(40, 2)),
                         rng.normal(size=2))
        assert net.count_params() == 8 * 40 + 40 + 40 * 2 + 2 == 442

    def test_adding_block_increases_count_by_expected_amount(self):
        rng = np.random.default_rng(0)
        b1 = NeuronBlock(PERCEPTRON, rng.normal(size=(8, 40)), rng.normal(size=40))
        layer = GopLayer([b1], identity_norm(40))
        net = GopNetwork(8, [layer], rng.normal(size=(40, 2)), rng.normal(size=2))
        before = net.count_params()
        b2 = NeuronBlock(PERCEPTRON, rng.normal(size=(8, 20)), rng.normal(size=20))
        layer2 = GopLayer([b1, b2], identity_norm(60))
        net2 = GopNetwork(8, [layer2], rng.normal(size=(60, 2)), rng.normal(size=2))
        assert net2.count_params() - before == 8 * 20 + 20 + 20 * 2

    def test_params_equal_trainer_visible_scalars(self, rng):
        from gopnet.training import TrainableSelection, backward
        from gopnet.data import one_hot
        net = random_network(rng)
        X = rng.normal(size=(8, 3))
        Y = one_hot(rng.integers(0, 2, size=8), 2)
        selection = TrainableSelection.all_blocks(net)
        grads = backward(net, X, Y, selection)
        assert grads.n_scalars() == net.count_params()

    def test_flops_of_perceptron_layer(self):
        rng = np.random.default_rng(0)
        n, width, C = 8, 40, 2
        block = NeuronBlock(PERCEPTRON, rng.normal(size=(n, width)),
                            rng.normal(size=width))
        net = GopNetwork(n, [GopLayer([block], identity_norm(width))],
                         rng.normal(size=(width, C)), rng.normal(size=C))
        per_neuron = n + (n - 1) + 1 + 4
        expected = width * per_neuron + 2 * width + 2 * width * C
        assert net.count_flops() == expected

    def test_doubling_width_doubles_layer_contribution(self):
        rng = np.random.default_rng(0)

        def build(width):
            block = NeuronBlock(PERCEPTRON, rng.normal(size=(5, width)),
                                rng.normal(size=width))
            return GopNetwork(5, [GopLayer([block], identity_norm(width))],
                              rng.normal(size=(width, 2)), rng.normal(size=2))

        def layer_part(net):
            width = net.hidden[0].width
            return net.count_flops() - 2 * width * 2

        assert layer_part(build(24)) == 2 * layer_part(build(12))


class TestSerialization:
    def test_round_trip_is_exact(self, rng):
        net = random_network(rng)
        doc = net.to_json()
        back = GopNetwork.from_json(doc)
        X = rng.normal(size=(50, 3))
        assert_array_equal(back.forward(X), net.forward(X))
        assert_array_equal(back.output_weights, net.output_weights)
        for la, lb in zip(net.hidden, back.hidden):
            assert_array_equal(la.blocks[0].weights, lb.blocks[0].weights)
            assert_array_equal(la.norm.mean, lb.norm.mean)
            assert la.norm.mode == lb.norm.mode

    def test_save_and_load(self, rng, tmp_path):
        net = random_network(rng)
        path = tmp_path / "model.json"
        save_model(net, str(path))
        back = load_model(str(path))
        assert back.to_json() == net.to_json()

    def test_unknown_operator_token(self, rng):
        doc = random_network(rng).to_dict()
        doc["layers"][0]["blocks"][0]["op_set"]["nodal"] = "frobnicate"
        with pytest.raises(FormatError, match="frobnicate"):
            GopNetwork.from_dict(doc)

    def test_version_mismatch(self, rng):
        doc = random_network(rng).to_dict()
        doc["version"] = 99
        with pytest.raises(FormatError, match="version"):
            GopNetwork.from_dict(doc)

    def test_error_names_field_path(self, rng):
        doc = random_network(rng).to_dict()
        del doc["layers"][1]["blocks"][0]["bias"]
        with pytest.raises(FormatError, match=r"layers\[1\].blocks\[0\].bias"):
            GopNetwork.from_dict(doc)

    def test_non_finite_weights_rejected(self, rng):
        doc = random_network(rng).to_dict()
        doc["output"]["weights"][0][0] = float("nan")
        with pytest.raises(FormatError):
            GopNetwork.from_dict(json.loads(json.dumps(doc)))

    @given(st.integers(1, 5),
           st.lists(st.integers(1, 5), min_size=1, max_size=3),
           st.integers(1, 3), st.integers(0, 143), st.booleans(),
           st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, input_dim, block_widths, n_classes,
                                 op_index, batchnorm, seed):
        rng = np.random.default_rng(seed)
        blocks = []
        for i, w in enumerate(block_widths):
            op = OperatorSet.from_index((op_index + 7 * i) % 144)
            blocks.append(NeuronBlock(op, rng.normal(size=(input_dim, w)),
                                      rng.normal(size=w)))
        width = sum(block_widths)
        norm = NormState()
        norm.fit(np.hstack([b.forward(rng.normal(size=(20, input_dim)))
                            for b in blocks]))
        layer = GopLayer(blocks, norm)
        if batchnorm:
            norm.mode = NormMode.BATCHNORM
            norm.scale = rng.uniform(0.5, 1.5, size=width)
            norm.shift = rng.normal(size=width)
        net = GopNetwork(input_dim, [layer], rng.normal(size=(width, n_classes)),
                         rng.normal(size=n_classes))
        back = GopNetwork.from_json(net.to_json())
        X = rng.normal(size=(10, input_dim))
        assert_array_equal(back.forward(X), net.forward(X))
