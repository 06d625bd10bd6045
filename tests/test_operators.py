import itertools
import math
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from gopnet.errors import EmptyInput
from gopnet.network import OP_SET_SCHEMA, NeuronBlock
from gopnet.operators import (
    _ACTIVATION,
    EXP_CLAMP,
    _NODAL,
    _POOL,
    LIBRARY_SIZE,
    _clip,
    ActivationOp,
    NodalOp,
    OperatorSet,
    PoolOp,
    activation_forward,
    activation_grad,
    enumerate_operator_sets,
    neuron_flops,
    nodal_forward,
    nodal_grad,
    pool_flops,
    pool_forward,
    pool_forward_batch,
    pool_grad,
    pool_grad_batch,
)

from conftest import central_difference, rel_error


class TestOperatorTables:
    @pytest.mark.parametrize("table, family", [
        (_NODAL, NodalOp), (_POOL, PoolOp), (_ACTIVATION, ActivationOp)])
    def test_one_entry_per_operator(self, table, family):
        assert list(table) == list(family)

    @pytest.mark.parametrize("op", list(NodalOp))
    def test_nodal_partials_broadcast_against_z(self, op, rng):
        w = rng.uniform(-1.0, 1.0, size=(1, 4, 3))
        y = rng.uniform(-1.0, 1.0, size=(5, 4, 1))
        z = nodal_forward(op, w, y)
        for partial in nodal_grad(op, w, y):
            assert np.broadcast_shapes(partial.shape, z.shape) == z.shape


class TestNodalForward:
    def test_multiplication(self):
        assert nodal_forward(NodalOp.MULTIPLICATION, 0.5, 2.0) == 1.0

    def test_exponential_at_zero_weight(self):
        assert nodal_forward(NodalOp.EXPONENTIAL, 0.0, 7.3) == 0.0

    def test_gaussian_zero_weight(self):
        assert nodal_forward(NodalOp.GAUSSIAN, 0.0, 1.0) == 0.0

    def test_harmonic_quarter_turn(self):
        assert_allclose(nodal_forward(NodalOp.HARMONIC, 1.0, math.pi / 2), 1.0,
                        rtol=1e-15)

    def test_quadratic(self):
        assert nodal_forward(NodalOp.QUADRATIC, 2.0, 3.0) == 18.0

    def test_dog_formula(self):
        w, y = 0.7, -0.4
        expected = w * y * math.exp(-w * y * y)
        assert_allclose(nodal_forward(NodalOp.DOG, w, y), expected, rtol=1e-15)

    def test_exponential_saturates_instead_of_overflowing(self):
        big = nodal_forward(NodalOp.EXPONENTIAL, 100.0, 100.0)
        assert np.isfinite(big)
        assert big == math.exp(50.0) - 1.0


class TestNodalGrad:
    def test_multiplication_partials(self):
        assert nodal_grad(NodalOp.MULTIPLICATION, 0.5, 2.0) == (2.0, 0.5)

    def test_quadratic_partials(self):
        dw, dy = nodal_grad(NodalOp.QUADRATIC, 1.0, 3.0)
        assert (dw, dy) == (9.0, 6.0)

    def test_dog_matches_finite_difference(self):
        w, y = 0.7, -0.4
        dw, dy = nodal_grad(NodalOp.DOG, w, y)
        fd_w = central_difference(lambda v: nodal_forward(NodalOp.DOG, v, y), w)
        fd_y = central_difference(lambda v: nodal_forward(NodalOp.DOG, w, v), y)
        assert rel_error(fd_w, dw) < 1e-6
        assert rel_error(fd_y, dy) < 1e-6

    @pytest.mark.parametrize("op", list(NodalOp))
    def test_all_nodal_partials_match_finite_differences(self, op, rng):
        for _ in range(100):
            w, y = rng.uniform(-2.0, 2.0, size=2)
            dw, dy = nodal_grad(op, w, y)
            fd_w = central_difference(lambda v: nodal_forward(op, v, y), w)
            fd_y = central_difference(lambda v: nodal_forward(op, w, v), y)
            assert rel_error(fd_w, dw) < 1e-4
            assert rel_error(fd_y, dy) < 1e-4


class TestPoolForward:
    def test_summation(self):
        assert pool_forward(PoolOp.SUMMATION, [1, 2, 3]) == 6.0

    def test_correlation1(self):
        assert pool_forward(PoolOp.CORRELATION1, [1, 2, 3]) == 8.0

    def test_maximum(self):
        assert pool_forward(PoolOp.MAXIMUM, [-1, 3, 2]) == 3.0

    def test_correlation2_short_vector_is_empty_sum(self):
        assert pool_forward(PoolOp.CORRELATION2, [5, 7]) == 0.0

    def test_correlation1_single_element_is_empty_sum(self):
        assert pool_forward(PoolOp.CORRELATION1, [4.0]) == 0.0

    def test_correlation2(self):
        assert pool_forward(PoolOp.CORRELATION2, [1, 2, 3, 4]) == 1 * 2 * 3 + 2 * 3 * 4

    @pytest.mark.parametrize("op", list(PoolOp))
    def test_empty_input_raises(self, op):
        with pytest.raises(EmptyInput):
            pool_forward(op, [])
        with pytest.raises(EmptyInput):
            pool_grad(op, [])


class TestPoolGrad:
    def test_summation(self):
        assert_array_equal(pool_grad(PoolOp.SUMMATION, [1, 2, 3]), [1, 1, 1])

    def test_correlation1(self):
        assert_array_equal(pool_grad(PoolOp.CORRELATION1, [1, 2, 3]), [2, 4, 2])

    def test_maximum_tie_goes_to_first(self):
        assert_array_equal(pool_grad(PoolOp.MAXIMUM, [-1, 3, 3]), [0, 1, 0])

    @pytest.mark.parametrize("op", list(PoolOp))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_matches_finite_differences(self, op, n, rng):
        z = rng.uniform(-2.0, 2.0, size=n)
        if op is PoolOp.MAXIMUM:
            # keep a clear gap so the subgradient is the true gradient
            z = np.linspace(0.0, 1.0, n) + z * 0.01
        grad = pool_grad(op, z)
        for k in range(n):
            def fn(v, k=k):
                z2 = z.copy()
                z2[k] = v
                return pool_forward(op, z2)
            fd = central_difference(fn, z[k])
            assert abs(fd - grad[k]) < 1e-4 * max(1.0, abs(grad[k]))


class TestActivationForward:
    def test_sigmoid_zero(self):
        assert activation_forward(ActivationOp.SIGMOID, 0.0) == 0.5

    def test_relu_negative(self):
        assert activation_forward(ActivationOp.RELU, -2.0) == 0.0

    def test_inverse_absolute(self):
        assert activation_forward(ActivationOp.INVERSE_ABSOLUTE, 1.0) == 0.5

    def test_elu_negative_is_plain_exponential(self):
        assert_allclose(activation_forward(ActivationOp.ELU, -1.0),
                        math.exp(-1.0), rtol=1e-6)

    def test_softplus_uses_negated_argument(self):
        # this library's softplus is log(1 + exp(-x)), a decreasing function
        assert_allclose(activation_forward(ActivationOp.SOFTPLUS, 1.0),
                        math.log(1.0 + math.exp(-1.0)), rtol=1e-12)
        x = np.linspace(-3, 3, 7)
        values = activation_forward(ActivationOp.SOFTPLUS, x)
        assert (np.diff(values) < 0).all()

    def test_softplus_stable_on_large_negative(self):
        assert np.isfinite(activation_forward(ActivationOp.SOFTPLUS, -800.0))

    def test_tanh(self):
        assert_allclose(activation_forward(ActivationOp.TANH, 0.8),
                        math.tanh(0.8), rtol=1e-15)


class TestActivationGrad:
    def test_sigmoid_zero(self):
        assert activation_grad(ActivationOp.SIGMOID, 0.0) == 0.25

    def test_relu_positive(self):
        assert activation_grad(ActivationOp.RELU, 3.0) == 1.0

    def test_relu_kink_convention(self):
        assert activation_grad(ActivationOp.RELU, 0.0) == 0.0

    def test_elu_kink_convention(self):
        assert activation_grad(ActivationOp.ELU, 0.0) == 1.0

    def test_tanh_matches_finite_difference(self):
        x = 0.8
        fd = central_difference(
            lambda v: activation_forward(ActivationOp.TANH, v), x)
        assert rel_error(fd, activation_grad(ActivationOp.TANH, x)) < 1e-6

    @pytest.mark.parametrize("op", list(ActivationOp))
    def test_all_activations_match_finite_differences(self, op, rng):
        checked = 0
        while checked < 100:
            x = rng.uniform(-2.0, 2.0)
            if op in (ActivationOp.RELU, ActivationOp.ELU) and abs(x) < 1e-3:
                continue
            fd = central_difference(lambda v: activation_forward(op, v), x)
            assert rel_error(fd, activation_grad(op, x)) < 1e-4
            checked += 1


class TestOperatorSets:
    def test_library_size(self):
        sets = enumerate_operator_sets()
        assert len(sets) == 144
        assert LIBRARY_SIZE == 144

    def test_lexicographic_extremes(self):
        sets = enumerate_operator_sets()
        assert sets[0] == OperatorSet(NodalOp.MULTIPLICATION, PoolOp.SUMMATION,
                                      ActivationOp.SIGMOID)
        assert sets[-1] == OperatorSet(NodalOp.DOG, PoolOp.MAXIMUM,
                                       ActivationOp.ELU)

    def test_indices_are_distinct_and_bijective(self):
        sets = enumerate_operator_sets()
        indices = [s.index for s in sets]
        assert indices == list(range(144))
        for s in sets:
            assert OperatorSet.from_index(s.index) == s

    def test_index_formula(self):
        for n, p, a in itertools.product(range(6), range(4), range(6)):
            s = OperatorSet(list(NodalOp)[n], list(PoolOp)[p],
                            list(ActivationOp)[a])
            assert s.index == n * 24 + p * 6 + a

    def test_tokens_round_trip(self):
        for s in enumerate_operator_sets():
            assert OP_SET_SCHEMA(s.tokens(), "op_set") == s


class TestPerceptronSpecialCase:
    def test_multiplication_summation_is_inner_product(self, rng):
        for _ in range(50):
            w = rng.normal(size=9)
            y = rng.normal(size=9)
            z = nodal_forward(NodalOp.MULTIPLICATION, w, y)
            assert abs(pool_forward(PoolOp.SUMMATION, z) - w @ y) < 1e-12


class TestPoolSymmetry:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_summation_and_maximum_are_permutation_invariant(self, z, rnd):
        shuffled = list(z)
        rnd.shuffle(shuffled)
        for op in (PoolOp.SUMMATION, PoolOp.MAXIMUM):
            assert_allclose(pool_forward(op, shuffled), pool_forward(op, z),
                            rtol=1e-12, atol=1e-12)

    def test_correlations_are_order_sensitive(self):
        z = [1.0, 2.0, 3.0]
        z_rev = [3.0, 1.0, 2.0]
        assert pool_forward(PoolOp.CORRELATION1, z) != pool_forward(
            PoolOp.CORRELATION1, z_rev)
        w = [1.0, 2.0, 3.0, 4.0]
        w_perm = [2.0, 1.0, 3.0, 4.0]
        assert pool_forward(PoolOp.CORRELATION2, w) != pool_forward(
            PoolOp.CORRELATION2, w_perm)


class TestCostTable:
    def test_perceptron_neuron_cost(self):
        op = OperatorSet(NodalOp.MULTIPLICATION, PoolOp.SUMMATION,
                         ActivationOp.SIGMOID)
        for n in (1, 5, 100):
            assert neuron_flops(op, n) == n + (n - 1) + 1 + 4

    def test_maximum_pool_cost_is_comparisons(self):
        for n in (2, 10):
            assert pool_flops(PoolOp.MAXIMUM, n) == n - 1
        assert pool_flops(PoolOp.MAXIMUM, 1) == 0

    def test_correlation_costs(self):
        assert pool_flops(PoolOp.CORRELATION1, 3) == 3
        assert pool_flops(PoolOp.CORRELATION2, 3) == 2
        assert pool_flops(PoolOp.CORRELATION2, 2) == 0


# The closed forms the in-place nodal and correlation forwards must reproduce
# bit for bit.
CLOSED_FORM_NODAL = {
    NodalOp.MULTIPLICATION: lambda w, y: w * y,
    NodalOp.EXPONENTIAL:
        lambda w, y: np.exp(np.clip(w * y, -EXP_CLAMP, EXP_CLAMP)) - 1.0,
    NodalOp.HARMONIC: lambda w, y: np.sin(w * y),
    NodalOp.QUADRATIC: lambda w, y: w * y * y,
    NodalOp.GAUSSIAN: lambda w, y: w * np.exp(-w * y * y),
    NodalOp.DOG: lambda w, y: w * y * np.exp(-w * y * y),
}

# finite values on both sides of EXP_CLAMP, plus every special value
OPERAND = st.one_of(st.floats(-2 * EXP_CLAMP, 2 * EXP_CLAMP),
                    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def nodal_operands(draw):
    """(w, y) as 0-d arrays, broadcast [1, F, W] x [N, F, 1] blocks, or two
    full [N, F, W] tensors."""
    n, f, w = (draw(st.integers(1, 4)) for _ in range(3))
    shapes = draw(st.sampled_from([((), ()), ((1, f, w), (n, f, 1)),
                                   ((n, f, w), (n, f, w))]))
    return tuple(draw(hnp.arrays(float, shape, elements=OPERAND))
                 for shape in shapes)


class TestInPlaceForwards:
    @pytest.mark.parametrize("op", list(NodalOp))
    @given(operands=nodal_operands())
    @settings(max_examples=80, deadline=None)
    def test_nodal_forward_equals_its_closed_form(self, op, operands):
        w, y = operands
        with np.errstate(all="ignore"):
            z = nodal_forward(op, w, y)
            expected = CLOSED_FORM_NODAL[op](w, y)
        assert np.shape(z) == np.shape(expected)
        assert np.array_equal(z, expected, equal_nan=True)

    @pytest.mark.parametrize("pool, k", [(PoolOp.CORRELATION1, 1),
                                         (PoolOp.CORRELATION2, 2)])
    @given(Z=hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3,
                                                max_side=6),
                        elements=OPERAND))
    @settings(max_examples=80, deadline=None)
    def test_correlation_equals_its_closed_form(self, pool, k, Z):
        n = Z.shape[1] - k
        with np.errstate(all="ignore"):
            pooled = pool_forward_batch(pool, Z)
            expected = (reduce(mul, [Z[:, j:n + j, :] for j in range(k + 1)])
                        .sum(axis=1) if n > 0
                        else np.zeros((Z.shape[0], Z.shape[2])))
        assert np.array_equal(pooled, expected, equal_nan=True)


# The expressions the one-hot maximum grad, the single-exp sigmoid, the
# softplus that computes its tail once and the summation backward without
# its all-ones product replaced; the rewrites must give the same bytes, so
# -0.0 and NaN payloads count.

def put_along_axis_maximum_grad(Z):
    g = np.zeros_like(Z)
    np.put_along_axis(g, Z.argmax(axis=1)[:, None, :], 1.0, axis=1)
    return g


def three_exp_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def two_tail_softplus(x):
    return np.where(x >= 0, np.log1p(np.exp(-np.abs(x))),
                    -x + np.log1p(np.exp(-np.abs(x))))


def same_bytes(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


# few distinct values, so argmax ties are common
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


class TestRewrittenGradsKeepTheirBytes:
    @given(Z=hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3,
                                                max_side=5),
                        elements=st.one_of(TIED, OPERAND)))
    @settings(max_examples=150, deadline=None)
    def test_maximum_grad(self, Z):
        assert same_bytes(pool_grad_batch(PoolOp.MAXIMUM, Z),
                          put_along_axis_maximum_grad(Z))

    def test_maximum_grad_at_fan_in_one(self):
        Z = np.array([[[np.nan, -np.inf, 0.0]]])
        assert same_bytes(pool_grad_batch(PoolOp.MAXIMUM, Z), np.ones((1, 1, 3)))

    @given(x=hnp.arrays(float, hnp.array_shapes(max_dims=2, max_side=6),
                        elements=st.one_of(TIED, OPERAND, st.floats(-800, 800))))
    @settings(max_examples=150, deadline=None)
    def test_sigmoid_and_the_grads_built_on_it(self, x):
        with np.errstate(all="ignore"):
            s = three_exp_sigmoid(x)
            assert same_bytes(activation_forward(ActivationOp.SIGMOID, x), s)
            assert same_bytes(activation_grad(ActivationOp.SIGMOID, x),
                              s * (1.0 - s))
            assert same_bytes(activation_grad(ActivationOp.SOFTPLUS, x),
                              -three_exp_sigmoid(-x))

    @given(x=hnp.arrays(float, hnp.array_shapes(max_dims=2, max_side=6),
                        elements=st.one_of(TIED, OPERAND, st.floats(-800, 800))))
    @settings(max_examples=150, deadline=None)
    @example(x=np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308,
                         -1e308, 5e-324, -5e-324]))
    def test_softplus_with_its_tail_computed_once(self, x):
        with np.errstate(all="ignore"):
            assert same_bytes(activation_forward(ActivationOp.SOFTPLUS, x),
                              two_tail_softplus(x))

    @pytest.mark.parametrize("nodal", list(NodalOp))
    @pytest.mark.parametrize("activation", list(ActivationOp))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_summation_backward_without_the_ones_product(self, nodal,
                                                         activation, data):
        n, fan_in, width = (data.draw(st.integers(1, 4)) for _ in range(3))
        finite = st.floats(-3, 3)
        block = NeuronBlock(
            OperatorSet(nodal, PoolOp.SUMMATION, activation),
            data.draw(hnp.arrays(float, (fan_in, width), elements=finite)),
            data.draw(hnp.arrays(float, width, elements=finite)))
        inputs = data.draw(hnp.arrays(float, (n, fan_in),
                                      elements=st.one_of(TIED, OPERAND)))
        dh = data.draw(hnp.arrays(float, (n, width),
                                  elements=st.one_of(TIED, finite)))
        with np.errstate(all="ignore"):
            Z, x, _ = block.forward_parts(inputs)
            dW, dbias, dinputs = block.backward(inputs, Z, x, dh, True)
            dx = dh * activation_grad(activation, x)
            dZ = dx[:, None, :] * np.ones_like(Z)
            gw, gy = nodal_grad(nodal, block.weights[None], inputs[:, :, None])
            assert same_bytes(dW, (dZ * gw).sum(axis=0))
            assert same_bytes(dbias, dx.sum(axis=0))
            assert same_bytes(dinputs, (dZ * gy).sum(axis=2))


# The closed forms the in-place nodal and pool grad chains replaced, as they
# were written before: each chain must give their bytes, dz/dw alone or with
# dz/dy, whatever its output and scratch arrays held before.
CLOSED_FORM_NODAL_GRAD = {
    NodalOp.MULTIPLICATION: lambda w, y: (y, w),
    NodalOp.EXPONENTIAL: lambda w, y: (
        y * np.exp(np.clip(w * y, -EXP_CLAMP, EXP_CLAMP))
        * (np.abs(w * y) < EXP_CLAMP).astype(float),
        w * np.exp(np.clip(w * y, -EXP_CLAMP, EXP_CLAMP))
        * (np.abs(w * y) < EXP_CLAMP).astype(float)),
    NodalOp.HARMONIC: lambda w, y: (y * np.cos(w * y), w * np.cos(w * y)),
    NodalOp.QUADRATIC: lambda w, y: (y * y, 2.0 * w * y),
    NodalOp.GAUSSIAN: lambda w, y: (
        np.exp(-w * y * y) * (1.0 - w * y * y),
        -2.0 * w * w * y * np.exp(-w * y * y)),
    NodalOp.DOG: lambda w, y: (
        y * np.exp(-w * y * y) * (1.0 - w * y * y),
        w * np.exp(-w * y * y) * (1.0 - 2.0 * w * y * y)),
}


def closed_form_correlation_grad(Z, k):
    g = np.zeros_like(Z)
    n = Z.shape[1] - k
    if n > 0:
        v = [Z[:, j:n + j, :] for j in range(k + 1)]
        for j in range(k + 1):
            g[:, j:n + j, :] += reduce(mul, v[:j] + v[j + 1:])
    return g


# ±inf, NaN, ±0, operands whose w * y lands on and next to ±EXP_CLAMP, ones
# whose u = w * y * y (or w * y) is subnormal, and ones whose double overflows
EDGE_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0, 0.5,
    EXP_CLAMP, -EXP_CLAMP, EXP_CLAMP / 2, np.nextafter(EXP_CLAMP, 0.0),
    np.nextafter(EXP_CLAMP, np.inf), -np.nextafter(EXP_CLAMP, np.inf),
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, -3e-162, 1e-154,
    1e308, -np.finfo(float).max]
GRAD_OPERAND = st.one_of(st.sampled_from(EDGE_VALUES), OPERAND)


@st.composite
def grad_operands(draw):
    """(w, y) block-broadcast [1, F, W] x [N, F, 1], or two full [N, F, W]
    tensors.  No 0-d operands: on those the closed forms run numpy's scalar
    math, whose NaN signs need not match its array loops'."""
    n, f, w = (draw(st.integers(1, 4)) for _ in range(3))
    shapes = draw(st.sampled_from([((1, f, w), (n, f, 1)),
                                   ((n, f, w), (n, f, w))]))
    return tuple(draw(hnp.arrays(float, shape, elements=GRAD_OPERAND))
                 for shape in shapes)


def garbage(shape, seed=0):
    """An output or scratch array holding whatever a reused buffer might."""
    values = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -3.5, 1e300]
    return np.random.default_rng(seed).choice(values, size=shape)


def check_nodal_chain(op, w, y):
    """dz/dw alone, and both partials together, into fresh or reused
    buffers, have the bytes of the closed form."""
    shape = np.broadcast_shapes(w.shape, y.shape)
    with np.errstate(all="ignore"):
        expected = CLOSED_FORM_NODAL_GRAD[op](w, y)
        together = nodal_grad(op, w, y)
        reused = nodal_grad(op, w, y, True,
                            [garbage(shape, i) for i in range(3)])
        gw, none_y = nodal_grad(op, w, y, False,
                                [garbage(shape, i) for i in range(3, 6)])
    assert none_y is None
    assert same_bytes(gw, expected[0])
    for partials in (together, reused):
        for partial, want in zip(partials, expected):
            assert same_bytes(partial, want)


class TestGradChainsKeepTheirBytes:
    @pytest.mark.parametrize("op", list(NodalOp))
    def test_nodal_partials_on_every_pair_of_edge_operands(self, op):
        edge = np.array(EDGE_VALUES)
        check_nodal_chain(op, edge[None, None, :], edge[:, None, None])
        w, y = np.meshgrid(edge, edge)
        check_nodal_chain(op, w[None], y[None])

    @pytest.mark.parametrize("op", list(NodalOp))
    @given(operands=grad_operands())
    @settings(max_examples=100, deadline=None)
    def test_nodal_partials_alone_and_together(self, op, operands):
        check_nodal_chain(op, *operands)

    @pytest.mark.parametrize("pool, k", [(PoolOp.CORRELATION1, 1),
                                         (PoolOp.CORRELATION2, 2)])
    @given(Z=hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3,
                                                max_side=6),
                        elements=st.one_of(TIED, OPERAND)))
    @settings(max_examples=100, deadline=None)
    def test_correlation_grad(self, pool, k, Z):
        with np.errstate(all="ignore"):
            expected = closed_form_correlation_grad(Z, k)
            fresh = pool_grad_batch(pool, Z)
            reused = pool_grad_batch(pool, Z, garbage(Z.shape, 0),
                                     garbage(Z.shape, 1))
        assert same_bytes(fresh, expected)
        assert same_bytes(reused, expected)

    @given(Z=hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3,
                                                max_side=5),
                        elements=st.one_of(TIED, OPERAND)))
    @settings(max_examples=100, deadline=None)
    def test_maximum_grad_into_a_reused_buffer(self, Z):
        got = pool_grad_batch(PoolOp.MAXIMUM, Z, garbage(Z.shape))
        assert same_bytes(got, put_along_axis_maximum_grad(Z))

    @given(op_index=st.integers(0, LIBRARY_SIZE - 1), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_backward_computes_each_partial_once_asked(self, op_index,
                                                             data):
        op_set = OperatorSet.from_index(op_index)
        n, fan_in, width = (data.draw(st.integers(1, 4)) for _ in range(3))
        finite = st.floats(-3, 3)
        block = NeuronBlock(
            op_set, data.draw(hnp.arrays(float, (fan_in, width), elements=finite)),
            data.draw(hnp.arrays(float, width, elements=finite)))
        inputs = data.draw(hnp.arrays(float, (n, fan_in), elements=GRAD_OPERAND))
        dh = data.draw(hnp.arrays(float, (n, width),
                                  elements=st.one_of(TIED, finite)))
        shape = (n, fan_in, width)
        with np.errstate(all="ignore"):
            Z, x, _ = block.forward_parts(inputs)
            dx = dh * activation_grad(op_set.activation, x)
            dZ = dx[:, None, :] * pool_grad_batch(op_set.pool, Z)
            gw, gy = CLOSED_FORM_NODAL_GRAD[op_set.nodal](
                block.weights[None], inputs[:, :, None])
            want_dW, want_dinputs = (dZ * gw).sum(axis=0), (dZ * gy).sum(axis=2)
            want_dbias = dx.sum(axis=0)
            got = {}
            for want_inputs in (False, True):
                Z, x, _ = block.forward_parts(inputs)  # backward consumes Z
                scratch = [garbage(shape, i) for i in range(3)]
                got[want_inputs] = block.backward(inputs, Z, x, dh,
                                                  want_inputs, scratch)
        assert got[False][2] is None
        for dW, dbias, _ in got.values():
            assert same_bytes(dW, want_dW)
            assert same_bytes(dbias, want_dbias)
        assert same_bytes(got[True][2], want_dinputs)


# The table entries a block calls directly, and the bare ufunc reductions
# and clip the hot paths call in place of numpy's Python wrappers, must give
# the bits of the public lookups and of those wrappers.

@st.composite
def block_tensors(draw):
    """A [rows, fan_in, width] tensor of ties, signed zeros, infinities, NaN
    and finite values, width 1 included (there numpy sums fan-in pairwise),
    fan-in past numpy's pairwise block of 8, and C- or F-ordered."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 20)),
             draw(st.integers(1, 4)))
    Z = draw(hnp.arrays(float, shape, elements=st.one_of(TIED, OPERAND)))
    return np.asfortranarray(Z) if draw(st.booleans()) else Z


def op_sets_with(op):
    """An operator set holding ``op``, the other two its family's first."""
    parts = {NodalOp: NodalOp.MULTIPLICATION, PoolOp: PoolOp.SUMMATION,
             ActivationOp: ActivationOp.SIGMOID}
    parts[type(op)] = op
    return OperatorSet(parts[NodalOp], parts[PoolOp], parts[ActivationOp])


class TestBoundKernels:
    def test_resolved_once_per_set_from_the_tables(self):
        for op_set in enumerate_operator_sets():
            nodal, pool, activation = op_set.kernels
            assert op_set.kernels is op_set.kernels
            assert nodal is _NODAL[op_set.nodal]
            assert pool is _POOL[op_set.pool]
            assert activation is _ACTIVATION[op_set.activation]

    @pytest.mark.parametrize("op", list(NodalOp))
    @given(Z=block_tensors(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_nodal_kernels(self, op, Z, data):
        nodal = op_sets_with(op).kernels[0]
        w = data.draw(hnp.arrays(float, Z.shape[1:], elements=GRAD_OPERAND))
        y = Z[:, :, 0]
        with np.errstate(all="ignore"):
            assert same_bytes(nodal.forward(w[None], y[:, :, None]),
                              nodal_forward(op, w[None], y[:, :, None]))
            out = garbage(Z.shape)
            assert same_bytes(nodal.forward(w[None], y[:, :, None], out),
                              nodal_forward(op, w[None], y[:, :, None]))
            for want_y in (False, True):
                buffers = [garbage(Z.shape, i) for i in range(3)]
                gw, gy = nodal.grad(w[None], y[:, :, None], buffers[0],
                                    buffers[1] if want_y else None, buffers[2])
                want_gw, want_gy = nodal_grad(op, w[None], y[:, :, None],
                                              want_y)
                assert same_bytes(np.broadcast_to(gw, Z.shape),
                                  np.broadcast_to(want_gw, Z.shape))
                assert (gy is None) == (want_gy is None)
                if want_y:
                    assert same_bytes(np.broadcast_to(gy, Z.shape),
                                      np.broadcast_to(want_gy, Z.shape))

    @pytest.mark.parametrize("op", list(PoolOp))
    @given(Z=block_tensors())
    @settings(max_examples=80, deadline=None)
    def test_pool_kernels(self, op, Z):
        pool = op_sets_with(op).kernels[1]
        with np.errstate(all="ignore"):
            want = pool_forward_batch(op, Z)
            assert same_bytes(pool.forward(Z), want)
            # into a reused buffer of either order, from a C-ordered tensor
            # as every nodal forward makes (from an F-ordered one, a C-ordered
            # output would move the sum order)
            C = np.ascontiguousarray(Z)
            for order in "CF":
                out = np.asarray(garbage((Z.shape[0], Z.shape[2])), order=order)
                assert pool.forward(C, out=out) is out
                assert same_bytes(out, pool_forward_batch(op, C))
            assert same_bytes(pool.grad(Z, garbage(Z.shape, 1),
                                        garbage(Z.shape, 2)),
                              pool_grad_batch(op, Z))
        if op is PoolOp.MAXIMUM:  # a tie goes to the first maximal index
            assert same_bytes(pool.grad(Z, garbage(Z.shape), garbage(Z.shape)),
                              put_along_axis_maximum_grad(Z))

    @pytest.mark.parametrize("op", list(ActivationOp))
    @given(Z=block_tensors())
    @settings(max_examples=60, deadline=None)
    def test_activation_kernels(self, op, Z):
        activation = op_sets_with(op).kernels[2]
        x = Z[:, 0, :]
        with np.errstate(all="ignore"):
            assert same_bytes(activation.forward(x), activation_forward(op, x))
            assert same_bytes(activation.grad(x), activation_grad(op, x))

    @given(Z=block_tensors())
    @settings(max_examples=150, deadline=None)
    def test_bare_reductions_and_clip_keep_the_wrappers_bits(self, Z):
        with np.errstate(all="ignore"):
            for axis in (0, 1, 2, None):
                assert same_bytes(np.add.reduce(Z, axis=axis), Z.sum(axis=axis))
                assert same_bytes(np.maximum.reduce(Z, axis=axis),
                                  Z.max(axis=axis))
            for M in (Z[:, 0, :], Z[:, :, 0]):  # [rows, columns] matrices
                assert same_bytes(np.add.reduce(M, axis=0), M.sum(axis=0))
                # a vector, as the max-norm row norms
                assert same_bytes(np.maximum.reduce(M[0]), M[0].max())
            assert same_bytes(_clip(Z, -EXP_CLAMP, EXP_CLAMP),
                              np.clip(Z, -EXP_CLAMP, EXP_CLAMP))
            out = garbage(Z.shape)
            _clip(Z, -EXP_CLAMP, EXP_CLAMP, out=out)
            assert same_bytes(out, np.clip(Z, -EXP_CLAMP, EXP_CLAMP))
