"""Fixed library of nodal, pooling and activation operators.

Each operator family is one private table keyed by its enum (``_NODAL``,
``_POOL``, ``_ACTIVATION``); an entry holds the operator's forward, its
analytic derivative for the gradient trainer and its inference FLOPs, so
each operator is defined in one table entry.  The public functions
(``nodal_forward``, ``pool_grad_batch``, ``neuron_flops`` ...) are one-line
lookups into these tables; ``OperatorSet.kernels`` hands out a set's three
entries, for callers in hot loops that call them directly.  Forwards
are elementwise/broadcasting numpy operations, so the same code path serves
scalar probes and batched tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import EmptyInput, FormatError

# Exponential nodal saturates its argument here to keep candidate
# evaluation finite; gradients are zero in the saturated region.
EXP_CLAMP = 50.0

# Floor applied to standard deviations wherever features are normalized:
# hidden layers and the input standardization.
STD_FLOOR = 1e-6

# The ufunc np.clip reaches through three Python frames; its bits are np.clip's.
try:
    _clip = np._core.umath.clip
except AttributeError:  # numpy < 2
    _clip = np.core.umath.clip


class NodalOp(Enum):
    MULTIPLICATION = "multiplication"
    EXPONENTIAL = "exponential"
    HARMONIC = "harmonic"
    QUADRATIC = "quadratic"
    GAUSSIAN = "gaussian"
    DOG = "dog"


class PoolOp(Enum):
    SUMMATION = "summation"
    CORRELATION1 = "1-correlation"
    CORRELATION2 = "2-correlation"
    MAXIMUM = "maximum"


class ActivationOp(Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"
    SOFTPLUS = "softplus"
    INVERSE_ABSOLUTE = "inverse-absolute"
    ELU = "elu"


NODAL_ORDER = tuple(NodalOp)
POOL_ORDER = tuple(PoolOp)
ACTIVATION_ORDER = tuple(ActivationOp)

_NODAL_INDEX = {op: i for i, op in enumerate(NODAL_ORDER)}
_POOL_INDEX = {op: i for i, op in enumerate(POOL_ORDER)}
_ACTIVATION_INDEX = {op: i for i, op in enumerate(ACTIVATION_ORDER)}

LIBRARY_SIZE = len(NODAL_ORDER) * len(POOL_ORDER) * len(ACTIVATION_ORDER)


@dataclass(frozen=True)
class OperatorSet:
    """A (nodal, pool, activation) triple; ``index`` is bijective with it."""

    nodal: NodalOp
    pool: PoolOp
    activation: ActivationOp

    @property
    def index(self) -> int:
        return (
            _NODAL_INDEX[self.nodal] * len(POOL_ORDER) * len(ACTIVATION_ORDER)
            + _POOL_INDEX[self.pool] * len(ACTIVATION_ORDER)
            + _ACTIVATION_INDEX[self.activation]
        )

    @classmethod
    def from_index(cls, index: int) -> "OperatorSet":
        if not 0 <= index < LIBRARY_SIZE:
            raise ValueError(f"operator set index {index} outside [0, {LIBRARY_SIZE})")
        n_act = len(ACTIVATION_ORDER)
        n_pool = len(POOL_ORDER)
        nodal, rem = divmod(index, n_pool * n_act)
        pool, act = divmod(rem, n_act)
        return cls(NODAL_ORDER[nodal], POOL_ORDER[pool], ACTIVATION_ORDER[act])

    def tokens(self) -> dict:
        return {
            "nodal": self.nodal.value,
            "pool": self.pool.value,
            "activation": self.activation.value,
        }

    @classmethod
    def from_tokens(cls, tokens: dict, path: str = "op_set") -> "OperatorSet":
        kinds = (("nodal", NodalOp), ("pool", PoolOp), ("activation", ActivationOp))
        parts = []
        for key, enum_cls in kinds:
            if key not in tokens:
                raise FormatError(f"{path}.{key}: missing operator token")
            token = tokens[key]
            try:
                parts.append(enum_cls(token))
            except ValueError:
                raise FormatError(f"{path}.{key}: unknown operator token {token!r}") from None
        return cls(*parts)

    def __str__(self) -> str:
        return f"({self.nodal.value}, {self.pool.value}, {self.activation.value})"

    @cached_property
    def kernels(self) -> tuple:
        """The set's (nodal, pool, activation) table entries, looked up once
        per set: their ``forward`` and ``grad`` skip the public lookups' dict
        lookup by enum and their ``np.asarray`` (callers pass float arrays)."""
        return (_NODAL[self.nodal], _POOL[self.pool],
                _ACTIVATION[self.activation])


PERCEPTRON_SET = OperatorSet(NodalOp.MULTIPLICATION, PoolOp.SUMMATION, ActivationOp.SIGMOID)


def enumerate_operator_sets() -> list[OperatorSet]:
    """All operator sets in lexicographic (nodal, pool, activation) order."""
    return [OperatorSet.from_index(i) for i in range(LIBRARY_SIZE)]


# ---------------------------------------------------------------------------
# Operator tables: one _Op per operator holding its forward, its analytic
# derivative and its inference cost.  Scalar costs: add/mul/compare = 1,
# exp/log/sin/tanh/division = 4; per-operator totals are fixed sums of these,
# with sigmoid and tanh counted as one transcendental evaluation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Op:
    forward: Callable
    grad: Callable
    flops: int | Callable[[int], int]  # pools: a function of fan-in


# Nodal operators: z = psi(y, w), elementwise over broadcast w and y.
# Forwards write z into ``out`` when given, else into a fresh array; composite
# ones run as in-place chains over it, in the operation order of their closed
# forms (DoG is w * y * exp(-w * y * y)), so they round exactly as those
# expressions do with no other z-sized array (one more for DoG).
#
# Grads take ``gw`` and ``gy``, arrays shaped like z for the partials dz/dw
# and dz/dy (``gy`` None when dz/dy is not wanted), and ``t``, a z-shaped
# scratch array.  They return (dz/dw, dz/dy), dz/dy None where not wanted; a
# partial may be an operand or a smaller array that broadcasts against z
# instead of its output array.  Each is an in-place chain in the operation
# order of its closed form, so it keeps that expression's bits, and dz/dw
# computed alone equals dz/dw computed with its sibling.

def _product(a, y, out=None):
    """a * y in ``out`` or a fresh array, also for 0-d operands."""
    return np.multiply(a, y, out=np.empty(np.broadcast(a, y).shape)
                       if out is None else out)


def _multiplication_grad(w, y, gw, gy, t):
    return y, (None if gy is None else w)


def _exponential(w, y, out=None):
    z = _product(w, y, out)
    _clip(z, -EXP_CLAMP, EXP_CLAMP, out=z)
    np.exp(z, out=z)
    return np.subtract(z, 1.0, out=z)


def _exponential_grad(w, y, gw, gy, t):
    # y * e * live and w * e * live, with e = exp(clip(w * y)) and
    # live = (|w * y| < EXP_CLAMP) as 1.0 or 0.0
    e = gw if gy is None else gy
    u = np.multiply(w, y, out=t)
    _clip(u, -EXP_CLAMP, EXP_CLAMP, out=e)
    np.exp(e, out=e)
    live = np.less(np.abs(u, out=u), EXP_CLAMP, out=u)
    np.multiply(np.multiply(y, e, out=gw), live, out=gw)
    if gy is not None:
        np.multiply(np.multiply(w, e, out=gy), live, out=gy)
    return gw, gy


def _harmonic(w, y, out=None):
    z = _product(w, y, out)
    return np.sin(z, out=z)


def _harmonic_grad(w, y, gw, gy, t):
    # y * cos(w * y) and w * cos(w * y)
    c = np.cos(np.multiply(w, y, out=t), out=t)
    np.multiply(y, c, out=gw)
    if gy is not None:
        np.multiply(w, c, out=gy)
    return gw, gy


def _quadratic(w, y, out=None):
    z = _product(w, y, out)
    return np.multiply(z, y, out=z)


def _quadratic_grad(w, y, gw, gy, t):
    # y * y and 2 * w * y
    return y * y, None if gy is None else np.multiply(2.0 * w, y, out=gy)


def _gaussian_exp(w, y, out=None):
    """exp(-w * y * y) in ``out`` or a fresh array."""
    g = _product(-w, y, out)
    np.multiply(g, y, out=g)
    return np.exp(g, out=g)


def _one_minus_wyy(w, y, out):
    """1 - w * y * y in ``out``."""
    u = np.multiply(w, y, out=out)
    np.multiply(u, y, out=u)
    return np.subtract(1.0, u, out=u)


def _gaussian(w, y, out=None):
    g = _gaussian_exp(w, y, out)
    return np.multiply(w, g, out=g)


def _gaussian_grad(w, y, gw, gy, t):
    # g * (1 - w * y * y) and -2 * w * w * y * g, with g = exp(-w * y * y)
    g = _gaussian_exp(w, y, t)
    np.multiply(g, _one_minus_wyy(w, y, gw), out=gw)
    if gy is not None:
        np.multiply(np.multiply(-2.0 * w * w, y, out=gy), g, out=gy)
    return gw, gy


def _dog(w, y, out=None):
    z = _product(w, y, out)
    return np.multiply(z, _gaussian_exp(w, y), out=z)


def _dog_grad(w, y, gw, gy, t):
    # y * g * (1 - w * y * y) and w * g * (1 - 2 * w * y * y), with
    # g = exp(-w * y * y); y * g goes into gy, not yet written, when dz/dy
    # is wanted, and into g itself when g is not read again
    g = _gaussian_exp(w, y, t)
    yg = np.multiply(y, g, out=g if gy is None else gy)
    np.multiply(yg, _one_minus_wyy(w, y, gw), out=gw)
    if gy is not None:
        one_minus = _one_minus_wyy(2.0 * w, y, gy)
        np.multiply(np.multiply(w, g, out=g), one_minus, out=gy)
    return gw, gy


_NODAL = {
    NodalOp.MULTIPLICATION: _Op(_product, _multiplication_grad, 1),
    NodalOp.EXPONENTIAL: _Op(_exponential, _exponential_grad, 6),  # mul + exp + sub
    NodalOp.HARMONIC: _Op(_harmonic, _harmonic_grad, 5),  # mul + sin
    NodalOp.QUADRATIC: _Op(_quadratic, _quadratic_grad, 2),
    # gaussian: 2 mul + neg + exp + mul
    NodalOp.GAUSSIAN: _Op(_gaussian, _gaussian_grad, 8),
    NodalOp.DOG: _Op(_dog, _dog_grad, 9),
}


# Pooling operators over the fan-in axis of [N, fan_in, width] nodal outputs.
# Forwards write the [N, width] result into ``out`` when given, else into a
# fresh array; from a C-ordered Z, as nodal forwards make it, an ``out`` of
# either order gets the fresh result's bits.  Summation and maximum are the
# reductions ``.sum(axis=1)`` and ``.max(axis=1)`` call, without their
# Python frames.  Grads write the elementwise gradient, same shape as Z, into
# ``out`` and may use ``t``, a Z-shaped scratch array; maximum routes its
# subgradient to the first maximal index along fan-in.  The k-correlation
# pool sums the products of k + 1 adjacent entries, an empty sum when fan-in
# is <= k.

def _correlation(k: int) -> _Op:
    def views(Z):
        n = Z.shape[1] - k
        return [Z[:, j:n + j, :] for j in range(k + 1)]

    def forward(Z, out=None):
        if Z.shape[1] <= k:
            if out is None:
                return np.zeros((Z.shape[0], Z.shape[2]))
            out.fill(0.0)
            return out
        first, second, *rest = views(Z)
        p = first * second
        for v in rest:
            np.multiply(p, v, out=p)
        return np.add.reduce(p, axis=1, out=out)

    def grad(Z, out, t):
        # out[:, j:n + j] += the product of every view but the j-th, from zero
        out.fill(0.0)
        n = Z.shape[1] - k
        if n > 0:
            v = views(Z)
            for j in range(k + 1):
                term, *rest = v[:j] + v[j + 1:]
                for other in rest:
                    term = np.multiply(term, other, out=t[:, :n])
                np.add(out[:, j:n + j], term, out=out[:, j:n + j])
        return out

    return _Op(forward, grad, lambda n: max((k + 1) * (n - k) - 1, 0))


def _summation_grad(Z, out, t):
    out.fill(1.0)
    return out


def _maximum_grad(Z, out, t):
    first_max = Z.argmax(axis=1)[:, None, :]
    return np.equal(np.arange(Z.shape[1])[:, None], first_max, out=out)


_POOL = {
    PoolOp.SUMMATION: _Op(partial(np.add.reduce, axis=1), _summation_grad,
                          lambda n: max(n - 1, 0)),
    PoolOp.CORRELATION1: _correlation(1),  # n - 1 products, n - 2 adds
    PoolOp.CORRELATION2: _correlation(2),  # 2(n - 2) products, n - 3 adds
    PoolOp.MAXIMUM: _Op(partial(np.maximum.reduce, axis=1), _maximum_grad,
                        lambda n: max(n - 1, 0)),
}


# Activation operators, elementwise.  Softplus and ELU follow the library
# definitions used throughout this package: softplus(x) = log(1 + exp(-x))
# and elu(x) = x for x >= 0, exp(x) for x < 0.  ReLU'(0) = 0 and ELU'(0) = 1.

def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sigmoid_grad(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


def _tanh_grad(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _softplus(x):
    # log(1 + exp(-x)) computed without overflow on either tail
    tail = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, tail, -x + tail)


def _inverse_absolute_grad(x):
    d = 1.0 + np.abs(x)
    return 1.0 / (d * d)


_ACTIVATION = {
    ActivationOp.SIGMOID: _Op(_sigmoid, _sigmoid_grad, 4),
    ActivationOp.TANH: _Op(np.tanh, _tanh_grad, 4),
    ActivationOp.RELU: _Op(partial(np.maximum, 0.0),
                           lambda x: (x > 0).astype(float), 1),
    ActivationOp.SOFTPLUS: _Op(_softplus, lambda x: -_sigmoid(-x), 9),  # exp + add + log
    ActivationOp.INVERSE_ABSOLUTE: _Op(lambda x: x / (1.0 + np.abs(x)),
                                       _inverse_absolute_grad, 6),  # abs + add + div
    ActivationOp.ELU: _Op(lambda x: np.where(x >= 0, x, np.exp(np.minimum(x, 0.0))),
                          lambda x: np.where(x >= 0, 1.0, np.exp(np.minimum(x, 0.0))),
                          5),  # compare + exp
}


# ---------------------------------------------------------------------------
# Public lookups
# ---------------------------------------------------------------------------

def nodal_forward(op: NodalOp, w, y, out=None):
    return _NODAL[op].forward(np.asarray(w, float), np.asarray(y, float), out)


def nodal_grad(op: NodalOp, w, y, want_y: bool = True, out=None):
    """Partials (dz/dw, dz/dy) of the nodal operator, broadcastable against z;
    dz/dy is None unless ``want_y``.  ``out`` is three z-shaped arrays: the
    partials may be written into the first two, the third is scratch; fresh
    ones are made when it is None."""
    w, y = np.asarray(w, dtype=float), np.asarray(y, dtype=float)
    if out is None:
        shape = np.broadcast_shapes(w.shape, y.shape)
        out = [np.empty(shape) for _ in range(3)]
    gw, gy, t = out
    return _NODAL[op].grad(w, y, gw, gy if want_y else None, t)


def _probe(z, name: str) -> np.ndarray:
    """A 1-D vector of nodal outputs as a [1, n, 1] batch."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"{name} expects a 1-D vector")
    if z.size == 0:
        raise EmptyInput(f"{name} requires at least one element")
    return z[None, :, None]


def pool_forward(op: PoolOp, z) -> float:
    """Pool a 1-D vector of nodal outputs to a scalar."""
    return float(pool_forward_batch(op, _probe(z, "pool_forward"))[0, 0])


def pool_grad(op: PoolOp, z) -> np.ndarray:
    """Gradient of pool_forward w.r.t. each entry of z."""
    return pool_grad_batch(op, _probe(z, "pool_grad"))[0, :, 0]


def pool_forward_batch(op: PoolOp, Z: np.ndarray) -> np.ndarray:
    """Pool [N, fan_in, width] nodal outputs along the fan-in axis."""
    return _POOL[op].forward(Z)


def pool_grad_batch(op: PoolOp, Z: np.ndarray, out=None, t=None) -> np.ndarray:
    """Elementwise pool gradients, same shape as Z, written into ``out``;
    ``t`` is a Z-shaped scratch array.  Fresh ones are made where None."""
    return _POOL[op].grad(Z, np.empty_like(Z) if out is None else out,
                          np.empty_like(Z) if t is None else t)


def pool_flops(op: PoolOp, fan_in: int) -> int:
    """Pooling cost for one neuron with the given fan-in."""
    return _POOL[op].flops(fan_in)


def activation_forward(op: ActivationOp, x):
    return _ACTIVATION[op].forward(np.asarray(x, dtype=float))


def activation_grad(op: ActivationOp, x):
    return _ACTIVATION[op].grad(np.asarray(x, dtype=float))


def neuron_flops(op_set: OperatorSet, fan_in: int) -> int:
    """Per-sample cost of one neuron: nodal over fan-in, pool, bias, activation."""
    return (fan_in * _NODAL[op_set.nodal].flops + pool_flops(op_set.pool, fan_in)
            + 1 + _ACTIVATION[op_set.activation].flops)
