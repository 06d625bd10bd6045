"""Mini-batch SGD finetuning of selected network pieces.

Gradients are exact chain-rule derivatives through the operator library,
the per-column normalization and the linear head.  Only parameters named
by a TrainableSelection are updated; everything else is left bit-identical.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    NonFiniteLoss,
    UnfitNormalization,
)
from . import network
from .network import GopLayer, GopNetwork, NormMode

BN_MOMENTUM = 0.9
BN_EPS = 1e-5

# finetune counts an epoch as divergence, even when every number is finite,
# if its validation loss is non-finite or its mean training loss exceeds
# DIVERGENCE_RATIO times the loss of the first batch before any update,
# floored at DIVERGENCE_FLOOR.
DIVERGENCE_RATIO = 1e3
DIVERGENCE_FLOOR = 1e-3


class LossKind(Enum):
    MSE = "mse"
    CROSS_ENTROPY = "cross-entropy"


@dataclass(frozen=True)
class Decay:
    lam: float


@dataclass(frozen=True)
class MaxNorm:
    limit: float


_KIND_NAMES = {numbers.Real: "a real number", numbers.Integral: "an integer",
               type(None): "None"}


def _meets(value, rule) -> bool:
    if isinstance(rule, list):
        return (isinstance(value, (tuple, list))
                and all(_meets(entry, rule[0]) for entry in value))
    if isinstance(rule, int):
        return _meets(value, numbers.Integral) and value >= rule
    return isinstance(value, rule) and not isinstance(value, bool)


def _describe(rule) -> str:
    if isinstance(rule, list):
        return f"a tuple or list of entries each {_describe(rule[0])}"
    if isinstance(rule, int):
        return f"an integer >= {rule}"
    kinds = rule if isinstance(rule, tuple) else (rule,)
    return " or ".join(_KIND_NAMES.get(k, f"a {k.__name__}") for k in kinds)


def check_fields(config, **rules) -> None:
    """ConfigError naming the first field of ``config`` that breaks its rule.

    An integer rule asks for a non-boolean integer at least that value; a
    type or tuple of types, for an instance, where a boolean is no number;
    a one-rule list, for a tuple or list whose every entry meets that rule.
    """
    for name, rule in rules.items():
        value = getattr(config, name)
        if not _meets(value, rule):
            raise ConfigError(f"{name} must be {_describe(rule)}, got {value!r}")


@dataclass(frozen=True)
class TrainSpec:
    lr_schedule: tuple = ((0.01, 20), (0.001, 40), (0.0001, 40))
    batch_size: int = 32
    dropout_hidden: float = 0.3
    dropout_input: float = 0.2
    weight_reg: Decay | MaxNorm | None = MaxNorm(2.0)
    loss: LossKind = LossKind.MSE
    seed: int = 0

    def validate(self) -> None:
        if not self.lr_schedule:
            raise ConfigError("lr_schedule must have at least one stage")
        last = None
        for i, stage in enumerate(self.lr_schedule):
            where = f"lr_schedule stage {i} {stage!r}"
            if not (isinstance(stage, (tuple, list)) and len(stage) == 2
                    and all(isinstance(v, numbers.Real)
                            and not isinstance(v, bool) for v in stage)
                    and isinstance(stage[1], numbers.Integral)):
                raise ConfigError(f"{where}: expected a pair of a real learning "
                                  "rate and an integer epoch count")
            lr, epochs = stage
            if not 0 <= lr < np.inf:
                raise ConfigError(f"{where}: learning rate must be finite and >= 0")
            if last is not None and lr > last:
                raise ConfigError(f"{where}: learning rates must be non-increasing")
            if epochs < 1:
                raise ConfigError(f"{where}: epochs must be >= 1")
            last = lr
        check_fields(self, batch_size=1, seed=0, dropout_hidden=numbers.Real,
                     dropout_input=numbers.Real, loss=LossKind,
                     weight_reg=(Decay, MaxNorm, type(None)))
        for p in (self.dropout_hidden, self.dropout_input):
            if not 0.0 <= p < 1.0:
                raise ConfigError("dropout rates must lie in [0, 1)")
        if isinstance(self.weight_reg, MaxNorm):
            check_fields(self.weight_reg, limit=numbers.Real)
            if not 0 < self.weight_reg.limit < np.inf:
                raise ConfigError("max-norm limit must be finite and > 0")
        if isinstance(self.weight_reg, Decay):
            check_fields(self.weight_reg, lam=numbers.Real)
            if not 0 <= self.weight_reg.lam < np.inf:
                raise ConfigError("weight decay must be finite and >= 0")


@dataclass(frozen=True)
class TrainableSelection:
    """Which parameters finetune may update: the ``start`` block, every later
    block of its layer and every block of each layer above it (no block if
    None), plus the output map if ``include_output``.  A trained block of a
    batch-norm layer also trains its columns' scale and shift."""

    start: tuple | None  # (layer_index, block_index)
    include_output: bool = True

    @classmethod
    def all_blocks(cls, net: GopNetwork,
                   include_output: bool = True) -> "TrainableSelection":
        return cls((0, 0), include_output)

    @classmethod
    def newest_block(cls, net: GopNetwork) -> "TrainableSelection":
        """The last block of the top layer, and the output map."""
        return cls((len(net.hidden) - 1, len(net.hidden[-1].blocks) - 1))

    def first_trained(self, net: GopNetwork) -> tuple:
        """(lowest layer with a trained block, its first trained block);
        the layer index is past the top layer if no block is trained."""
        return (len(net.hidden), 0) if self.start is None else self.start

    def validate(self, net: GopNetwork) -> None:
        if self.start is None:
            return
        li, bi = self.start
        if not 0 <= li < len(net.hidden):
            raise ConfigError(f"selection references missing layer {li}")
        if not 0 <= bi < len(net.hidden[li].blocks):
            raise ConfigError(f"selection references missing block ({li}, {bi})")


@dataclass
class Gradients:
    """Gradient arrays mirroring the selected parameters only: views of a
    plan's flat gradient buffer, which every backward pass rewrites."""

    blocks: dict = field(default_factory=dict)  # (l, b) -> (dW, dbias)
    norm: dict = field(default_factory=dict)    # l -> (dscale, dshift), live columns
    output: tuple | None = None                 # (dB, dbias)

    def n_scalars(self) -> int:
        total = sum(dw.size + db.size for dw, db in self.blocks.values())
        total += sum(ds.size + dh.size for ds, dh in self.norm.values())
        if self.output is not None:
            total += self.output[0].size + self.output[1].size
        return total


@dataclass
class TrainLogRow:
    """Per-epoch record: train columns are running averages over the epoch's
    training-mode batches; val columns are inference-mode on the val split."""

    epoch: int
    lr: float
    train_loss: float
    train_accuracy: float
    val_loss: float | None
    val_accuracy: float | None


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    def as_records(self) -> list[dict]:
        return [vars(r).copy() for r in self.rows]


# ---------------------------------------------------------------------------
# Loss heads
# ---------------------------------------------------------------------------

def _loss(P: np.ndarray, Y: np.ndarray, loss: LossKind, t: np.ndarray,
          dP: np.ndarray | None = None) -> float:
    """The loss of P against Y, with ``t``, P-shaped, as scratch (it may be
    P itself when P is not read again); with ``dP``, P-shaped, also the
    gradient, written there."""
    n = len(P)
    if loss is LossKind.MSE:
        diff = np.subtract(P, Y, out=t if dP is None else dP)
        # as np.mean does it
        mse = np.add.reduce(np.multiply(diff, diff, out=t), axis=None) / diff.size
        if dP is not None:
            np.multiply(2.0 / diff.size, diff, out=dP)
        return float(mse)
    m = np.maximum.reduce(P, axis=1, keepdims=True)
    shifted = np.subtract(P, m, out=t)
    expP = np.exp(shifted, out=dP)
    s = np.add.reduce(expP, axis=1, keepdims=True)
    log_s = np.log(s, out=m)
    total = np.add.reduce(np.multiply(Y, np.subtract(shifted, log_s, out=t),
                                      out=t), axis=None)
    if dP is not None:  # (softmax(P) - Y) / n
        np.divide(expP, s, out=dP)
        np.subtract(dP, Y, out=dP)
        np.divide(dP, n, out=dP)
    return float(-total / n)


def loss_and_grad(P: np.ndarray, Y: np.ndarray, loss: LossKind):
    """(loss, dP): the loss of P against Y and its gradient w.r.t. P."""
    P = np.asarray(P, dtype=float)
    dP = np.empty(P.shape)
    return _loss(P, Y, loss, np.empty(P.shape), dP), dP


def _checked_targets(net: GopNetwork, X, Y, name: str = "data"):
    """(inputs, targets) as float arrays: [N, input_dim] and [N, C] with
    N >= 1, else DimensionMismatch or EmptyInput naming ``name``."""
    X = net.checked_inputs(X)
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (len(X), net.n_classes):
        raise DimensionMismatch(
            f"{name}: targets must be [N, C] = [{len(X)}, {net.n_classes}] "
            f"for {len(X)} input rows and {net.n_classes} classes, got "
            f"{Y.shape}")
    if len(X) == 0:
        raise EmptyInput(f"{name}: no rows")
    return X, Y


def _metrics(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
             labels: np.ndarray, loss: LossKind):
    """(loss, accuracy) of checked inputs and targets with ``labels``, Y's
    row argmax: no loss gradient, no check."""
    P = net.forward(X)
    accuracy = int(np.count_nonzero(P.argmax(axis=1) == labels)) / len(P)
    return _loss(P, Y, loss, P), accuracy


def evaluate_metrics(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
                     loss: LossKind = LossKind.MSE):
    """(loss, accuracy) of the network in inference mode.

    X must be [N, input_dim] and Y [N, C] with N >= 1 (DimensionMismatch,
    EmptyInput).  Operator arithmetic saturates rather than warns; a
    non-finite loss is reported as-is.
    """
    X, Y = _checked_targets(net, X, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        return _metrics(net, X, Y, Y.argmax(axis=1), loss)


# ---------------------------------------------------------------------------
# Training-mode forward/backward
# ---------------------------------------------------------------------------

@dataclass
class _BatchNorm:
    """A layer's batch-norm buffers over its n_live live columns.  They are
    F-ordered, so axis-0 sums over a batch's first rows run pairwise, as
    over a boolean-mask gather; a C-ordered array sums row by row, which
    would move the batch statistics in their last bits."""

    n_live: int
    h: np.ndarray               # [rows, n_live] raw outputs, then squares
    xhat: np.ndarray            # [rows, n_live] centered, then normalized
    stats: np.ndarray           # [2, n_live]: the batch mean, then sigma
    stack: np.ndarray           # [rows, 4 * n_live]: dxhat * xhat, dxhat,
                                # d_live * xhat, d_live
    sums: np.ndarray            # [4 * n_live]: the column sums of stack
    means: np.ndarray           # [2 * n_live] view: the first two sums
    grad_sums: np.ndarray       # [2, n_live] view: the last two sums
    grads: np.ndarray           # [2, n_live] flat grad view: dscale, dshift

    @classmethod
    def new(cls, rows: int, n_live: int, grads: np.ndarray) -> "_BatchNorm":
        sums = np.empty(4 * n_live)
        return cls(n_live, np.empty((rows, n_live), order="F"),
                   np.empty((rows, n_live), order="F"), np.empty((2, n_live)),
                   np.empty((rows, 4 * n_live), order="F"), sums,
                   sums[:2 * n_live], sums[2 * n_live:].reshape(2, n_live),
                   grads)


@dataclass
class _LayerPlan:
    """One layer's constants and buffers over the training-mode passes of
    one call: only live columns and trained blocks change, so frozen
    columns are fixed.  A layer's trained blocks run from its first trained
    block to its end, so its trained columns are one suffix span and its
    frozen ones one prefix.  Norm arrays are views of the layer's, which
    updates change in place.  Buffers hold ``rows`` rows; a pass over n
    rows uses the first n.  ``inputs`` and ``mask`` are the last forward's,
    which the backward reads."""

    spans: list                 # column slice of each block
    visit: list                 # trained block indices, which backward visits
    live: slice | None          # batch-stat normalized columns, if any
    live_norm: tuple | None     # (scale, shift) of the live columns
    frozen: tuple | None        # (span, scale, mean, std, shift) of frozen columns
    frozen_gain: tuple | None   # (span, scale / std) of trained standardized columns
    Z: list                     # per block, a [rows, fan_in, width] buffer
    x: list                     # per block, a [rows, width] pre-activation buffer
    scratch: list               # per block, three more, shared by every block
    H: np.ndarray               # [rows, width] raw outputs of several blocks
    out: np.ndarray             # [rows, width] output after norm and dropout
    dA: np.ndarray              # [rows, width] loss grad w.r.t. out
    dH: np.ndarray              # [rows, width] loss grad w.r.t. the raw output
    bn: _BatchNorm | None       # buffers of the live columns, if any
    inputs: np.ndarray | None = None  # layer input after any upstream dropout
    mask: np.ndarray | None = None    # dropout mask of the output, if any


@dataclass
class _Plan:
    """The passes' plan, and its rebinding of the network: the arrays the
    passes train are views of one buffer, ``values``, in _param_slots order,
    and each trained batch-norm layer's running mean and std the two rows
    of one [2, width] array."""

    layers: list
    lowest: int                 # lowest layer with a trained block, else past the top
    include_output: bool
    values: np.ndarray          # flat, in _param_slots order
    n_weights: int              # length of the weight-matrix prefix
    matrices: list              # the weight matrices, which max-norm projects
    running: list               # (running, batch stats) views per live layer
    originals: list             # (owner, name, the caller's array)
    grad: np.ndarray            # flat, in _param_slots order
    grads: Gradients            # views of grad
    masked: np.ndarray          # [rows, input_dim] inputs after dropout
    t: np.ndarray               # [rows, C] loss scratch
    dP: np.ndarray              # [rows, C] loss grad w.r.t. the head's output


def _param_slots(net: GopNetwork, selection: TrainableSelection):
    """(owner, name) of every array finetune updates, in flat-buffer order,
    and the keys of the trained blocks, (layer, block), and of the trained
    batch-norm layers in that order.  The order: the weight matrices first
    (trained blocks from the top layer down, in block order within a layer,
    then the output map), then the block biases in the same order, each
    trained batch-norm layer's scale and shift, and the output bias.  The frozen prefix of the lowest layer's scale and
    shift rides along with a zero gradient, so its bits never change."""
    for li, layer in enumerate(net.hidden):
        if not layer.norm.fitted:
            raise UnfitNormalization(f"layer {li} normalization is unfitted")
    lowest, first = selection.first_trained(net)
    blocks, norms = {}, {}
    for li in range(len(net.hidden) - 1, lowest - 1, -1):
        layer = net.hidden[li]
        for bi in range(first if li == lowest else 0, len(layer.blocks)):
            blocks[li, bi] = layer.blocks[bi]
        if layer.norm.mode is NormMode.BATCHNORM:
            norms[li] = layer.norm
    output = [(net, "output_weights"), (net, "output_bias")] \
        if selection.include_output else []
    slots = ([(b, "weights") for b in blocks.values()] + output[:1]
             + [(b, "bias") for b in blocks.values()]
             + [(norm, name) for norm in norms.values()
                for name in ("scale", "shift")]
             + output[1:])
    return slots, list(blocks), list(norms)


def _flat_views(flat: np.ndarray, arrays: list) -> list:
    """Consecutive views of ``flat`` shaped, and ordered in memory, as
    ``arrays``."""
    views, start = [], 0
    for a in arrays:
        order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
        views.append(flat[start:start + a.size].reshape(a.shape, order=order))
        start += a.size
    return views


@contextmanager
def _plan(net: GopNetwork, selection: TrainableSelection, rows: int):
    """The plan of passes over at most ``rows`` rows at a time, with a
    zeroed flat buffer for the grads in _param_slots order.  From its setup
    until the block exits, by return or raise, the network holds the plan's
    views in place of the caller's arrays, which sit untouched; then it
    holds the caller's arrays again."""
    slots, block_keys, norm_keys = _param_slots(net, selection)
    arrays = [getattr(owner, name) for owner, name in slots]
    originals = [(owner, name, getattr(owner, name)) for owner, name in slots
                 + [(net.hidden[li].norm, stat) for li in norm_keys
                    for stat in ("mean", "std")]]
    try:
        grad = np.zeros(sum(a.size for a in arrays))
        values = np.empty_like(grad)
        value_views = _flat_views(values, arrays)
        for (owner, name), view, array in zip(slots, value_views, arrays):
            view[...] = array
            setattr(owner, name, view)
        n_matrices = len(block_keys) + selection.include_output
        views = _flat_views(grad, arrays)
        biases = views[n_matrices:]
        # each trained batch-norm layer's (dscale, dshift) as one [2, width] view
        norm_start = sum(a.size for a in arrays[:n_matrices + len(block_keys)])
        norm_grads = {}
        for li in norm_keys:
            width = net.hidden[li].width
            norm_grads[li] = grad[norm_start:norm_start + 2 * width].reshape(2, width)
            norm_start += 2 * width
        lowest, first = selection.first_trained(net)
        scratch = [np.empty(max(rows * layer.fan_in * b.width
                                for layer in net.hidden for b in layer.blocks))
                   for _ in range(3)]
        layers, running = [], []
        for li, layer in enumerate(net.hidden):
            norm = layer.norm
            spans = [layer.block_slice(bi) for bi in range(len(layer.blocks))]
            visit = ([] if li < lowest
                     else list(range(first if li == lowest else 0, len(spans))))
            trained = slice(spans[visit[0]].start, layer.width) if visit else None
            live = trained if norm.mode is NormMode.BATCHNORM else None
            bn = None if live is None else _BatchNorm.new(
                rows, live.stop - live.start, norm_grads[li][:, live])
            if live is not None:
                stats = np.stack([norm.mean, norm.std])
                norm.mean, norm.std = stats
                running.append((stats[:, live], bn.stats))
            frozen = slice(0, layer.width if live is None else live.start)
            shapes = [(rows, layer.fan_in, b.width) for b in layer.blocks]
            layers.append(_LayerPlan(
                spans, visit, live,
                None if live is None else (norm.scale[live], norm.shift[live]),
                (frozen, norm.scale[frozen], norm.mean[frozen], norm.std[frozen],
                 norm.shift[frozen]) if frozen.stop > 0 else None,
                (trained, norm.scale[trained] / norm.std[trained])
                if trained is not None and live is None else None,
                [np.empty(shape) for shape in shapes],
                [np.empty((rows, b.width)) for b in layer.blocks],
                [tuple(f[:np.prod(shape)].reshape(shape) for f in scratch)
                 for shape in shapes],
                *(np.empty((rows, layer.width)) for _ in range(4)), bn))
        grads = Gradients(
            dict(zip(block_keys, zip(views, biases))),
            {li: tuple(layers[li].bn.grads) for li in norm_keys},
            (views[n_matrices - 1], views[-1]) if selection.include_output
            else None)
        yield _Plan(layers, lowest, selection.include_output, values,
                    sum(a.size for a in arrays[:n_matrices]),
                    value_views[:n_matrices], running, originals, grad, grads,
                    np.empty((rows, net.input_dim)),
                    *(np.empty((rows, net.n_classes)) for _ in range(2)))
    finally:
        for owner, name, array in originals:
            setattr(owner, name, array)


def _forward_train(net: GopNetwork, X: np.ndarray, plan: _Plan,
                   input_mask: np.ndarray | None = None,
                   hidden_masks: list | None = None,
                   P_out: np.ndarray | None = None) -> np.ndarray:
    """Forward pass over checked inputs, leaving in the plan what backward
    reads.

    Dropout multiplies the inputs by ``input_mask`` and each layer's output
    by its entry of ``hidden_masks``, inverted-scaled masks; without them
    the pass is a pure function of (net, X, plan).  The output map's result
    is written into ``P_out`` if given.
    """
    n = len(X)
    a = X if input_mask is None else np.multiply(X, input_mask,
                                                 out=plan.masked[:n])
    for li, (layer, lp) in enumerate(zip(net.hidden, plan.layers)):
        lp.inputs = a
        hs = [block._parts(a, Z[:n], x[:n])[2]
              for block, Z, x in zip(layer.blocks, lp.Z, lp.x)]
        H_raw = hs[0] if len(hs) == 1 else np.concatenate(hs, axis=1,
                                                          out=lp.H[:n])
        out = lp.out[:n]
        if lp.frozen is not None:
            sp, scale, mean, std, shift = lp.frozen
            o = np.subtract(H_raw[:, sp], mean, out=out[:, sp])
            np.multiply(scale, o, out=o)
            np.divide(o, std, out=o)
            np.add(o, shift, out=o)
        if lp.live is not None:
            # h.mean(axis=0) and h.var(axis=0) as numpy computes them
            bn = lp.bn
            h = bn.h[:n]
            h[...] = H_raw[:, lp.live]
            batch_mean, sigma = bn.stats
            np.divide(np.add.reduce(h, axis=0, out=batch_mean), n, out=batch_mean)
            xhat = np.subtract(h, batch_mean, out=bn.xhat[:n])
            np.add.reduce(np.multiply(xhat, xhat, out=h), axis=0, out=sigma)
            np.divide(sigma, n, out=sigma)
            np.sqrt(np.add(sigma, BN_EPS, out=sigma), out=sigma)
            np.divide(xhat, sigma, out=xhat)
            scale, shift = lp.live_norm
            o = np.multiply(scale, xhat, out=out[:, lp.live])
            np.add(o, shift, out=o)
        lp.mask = None if hidden_masks is None else hidden_masks[li]
        a = out if lp.mask is None else np.multiply(out, lp.mask, out=out)
    P = np.matmul(a, net.output_weights, out=P_out)
    return np.add(P, net.output_bias, out=P)


def training_loss(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
                  selection: TrainableSelection,
                  loss: LossKind = LossKind.MSE) -> float:
    """The dropout-free loss that backward() differentiates.

    Batch-stat normalization applies to the trained blocks' columns exactly
    as in backward, so finite differences of this function match it.
    """
    selection.validate(net)
    X, Y = _checked_targets(net, X, Y)
    with _plan(net, selection, len(X)) as plan:
        return _loss(_forward_train(net, X, plan), Y, loss, plan.t)


def backward(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
             selection: TrainableSelection,
             loss: LossKind = LossKind.MSE) -> Gradients:
    """Exact loss gradients for every selected parameter (no dropout)."""
    selection.validate(net)
    X, Y = _checked_targets(net, X, Y)
    with _plan(net, selection, len(X)) as plan:
        _loss(_forward_train(net, X, plan), Y, loss, plan.t, plan.dP)
        return _backward(net, plan.dP, plan)


def _backward(net: GopNetwork, dP: np.ndarray, plan: _Plan) -> Gradients:
    """Every selected parameter's grad after a _forward_train of len(dP)
    rows, written into ``plan.grads``."""
    grads, n = plan.grads, len(dP)
    top = plan.layers[-1]
    if plan.include_output:
        dB, dbias = grads.output
        np.matmul(top.out[:n].T, dP, out=dB)
        np.add.reduce(dP, axis=0, out=dbias)
    dA = np.matmul(dP, net.output_weights.T, out=top.dA[:n])
    for li in range(len(net.hidden) - 1, plan.lowest - 1, -1):
        layer, lp = net.hidden[li], plan.layers[li]
        # only the columns of the blocks visited below, the trained ones,
        # are read: the live columns or, without batch norm, the gain span
        dH = lp.dH[:n]
        if lp.live is None:
            dout = dA if lp.mask is None else np.multiply(dA, lp.mask, out=dA)
            sp, gain = lp.frozen_gain
            np.multiply(dout[:, sp], gain, out=dH[:, sp])
        else:
            bn, k, live = lp.bn, lp.bn.n_live, lp.live
            stack = bn.stack[:n]
            prod, dxhat = stack[:, :k], stack[:, k:2 * k]
            d_live = stack[:, 3 * k:]
            xhat = bn.xhat[:n]
            if lp.mask is None:
                d_live[...] = dA[:, live]
            else:
                np.multiply(dA[:, live], lp.mask[:, live], out=d_live)
            np.multiply(d_live, lp.live_norm[0], out=dxhat)
            np.multiply(dxhat, xhat, out=prod)
            np.multiply(d_live, xhat, out=stack[:, 2 * k:3 * k])
            np.add.reduce(stack, axis=0, out=bn.sums)
            bn.grads[...] = bn.grad_sums
            means = np.divide(bn.means, n, out=bn.means)
            # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sigma
            d = np.subtract(dxhat, means[k:], out=dH[:, live])
            np.subtract(d, np.multiply(xhat, means[:k], out=prod), out=d)
            np.divide(d, bn.stats[1], out=d)
        need_dinputs = li > plan.lowest
        dinputs = plan.layers[li - 1].dA[:n] if need_dinputs else None
        if need_dinputs:
            dinputs.fill(0.0)
        for bi in lp.visit:
            _, _, dblock = layer.blocks[bi].backward(
                lp.inputs, lp.Z[bi][:n], lp.x[bi][:n], dH[:, lp.spans[bi]],
                need_dinputs, [s[:n] for s in lp.scratch[bi]],
                grads.blocks[(li, bi)])
            if need_dinputs:
                np.add(dinputs, dblock, out=dinputs)
        dA = dinputs
    return grads


# ---------------------------------------------------------------------------
# SGD loop
# ---------------------------------------------------------------------------

def _apply_update(plan: _Plan, lr: float, decay: float, limit: float | None,
                  epoch: int) -> None:
    """One SGD step over every trained parameter; ``plan.grad`` is consumed."""
    # no decay term at lam == 0: for finite W, dW + 0 * W differs from dW
    # only in the sign of a zero, which W - lr * dW does not keep
    values, grad, head = plan.values, plan.grad, plan.n_weights
    if decay:
        grad[:head] += decay * values[:head]
    np.multiply(grad, lr, out=grad)
    np.subtract(values, grad, out=values)
    if limit is not None:
        for W in plan.matrices:
            _project_rows(W, limit, epoch)


def _project_rows(W: np.ndarray, limit: float, epoch: int) -> None:
    """Max-norm projection of W's rows; a non-finite norm is divergence."""
    norms = np.sqrt(np.add.reduce(W * W, axis=1))  # np.linalg.norm(W, axis=1)
    if np.maximum.reduce(norms) <= limit:  # False for a NaN norm too
        return
    if not np.isfinite(norms).all():
        raise NonFiniteLoss(f"non-finite weight norm at epoch {epoch}", epoch=epoch)
    over = norms > limit
    W[over] *= (limit / norms[over])[:, None]


def _update_running_stats(plan: _Plan) -> None:
    for stats, batch_stats in plan.running:
        np.multiply(stats, BN_MOMENTUM, out=stats)
        np.multiply(batch_stats, 1.0 - BN_MOMENTUM, out=batch_stats)
        np.add(stats, batch_stats, out=stats)


def _dropout_runs(net: GopNetwork, n: int, spec: TrainSpec):
    """The epoch's batches in runs of whole batches whose dropout draws fit
    FORWARD_CHUNK_BYTES (at least one batch per run), all drawn into one
    buffer, bounded in N: (rows per run, the full runs' layout, the last
    run's layout).

    A layout is (the buffer's view its draws fill, the (view, rate) pairs
    that threshold its masks in place, its batches as (start, stop) within
    the run and (input mask, hidden masks or None)).  The draws are in the
    stream order of per-batch draws: per batch, its input mask, then each
    layer's hidden mask.
    """
    p_in, p_hidden = spec.dropout_input, spec.dropout_hidden
    widths = ([net.input_dim] if p_in > 0 else []) + (
        [layer.width for layer in net.hidden] if p_hidden > 0 else [])
    per_row, size = sum(widths), spec.batch_size
    run_rows = n if not per_row else min(n, size * max(
        1, network.FORWARD_CHUNK_BYTES // (8 * per_row * size)))
    draws = np.empty(run_rows * per_row)

    def layout(rows):
        batches = []
        for start in range(0, rows, size):
            stop = min(start + size, rows)
            views, offset = [], start * per_row
            for width in widths:
                views.append(draws[offset:offset + (stop - start) * width]
                             .reshape(stop - start, width))
                offset += (stop - start) * width
            batches.append(((start, stop), (views.pop(0) if p_in > 0 else None,
                                            views if p_hidden > 0 else None)))
        # the full batches as one row each, then any partial last batch
        full = rows // size * size
        thresholds = []
        for batch_rows, block in ((size, draws[:full * per_row]),
                                  (rows - full,
                                   draws[full * per_row:rows * per_row])):
            if block.size == 0:
                continue
            block = block.reshape(-1, batch_rows * per_row)
            cut = batch_rows * (net.input_dim if p_in > 0 else 0)
            for view, rate in ((block[:, :cut], p_in), (block[:, cut:], p_hidden)):
                if view.size:
                    thresholds.append((view, rate))
        return draws[:rows * per_row], thresholds, batches

    return run_rows, layout(run_rows), layout(n - (n - 1) // run_rows * run_rows)


def finetune(net: GopNetwork, data_train, data_val, spec: TrainSpec,
             selection: TrainableSelection) -> TrainLog:
    """Mini-batch SGD over the learning-rate schedule.

    ``data_train`` and ``data_val`` (None for no validation) are (X, Y)
    pairs: X [N, input_dim] and Y [N, C] targets with N >= 1, checked before
    any compute (DimensionMismatch, EmptyInput).  Dropout and batch
    statistics apply during training only.  A non-finite loss or weight
    norm, or an epoch that diverges by the DIVERGENCE_RATIO rule, raises
    NonFiniteLoss.  The call is all or nothing: for its length the network
    holds views of one flat buffer in place of the trained parameters and
    running statistics, updated by one subtraction per step, and the
    caller's arrays sit untouched.  A return copies the values into them;
    after a raise they keep their pre-call bytes.  Either way the network
    holds them again.  The per-layer plan (column spans, the frozen columns'
    normalization, the buffers every pass writes into) and the
    floating-point error state are set up once per call.  Each epoch
    gathers its permuted rows once and counts its hits once; it draws its
    dropout masks in runs of whole batches, one call per run, in the stream
    order of per-batch draws.
    """
    spec.validate()
    selection.validate(net)
    X, Y = _checked_targets(net, *data_train, "training data")
    if data_val is not None:
        data_val = _checked_targets(net, *data_val, "validation data")
    with _plan(net, selection, min(spec.batch_size, len(X))) as plan:
        log = _sgd(net, X, Y, data_val, spec, plan)
        for owner, name, array in plan.originals:
            array[...] = getattr(owner, name)
    return log


def _sgd(net: GopNetwork, X: np.ndarray, Y: np.ndarray, data_val,
         spec: TrainSpec, plan: _Plan) -> TrainLog:
    n = X.shape[0]
    labels = Y.argmax(axis=1)
    val_labels = None if data_val is None else data_val[1].argmax(axis=1)
    run_rows, full_run, last_run = _dropout_runs(net, n, spec)
    X_epoch, Y_epoch = np.empty((n, X.shape[1])), np.empty((n, Y.shape[1]))
    labels_epoch = np.empty(n, dtype=labels.dtype)
    P_epoch = np.empty((n, net.n_classes))
    decay = spec.weight_reg.lam if isinstance(spec.weight_reg, Decay) else 0.0
    limit = spec.weight_reg.limit if isinstance(spec.weight_reg, MaxNorm) else None
    rng = np.random.default_rng(spec.seed)
    log = TrainLog()
    loss_limit = None
    lrs = [lr for lr, epochs in spec.lr_schedule for _ in range(int(epochs))]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch_index, lr in enumerate(lrs):
            order = rng.permutation(n)
            # mode="clip" writes into target directly; "raise" would gather
            # into a copy first, which a permutation never needs
            for source, target in ((X, X_epoch), (Y, Y_epoch),
                                   (labels, labels_epoch)):
                source.take(order, axis=0, out=target, mode="clip")
            loss_sum = 0.0
            for run_start in range(0, n, run_rows):
                draws, thresholds, batches = (
                    full_run if run_start + run_rows <= n else last_run)
                if draws.size:
                    rng.random(out=draws)
                    for view, rate in thresholds:
                        np.greater_equal(view, rate, out=view)
                        np.divide(view, 1.0 - rate, out=view)
                for (start, stop), (input_mask, hidden_masks) in batches:
                    start, stop = run_start + start, run_start + stop
                    P = _forward_train(net, X_epoch[start:stop], plan,
                                       input_mask, hidden_masks,
                                       P_epoch[start:stop])
                    rows = stop - start
                    dP = plan.dP[:rows]
                    batch_loss = _loss(P, Y_epoch[start:stop], spec.loss,
                                       plan.t[:rows], dP)
                    if not math.isfinite(batch_loss):
                        raise NonFiniteLoss(
                            f"non-finite training loss at epoch {epoch_index}",
                            epoch=epoch_index)
                    if loss_limit is None:  # the loss before any update
                        loss_limit = DIVERGENCE_RATIO * max(batch_loss,
                                                            DIVERGENCE_FLOOR)
                    loss_sum += batch_loss * rows
                    _backward(net, dP, plan)
                    _apply_update(plan, lr, decay, limit, epoch_index)
                    _update_running_stats(plan)
            hits = int((P_epoch.argmax(axis=1) == labels_epoch).sum())
            train_loss = loss_sum / n
            diverged = train_loss > loss_limit
            val_loss = val_acc = None
            if data_val is not None:
                val_loss, val_acc = _metrics(net, *data_val, val_labels,
                                             spec.loss)
                diverged = diverged or not np.isfinite(val_loss)
            if diverged:
                raise NonFiniteLoss(
                    f"training diverged at epoch {epoch_index} (training loss "
                    f"{train_loss:.3g}, validation loss {val_loss})",
                    epoch=epoch_index)
            log.rows.append(TrainLogRow(epoch_index, lr, train_loss, hits / n,
                                        val_loss, val_acc))
    return log


def init_batchnorm_from_standardization(layer: GopLayer) -> None:
    """Switch a standardized layer to batch-norm without changing its output.

    Running mean/std are taken from the standardization statistics and
    scale/shift start at exactly (1, 0).  Calling this on a layer already in
    batch-norm mode is a no-op.
    """
    if not layer.norm.fitted:
        raise UnfitNormalization("standardization statistics were never fitted")
    if layer.norm.mode is NormMode.BATCHNORM:
        return
    layer.norm.mode = NormMode.BATCHNORM
