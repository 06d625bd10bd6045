"""Mini-batch SGD finetuning of selected network pieces.

Gradients are exact chain-rule derivatives through the operator library,
the per-column normalization and the linear head.  Only parameters named
by a TrainableSelection are updated; everything else is left bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, NonFiniteLoss, UnfitNormalization
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
        for stage in self.lr_schedule:
            lr, epochs = stage
            if not 0 <= lr < np.inf:
                raise ConfigError("learning rates must be finite and >= 0")
            if last is not None and lr > last:
                raise ConfigError("learning rates must be non-increasing")
            if not 1 <= epochs < np.inf or int(epochs) != epochs:
                raise ConfigError("epochs per stage must be a whole number >= 1")
            last = lr
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for p in (self.dropout_hidden, self.dropout_input):
            if not 0.0 <= p < 1.0:
                raise ConfigError("dropout rates must lie in [0, 1)")
        if isinstance(self.weight_reg, MaxNorm) and not (
                0 < self.weight_reg.limit < np.inf):
            raise ConfigError("max-norm limit must be finite and > 0")
        if isinstance(self.weight_reg, Decay) and not (
                0 <= self.weight_reg.lam < np.inf):
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

def loss_and_grad(P: np.ndarray, Y: np.ndarray, loss: LossKind):
    if loss is LossKind.MSE:
        diff = P - Y
        mse = np.add.reduce(diff * diff, axis=None) / diff.size  # as np.mean does it
        return float(mse), (2.0 / diff.size) * diff
    shifted = P - P.max(axis=1, keepdims=True)
    expP = np.exp(shifted)
    probs = expP / expP.sum(axis=1, keepdims=True)
    n = P.shape[0]
    value = float(-np.sum(Y * (shifted - np.log(expP.sum(axis=1, keepdims=True)))) / n)
    return value, (probs - Y) / n


def evaluate_metrics(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
                     loss: LossKind = LossKind.MSE):
    """(loss, accuracy) of the network in inference mode.

    Operator arithmetic saturates rather than warns; a non-finite loss is
    reported as-is.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = net.forward(X)
        value, _ = loss_and_grad(P, Y, loss)
        accuracy = float(np.mean(P.argmax(axis=1) == Y.argmax(axis=1)))
    return value, accuracy


# ---------------------------------------------------------------------------
# Training-mode forward/backward
# ---------------------------------------------------------------------------

@dataclass
class _LayerPlan:
    """One layer's constants over the training-mode passes of one call: only
    live columns and trained blocks change, so frozen columns are fixed.
    A layer's trained blocks run from its first trained block to its end, so
    its trained columns are one suffix span and its frozen ones one prefix.
    Norm arrays are views of the layer's, which updates change in place."""

    spans: list                 # column slice of each block
    visit: list                 # trained block indices, which backward visits
    live: slice | None          # batch-stat normalized columns, if any
    live_norm: tuple | None     # (scale, shift) of the live columns
    frozen: tuple | None        # (span, scale, mean, std, shift) of frozen columns
    frozen_gain: tuple | None   # (span, scale / std) of trained standardized columns
    Z: list                     # per block, a [rows, fan_in, width] buffer
    scratch: list               # per block, three more, shared by every block


@dataclass
class _FlatParams:
    """finetune's rebinding for one call: the arrays it updates are views of
    one buffer in _param_slots order, and each trained batch-norm layer's
    running mean and std the two rows of one [2, width] array."""

    values: np.ndarray
    n_weights: int              # length of the weight-matrix prefix
    matrices: list              # the weight matrices, which max-norm projects
    running: list               # per layer, [2, n_live] views of its running stats
    originals: list             # (owner, name, the caller's array)


@dataclass
class _Plan:
    layers: list
    lowest: int                 # lowest layer with a trained block, else past the top
    include_output: bool
    grad: np.ndarray            # flat, in _param_slots order
    grads: Gradients            # views of grad
    flat: _FlatParams | None    # the rebinding, if the plan made one


def _param_slots(net: GopNetwork, selection: TrainableSelection):
    """(owner, name) of every array finetune updates, in flat-buffer order,
    and the keys of the trained blocks, (layer, block), and of the trained
    batch-norm layers in that order.  The order: the weight matrices first (trained blocks from the top layer down, in block
    order within a layer, then the output map), then the block biases in
    the same order, each trained batch-norm layer's scale and shift, and
    the output bias.  The frozen prefix of the lowest layer's scale and
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


def _plan(net: GopNetwork, selection: TrainableSelection, rows: int,
          bind: bool = False) -> _Plan:
    """The plan of passes over at most ``rows`` rows at a time, with a
    zeroed flat buffer for the grads in _param_slots order.  With ``bind``
    the plan also makes the rebinding of _FlatParams: the network holds the
    new views until finetune hands the caller's arrays back."""
    slots, block_keys, norm_keys = _param_slots(net, selection)
    arrays = [getattr(owner, name) for owner, name in slots]
    grad = np.zeros(sum(a.size for a in arrays))
    n_matrices = len(block_keys) + selection.include_output
    flat = None
    if bind:
        values = np.empty_like(grad)
        views = _flat_views(values, arrays)
        for (owner, name), view, array in zip(slots, views, arrays):
            view[...] = array
            setattr(owner, name, view)
        flat = _FlatParams(values, sum(a.size for a in arrays[:n_matrices]),
                           views[:n_matrices], [None] * len(net.hidden),
                           [(owner, name, array) for (owner, name), array
                            in zip(slots, arrays)])
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
        if bind and live is not None:
            flat.originals += [(norm, "mean", norm.mean), (norm, "std", norm.std)]
            stats = np.stack([norm.mean, norm.std])
            norm.mean, norm.std = stats
            flat.running[li] = stats[:, live]
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
            [tuple(f[:np.prod(shape)].reshape(shape) for f in scratch)
             for shape in shapes]))
    views = _flat_views(grad, arrays)
    biases = views[n_matrices:]
    norm_grads = biases[len(block_keys):len(block_keys) + 2 * len(norm_keys)]
    grads = Gradients(
        dict(zip(block_keys, zip(views, biases))),
        {li: (dscale[layers[li].live], dshift[layers[li].live])
         for li, dscale, dshift in zip(norm_keys, norm_grads[::2],
                                       norm_grads[1::2])},
        (views[n_matrices - 1], views[-1]) if selection.include_output else None)
    return _Plan(layers, lowest, selection.include_output, grad, grads, flat)


@dataclass
class _LayerCache:
    inputs: np.ndarray          # layer input after any upstream dropout
    Z: tuple                    # per block, [N, fan_in, width] plan buffer views
    x: tuple                    # per block pre-activation, [N, width]
    xhat: np.ndarray | None     # [N, n_live]
    batch_stats: np.ndarray | None  # [2, n_live]: batch mean, then sigma
    a: np.ndarray               # output after normalization and any dropout
    drop_mask: np.ndarray | None


def _forward_train(net: GopNetwork, X: np.ndarray, plan: _Plan,
                   input_mask: np.ndarray | None = None,
                   hidden_masks: list | None = None,
                   P_out: np.ndarray | None = None):
    """Forward pass over checked inputs capturing intermediates for backward.

    Dropout multiplies the inputs by ``input_mask`` and each layer's output
    by its entry of ``hidden_masks``, inverted-scaled masks; without them
    the pass is a pure function of (net, X, plan).  The output map's result
    is written into ``P_out`` if given.
    """
    a = X if input_mask is None else X * input_mask
    caches = []
    for li, (layer, lp) in enumerate(zip(net.hidden, plan.layers)):
        inputs = a
        Zs, xs, hs = zip(*(block._parts(inputs, Z[:len(inputs)])
                           for block, Z in zip(layer.blocks, lp.Z)))
        H_raw = hs[0] if len(hs) == 1 else np.concatenate(hs, axis=1)
        out = np.empty_like(H_raw)
        if lp.frozen is not None:
            sp, scale, mean, std, shift = lp.frozen
            out[:, sp] = scale * (H_raw[:, sp] - mean) / std + shift
        xhat = batch_stats = None
        if lp.live is not None:
            # an F-ordered copy, as a boolean-mask gather makes: its axis-0
            # sums run pairwise, where a C-ordered one sums row by row and
            # would move the batch statistics in their last bits
            h_live = np.asfortranarray(H_raw[:, lp.live])
            n = len(h_live)
            batch_stats = np.empty((2, h_live.shape[1]))
            batch_mean, sigma = batch_stats
            # h.mean(axis=0) and h.var(axis=0) as numpy computes them
            np.divide(np.add.reduce(h_live, axis=0), n, out=batch_mean)
            centered = h_live - batch_mean
            np.sqrt(np.add.reduce(centered * centered, axis=0) / n + BN_EPS,
                    out=sigma)
            xhat = centered / sigma
            scale, shift = lp.live_norm
            out[:, lp.live] = scale * xhat + shift
        drop_mask = None if hidden_masks is None else hidden_masks[li]
        a = out if drop_mask is None else np.multiply(out, drop_mask, out=out)
        caches.append(_LayerCache(inputs, Zs, xs, xhat, batch_stats, a,
                                  drop_mask))
    P = np.add(a @ net.output_weights, net.output_bias, out=P_out)
    return P, caches


def training_loss(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
                  selection: TrainableSelection,
                  loss: LossKind = LossKind.MSE) -> float:
    """The dropout-free loss that backward() differentiates.

    Batch-stat normalization applies to the trained blocks' columns exactly
    as in backward, so finite differences of this function match it.
    """
    selection.validate(net)
    X = net.hidden[0].blocks[0]._checked(X)
    P, _ = _forward_train(net, X, _plan(net, selection, len(X)))
    value, _ = loss_and_grad(P, Y, loss)
    return value


def backward(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
             selection: TrainableSelection,
             loss: LossKind = LossKind.MSE) -> Gradients:
    """Exact loss gradients for every selected parameter (no dropout)."""
    selection.validate(net)
    X = net.hidden[0].blocks[0]._checked(X)
    plan = _plan(net, selection, len(X))
    P, caches = _forward_train(net, X, plan)
    _, dP = loss_and_grad(P, Y, loss)
    return _backward_from_caches(net, caches, dP, plan)


def _backward_from_caches(net: GopNetwork, caches, dP: np.ndarray,
                          plan: _Plan) -> Gradients:
    """Every selected parameter's grad, written into ``plan.grads``."""
    grads = plan.grads
    if plan.include_output:
        dB, dbias = grads.output
        np.matmul(caches[-1].a.T, dP, out=dB)
        dP.sum(axis=0, out=dbias)
    dA = dP @ net.output_weights.T
    for li in range(len(net.hidden) - 1, plan.lowest - 1, -1):
        layer, lp, cache = net.hidden[li], plan.layers[li], caches[li]
        dout = dA if cache.drop_mask is None else dA * cache.drop_mask
        # only the columns of the blocks visited below are read
        dH_raw = np.empty(dout.shape)
        if lp.frozen_gain is not None:
            sp, gain = lp.frozen_gain
            np.multiply(dout[:, sp], gain, out=dH_raw[:, sp])
        if lp.live is not None:
            d_live = np.asfortranarray(dout[:, lp.live])  # as in the forward
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
            _, _, dblock = layer.blocks[bi].backward(
                cache.inputs, cache.Z[bi], cache.x[bi], dH_raw[:, lp.spans[bi]],
                need_dinputs, [s[:rows] for s in lp.scratch[bi]],
                grads.blocks[(li, bi)])
            if need_dinputs:
                dinputs += dblock
        dA = dinputs
    return grads


# ---------------------------------------------------------------------------
# SGD loop
# ---------------------------------------------------------------------------

def _apply_update(flat: _FlatParams, grad: np.ndarray, lr: float,
                  spec: TrainSpec, epoch: int) -> None:
    """One SGD step over every trained parameter; ``grad`` is consumed."""
    # no decay term at lam == 0: for finite W, dW + 0 * W differs from dW
    # only in the sign of a zero, which W - lr * dW does not keep
    decay = spec.weight_reg.lam if isinstance(spec.weight_reg, Decay) else 0.0
    values, head = flat.values, flat.n_weights
    if decay:
        grad[:head] += decay * values[:head]
    grad *= lr
    values -= grad
    if isinstance(spec.weight_reg, MaxNorm):
        for W in flat.matrices:
            _project_rows(W, spec.weight_reg.limit, epoch)


def _project_rows(W: np.ndarray, limit: float, epoch: int) -> None:
    """Max-norm projection of W's rows; a non-finite norm is divergence."""
    norms = np.sqrt(np.add.reduce(W * W, axis=1))  # np.linalg.norm(W, axis=1)
    if norms.max() <= limit:  # False for a NaN norm too
        return
    if not np.isfinite(norms).all():
        raise NonFiniteLoss(f"non-finite weight norm at epoch {epoch}", epoch=epoch)
    over = norms > limit
    W[over] *= (limit / norms[over])[:, None]


def _update_running_stats(caches, running: list) -> None:
    for stats, cache in zip(running, caches):
        if stats is not None:
            stats *= BN_MOMENTUM
            cache.batch_stats *= 1.0 - BN_MOMENTUM
            stats += cache.batch_stats


def _epoch_layout(net: GopNetwork, n: int, spec: TrainSpec):
    """Batch bounds, one buffer for an epoch's dropout draws, and the views
    of it: per batch (input mask, hidden masks or None), and the (view,
    rate) pairs that threshold every mask of the epoch in place.

    The buffer holds the draws in the order per-batch draws take them from
    the stream: per batch, its input mask, then each layer's hidden mask.
    """
    p_in, p_hidden = spec.dropout_input, spec.dropout_hidden
    widths = ([net.input_dim] if p_in > 0 else []) + (
        [layer.width for layer in net.hidden] if p_hidden > 0 else [])
    per_row, size = sum(widths), spec.batch_size
    draws = np.empty(n * per_row)
    bounds, masks = [], []
    for start in range(0, n, size):
        stop = min(start + size, n)
        views, offset = [], start * per_row
        for width in widths:
            views.append(draws[offset:offset + (stop - start) * width]
                         .reshape(stop - start, width))
            offset += (stop - start) * width
        bounds.append((start, stop))
        masks.append((views.pop(0) if p_in > 0 else None,
                      views if p_hidden > 0 else None))
    # the full batches as one row each, then any partial last batch
    full = n // size * size
    thresholds = []
    for rows, block in ((size, draws[:full * per_row]),
                        (n - full, draws[full * per_row:])):
        if block.size == 0:
            continue
        block = block.reshape(-1, rows * per_row)
        cut = rows * (net.input_dim if p_in > 0 else 0)
        for view, rate in ((block[:, :cut], p_in), (block[:, cut:], p_hidden)):
            if view.size:
                thresholds.append((view, rate))
    return bounds, draws, masks, thresholds


def finetune(net: GopNetwork, data_train, data_val, spec: TrainSpec,
             selection: TrainableSelection) -> TrainLog:
    """Mini-batch SGD over the learning-rate schedule.

    Dropout and batch statistics apply during training only.  A non-finite
    loss or weight norm, or an epoch that diverges by the DIVERGENCE_RATIO
    rule, raises NonFiniteLoss.  The call is all or nothing: for its length
    the network holds views of one flat buffer in place of the trained
    parameters and running statistics, updated by one subtraction per step,
    and the caller's arrays sit untouched.  A return copies the values into
    them; after a raise they keep their pre-call bytes.  Either way the
    network holds them again.  The per-layer plan (column spans, the frozen
    columns' normalization, the nodal tensor and grad buffers) and the
    floating-point error state are set up once per call.  Each epoch gathers
    its permuted rows once, draws all its dropout masks with one call, in
    the stream order of per-batch draws, and counts its hits once.
    """
    spec.validate()
    selection.validate(net)
    X, Y = data_train
    X = net.hidden[0].blocks[0]._checked(X)
    plan = _plan(net, selection, min(spec.batch_size, len(X)), bind=True)
    try:
        log = _sgd(net, X, Y, data_val, spec, plan)
        for owner, name, array in plan.flat.originals:
            array[...] = getattr(owner, name)
        return log
    finally:
        for owner, name, array in plan.flat.originals:
            setattr(owner, name, array)


def _sgd(net: GopNetwork, X: np.ndarray, Y, data_val, spec: TrainSpec,
         plan: _Plan) -> TrainLog:
    n = X.shape[0]
    Y = np.asarray(Y, dtype=float)
    labels = Y.argmax(axis=1)
    bounds, draws, masks, thresholds = _epoch_layout(net, n, spec)
    X_epoch, Y_epoch = np.empty((n, X.shape[1])), np.empty((n, Y.shape[1]))
    labels_epoch = np.empty(n, dtype=labels.dtype)
    P_epoch = np.empty((n, net.n_classes))
    rng = np.random.default_rng(spec.seed)
    log = TrainLog()
    loss_limit = None
    lrs = [lr for lr, epochs in spec.lr_schedule for _ in range(int(epochs))]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch_index, lr in enumerate(lrs):
            order = rng.permutation(n)
            for source, target in ((X, X_epoch), (Y, Y_epoch),
                                   (labels, labels_epoch)):
                np.take(source, order, axis=0, out=target)
            if draws.size:
                rng.random(out=draws)
                for view, rate in thresholds:
                    np.greater_equal(view, rate, out=view)
                    view /= 1.0 - rate
            loss_sum = 0.0
            for (start, stop), (input_mask, hidden_masks) in zip(bounds, masks):
                P, caches = _forward_train(
                    net, X_epoch[start:stop], plan, input_mask, hidden_masks,
                    P_epoch[start:stop])
                batch_loss, dP = loss_and_grad(P, Y_epoch[start:stop], spec.loss)
                if not np.isfinite(batch_loss):
                    raise NonFiniteLoss(
                        f"non-finite training loss at epoch {epoch_index}",
                        epoch=epoch_index)
                if loss_limit is None:  # the loss before any update
                    loss_limit = DIVERGENCE_RATIO * max(batch_loss,
                                                        DIVERGENCE_FLOOR)
                loss_sum += batch_loss * (stop - start)
                _backward_from_caches(net, caches, dP, plan)
                _apply_update(plan.flat, plan.grad, lr, spec, epoch_index)
                _update_running_stats(caches, plan.flat.running)
            hits = int((P_epoch.argmax(axis=1) == labels_epoch).sum())
            train_loss = loss_sum / n
            diverged = train_loss > loss_limit
            val_loss = val_acc = None
            if data_val is not None:
                val_loss, val_acc = evaluate_metrics(
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
