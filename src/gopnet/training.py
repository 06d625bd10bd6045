"""Mini-batch SGD finetuning of selected network pieces.

Gradients are exact chain-rule derivatives through the operator library,
the per-column normalization and the linear head.  Only parameters named
by a TrainableSelection are updated; everything else is left bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, NonFiniteLoss, UnfitNormalization
from .network import GopLayer, GopNetwork, NormMode

BN_MOMENTUM = 0.9
BN_EPS = 1e-5


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
    """Which parameters finetune may update; a selected block of a
    batch-norm layer also trains its columns' scale and shift."""

    block_refs: frozenset  # of (layer_index, block_index)
    include_output: bool = True

    @classmethod
    def all_blocks(cls, net: GopNetwork,
                   include_output: bool = True) -> "TrainableSelection":
        refs = frozenset(
            (li, bi)
            for li, layer in enumerate(net.hidden)
            for bi in range(len(layer.blocks))
        )
        return cls(refs, include_output)

    @classmethod
    def single_block(cls, layer_index: int, block_index: int,
                     include_output: bool = True) -> "TrainableSelection":
        return cls(frozenset({(layer_index, block_index)}), include_output)

    def validate(self, net: GopNetwork) -> None:
        for li, bi in self.block_refs:
            if not 0 <= li < len(net.hidden):
                raise ConfigError(f"selection references missing layer {li}")
            if not 0 <= bi < len(net.hidden[li].blocks):
                raise ConfigError(f"selection references missing block ({li}, {bi})")


@dataclass
class Gradients:
    """Gradient arrays mirroring the selected parameters only."""

    blocks: dict = field(default_factory=dict)  # (l, b) -> (dW, dbias)
    norm: dict = field(default_factory=dict)    # (l, b) -> (dscale, dshift)
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
        return float(np.mean(diff * diff)), (2.0 / diff.size) * diff
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
class _LayerCache:
    inputs: np.ndarray          # layer input after any upstream dropout
    Z: tuple                    # per block, [N, fan_in, width]
    x: tuple                    # per block pre-activation, [N, width]
    H_raw: np.ndarray           # concatenated activations
    live: np.ndarray            # bool mask of batch-stat normalized columns
    xhat: np.ndarray | None     # [N, n_live]
    sigma: np.ndarray | None    # [n_live]
    batch_mean: np.ndarray | None
    out: np.ndarray             # post-normalization output
    drop_mask: np.ndarray | None


def _live_columns(layer: GopLayer, layer_index: int,
                  selection: TrainableSelection) -> np.ndarray:
    """Columns normalized with batch statistics during training."""
    live = np.zeros(layer.width, dtype=bool)
    if layer.norm.mode is not NormMode.BATCHNORM:
        return live
    for bi in range(len(layer.blocks)):
        if (layer_index, bi) in selection.block_refs:
            live[layer.block_slice(bi)] = True
    return live


def _forward_train(net: GopNetwork, X: np.ndarray, selection: TrainableSelection,
                   dropout_input: float = 0.0, dropout_hidden: float = 0.0,
                   rng: np.random.Generator | None = None):
    """Forward pass capturing intermediates for backward.

    Dropout uses inverted scaling; with both rates zero the pass is a pure
    function of (net, X, selection).
    """
    a = np.asarray(X, dtype=float)
    input_mask = None
    if dropout_input > 0.0:
        input_mask = (rng.random(a.shape) >= dropout_input) / (1.0 - dropout_input)
        a = a * input_mask
    caches = []
    for li, layer in enumerate(net.hidden):
        if not layer.norm.fitted:
            raise UnfitNormalization(f"layer {li} normalization is unfitted")
        inputs = a
        Zs, xs, hs = zip(*(block.forward_parts(inputs) for block in layer.blocks))
        H_raw = np.concatenate(hs, axis=1)
        live = _live_columns(layer, li, selection)
        out = np.empty_like(H_raw)
        frozen = ~live
        norm = layer.norm
        # masks, not per-block slices: H_raw[:, mask] is an F-ordered copy whose
        # axis-0 sums run pairwise; a slice view sums row by row and would move
        # the batch statistics in their last bits
        if frozen.any():
            out[:, frozen] = (norm.scale[frozen] * (H_raw[:, frozen] - norm.mean[frozen])
                              / norm.std[frozen] + norm.shift[frozen])
        xhat = sigma = batch_mean = None
        if live.any():
            h_live = H_raw[:, live]
            batch_mean = h_live.mean(axis=0)
            sigma = np.sqrt(h_live.var(axis=0) + BN_EPS)
            xhat = (h_live - batch_mean) / sigma
            out[:, live] = norm.scale[live] * xhat + norm.shift[live]
        drop_mask = None
        if dropout_hidden > 0.0:
            drop_mask = (rng.random(out.shape) >= dropout_hidden) / (1.0 - dropout_hidden)
            a = out * drop_mask
        else:
            a = out
        caches.append(_LayerCache(inputs, Zs, xs, H_raw, live, xhat, sigma,
                                  batch_mean, out, drop_mask))
    P = a @ net.output_weights + net.output_bias
    return P, caches


def training_loss(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
                  selection: TrainableSelection,
                  loss: LossKind = LossKind.MSE) -> float:
    """The dropout-free loss that backward() differentiates.

    Batch-stat normalization applies to the selected blocks' columns exactly
    as in backward, so finite differences of this function match it.
    """
    P, _ = _forward_train(net, X, selection)
    value, _ = loss_and_grad(P, Y, loss)
    return value


def backward(net: GopNetwork, X: np.ndarray, Y: np.ndarray,
             selection: TrainableSelection,
             loss: LossKind = LossKind.MSE) -> Gradients:
    """Exact loss gradients for every selected parameter (no dropout)."""
    selection.validate(net)
    P, caches = _forward_train(net, X, selection)
    _, dP = loss_and_grad(P, Y, loss)
    return _backward_from_caches(net, caches, dP, selection)


def _backward_from_caches(net: GopNetwork, caches, dP: np.ndarray,
                          selection: TrainableSelection) -> Gradients:
    grads = Gradients()
    last = caches[-1]
    a_last = last.out if last.drop_mask is None else last.out * last.drop_mask
    if selection.include_output:
        grads.output = (a_last.T @ dP, dP.sum(axis=0))
    if not selection.block_refs:
        return grads
    lowest = min(li for li, _ in selection.block_refs)
    dA = dP @ net.output_weights.T
    for li in range(len(net.hidden) - 1, lowest - 1, -1):
        layer = net.hidden[li]
        cache = caches[li]
        dout = dA if cache.drop_mask is None else dA * cache.drop_mask
        norm = layer.norm
        dH_raw = np.empty_like(cache.H_raw)
        frozen = ~cache.live
        if frozen.any():
            dH_raw[:, frozen] = dout[:, frozen] * (norm.scale[frozen] / norm.std[frozen])
        if cache.live.any():
            d_live = dout[:, cache.live]
            xhat = cache.xhat
            dxhat = d_live * norm.scale[cache.live]
            dH_raw[:, cache.live] = (
                dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)
            ) / cache.sigma
            dscale_cols = (d_live * xhat).sum(axis=0)
            dshift_cols = d_live.sum(axis=0)
            _scatter_norm_grads(grads, layer, li, cache.live, dscale_cols,
                                dshift_cols, selection)
        need_dinputs = li > lowest
        dinputs = np.zeros_like(cache.inputs) if need_dinputs else None
        for bi, block in enumerate(layer.blocks):
            selected = (li, bi) in selection.block_refs
            if not (selected or need_dinputs):
                continue
            dW, dbias, dblock = block.backward(
                cache.inputs, cache.Z[bi], cache.x[bi],
                dH_raw[:, layer.block_slice(bi)], selected, need_dinputs)
            if selected:
                grads.blocks[(li, bi)] = (dW, dbias)
            if need_dinputs:
                dinputs += dblock
        dA = dinputs
    return grads


def _scatter_norm_grads(grads, layer, layer_index, live, dscale_cols, dshift_cols,
                        selection):
    """Distribute live-column norm gradients to their owning selected blocks."""
    full_scale = np.zeros(layer.width)
    full_shift = np.zeros(layer.width)
    full_scale[live] = dscale_cols
    full_shift[live] = dshift_cols
    for bi in range(len(layer.blocks)):
        if (layer_index, bi) in selection.block_refs:
            sl = layer.block_slice(bi)
            grads.norm[(layer_index, bi)] = (full_scale[sl].copy(), full_shift[sl].copy())


# ---------------------------------------------------------------------------
# SGD loop
# ---------------------------------------------------------------------------

def _apply_update(net: GopNetwork, grads: Gradients, lr: float, spec: TrainSpec,
                  epoch: int) -> None:
    decay = spec.weight_reg.lam if isinstance(spec.weight_reg, Decay) else 0.0
    max_norm = spec.weight_reg.limit if isinstance(spec.weight_reg, MaxNorm) else None
    for (li, bi), (dW, db) in grads.blocks.items():
        block = net.hidden[li].blocks[bi]
        block.weights -= lr * (dW + decay * block.weights)
        block.bias -= lr * db
        if max_norm is not None:
            _project_rows(block.weights, max_norm, epoch)
    for (li, bi), (dscale, dshift) in grads.norm.items():
        layer = net.hidden[li]
        sl = layer.block_slice(bi)
        layer.norm.scale[sl] -= lr * dscale
        layer.norm.shift[sl] -= lr * dshift
    if grads.output is not None:
        dB, dbias = grads.output
        net.output_weights -= lr * (dB + decay * net.output_weights)
        net.output_bias -= lr * dbias
        if max_norm is not None:
            _project_rows(net.output_weights, max_norm, epoch)


def _project_rows(W: np.ndarray, limit: float, epoch: int) -> None:
    """Max-norm projection of W's rows; a non-finite norm is divergence."""
    norms = np.linalg.norm(W, axis=1)
    if not np.isfinite(norms).all():
        raise NonFiniteLoss(f"non-finite weight norm at epoch {epoch}", epoch=epoch)
    over = norms > limit
    if over.any():
        W[over] *= (limit / norms[over])[:, None]


def _update_running_stats(net: GopNetwork, caches) -> None:
    for layer, cache in zip(net.hidden, caches):
        if cache.batch_mean is None:
            continue
        live = cache.live
        layer.norm.mean[live] = (BN_MOMENTUM * layer.norm.mean[live]
                                 + (1.0 - BN_MOMENTUM) * cache.batch_mean)
        layer.norm.std[live] = (BN_MOMENTUM * layer.norm.std[live]
                                + (1.0 - BN_MOMENTUM) * cache.sigma)


def finetune(net: GopNetwork, data_train, data_val, spec: TrainSpec,
             selection: TrainableSelection) -> TrainLog:
    """Mini-batch SGD over the learning-rate schedule.

    Dropout and batch statistics apply during training only; the network is
    usable for inference at every point after this returns.
    """
    spec.validate()
    selection.validate(net)
    X, Y = data_train
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    rng = np.random.default_rng(spec.seed)
    log = TrainLog()
    epoch_index = 0
    n = X.shape[0]
    for lr, epochs in spec.lr_schedule:
        for _ in range(int(epochs)):
            order = rng.permutation(n)
            loss_sum = 0.0
            hits = 0
            for start in range(0, n, spec.batch_size):
                idx = order[start:start + spec.batch_size]
                with np.errstate(over="ignore", invalid="ignore"):
                    P, caches = _forward_train(
                        net, X[idx], selection,
                        dropout_input=spec.dropout_input,
                        dropout_hidden=spec.dropout_hidden, rng=rng)
                    batch_loss, dP = loss_and_grad(P, Y[idx], spec.loss)
                    if not np.isfinite(batch_loss):
                        raise NonFiniteLoss(
                            f"non-finite training loss at epoch {epoch_index}",
                            epoch=epoch_index)
                    loss_sum += batch_loss * len(idx)
                    hits += int((P.argmax(axis=1) == Y[idx].argmax(axis=1)).sum())
                    grads = _backward_from_caches(net, caches, dP, selection)
                    _apply_update(net, grads, lr, spec, epoch_index)
                    _update_running_stats(net, caches)
            val_loss = val_acc = None
            if data_val is not None:
                val_loss, val_acc = evaluate_metrics(
                    net, data_val[0], data_val[1], spec.loss)
            log.rows.append(TrainLogRow(epoch_index, lr, loss_sum / n, hits / n,
                                        val_loss, val_acc))
            epoch_index += 1
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


def with_seed(spec: TrainSpec, seed: int) -> TrainSpec:
    return replace(spec, seed=seed)
