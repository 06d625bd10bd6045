"""Heterogeneous GOP networks: blocks, layers, linear output head, costs, I/O.

A network is an ordered list of hidden layers, each a list of neuron blocks
(one operator set per block) followed by a per-column normalization, and a
final linear map with no output activation.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, DimensionMismatch, FormatError, UnfitNormalization
from .operators import STD_FLOOR, OperatorSet, PoolOp, neuron_flops

MODEL_FORMAT_VERSION = 1

# Byte budget of one row chunk's nodal tensor in NeuronBlock.forward and of
# one run of dropout draws in finetune.  Below glibc's default 128 KiB mmap
# threshold, those buffers are reused heap memory, not pages mapped per call.
FORWARD_CHUNK_BYTES = 120 * 1024


class NormMode(Enum):
    STANDARDIZE = "standardize"
    BATCHNORM = "batchnorm"


@dataclass
class NeuronBlock:
    """A group of neurons sharing one operator set."""

    op_set: OperatorSet
    weights: np.ndarray  # [fan_in, width]
    bias: np.ndarray     # [width]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ConfigError("block weights must be [fan_in, width], bias [width]")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise ConfigError("block bias length must match weight columns")
        if self.width < 1 or self.fan_in < 1:
            raise ConfigError("block fan_in and width must be >= 1")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ConfigError("block parameters must be finite")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def width(self) -> int:
        return self.weights.shape[1]

    def _checked(self, inputs) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.fan_in:
            raise DimensionMismatch(
                f"block expects [N, {self.fan_in}] inputs, got {inputs.shape}")
        return inputs

    @np.errstate(over="ignore", invalid="ignore")
    def forward_parts(self, inputs: np.ndarray):
        """(Z, x, h): nodal tensor [N, fan_in, width], pre-activation and
        output [N, width] for a batch of inputs, saturating as ``forward``
        does."""
        return self._parts(self._checked(inputs))

    def _parts(self, inputs: np.ndarray, Z_out: np.ndarray | None = None,
               x_out: np.ndarray | None = None):
        """``forward_parts`` over checked inputs, the nodal tensor written
        into ``Z_out`` and the pre-activation into ``x_out`` when given."""
        nodal, pool, activation = self.op_set.kernels
        Z = nodal.forward(self.weights[None], inputs[:, :, None], Z_out)
        x = pool.forward(Z, out=x_out)
        np.add(x, self.bias, out=x)
        return Z, x, activation.forward(x)

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, inputs: np.ndarray, activate: bool = True,
                out: np.ndarray | None = None) -> np.ndarray:
        """Pre-normalization block outputs, [N, width], or with
        ``activate=False`` the pre-activations.

        Rows are independent, so nodal and pool run in chunks whose nodal
        tensor fits FORWARD_CHUNK_BYTES (at least one row), through one
        reused buffer; bias and activation then run once over all rows.
        The pre-activations go into ``out``, an [N, width] array, if given.
        The output is bit-identical to ``forward_parts(inputs)[2]`` (``[1]``
        without activation).  Operator overflow and invalid values saturate
        to inf or NaN rather than warn.
        """
        inputs = self._checked(inputs)
        nodal, pool, activation = self.op_set.kernels
        rows = max(1, FORWARD_CHUNK_BYTES // (8 * self.fan_in * self.width))
        Z = np.empty((min(rows, len(inputs)), self.fan_in, self.width))
        x = np.empty((len(inputs), self.width)) if out is None else out
        for start in range(0, len(inputs), rows):
            chunk = inputs[start:start + rows, :, None]
            pool.forward(nodal.forward(self.weights[None], chunk, Z[:len(chunk)]),
                         out=x[start:start + rows])
        x += self.bias
        return activation.forward(x) if activate else x

    def backward(self, inputs: np.ndarray, Z: np.ndarray, x: np.ndarray,
                 dh: np.ndarray, want_inputs: bool, scratch=None, out=None):
        """(dW, dbias, dinputs) from the output gradient ``dh`` and the
        ``forward_parts`` intermediates of ``inputs``; dinputs, and the nodal
        dz/dy it reads, only if ``want_inputs``, else None.  Z is consumed:
        the grads and their [N, fan_in, width] products overwrite it.
        ``scratch`` is three more arrays shaped like Z, and ``out`` a (dW,
        dbias) pair the parameter grads are written into (fresh ones if
        None)."""
        G, S, T = scratch if scratch is not None else (
            np.empty_like(Z) for _ in range(3))
        nodal, pool, activation = self.op_set.kernels
        dx = np.multiply(dh, activation.grad(x))
        dZ = dx[:, None, :]
        if self.op_set.pool is not PoolOp.SUMMATION:  # its grad is all ones
            dZ = np.multiply(dZ, pool.grad(Z, G, T), out=G)
        gw, gy = nodal.grad(self.weights[None], inputs[:, :, None], Z,
                            S if want_inputs else None, T)
        dW, dbias = out if out is not None else (None, None)
        dW = np.add.reduce(np.multiply(dZ, gw, out=Z), axis=0, out=dW)
        dbias = np.add.reduce(dx, axis=0, out=dbias)
        dinputs = (np.add.reduce(np.multiply(dZ, gy, out=Z), axis=2)
                   if want_inputs else None)
        return dW, dbias, dinputs

    def n_params(self) -> int:
        return self.fan_in * self.width + self.width

    def flops(self) -> int:
        return self.width * neuron_flops(self.op_set, self.fan_in)


@dataclass
class NormState:
    """Per-column normalization: out = scale * (h - mean) / std + shift.

    Standardize mode pins scale = 1 and shift = 0; BatchNorm mode makes them
    learnable and treats mean/std as running statistics.
    """

    mode: NormMode = NormMode.STANDARDIZE
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    scale: np.ndarray | None = None
    shift: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.mean is not None

    @property
    def width(self) -> int:
        return 0 if self.mean is None else self.mean.shape[0]

    def fit(self, H: np.ndarray) -> None:
        """Fit mean and population std per column; std floored at STD_FLOOR."""
        H = np.asarray(H, dtype=float)
        self.mean = H.mean(axis=0)
        self.std = np.maximum(H.std(axis=0), STD_FLOOR)
        self.scale = np.ones_like(self.mean)
        self.shift = np.zeros_like(self.mean)

    def extend(self, mean: np.ndarray, std: np.ndarray) -> None:
        """Append columns for a newly added block (scale 1, shift 0)."""
        mean = np.asarray(mean, dtype=float)
        std = np.maximum(np.asarray(std, dtype=float), STD_FLOOR)
        if not self.fitted:
            self.mean, self.std = mean, std
            self.scale = np.ones_like(mean)
            self.shift = np.zeros_like(mean)
            return
        self.mean = np.concatenate([self.mean, mean])
        self.std = np.concatenate([self.std, std])
        self.scale = np.concatenate([self.scale, np.ones_like(mean)])
        self.shift = np.concatenate([self.shift, np.zeros_like(mean)])

    def apply(self, H: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise UnfitNormalization("normalization statistics were never fitted")
        if H.shape[1] != self.width:
            raise DimensionMismatch(
                f"normalization fitted for {self.width} columns, got {H.shape[1]}")
        return self.scale * (H - self.mean) / self.std + self.shift


@dataclass
class GopLayer:
    """Ordered neuron blocks over a shared input plus one normalization state."""

    blocks: list[NeuronBlock] = field(default_factory=list)
    norm: NormState = field(default_factory=NormState)

    def __post_init__(self):
        if not self.blocks:
            raise ConfigError("a layer needs at least one block")
        fan_in = self.blocks[0].fan_in
        if any(b.fan_in != fan_in for b in self.blocks):
            raise ConfigError("all blocks in a layer must share fan_in")

    @property
    def fan_in(self) -> int:
        return self.blocks[0].fan_in

    @property
    def width(self) -> int:
        return sum(b.width for b in self.blocks)

    def block_slice(self, block_index: int) -> slice:
        """Column span of one block inside the concatenated layer output."""
        start = sum(b.width for b in self.blocks[:block_index])
        return slice(start, start + self.blocks[block_index].width)

    def raw_forward(self, inputs: np.ndarray) -> np.ndarray:
        if len(self.blocks) == 1:
            return self.blocks[0].forward(inputs)
        return np.concatenate([b.forward(inputs) for b in self.blocks], axis=1)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Normalized layer output, [N, width].  Operator arithmetic
        saturates rather than warns."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.norm.apply(self.raw_forward(inputs))


@dataclass
class GopNetwork:
    """GOP hidden layers plus a linear output map (no output activation)."""

    input_dim: int
    hidden: list[GopLayer]
    output_weights: np.ndarray  # [last_width, C]
    output_bias: np.ndarray     # [C]

    def __post_init__(self):
        if not self.hidden:
            raise ConfigError("a network needs at least one hidden layer")
        self.output_weights = np.asarray(self.output_weights, dtype=float)
        self.output_bias = np.asarray(self.output_bias, dtype=float)
        fan_in = self.input_dim
        for i, layer in enumerate(self.hidden):
            if layer.fan_in != fan_in:
                raise ConfigError(
                    f"layer {i} expects fan_in {layer.fan_in}, chain gives {fan_in}")
            fan_in = layer.width
        if self.output_weights.shape != (fan_in, self.output_bias.shape[0]):
            raise ConfigError(
                f"output map {self.output_weights.shape} inconsistent with "
                f"last width {fan_in} and C {self.output_bias.shape[0]}")

    @property
    def n_classes(self) -> int:
        return self.output_bias.shape[0]

    def checked_inputs(self, inputs) -> np.ndarray:
        """``inputs`` as a float array, DimensionMismatch unless [N, input_dim]."""
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_dim:
            raise DimensionMismatch(
                f"network expects [N, {self.input_dim}] inputs, got {inputs.shape}")
        return inputs

    def hidden_forward(self, inputs: np.ndarray) -> np.ndarray:
        """Output of the last hidden layer, [N, last_width]."""
        h = self.checked_inputs(inputs)
        for layer in self.hidden:
            h = layer.forward(h)
        return h

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Linear readout over the last hidden representation, [N, C];
        like the layers, it saturates rather than warns."""
        H = self.hidden_forward(inputs)
        with np.errstate(over="ignore", invalid="ignore"):
            return H @ self.output_weights + self.output_bias

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs).argmax(axis=1)

    def count_params(self) -> int:
        """Trainable scalars: block weights and biases plus the output map.

        Normalization statistics and batch-norm scale/shift are excluded.
        """
        total = sum(b.n_params() for layer in self.hidden for b in layer.blocks)
        return total + self.output_weights.size + self.output_bias.size

    def count_flops(self) -> int:
        """Per-sample inference cost: blocks, folded normalization, output map."""
        total = 0
        for layer in self.hidden:
            total += sum(b.flops() for b in layer.blocks)
            total += 2 * layer.width  # normalization folds to one affine per column
        total += 2 * self.output_weights.shape[0] * self.n_classes
        return total

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": MODEL_FORMAT_VERSION,
            "input_dim": self.input_dim,
            "C": self.n_classes,
            "layers": [
                {
                    "blocks": [
                        {
                            "op_set": b.op_set.tokens(),
                            "weights": b.weights.tolist(),
                            "bias": b.bias.tolist(),
                        }
                        for b in layer.blocks
                    ],
                    "norm": {
                        "mode": layer.norm.mode.value,
                        "mean": _opt_list(layer.norm.mean),
                        "std": _opt_list(layer.norm.std),
                        "scale": _opt_list(layer.norm.scale),
                        "shift": _opt_list(layer.norm.shift),
                    },
                }
                for layer in self.hidden
            ],
            "output": {
                "weights": self.output_weights.tolist(),
                "bias": self.output_bias.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GopNetwork":
        if not isinstance(doc, dict):
            raise FormatError("document: expected an object")
        version = doc.get("version")
        if version != MODEL_FORMAT_VERSION:
            raise FormatError(
                f"version: expected {MODEL_FORMAT_VERSION}, got {version!r}")
        input_dim = _expect_int(doc, "input_dim", "input_dim")
        n_classes = _expect_int(doc, "C", "C")
        layers_doc = doc.get("layers")
        if not isinstance(layers_doc, list) or not layers_doc:
            raise FormatError("layers: expected a non-empty list")
        layers = []
        for i, layer_doc in enumerate(layers_doc):
            path = f"layers[{i}]"
            blocks_doc = _expect_key(layer_doc, "blocks", path)
            if not isinstance(blocks_doc, list) or not blocks_doc:
                raise FormatError(f"{path}.blocks: expected a non-empty list")
            blocks = []
            for j, block_doc in enumerate(blocks_doc):
                bpath = f"{path}.blocks[{j}]"
                op_set = OperatorSet.from_tokens(
                    _expect_key(block_doc, "op_set", bpath), f"{bpath}.op_set")
                weights = _expect_matrix(block_doc, "weights", bpath)
                bias = _expect_vector(block_doc, "bias", bpath)
                try:
                    blocks.append(NeuronBlock(op_set, weights, bias))
                except ConfigError as exc:
                    raise FormatError(f"{bpath}: {exc}") from None
            norm_doc = _expect_key(layer_doc, "norm", path)
            npath = f"{path}.norm"
            mode_token = _expect_key(norm_doc, "mode", npath)
            try:
                mode = NormMode(mode_token)
            except ValueError:
                raise FormatError(f"{npath}.mode: unknown mode {mode_token!r}") from None
            norm = NormState(mode=mode)
            if norm_doc.get("mean") is not None:
                norm.mean = _expect_vector(norm_doc, "mean", npath)
                norm.std = _expect_vector(norm_doc, "std", npath)
                norm.scale = _expect_vector(norm_doc, "scale", npath)
                norm.shift = _expect_vector(norm_doc, "shift", npath)
                width = sum(b.width for b in blocks)
                for name in ("mean", "std", "scale", "shift"):
                    if getattr(norm, name).shape[0] != width:
                        raise FormatError(
                            f"{npath}.{name}: expected {width} entries")
                if (norm.std <= 0).any():
                    raise FormatError(f"{npath}.std: entries must be positive")
            try:
                layers.append(GopLayer(blocks, norm))
            except ConfigError as exc:
                raise FormatError(f"{path}: {exc}") from None
        out_doc = _expect_key(doc, "output", "document")
        out_w = _expect_matrix(out_doc, "weights", "output")
        out_b = _expect_vector(out_doc, "bias", "output")
        if out_b.shape[0] != n_classes:
            raise FormatError("output.bias: length must equal C")
        try:
            return cls(input_dim, layers, out_w, out_b)
        except ConfigError as exc:
            raise FormatError(f"document: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GopNetwork":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"document: invalid JSON ({exc})") from None
        return cls.from_dict(doc)


def _opt_list(arr):
    return None if arr is None else arr.tolist()


def _expect_key(doc, key, parent_path):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{parent_path}.{key}: missing field")
    return doc[key]


def _expect_int(doc, key, field_path):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{field_path}: missing field")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{field_path}: expected an integer")
    return value


def _as_float_array(value, path, ndim):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise FormatError(f"{path}: expected numeric array") from None
    if arr.ndim != ndim:
        raise FormatError(f"{path}: expected {ndim}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: non-finite values")
    return arr


def _expect_matrix(doc, key, path):
    return _as_float_array(_expect_key(doc, key, path), f"{path}.{key}", 2)


def _expect_vector(doc, key, path):
    return _as_float_array(_expect_key(doc, key, path), f"{path}.{key}", 1)


def save_model(net: GopNetwork, path: str) -> None:
    """Write the model JSON atomically (temp file + rename)."""
    _atomic_write_text(path, net.to_json() + "\n")


def load_model(path: str) -> GopNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return GopNetwork.from_json(fh.read())


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
