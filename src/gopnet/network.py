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
from .operators import (STD_FLOOR, ActivationOp, NodalOp, OperatorSet,
                        PoolOp, neuron_flops)
from .schema import (INT, array, build, choice, is_int, list_of, nullable,
                     parse_json, read_json, typed)

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
        self.blocks = list(self.blocks)
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
        self.hidden = list(self.hidden)
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
    def from_dict(cls, doc) -> "GopNetwork":
        """The network of a model document; FormatError names a bad field."""
        try:
            return _MODEL(doc, "")
        except ConfigError as exc:
            raise FormatError(str(exc)) from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GopNetwork":
        return cls.from_dict(parse_json(text, FormatError, "document"))


def _opt_list(arr):
    return None if arr is None else arr.tolist()


# The model document's schema: each object parses to its class's constructor,
# whose checks then run.  Checks across fields are by hand: norm statistics
# all null or none, their widths, positive std, the output bias against C.
OP_SET_SCHEMA = build(OperatorSet, {"nodal": choice(NodalOp),
                                    "pool": choice(PoolOp),
                                    "activation": choice(ActivationOp)})
_STATS = ("mean", "std", "scale", "shift")
_LAYER = build(GopLayer, {
    "blocks": list_of(build(NeuronBlock, {"op_set": OP_SET_SCHEMA,
                                          "weights": array(2),
                                          "bias": array(1)}), non_empty=True),
    "norm": build(NormState, {"mode": choice(NormMode),
                              **dict.fromkeys(_STATS, nullable(array(1)))})})


def _layer(value, path: str) -> GopLayer:
    layer = _LAYER(value, path)
    for name in _STATS:
        stat = getattr(layer.norm, name)
        if (stat is None) == layer.norm.fitted:
            raise ConfigError(f"{path}.norm.{name}: must be null iff mean is")
        if stat is not None and len(stat) != layer.width:
            raise ConfigError(f"{path}.norm.{name}: expected {layer.width} entries")
    if layer.norm.fitted and (layer.norm.std <= 0).any():
        raise ConfigError(f"{path}.norm.std: entries must be positive")
    return layer


def _network(version, input_dim, C, layers, output) -> GopNetwork:
    if output["bias"].shape[0] != C:
        raise ConfigError("output.bias: length must equal C")
    return GopNetwork(input_dim, layers, output["weights"], output["bias"])


_MODEL = build(_network, {
    "version": typed(lambda v: is_int(v) and v == MODEL_FORMAT_VERSION,
                     str(MODEL_FORMAT_VERSION)),
    "input_dim": INT,
    "C": INT,
    "layers": list_of(_layer, non_empty=True),
    "output": {"weights": array(2), "bias": array(1)},
})


def save_model(net: GopNetwork, path: str) -> None:
    """Write the model JSON atomically (temp file + rename)."""
    _atomic_write_text(path, net.to_json() + "\n")


def load_model(path: str) -> GopNetwork:
    return GopNetwork.from_dict(read_json(path, FormatError, "document"))


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
