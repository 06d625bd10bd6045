"""Progressive construction of GOP networks in width and depth.

Growth alternates randomized operator-set search (closed-form ridge solves
over standardized candidate features), optional per-step finetuning, and
relative-improvement stopping rules for both neurons and layers.  The four
variants differ along two axes: heterogeneous vs. homogeneous layers, and
with vs. without per-step backprop.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import (
    AllCandidatesFailed,
    ConfigError,
    DegenerateBaseline,
    DimensionMismatch,
    NonFiniteLoss,
    SingularSystem,
)
from .network import GopLayer, GopNetwork, NeuronBlock, NormState
from .operators import (
    LIBRARY_SIZE,
    PERCEPTRON_SET,
    STD_FLOOR,
    OperatorSet,
    enumerate_operator_sets,
)
from .ridge import Metric, evaluate_candidate
from .training import (
    LossKind,
    TrainableSelection,
    TrainSpec,
    evaluate_metrics,
    finetune,
    init_batchnorm_from_standardization,
    with_seed,
)


class Variant(Enum):
    HEMLGOP = "hemlgop"
    HOMLGOP = "homlgop"
    HEMLRN = "hemlrn"
    HOMLRN = "homlrn"


_HOMOGENEOUS = {Variant.HOMLGOP, Variant.HOMLRN}
_STEP_FINETUNED = {Variant.HEMLGOP, Variant.HOMLGOP}


@dataclass(frozen=True)
class ProgressionConfig:
    """Growth hyperparameters.

    The improvement rate defaults to the classification (accuracy) form;
    select Metric.MSE to drive acceptance decisions by loss instead.
    """

    n_min: int = 40
    n_i: int = 20
    max_layer_width: int = 200
    eps_n: float = 1e-4
    eps_l: float = 1e-4
    rate_metric: Metric = Metric.ACCURACY
    variant: Variant = Variant.HEMLGOP
    c_grid: tuple = (0.1, 1.0, 10.0)
    train_spec: TrainSpec = TrainSpec()
    seed: int = 0
    max_layers: int = 8
    op_set_indices: tuple | None = None  # restricts the search library (test hook)

    def validate(self) -> None:
        if self.n_min < 1 or self.n_i < 1:
            raise ConfigError("n_min and n_i must be >= 1")
        if self.n_min > self.max_layer_width:
            raise ConfigError("n_min exceeds max_layer_width")
        if not (self.eps_n >= 0 and self.eps_l >= 0):
            raise ConfigError("improvement thresholds must be >= 0")
        if self.max_layers < 1:
            raise ConfigError("max_layers must be >= 1")
        if not self.c_grid:
            raise ConfigError("c_grid must be non-empty")
        if not all(np.isfinite(c) and c >= 0 for c in self.c_grid):
            raise ConfigError("c_grid entries must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.op_set_indices is not None:
            for idx in self.op_set_indices:
                if not 0 <= idx < LIBRARY_SIZE:
                    raise ConfigError(f"operator set index {idx} out of range")
            if not self.op_set_indices:
                raise ConfigError("op_set_indices must not be empty")
        self.train_spec.validate()

    def library(self) -> list[OperatorSet]:
        if self.op_set_indices is None:
            return enumerate_operator_sets()
        return [OperatorSet.from_index(i) for i in self.op_set_indices]


@dataclass
class StepRecord:
    layer_index: int
    block_width: int
    candidate_indices: list
    candidate_scores: list
    chosen_op_set: OperatorSet
    r_value: float
    accepted: bool
    metric_after: float
    wall_time: float


@dataclass
class LayerRecord:
    layer_index: int
    width: int
    r_value: float
    accepted: bool


@dataclass
class ProgressionReport:
    variant: str
    seed: int
    steps: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    final_metrics: dict = field(default_factory=dict)
    params: int = 0
    flops: int = 0
    operator_histogram: dict = field(default_factory=dict)
    train_logs: list = field(default_factory=list)  # (label, TrainLog)
    final_finetune_diverged: bool = False
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """Serializable report; wall-clock fields are omitted so identical
        runs produce identical documents."""
        return {
            "variant": self.variant,
            "seed": self.seed,
            "steps": [
                {
                    "layer_index": s.layer_index,
                    "block_width": s.block_width,
                    "candidate_indices": list(s.candidate_indices),
                    "candidate_scores": list(s.candidate_scores),
                    "chosen_op_set": s.chosen_op_set.tokens(),
                    "r_value": s.r_value,
                    "accepted": s.accepted,
                    "metric_after": s.metric_after,
                }
                for s in self.steps
            ],
            "layers": [
                {
                    "layer_index": r.layer_index,
                    "width": r.width,
                    "r_value": r.r_value,
                    "accepted": r.accepted,
                }
                for r in self.layers
            ],
            "final_metrics": self.final_metrics,
            "params": self.params,
            "flops": self.flops,
            "operator_histogram": self.operator_histogram,
            "final_finetune_diverged": self.final_finetune_diverged,
        }


def improvement_rate(before: float, after: float,
                     metric: Metric = Metric.MSE) -> float:
    """Relative improvement; loss shrinks, accuracy grows."""
    if before == 0:
        raise DegenerateBaseline("baseline value is zero")
    if metric is Metric.MSE:
        return (before - after) / before
    return (after - before) / before


def _rate_or_zero(before: float, after: float, metric: Metric) -> float:
    """improvement_rate, taken as 0 where the baseline is zero."""
    try:
        return improvement_rate(before, after, metric)
    except DegenerateBaseline:
        return 0.0


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def operator_histogram(net: GopNetwork) -> dict:
    """Counts of operator kinds over all blocks, grouped by category."""
    hist = {"nodal": {}, "pool": {}, "activation": {}}
    for layer in net.hidden:
        for block in layer.blocks:
            for kind, token in block.op_set.tokens().items():
                hist[kind][token] = hist[kind].get(token, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# Randomized operator-set search
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    op_set: OperatorSet
    weights: np.ndarray
    bias: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    B: np.ndarray
    score: float
    candidate_indices: list
    candidate_scores: list


def search_operator_set(width: int, fan_in: int, library,
                        X_layer: np.ndarray, Y: np.ndarray,
                        existing: np.ndarray | None,
                        config: ProgressionConfig,
                        layer_index: int, step_index: int,
                        Y_val: np.ndarray | None = None) -> SearchResult:
    """Evaluate every candidate operator set with random uniform weights.

    ``X_layer`` and ``existing`` hold the training rows, then the validation
    rows when ``Y_val`` is given.  Each candidate draws its weights from a
    deterministic per-candidate seed, standardizes its raw features by the
    training rows, and is scored by a ridge solve over the committed features
    and its own, fitted on the training rows and scored on the validation
    rows when present.  Ties go to the lowest operator index.
    """
    n = len(Y)
    if len(X_layer) != n + (0 if Y_val is None else len(Y_val)):
        raise DimensionMismatch("X_layer must hold the training, then the validation rows")
    if existing is not None and not np.isfinite(existing).all():
        raise AllCandidatesFailed(
            f"committed features of layer {layer_index} are non-finite")
    best: SearchResult | None = None
    indices, scores = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for op_set in library:
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, layer_index, step_index,
                                        op_set.index]))
            W = rng.uniform(-1.0, 1.0, size=(fan_in, width))
            b = rng.uniform(-1.0, 1.0, size=width)
            block = NeuronBlock(op_set, W, b)
            indices.append(op_set.index)
            H_raw = block.forward(X_layer)
            mean = H_raw[:n].mean(axis=0)
            std = np.maximum(H_raw[:n].std(axis=0), STD_FLOOR)
            H_bar = (H_raw - mean) / std
            if not np.isfinite(H_bar).all():
                scores.append(None)
                continue
            H = H_bar if existing is None else np.hstack([existing, H_bar])
            try:
                result = evaluate_candidate(H[:n], Y, config.c_grid,
                                            config.rate_metric,
                                            None if Y_val is None else H[n:],
                                            Y_val)
            except (SingularSystem, np.linalg.LinAlgError):
                scores.append(None)
                continue
            scores.append(result.score)
            if best is None or config.rate_metric.better(result.score,
                                                         best.score):
                best = SearchResult(op_set, W, b, mean, std, result.B,
                                    result.score, indices, scores)
    if best is None:
        raise AllCandidatesFailed(
            f"all {len(library)} operator-set candidates failed")
    return best


# ---------------------------------------------------------------------------
# Growth engine
# ---------------------------------------------------------------------------

@dataclass
class _GrowthContext:
    X_train: np.ndarray
    Y_train: np.ndarray
    X_val: np.ndarray | None
    Y_val: np.ndarray | None
    config: ProgressionConfig
    report: ProgressionReport

    @property
    def rate_split(self):
        if self.X_val is not None:
            return self.X_val, self.Y_val
        return self.X_train, self.Y_train

    @property
    def X_rows(self) -> np.ndarray:  # training rows, then any validation rows
        return self.X_train if self.X_val is None else np.vstack([self.X_train, self.X_val])


def _rate_value(net: GopNetwork, ctx: _GrowthContext) -> float:
    """Metric driving acceptance decisions, on the validation split when present."""
    Xr, Yr = ctx.rate_split
    loss, acc = evaluate_metrics(net, Xr, Yr, ctx.config.train_spec.loss)
    return loss if ctx.config.rate_metric is Metric.MSE else acc


def _null_baseline(ctx: _GrowthContext) -> float:
    """Metric of the best constant predictor, used before any block exists."""
    Xr, Yr = ctx.rate_split
    mean = ctx.Y_train.mean(axis=0)
    if ctx.config.rate_metric is Metric.MSE:
        return float(np.mean((Yr - mean) ** 2))
    majority = int(ctx.Y_train.sum(axis=0).argmax())
    return float(np.mean(Yr.argmax(axis=1) == majority))


def _commit_candidate(net: GopNetwork | None, layer_index: int,
                      found: SearchResult, input_dim: int,
                      n_classes: int) -> GopNetwork:
    """Attach the winning candidate block and install its ridge solution."""
    block = NeuronBlock(found.op_set, found.weights, found.bias)
    if net is not None and layer_index < len(net.hidden):
        layer = net.hidden[layer_index]
        layer.blocks.append(block)
        layer.norm.extend(found.mean, found.std)
    else:
        norm = NormState()
        norm.extend(found.mean, found.std)
        layer = GopLayer([block], norm)
        if net is None:
            return GopNetwork(input_dim, [layer], found.B,
                              np.zeros(n_classes))
        net.hidden.append(layer)
    net.output_weights = np.ascontiguousarray(found.B, dtype=float)
    net.output_bias = np.zeros(n_classes)
    return net


def grow_layer(net: GopNetwork | None, layer_index: int,
               ctx: _GrowthContext, incoming_baseline: float):
    """Grow one hidden layer blockwise until the improvement rate stalls.

    Returns the (possibly newly created) network and the layer's final
    rate-metric value.  The first block is always kept; every later block is
    kept only if its improvement rate clears eps_n, otherwise the network is
    restored bit-exactly to its pre-step state and growth stops.  A step
    whose finetune diverges is rejected the same way; divergence on a
    layer's first block propagates NonFiniteLoss to the caller.
    """
    config = ctx.config
    X_layer = ctx.X_rows if layer_index == 0 else net.hidden_forward(ctx.X_rows)
    fan_in = X_layer.shape[1]
    n_classes = ctx.Y_train.shape[1]
    library = config.library()
    baseline = incoming_baseline
    step = 0
    current_width = 0
    while True:
        width = config.n_min if step == 0 else config.n_i
        if current_width + width > config.max_layer_width:
            break
        started = time.perf_counter()
        snapshot = copy.deepcopy(net) if step > 0 else None
        if step == 0 or config.variant not in _HOMOGENEOUS:
            step_library = library
        else:
            step_library = [net.hidden[layer_index].blocks[0].op_set]
        with np.errstate(over="ignore", invalid="ignore"):
            existing = net.hidden[layer_index].forward(X_layer) if step > 0 else None
        found = search_operator_set(
            width, fan_in, step_library, X_layer, ctx.Y_train, existing,
            config, layer_index, step, ctx.Y_val)
        net = _commit_candidate(net, layer_index, found, ctx.X_train.shape[1],
                                n_classes)
        layer = net.hidden[layer_index]
        diverged = False
        if config.variant in _STEP_FINETUNED:
            init_batchnorm_from_standardization(layer)
            selection = TrainableSelection.single_block(
                layer_index, len(layer.blocks) - 1)
            spec = with_seed(config.train_spec,
                             derive_seed(config.seed, 1, layer_index, step))
            try:
                log = finetune(net, (ctx.X_train, ctx.Y_train),
                               None if ctx.X_val is None
                               else (ctx.X_val, ctx.Y_val),
                               spec, selection)
            except NonFiniteLoss:
                diverged = True
            else:
                ctx.report.train_logs.append(
                    (f"layer{layer_index}.step{step}", log))
        metric_after = float("inf") if diverged else _rate_value(net, ctx)
        diverged = diverged or not np.isfinite(metric_after)
        if diverged:
            if step == 0:
                raise NonFiniteLoss(
                    f"first block of layer {layer_index} diverged", epoch=0)
            r_value = -1.0
            accepted = False
            metric_after = float("inf")
        else:
            r_value = _rate_or_zero(baseline, metric_after, config.rate_metric)
            accepted = step == 0 or r_value >= config.eps_n
        ctx.report.steps.append(StepRecord(
            layer_index, width, found.candidate_indices, found.candidate_scores,
            found.op_set, float(r_value), accepted, float(metric_after),
            time.perf_counter() - started))
        if not accepted:
            net = snapshot
            break
        baseline = metric_after
        current_width += width
        step += 1
        if baseline == 0 and config.rate_metric is Metric.MSE:
            break  # perfect fit; further rates are undefined
    return net, baseline


def run_progression(dataset: Dataset, config: ProgressionConfig):
    """Full progressive learning: grow layer by layer, then finetune everything.

    Returns (network, report).
    """
    config.validate()
    started = time.perf_counter()
    X_train = dataset.X_split("train")
    Y_train = dataset.targets("train")
    X_val = Y_val = None
    if dataset.has_split("val"):
        X_val = dataset.X_split("val")
        Y_val = dataset.targets("val")
    report = ProgressionReport(variant=config.variant.value, seed=config.seed)
    ctx = _GrowthContext(X_train, Y_train, X_val, Y_val, config, report)

    # the first layer is always kept, as the first block of a layer is
    net = None
    baseline = _null_baseline(ctx)
    for layer_index in range(config.max_layers):
        snapshot = copy.deepcopy(net)
        try:
            net, layer_metric = grow_layer(net, layer_index, ctx, baseline)
        except NonFiniteLoss:
            if layer_index == 0:
                raise
            # the new layer diverged before holding any committed block
            net = snapshot
            report.layers.append(LayerRecord(layer_index, 0, -1.0, False))
            break
        r_layer = _rate_or_zero(baseline, layer_metric, config.rate_metric)
        accepted = layer_index == 0 or r_layer >= config.eps_l
        report.layers.append(LayerRecord(
            layer_index, net.hidden[layer_index].width, float(r_layer), accepted))
        if not accepted:
            net = snapshot
            break
        baseline = layer_metric
        if baseline == 0 and config.rate_metric is Metric.MSE:
            break  # perfect fit; further rates are undefined

    for layer in net.hidden:
        init_batchnorm_from_standardization(layer)
    spec = with_seed(config.train_spec, derive_seed(config.seed, 2))
    snapshot = copy.deepcopy(net)
    try:
        log = finetune(net, (X_train, Y_train),
                       None if X_val is None else (X_val, Y_val),
                       spec, TrainableSelection.all_blocks(net))
    except NonFiniteLoss:
        # keep the progressively learned network; the full-network pass is
        # an improvement step, not a requirement for a usable model
        net = snapshot
        report.final_finetune_diverged = True
    else:
        report.train_logs.append(("final", log))

    report.final_metrics = _final_metrics(net, dataset, config.train_spec.loss)
    report.params = net.count_params()
    report.flops = net.count_flops()
    report.operator_histogram = operator_histogram(net)
    report.wall_time = time.perf_counter() - started
    return net, report


def _final_metrics(net: GopNetwork, dataset: Dataset, loss_kind: LossKind) -> dict:
    metrics = {}
    for split in ("train", "val", "test"):
        if not dataset.has_split(split):
            metrics[split] = None
            continue
        loss, acc = evaluate_metrics(net, dataset.X_split(split),
                                     dataset.targets(split), loss_kind)
        metrics[split] = {"loss": loss, "accuracy": acc}
    return metrics


# ---------------------------------------------------------------------------
# POP / PMLP layerwise baselines
# ---------------------------------------------------------------------------

@dataclass
class PopCandidateRecord:
    layer_index: int
    gis_pass: int
    role: str  # "output" or "hidden"
    hidden_op: OperatorSet
    output_op: OperatorSet
    train_mse: float


@dataclass
class PopLayerSummary:
    layer_index: int
    width: int
    hidden_op: OperatorSet
    output_op: OperatorSet
    train_mse: float
    met_target: bool


@dataclass
class PopReport:
    variant: str
    seed: int
    candidate_trainings: list = field(default_factory=list)
    layer_trainings: list = field(default_factory=list)
    layer_summaries: list = field(default_factory=list)
    template_exhausted: bool = False
    final_metrics: dict = field(default_factory=dict)
    params: int = 0
    flops: int = 0
    train_logs: list = field(default_factory=list)
    final_finetune_diverged: bool = False
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        """Serializable report without wall-clock fields, as
        ProgressionReport.to_dict."""
        def tokens(record) -> dict:
            return {**vars(record), "hidden_op": record.hidden_op.tokens(),
                    "output_op": record.output_op.tokens()}

        return {
            "variant": self.variant,
            "seed": self.seed,
            "candidate_trainings": [tokens(r) for r in self.candidate_trainings],
            "layer_trainings": [tokens(r) for r in self.layer_trainings],
            "layers": [tokens(s) for s in self.layer_summaries],
            "template_exhausted": self.template_exhausted,
            "final_metrics": self.final_metrics,
            "params": self.params,
            "flops": self.flops,
            "final_finetune_diverged": self.final_finetune_diverged,
        }


POP_EPOCHS = 20  # SGD epochs per single-hidden-layer training


def _identity_norm(width: int) -> NormState:
    return NormState(mean=np.zeros(width), std=np.ones(width),
                     scale=np.ones(width), shift=np.zeros(width))


def _glorot_uniform(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _train_shln(X, Y, width, hidden_op, output_op, epochs, base_spec: TrainSpec,
                seed: int):
    """Build and BP-train a single-hidden-layer network with a GOP output stage.

    The output stage is modeled as a GOP layer of C neurons feeding a frozen
    identity linear map, so the standard network type covers it.  A candidate
    whose training diverges scores infinitely badly instead of aborting the
    whole search.
    """
    fan_in = X.shape[1]
    n_classes = Y.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    hidden = GopLayer(
        [NeuronBlock(hidden_op, _glorot_uniform(rng, fan_in, width),
                     np.zeros(width))],
        _identity_norm(width))
    output = GopLayer(
        [NeuronBlock(output_op, _glorot_uniform(rng, width, n_classes),
                     np.zeros(n_classes))],
        _identity_norm(n_classes))
    net = GopNetwork(fan_in, [hidden, output], np.eye(n_classes),
                     np.zeros(n_classes))
    spec = replace(base_spec, seed=seed,
                   lr_schedule=((base_spec.lr_schedule[0][0], epochs),))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            finetune(net, (X, Y), None, spec,
                     TrainableSelection.all_blocks(net, include_output=False))
        except NonFiniteLoss:
            return net, float("inf")
        mse, _ = evaluate_metrics(net, X, Y, base_spec.loss)
    if not np.isfinite(mse):
        mse = float("inf")
    return net, mse


def run_pop_baseline(dataset: Dataset, template, target_mse: float,
                     epochs: int = POP_EPOCHS, train_spec: TrainSpec | None = None,
                     seed: int = 0, library=None):
    """Layerwise two-pass greedy operator search with a fixed width template."""
    if library is None:
        library = enumerate_operator_sets()
    return _pop_progression(dataset, template, target_mse, epochs,
                            train_spec or TrainSpec(), seed, library,
                            variant="pop")


def run_pmlp_baseline(dataset: Dataset, template, target_mse: float,
                      epochs: int = POP_EPOCHS, train_spec: TrainSpec | None = None,
                      seed: int = 0):
    """POP restricted to the perceptron operator set; no operator search."""
    return _pop_progression(dataset, template, target_mse, epochs,
                            train_spec or TrainSpec(), seed, [PERCEPTRON_SET],
                            variant="pmlp")


def _pop_progression(dataset: Dataset, template, target_mse, epochs,
                     train_spec, seed, library, variant):
    if not template:
        raise ConfigError("template must list at least one hidden width")
    started = time.perf_counter()
    X_train = dataset.X_split("train")
    Y_train = dataset.targets("train")
    report = PopReport(variant=variant, seed=seed)
    # POP logs its operator search; PMLP, which has none, its layer trainings
    trainings = (report.candidate_trainings if variant == "pop"
                 else report.layer_trainings)
    committed: list[GopLayer] = []
    X_cur = X_train
    met_target = False

    for li, width in enumerate(template):
        best = None  # (mse, hidden_op, output_op, net)

        def consider(ops, gis_pass, role, seed_parts):
            nonlocal best
            net, mse = _train_shln(X_cur, Y_train, width, ops["hidden"],
                                   ops["output"], epochs, train_spec,
                                   derive_seed(seed, li, *seed_parts))
            trainings.append(PopCandidateRecord(
                li, gis_pass, role, ops["hidden"], ops["output"], mse))
            if best is None or mse < best[0]:
                best = (mse, ops["hidden"], ops["output"], net)
            return mse

        if len(library) == 1:
            consider({"hidden": library[0], "output": library[0]}, 0, "train",
                     (0, 0, 0))
        else:
            # GIS: each pass picks the best output operator for the current
            # hidden one, then the best hidden operator for that output one
            rng = np.random.default_rng(np.random.SeedSequence([seed, li]))
            ops = {"hidden": library[int(rng.integers(len(library)))]}
            for gis_pass in (1, 2):
                for part, role in enumerate(("output", "hidden")):
                    mses = [consider({**ops, role: cand}, gis_pass, role,
                                     (gis_pass, part, cand.index))
                            for cand in library]
                    ops[role] = library[int(np.argmin(mses))]

        mse, h_op, o_op, shln = best
        met_target = mse <= target_mse
        report.layer_summaries.append(
            PopLayerSummary(li, width, h_op, o_op, mse, met_target))
        if met_target:
            break
        if li < len(template) - 1:
            committed.append(shln.hidden[0])
            X_cur = shln.hidden[0].forward(X_cur)

    if not met_target:
        report.template_exhausted = True

    n_classes = Y_train.shape[1]
    net = GopNetwork(dataset.X.shape[1], committed + list(shln.hidden),
                     np.eye(n_classes), np.zeros(n_classes))
    selection = TrainableSelection.all_blocks(net, include_output=False)
    snapshot = copy.deepcopy(net)
    try:
        log = finetune(net, (X_train, Y_train),
                       (dataset.X_split("val"), dataset.targets("val"))
                       if dataset.has_split("val") else None,
                       with_seed(train_spec, derive_seed(seed, 10_000)), selection)
    except NonFiniteLoss:
        # as in run_progression: the searched network stays usable
        net = snapshot
        report.final_finetune_diverged = True
    else:
        report.train_logs.append(("final", log))

    report.final_metrics = _final_metrics(net, dataset, train_spec.loss)
    report.params = net.count_params()
    report.flops = net.count_flops()
    report.wall_time = time.perf_counter() - started
    return net, report
