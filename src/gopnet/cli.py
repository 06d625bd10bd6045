"""Command-line entry points: train, eval, report, flops, params.

A run is driven by a JSON config file; every value can be overridden with
``--set key.path=value``.  All artifacts are written atomically and every
source of randomness flows from the seed recorded in the persisted config,
so a run can be reproduced from its output directory alone.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .data import (SPLIT_NAMES, apply_feature_standardization, load_csv,
                   split_dataset)
from .errors import (
    ConfigError,
    DimensionMismatch,
    FormatError,
    GopError,
    UnknownLabelColumn,
)
from .network import _atomic_write_text, load_model, save_model
from .progression import (
    POP_EPOCHS,
    ProgressionConfig,
    Variant,
    run_pmlp_baseline,
    run_pop_baseline,
    run_progression,
)
from .ridge import Metric
from .training import Decay, LossKind, MaxNorm, TrainSpec, evaluate_metrics

VARIANTS = tuple(v.value for v in Variant) + ("pop", "pmlp")


# ---------------------------------------------------------------------------
# Config schema: one typed parser per key
# ---------------------------------------------------------------------------

def _typed(ok, expected: str, convert=None):
    """Parser of (value, dotted key): ``convert(value)`` if ``ok(value)``."""
    def parse(value, path: str):
        if not ok(value):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


def _is_int(v) -> bool:  # a JSON integer, so no booleans and no fractions
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:  # NaN is no number here
    return (isinstance(v, float) and v == v
            or _is_int(v) and abs(v) <= sys.float_info.max)


_INT = _typed(_is_int, "an integer")
_FLOAT = _typed(_is_number, "a number", float)
_BOOL = _typed(lambda v: isinstance(v, bool), "true or false")
_TEXT = _typed(lambda v: isinstance(v, str) and v != "", "a non-empty string")
_SEED = _typed(lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_POSITIVE_INT = _typed(lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_FRACTION = _typed(lambda v: _is_number(v) and 0 <= v <= 1,
                   "a number in [0, 1]", float)
_OBJECT = _typed(lambda v: isinstance(v, dict), "an object")


def _choice(table: dict):
    return _typed(lambda v: isinstance(v, str) and v in table,
                  f"one of {tuple(table)}", table.get)


def _list_of(item, non_empty: bool = False):
    check = _typed(lambda v: isinstance(v, list) and len(v) >= non_empty,
                   "a non-empty list" if non_empty else "a list")
    return lambda value, path: tuple(
        item(v, f"{path}[{i}]") for i, v in enumerate(check(value, path)))


def _lr_stage(value, path: str) -> tuple:
    lr, epochs = _typed(lambda v: isinstance(v, list) and len(v) == 2,
                        "[learning_rate, epochs]")(value, path)
    return _FLOAT(lr, f"{path}[0]"), _INT(epochs, f"{path}[1]")


_RATE_METRICS = {"loss": Metric.MSE, "accuracy": Metric.ACCURACY}
_REGULARIZERS = {"none": None, "max-norm": MaxNorm, "decay": Decay}


def _weight_reg(value, path: str):
    """null, {} and kind "none" mean no regularizer; the others take a value."""
    if value is None:
        return None
    kind = _choice(_REGULARIZERS)(_OBJECT(value, path).get("kind", "none"),
                                  f"{path}.kind")
    return kind and kind(_parse(value, {"value": _FLOAT}, path)["value"])


# Every config key and its parser.  The progression and train keys are the
# ProgressionConfig and TrainSpec fields of the same name.
_SCHEMA = {
    "variant": _typed(lambda v: v in VARIANTS, f"one of {VARIANTS}"),
    "seed": _SEED,
    "out_dir": _TEXT,
    "dataset": {"path": _TEXT, "header": _BOOL, "standardize_features": _BOOL,
                "label_column": _typed(lambda v: isinstance(v, str)
                                       or _is_int(v), "a name or an index")},
    "split": {**{name: _FRACTION for name in SPLIT_NAMES}, "stratified": _BOOL},
    "progression": {"n_min": _INT, "n_i": _INT, "max_layer_width": _INT,
                    "eps_n": _FLOAT, "eps_l": _FLOAT,
                    "rate_metric": _choice(_RATE_METRICS),
                    "c_grid": _list_of(_FLOAT), "max_layers": _INT},
    "train": {"lr_schedule": _list_of(_lr_stage), "batch_size": _INT,
              "dropout_hidden": _FLOAT, "dropout_input": _FLOAT,
              "weight_reg": _weight_reg,
              "loss": _choice({kind.value: kind for kind in LossKind})},
    "pop": {"template": _list_of(_POSITIVE_INT, non_empty=True),
            "target_mse": _FLOAT, "epochs": _POSITIVE_INT},
}

# JSON form of the dataclass defaults that are not JSON values already.
_JSON_FORM = {
    "rate_metric": {m: token for token, m in _RATE_METRICS.items()}.get,
    "c_grid": list,
    "lr_schedule": lambda stages: [list(stage) for stage in stages],
    "weight_reg": lambda reg: {
        "kind": next(k for k, cls in _REGULARIZERS.items() if cls is type(reg)),
        "value": dataclasses.astuple(reg)[0]},
    "loss": lambda kind: kind.value,
}


def _defaults(section: str, instance) -> dict:
    return {key: _JSON_FORM.get(key, lambda v: v)(getattr(instance, key))
            for key in _SCHEMA[section]}


DEFAULT_CONFIG = {
    "dataset": {"path": None, "label_column": "label", "header": True,
                "standardize_features": True},
    "split": {"train": 0.6, "val": 0.2, "test": 0.2, "stratified": True},
    "variant": ProgressionConfig.variant.value,
    "seed": ProgressionConfig.seed,
    "out_dir": "runs/latest",
    "progression": _defaults("progression", ProgressionConfig()),
    "train": _defaults("train", TrainSpec()),
    "pop": {"template": [200], "target_mse": 0.0, "epochs": POP_EPOCHS},
}


def _parse(value, schema, path: str):
    """``value`` parsed by ``schema``: a parser, or a dict of schemas."""
    if callable(schema):
        return schema(value, path)
    _OBJECT(value, path)
    prefix = f"{path}." if path else ""
    for key in schema:
        if key not in value:
            raise ConfigError(f"{prefix}{key}: missing")
    return {key: _parse(value[key], sub, prefix + key)
            for key, sub in schema.items()}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A parsed run config; ``raw`` is what config.json records."""

    raw: dict
    variant: str
    seed: int
    out_dir: str
    dataset: dict
    split: dict
    train: TrainSpec
    progression: ProgressionConfig | None  # None for pop and pmlp
    pop: dict  # run_pop_baseline keywords


def parse_run_config(cfg: dict) -> RunConfig:
    """Check every key of a merged run config; the dataset loader checks
    that the file exists and the split fractions sum to 1."""
    s = _parse(cfg, _SCHEMA, "")
    train = TrainSpec(**s["train"], seed=s["seed"])
    train.validate()
    progression = None
    if s["variant"] not in ("pop", "pmlp"):
        progression = ProgressionConfig(
            **s["progression"], variant=Variant(s["variant"]),
            train_spec=train, seed=s["seed"])
        progression.validate()
    return RunConfig(cfg, s["variant"], s["seed"], s["out_dir"], s["dataset"],
                     s["split"], train, progression, s["pop"])


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_run_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON when possible."""
    cfg = copy.deepcopy(cfg)
    for assignment in assignments or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects key=value, got {assignment!r}")
        key, value = assignment.split("=", 1)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = parsed
    return cfg


def _int_list(flag: str, text: str) -> list:
    try:
        return [int(w) for w in text.split(",") if w.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, "
                          f"got {text!r}") from None


def load_dataset(run: RunConfig):
    d = run.dataset
    return load_csv(d["path"], label_column=d["label_column"], header=d["header"])


def prepare_dataset(run: RunConfig, ds, seed: int):
    """Split a loaded dataset for one seed, standardizing if configured."""
    d = run.dataset
    ds = split_dataset(ds, run.split, seed=seed,
                       stratified=run.split["stratified"])
    return apply_feature_standardization(ds) if d["standardize_features"] else ds


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _write_json(path: str, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_trainlog(path: str, train_logs) -> None:
    rows = ([label, row.epoch] + ["" if v is None else repr(v) for v in (
        row.lr, row.train_loss, row.train_accuracy, row.val_loss,
        row.val_accuracy)] for label, log in train_logs for row in log.rows)
    _atomic_write_text(path, _csv_text(
        ["phase", "epoch", "lr", "train_loss", "train_accuracy", "val_loss",
         "val_accuracy"], rows))


def run_single(run: RunConfig, loaded, seed: int, out_dir: str) -> dict:
    """Execute one training run on the loaded dataset and write its artifacts;
    returns summary.  Nothing is written before the dataset has split."""
    ds = prepare_dataset(run, loaded, seed)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config.json"),
                {**run.raw, "seed": seed, "out_dir": out_dir})
    spec = dataclasses.replace(run.train, seed=seed)
    if run.progression is None:
        baseline = run_pop_baseline if run.variant == "pop" else run_pmlp_baseline
        net, report = baseline(ds, **run.pop, train_spec=spec, seed=seed)
    else:
        net, report = run_progression(ds, dataclasses.replace(
            run.progression, train_spec=spec, seed=seed))
    save_model(net, os.path.join(out_dir, "model.json"))
    _write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    _write_trainlog(os.path.join(out_dir, "trainlog.csv"), report.train_logs)
    return {
        "seed": seed,
        "final_metrics": report.final_metrics,
        "params": report.params,
        "flops": report.flops,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.variant:
        cfg["variant"] = args.variant
    if args.out:
        cfg["out_dir"] = args.out
    if args.template:
        cfg = _merge(cfg, {"pop": {
            "template": _int_list("--template", args.template)}})
    if args.target_mse is not None:
        cfg = _merge(cfg, {"pop": {"target_mse": args.target_mse}})
    run = parse_run_config(apply_overrides(cfg, args.set))
    seeds = ([_SEED(s, "--seeds") for s in _int_list("--seeds", args.seeds)]
             if args.seeds else [run.seed])
    loaded = load_dataset(run)
    if len(seeds) == 1:
        run_single(run, loaded, seeds[0], run.out_dir)
        return 0
    summaries = [run_single(run, loaded, seed,
                            os.path.join(run.out_dir, f"seed_{seed}"))
                 for seed in seeds]
    _write_json(os.path.join(run.out_dir, "summary.json"),
                _summarize(seeds, summaries))
    return 0


def _summarize(seeds, summaries) -> dict:
    def metric_values(key):
        values = []
        for s in summaries:
            fm = s["final_metrics"]
            split = "test" if fm.get("test") else "train"
            values.append(fm[split][key])
        return values

    return {
        "seeds": seeds,
        "per_seed": summaries,
        "median": {
            "accuracy": float(np.median(metric_values("accuracy"))),
            "loss": float(np.median(metric_values("loss"))),
            "params": float(np.median([s["params"] for s in summaries])),
            "flops": float(np.median([s["flops"] for s in summaries])),
        },
    }


def cmd_eval(args) -> int:
    net = load_model(args.model)
    if args.config:
        run = parse_run_config(
            apply_overrides(load_run_config(args.config), args.set))
        ds = prepare_dataset(run, load_dataset(run), run.seed)
        split = args.split
        if not ds.has_split(split):
            raise ConfigError(f"dataset has no {split!r} split")
        X, Y = ds.X_split(split), ds.targets(split)
        loss_kind = run.train.loss
    elif args.data:
        ds = load_csv(args.data, label_column=_label_col(args),
                      header=not args.no_header,
                      standardize_features=args.standardize)
        X, Y = ds.X_split("train"), ds.targets("train")
        loss_kind = LossKind.MSE
    else:
        raise ConfigError("eval needs --config or --data")
    if X.shape[1] != net.input_dim:
        raise DimensionMismatch(
            f"model expects {net.input_dim} features, data has {X.shape[1]}")
    if Y.shape[1] != net.n_classes:
        raise DimensionMismatch(
            f"model has {net.n_classes} classes, data has {Y.shape[1]}")
    loss, accuracy = evaluate_metrics(net, X, Y, loss_kind)
    print(json.dumps({
        "accuracy": accuracy,
        "loss": loss,
        "params": net.count_params(),
        "flops": net.count_flops(),
    }, indent=2, sort_keys=True))
    return 0


def _label_col(args):
    raw = args.label_column
    try:
        return int(raw)
    except (TypeError, ValueError):
        return raw


def load_report(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"report file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"report: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or "final_metrics" not in doc:
        raise FormatError("report: missing final_metrics")
    return doc


def histogram_rows(doc: dict) -> list:
    rows = []
    for category, counts in sorted(doc.get("operator_histogram", {}).items()):
        for token, count in sorted(counts.items()):
            rows.append((category, token, count))
    return rows


def step_rows(doc: dict) -> list:
    rows = []
    for step in doc.get("steps", []):
        op = step["chosen_op_set"]
        rows.append((
            step["layer_index"], step["block_width"],
            f"{op['nodal']}/{op['pool']}/{op['activation']}",
            step["r_value"], step["accepted"],
        ))
    return rows


def _markdown_text(header, rows) -> str:
    out = ["| " + " | ".join(map(str, row)) + " |" for row in (header, *rows)]
    out.insert(1, "|" + "---|" * len(header))
    return "\n".join(out)


def cmd_report(args) -> int:
    doc = load_report(args.report)
    hist = (("category", "operator", "count"), histogram_rows(doc))
    steps = (("layer", "width", "op_set", "r_value", "accepted"), step_rows(doc))
    if args.format == "csv":
        sys.stdout.write(_csv_text(*hist) + "\r\n" + _csv_text(*steps))
    else:
        header, rows = steps
        print(_markdown_text(*hist) + "\n\n" + _markdown_text(
            header, [(*row[:3], f"{row[3]:.6g}", row[4]) for row in rows]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, table in (("operator_histogram.csv", hist),
                            ("steps.csv", steps)):
            _atomic_write_text(os.path.join(args.out, name), _csv_text(*table))
    return 0


def cmd_flops(args) -> int:
    print(load_model(args.model).count_flops())
    return 0


def cmd_params(args) -> int:
    print(load_model(args.model).count_params())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gopnet",
        description="Progressive GOP network trainer and evaluator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--variant", choices=VARIANTS)
    p_train.add_argument("--seeds", help="comma-separated seed sweep")
    p_train.add_argument("--out", help="output directory override")
    p_train.add_argument("--template", help="comma-separated widths (pop/pmlp)")
    p_train.add_argument("--target-mse", type=float, dest="target_mse",
                         help="stopping objective (pop/pmlp)")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="config override, repeatable")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--config", help="run config providing data and split")
    p_eval.add_argument("--split", default="test")
    p_eval.add_argument("--data", help="CSV file to evaluate on directly")
    p_eval.add_argument("--label-column", default="label")
    p_eval.add_argument("--no-header", action="store_true")
    p_eval.add_argument("--standardize", action="store_true")
    p_eval.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="tables from a report.json")
    p_report.add_argument("--report", required=True)
    p_report.add_argument("--format", choices=("markdown", "csv"),
                          default="markdown")
    p_report.add_argument("--out", help="also write CSV tables here")
    p_report.set_defaults(func=cmd_report)

    p_flops = sub.add_parser("flops", help="per-sample FLOPs of a model")
    p_flops.add_argument("--model", required=True)
    p_flops.set_defaults(func=cmd_flops)

    p_params = sub.add_parser("params", help="parameter count of a model")
    p_params.add_argument("--model", required=True)
    p_params.set_defaults(func=cmd_params)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownLabelColumn) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (GopError, np.linalg.LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
