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
import io
import json
import os
import sys

import numpy as np

from .data import apply_feature_standardization, load_csv, split_dataset
from .errors import (
    ConfigError,
    DimensionMismatch,
    FormatError,
    GopError,
    UnknownLabelColumn,
)
from .network import _atomic_write_text, load_model, save_model
from .progression import (
    ProgressionConfig,
    Variant,
    run_pmlp_baseline,
    run_pop_baseline,
    run_progression,
)
from .ridge import Metric
from .training import Decay, LossKind, MaxNorm, TrainSpec, evaluate_metrics

DEFAULT_CONFIG = {
    "dataset": {
        "path": None,
        "label_column": "label",
        "header": True,
        "standardize_features": True,
    },
    "split": {"train": 0.6, "val": 0.2, "test": 0.2, "stratified": True},
    "variant": "hemlgop",
    "seed": 0,
    "out_dir": "runs/latest",
    "progression": {
        "n_min": 40,
        "n_i": 20,
        "max_layer_width": 200,
        "eps_n": 1e-4,
        "eps_l": 1e-4,
        "rate_metric": "accuracy",
        "c_grid": [0.1, 1.0, 10.0],
        "max_layers": 8,
    },
    "train": {
        "lr_schedule": [[0.01, 20], [0.001, 40], [0.0001, 40]],
        "batch_size": 32,
        "dropout_hidden": 0.3,
        "dropout_input": 0.2,
        "weight_reg": {"kind": "max-norm", "value": 2.0},
        "loss": "mse",
    },
    "pop": {"template": [200], "target_mse": 0.0, "epochs": 20},
}

VARIANTS = ("hemlgop", "homlgop", "hemlrn", "homlrn", "pop", "pmlp")


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

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


def _read(cfg: dict, path: str, convert=None):
    """The config value at dotted ``path``, passed through ``convert``; a
    missing or unusable value is a ConfigError that names ``path``."""
    value = cfg
    try:
        for key in path.split("."):
            value = value[key]
    except (KeyError, TypeError):
        raise ConfigError(f"{path}: missing") from None
    try:
        return value if convert is None else convert(value)
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{path}: invalid value {value!r}") from None


def _int_list(flag: str, text: str) -> list:
    try:
        return [int(w) for w in text.split(",") if w.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, "
                          f"got {text!r}") from None


def _split_fractions(cfg: dict) -> dict:
    return {k: _read(cfg, f"split.{k}", float) for k in ("train", "val", "test")}


def _pop_args(cfg: dict):
    """(template, target_mse, epochs) of the pop/pmlp baselines."""
    return (_read(cfg, "pop.template", lambda v: [int(w) for w in v]),
            _read(cfg, "pop.target_mse", float),
            _read(cfg, "pop.epochs", int))


def validate_run_config(cfg: dict) -> None:
    variant = _read(cfg, "variant")
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; choose from {VARIANTS}")
    path = _read(cfg, "dataset.path")
    if not path:
        raise ConfigError("dataset.path is required")
    if not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path}")
    fractions = _split_fractions(cfg)
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        raise ConfigError(
            f"split fractions must sum to 1, got {sum(fractions.values())}")
    build_progression_config(cfg, _read(cfg, "seed", int)).validate()
    if variant in ("pop", "pmlp"):
        _pop_args(cfg)


def build_train_spec(cfg: dict, seed: int) -> TrainSpec:
    reg_cfg = _read(cfg, "train.weight_reg", lambda v: dict(v or {"kind": "none"}))
    kind = reg_cfg.get("kind", "none")
    if kind == "max-norm":
        reg = MaxNorm(_read(cfg, "train.weight_reg.value", float))
    elif kind == "decay":
        reg = Decay(_read(cfg, "train.weight_reg.value", float))
    elif kind == "none":
        reg = None
    else:
        raise ConfigError(f"unknown weight_reg kind {kind!r}")
    loss_token = _read(cfg, "train.loss")
    try:
        loss = LossKind(loss_token)
    except ValueError:
        raise ConfigError(f"unknown loss {loss_token!r}") from None
    spec = TrainSpec(
        lr_schedule=_read(cfg, "train.lr_schedule",
                          lambda v: tuple((float(lr), int(ep)) for lr, ep in v)),
        batch_size=_read(cfg, "train.batch_size", int),
        dropout_hidden=_read(cfg, "train.dropout_hidden", float),
        dropout_input=_read(cfg, "train.dropout_input", float),
        weight_reg=reg,
        loss=loss,
        seed=seed,
    )
    spec.validate()
    return spec


def build_progression_config(cfg: dict, seed: int) -> ProgressionConfig:
    metric_token = _read(cfg, "progression.rate_metric")
    if metric_token == "loss":
        metric = Metric.MSE
    elif metric_token == "accuracy":
        metric = Metric.ACCURACY
    else:
        raise ConfigError(f"unknown rate_metric {metric_token!r}")
    variant_token = cfg["variant"]
    variant = (Variant(variant_token)
               if variant_token in {v.value for v in Variant}
               else Variant.HEMLGOP)
    return ProgressionConfig(
        n_min=_read(cfg, "progression.n_min", int),
        n_i=_read(cfg, "progression.n_i", int),
        max_layer_width=_read(cfg, "progression.max_layer_width", int),
        eps_n=_read(cfg, "progression.eps_n", float),
        eps_l=_read(cfg, "progression.eps_l", float),
        rate_metric=metric,
        variant=variant,
        c_grid=_read(cfg, "progression.c_grid", lambda v: tuple(float(c) for c in v)),
        train_spec=build_train_spec(cfg, seed),
        seed=seed,
        max_layers=_read(cfg, "progression.max_layers", int),
    )


def prepare_dataset(cfg: dict, seed: int):
    d = cfg["dataset"]
    ds = load_csv(d["path"], label_column=d["label_column"],
                  header=bool(d["header"]))
    ds = split_dataset(ds, _split_fractions(cfg), seed=seed,
                       stratified=bool(cfg["split"].get("stratified", True)))
    if d.get("standardize_features", True):
        ds = apply_feature_standardization(ds)
    return ds


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _write_json(path: str, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trainlog(path: str, train_logs) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["phase", "epoch", "lr", "train_loss", "train_accuracy",
                     "val_loss", "val_accuracy"])
    for label, log in train_logs:
        for row in log.rows:
            writer.writerow([
                label, row.epoch, repr(row.lr), repr(row.train_loss),
                repr(row.train_accuracy),
                "" if row.val_loss is None else repr(row.val_loss),
                "" if row.val_accuracy is None else repr(row.val_accuracy),
            ])
    _atomic_write_text(path, buf.getvalue())


def run_single(cfg: dict, seed: int, out_dir: str) -> dict:
    """Execute one training run and write its artifacts; returns summary."""
    os.makedirs(out_dir, exist_ok=True)
    resolved = copy.deepcopy(cfg)
    resolved["seed"] = seed
    resolved["out_dir"] = out_dir
    _write_json(os.path.join(out_dir, "config.json"), resolved)
    ds = prepare_dataset(cfg, seed)
    variant = cfg["variant"]
    if variant in ("pop", "pmlp"):
        spec = build_train_spec(cfg, seed)
        template, target, epochs = _pop_args(cfg)
        if variant == "pop":
            net, report = run_pop_baseline(ds, template, target, epochs,
                                           spec, seed)
        else:
            net, report = run_pmlp_baseline(ds, template, target, epochs,
                                            spec, seed)
    else:
        config = build_progression_config(cfg, seed)
        net, report = run_progression(ds, config)
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
        cfg["pop"]["template"] = _int_list("--template", args.template)
    if args.target_mse is not None:
        cfg["pop"]["target_mse"] = args.target_mse
    cfg = apply_overrides(cfg, args.set)
    validate_run_config(cfg)
    out_dir = cfg["out_dir"]
    if args.seeds:
        seeds = _int_list("--seeds", args.seeds)
    else:
        seeds = [int(cfg["seed"])]
    if len(seeds) == 1:
        run_single(cfg, seeds[0], out_dir)
        return 0
    summaries = [run_single(cfg, seed, os.path.join(out_dir, f"seed_{seed}"))
                 for seed in seeds]
    _write_json(os.path.join(out_dir, "summary.json"),
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
        cfg = apply_overrides(load_run_config(args.config), args.set)
        validate_run_config(cfg)
        ds = prepare_dataset(cfg, int(cfg["seed"]))
        split = args.split
        if not ds.has_split(split):
            raise ConfigError(f"dataset has no {split!r} split")
        X, Y = ds.X_split(split), ds.targets(split)
        loss_kind = build_train_spec(cfg, 0).loss
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


def cmd_report(args) -> int:
    doc = load_report(args.report)
    hist = histogram_rows(doc)
    steps = step_rows(doc)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["category", "operator", "count"])
        writer.writerows(hist)
        writer.writerow([])
        writer.writerow(["layer", "width", "op_set", "r_value", "accepted"])
        writer.writerows(steps)
    else:
        print("| category | operator | count |")
        print("|---|---|---|")
        for row in hist:
            print(f"| {row[0]} | {row[1]} | {row[2]} |")
        print()
        print("| layer | width | op_set | r_value | accepted |")
        print("|---|---|---|---|---|")
        for row in steps:
            print(f"| {row[0]} | {row[1]} | {row[2]} | {row[3]:.6g} | {row[4]} |")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["category", "operator", "count"])
        writer.writerows(hist)
        _atomic_write_text(os.path.join(args.out, "operator_histogram.csv"),
                           buf.getvalue())
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["layer", "width", "op_set", "r_value", "accepted"])
        writer.writerows(steps)
        _atomic_write_text(os.path.join(args.out, "steps.csv"), buf.getvalue())
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
