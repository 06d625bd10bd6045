import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gopnet.cli as cli
from gopnet.cli import DEFAULT_CONFIG, VARIANTS, main
from gopnet.data import apply_feature_standardization, load_csv, split_dataset
from gopnet.network import _atomic_write_text, load_model
from gopnet.progression import ProgressionConfig, run_progression
from gopnet.synth import as_dataset, two_moons
from gopnet.training import LossKind, TrainSpec, evaluate_metrics


@pytest.fixture(scope="module")
def moons_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "moons.csv"
    X, y = two_moons(160, 0.15, seed=0)
    rows = ["x1,x2,label"]
    rows += [f"{float(a)!r},{float(b)!r},c{c}" for (a, b), c in zip(X, y)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


FAST_OVERRIDES = [
    "progression.n_min=5",
    "progression.n_i=4",
    "progression.max_layer_width=9",
    "progression.max_layers=1",
    'train.lr_schedule=[[0.01,2],[0.001,1]]',
    "train.batch_size=32",
]


def fast_train_args(config_path, out, extra=()):
    args = ["train", "--config", config_path, "--out", out]
    for override in FAST_OVERRIDES:
        args += ["--set", override]
    return args + list(extra)


@pytest.fixture(scope="module")
def run_config(tmp_path_factory, moons_csv):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps({
        "dataset": {"path": moons_csv, "label_column": "label"},
        "split": {"train": 0.6, "val": 0.2, "test": 0.2},
        "variant": "hemlgop",
        "seed": 3,
    }))
    return str(path)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, run_config):
    out = str(tmp_path_factory.mktemp("out"))
    code = main(fast_train_args(run_config, out))
    assert code == 0
    return out


class TestTrain:
    def test_artifacts_written(self, trained_run):
        for name in ("model.json", "report.json", "trainlog.csv", "config.json"):
            assert os.path.exists(os.path.join(trained_run, name))
        net = load_model(os.path.join(trained_run, "model.json"))
        assert net.input_dim == 2
        report = json.load(open(os.path.join(trained_run, "report.json")))
        assert report["variant"] == "hemlgop"
        assert report["params"] == net.count_params()

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": {"path": "/nope/missing.csv"}}))
        code = main(["train", "--config", str(cfg)])
        assert code == 2
        assert "/nope/missing.csv" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert main(["train", "--config", "/nope/run.json"]) == 2

    def test_bad_fractions_exit_2(self, tmp_path, moons_csv):
        cfg = tmp_path / "frac.json"
        cfg.write_text(json.dumps({
            "dataset": {"path": moons_csv},
            "split": {"train": 0.7, "val": 0.2, "test": 0.2},
        }))
        assert main(["train", "--config", str(cfg)]) == 2

    def test_finite_divergence_of_the_first_block_exits_3(self, tmp_path,
                                                           capsys):
        self._first_block_divergence_exits_3(tmp_path, capsys, epochs=3)

    def test_one_epoch_divergence_of_the_first_block_exits_3(self, tmp_path,
                                                              capsys):
        # the reference is the loss before the first update, so a block that
        # explodes within its only epoch is caught too
        self._first_block_divergence_exits_3(tmp_path, capsys, epochs=1)

    @staticmethod
    def _first_block_divergence_exits_3(tmp_path, capsys, epochs):
        X, y = two_moons(160)
        data = tmp_path / "moons.csv"
        data.write_text("x1,x2,label\n" + "".join(
            f"{float(a)!r},{float(b)!r},{c}\n" for (a, b), c in zip(X, y)))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "dataset": {"path": str(data), "label_column": "label"},
            "split": {"train": 0.6, "val": 0.2, "test": 0.2},
            "seed": 0,
            "progression": {**DEFAULT_CONFIG["progression"], "max_layers": 1},
            "train": {**DEFAULT_CONFIG["train"],
                      "lr_schedule": [[1e4, epochs]]},
        }))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert "first block of layer 0 diverged" in capsys.readouterr().err

    @staticmethod
    def _train_on(tmp_path, text, capsys):
        """Exit code, stderr and output directory of a run on a CSV."""
        data = tmp_path / "data.csv"
        data.write_text(text)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dataset": {"path": str(data)}}))
        out = tmp_path / "out"
        code = main(fast_train_args(str(cfg), str(out)))
        return code, capsys.readouterr().err, out

    def test_label_only_csv_exits_2_naming_the_path(self, tmp_path, capsys):
        code, err, out = self._train_on(tmp_path, "label\n" + "a\nb\n" * 10,
                                        capsys)
        assert code == 2
        assert err.startswith("error: dataset.path: ")
        assert "no feature columns" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("x1,x2,label\n1.0,oops,a\n2.0,3.0,b\n", "non-numeric value 'oops'"),
        ("x1,x2,label\n1.0,2.0,a\n3.0,nan,b\n",
         "non-finite value 'nan' at row 3, column 2"),
        ("x1,x2,label\n-inf,2.0,a\n3.0,4.0,b\n",
         "non-finite value '-inf' at row 2, column 1"),
        ("x1,x2,label\n1.0,2.0,a\n3.0,b\n", "row 3 has 2 cells"),
        ("x1,x2,label\n", "no data rows"),
    ], ids=["non-numeric", "nan", "inf", "ragged", "no-rows"])
    def test_malformed_csv_exits_2_naming_the_path(self, tmp_path, capsys,
                                                   text, message):
        code, err, out = self._train_on(tmp_path, text, capsys)
        assert code == 2
        assert err.startswith("error: dataset.path: ")
        assert message in err
        assert not out.exists()

    def test_missing_label_column_exits_2_naming_the_key(self, tmp_path,
                                                          capsys):
        code, err, out = self._train_on(
            tmp_path, "x1,x2,y\n1.0,2.0,a\n3.0,4.0,b\n", capsys)
        assert code == 2
        assert err.startswith("error: dataset.label_column: ")
        assert not out.exists()

    def test_overflowing_feature_exits_2_naming_it(self, tmp_path, capsys):
        X, y = two_moons(40, 0.1, seed=0)
        code, err, out = self._train_on(tmp_path, "x1,huge,label\n" + "".join(
            f"{a!r},{1e300 * (2.0 + b)!r},{c}\n"
            for (a, b), c in zip(X.tolist(), y)), capsys)
        assert code == 2
        assert "'huge'" in err and "standardized" in err
        assert not out.exists()

    def test_class_too_small_to_stratify_exits_2(self, tmp_path, capsys):
        X, y = two_moons(40, 0.1, seed=0)
        rows = [f"{a!r},{b!r},c{c}" for (a, b), c in zip(X.tolist(), y)]
        code, err, out = self._train_on(
            tmp_path, "x1,x2,label\n" + "\n".join(rows + ["0.0,0.0,lone"]),
            capsys)
        assert code == 2
        assert "cannot stratify" in err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, run_config):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(fast_train_args(run_config, out1)) == 0
        assert main(fast_train_args(run_config, out2)) == 0
        for name in ("model.json", "report.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_rerun_from_persisted_config(self, tmp_path, trained_run):
        persisted = os.path.join(trained_run, "config.json")
        out = str(tmp_path / "redo")
        assert main(["train", "--config", persisted, "--out", out]) == 0
        a = open(os.path.join(trained_run, "model.json"), "rb").read()
        b = open(os.path.join(out, "model.json"), "rb").read()
        assert a == b

    def test_seed_sweep_writes_summary(self, tmp_path, run_config):
        out = str(tmp_path / "sweep")
        assert main(fast_train_args(run_config, out,
                                    extra=["--seeds", "1,2"])) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["seeds"] == [1, 2]
        assert "median" in summary
        for seed in (1, 2):
            assert os.path.exists(os.path.join(out, f"seed_{seed}", "model.json"))

    def test_seed_sweep_loads_the_csv_once(self, tmp_path, run_config,
                                           monkeypatch):
        loads = []

        def counted(*args, load_csv=cli.load_csv, **kwargs):
            loads.append(args)
            return load_csv(*args, **kwargs)

        X, y = two_moons(24, 0.1, seed=0)
        trained = run_progression(
            as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}),
            ProgressionConfig(n_min=1, max_layers=1, op_set_indices=(0,),
                              train_spec=TrainSpec(lr_schedule=((0.01, 1),))))
        monkeypatch.setattr(cli, "load_csv", counted)
        monkeypatch.setattr(cli, "run_progression", lambda *a, **k: trained)
        out = tmp_path / "sweep"
        assert main(["train", "--config", run_config, "--out", str(out),
                     "--seeds", "1,2,3"]) == 0
        assert len(loads) == 1
        assert len(list(out.glob("seed_*/config.json"))) == 3

    def test_pmlp_dispatch(self, tmp_path, run_config):
        out = str(tmp_path / "pmlp")
        code = main(["train", "--config", run_config, "--variant", "pmlp",
                     "--out", out, "--template", "4", "--target-mse", "inf",
                     "--set", "pop.epochs=1",
                     "--set", 'train.lr_schedule=[[0.01,1]]'])
        assert code == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["variant"] == "pmlp"
        assert report["candidate_trainings"] == []

    def test_pop_dispatch(self, tmp_path, run_config):
        out = str(tmp_path / "pop")
        code = main(["train", "--config", run_config, "--variant", "pop",
                     "--out", out, "--template", "3,3", "--target-mse", "inf",
                     "--set", "pop.epochs=1",
                     "--set", 'train.lr_schedule=[[0.01,1]]'])
        assert code == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["variant"] == "pop"
        assert len(report["candidate_trainings"]) == 4 * 144
        assert len(report["layers"]) == 1  # infinite target met by layer one

    @pytest.mark.parametrize("extra, named", [
        (["--set", "progression.n_min=abc"], "progression.n_min"),
        (["--set", "train.lr_schedule=5"], "train.lr_schedule"),
        (["--set", 'split.train="x"'], "split.train"),
        (["--set", 'train.weight_reg={"kind":"decay"}'], "train.weight_reg.value"),
        (["--set", "progression.c_grid=[-1]"], "c_grid"),
        (["--template", "4,x", "--variant", "pop"], "--template"),
        (["--seeds", "1,y"], "--seeds"),
        (["--seeds", ","], "--seeds: name at least one seed"),
        (["--seeds", "1,2,1"], "--seeds: name each seed once"),
    ])
    def test_malformed_value_exits_2_naming_it(self, tmp_path, run_config,
                                               capsys, extra, named):
        out = str(tmp_path / "bad")
        assert main(["train", "--config", run_config, "--out", out] + extra) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert named in captured.err
        assert not os.path.exists(out)

    def test_unknown_variant_exits_2(self, tmp_path, run_config):
        cfg = json.load(open(run_config))
        cfg["variant"] = "frobnicate"
        path = tmp_path / "v.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("extra, named", [
        (["--set", "train.batchsize=64"], "train.batchsize: unknown key"),
        (["--set", "progresion.max_layers=3"], "progresion: unknown key"),
        (["--set", "train.weight_reg.kind=decay",
          "--set", "train.weight_reg.valu=0.1"],
         "train.weight_reg.valu: unknown key"),
        (["--set", 'train.weight_reg={"kind":"none","valu":1}'],
         "train.weight_reg.valu: unknown key"),
    ])
    def test_unknown_key_exits_2_naming_its_path(self, tmp_path, run_config,
                                                 capsys, extra, named):
        out = str(tmp_path / "bad")
        assert main(fast_train_args(run_config, out, extra)) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not os.path.exists(out)

    def test_the_default_config_parses(self):
        config = {**DEFAULT_CONFIG,
                  "dataset": {**DEFAULT_CONFIG["dataset"], "path": "d.csv"}}
        run = cli.parse_run_config(config)
        assert run.train == TrainSpec(seed=DEFAULT_CONFIG["seed"])
        # kind "none" merged over the default keeps the default's value
        none = cli._merge(config, {"train": {"weight_reg": {"kind": "none"}}})
        assert none["train"]["weight_reg"] == {"kind": "none", "value": 2.0}
        assert cli.parse_run_config(none).train.weight_reg is None


def config_items(node=DEFAULT_CONFIG, prefix=""):
    """(dotted key, default) of every section and key of the config."""
    items = []
    for key, value in node.items():
        items.append((prefix + key, value))
        if isinstance(value, dict):
            items += config_items(value, f"{prefix}{key}.")
    return items


CONFIG_KEYS = [key for key, _ in config_items()]
# No "/" or "." in generated strings, so a generated out_dir stays inside
# the example's working directory (the defaults' "runs/latest" is relative).
TOKENS = st.text(alphabet="ab01-", max_size=4) | st.sampled_from([
    "hemlgop", "hemlrn", "pop", "pmlp", "label", "none", "max-norm", "decay",
    "loss", "accuracy", "mse", "cross-entropy"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TOKENS
    | st.sampled_from([value for _, value in config_items()]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(TOKENS, inner, max_size=3)),
    max_leaves=6)


class TestConfigFuzz:
    @pytest.fixture(scope="class")
    def tiny_run(self, tmp_path_factory):
        """A run config over a tiny CSV, and a trained (net, report) that
        the stubbed compute entry points hand back."""
        root = tmp_path_factory.mktemp("fuzz")
        X, y = two_moons(24, 0.1, seed=0)
        rows = ["x1,x2,label"] + [f"{a!r},{b!r},c{c}"
                                  for (a, b), c in zip(X.tolist(), y)]
        (root / "tiny.csv").write_text("\n".join(rows) + "\n")
        (root / "run.json").write_text(json.dumps(
            {"dataset": {"path": str(root / "tiny.csv")}}))
        trained = run_progression(
            as_dataset(X, y, {"train": 0.6, "val": 0.2, "test": 0.2}),
            ProgressionConfig(n_min=1, max_layers=1, op_set_indices=(0,),
                              train_spec=TrainSpec(lr_schedule=((0.01, 1),))))
        return root, trained

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(overrides=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS),
                                        JSON_VALUES), min_size=1, max_size=3))
    @example(overrides=[("dataset.path", [1])])
    @example(overrides=[("out_dir", 5)])
    @example(overrides=[("progression.n_min", True)])
    @example(overrides=[("split.train", -0.2), ("split.val", 0.6)])
    @example(overrides=[("dataset.label_column", [1])])
    def test_any_override_exits_0_2_or_3_without_traceback(
            self, tiny_run, monkeypatch, capsys, overrides):
        root, trained = tiny_run
        for name in ("run_progression", "run_pop_baseline", "run_pmlp_baseline"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: trained)
        work = tempfile.mkdtemp(dir=root)
        monkeypatch.chdir(work)
        args = ["train", "--config", str(root / "run.json"), "--out", "out"]
        for key, value in overrides:
            args += ["--set", f"{key}={json.dumps(value)}"]
        code = main(args)
        captured = capsys.readouterr()
        assert code in (0, 2, 3)
        assert "Traceback" not in captured.out + captured.err
        if code == 2:
            written = [files for _, _, files in os.walk(work)]
            assert not any("config.json" in files for files in written)


# Feature values at the data's edges: zeros of both signs, magnitudes near
# 1e300 and 1e-300, the largest and smallest doubles, and ordinary ones.
EDGE_FEATURES = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
    1.7976931348623157e308, -1.7976931348623157e308]) | st.floats(-10, 10)
TINY_RUN = {
    "progression": {"n_min": 1, "n_i": 1, "max_layer_width": 2,
                    "max_layers": 2},
    "train": {"lr_schedule": [[0.01, 1]], "batch_size": 4},
    "pop": {"template": [1, 1], "epochs": 1},
}
ALL_TRAIN = {"train": 1.0, "val": 0.0, "test": 0.0}


@st.composite
def degenerate_csvs(draw):
    """CSV text with a label column and 0-3 feature columns over 1-8 rows:
    one class or several, constant or duplicate rows, edge magnitudes."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(0, 3))
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 2))),
                           min_size=n, max_size=n))
    row = st.lists(EDGE_FEATURES, min_size=d, max_size=d)
    rows = ([draw(row)] * n if draw(st.booleans())
            else draw(st.lists(row, min_size=n, max_size=n)))
    lines = [",".join([f"x{j}" for j in range(d)] + ["label"])]
    lines += [",".join([repr(v) for v in r] + [f"c{c}"])
              for r, c in zip(rows, labels)]
    return "\n".join(lines) + "\n"


class TestDegenerateCsvs:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=degenerate_csvs(),
           variant=st.sampled_from(VARIANTS),
           standardize=st.booleans(),
           split=st.sampled_from([DEFAULT_CONFIG["split"], ALL_TRAIN]))
    @example(text="label\nc0\nc1\n", variant="hemlgop", standardize=True,
             split=ALL_TRAIN)
    # a second layer over a first one's overflowing outputs, growth and POP
    @example(text="x0,x1,x2,label\n-2.0,-1.7976931348623157e+308,"
                  "-1.7976931348623157e+308,c0\n",
             variant="hemlrn", standardize=False, split=ALL_TRAIN)
    @example(text="x0,label\n2.5,c0\n-1.0,c0\n-1.7976931348623157e+308,c0\n",
             variant="pop", standardize=False, split=ALL_TRAIN)
    # a value outside the train split that standardizing overflows
    @example(text="x0,label\n0.0,c0\n1.7976931348623157e+308,c0\n0.0,c0\n",
             variant="hemlgop", standardize=True, split=DEFAULT_CONFIG["split"])
    def test_exits_0_2_or_3_with_one_error_line_and_reruns_exactly(
            self, tmp_path_factory, capsys, text, variant, standardize, split):
        """Under pytest every RuntimeWarning is an error, so a run that
        warns fails here instead of printing to stderr."""
        root = tmp_path_factory.mktemp("edge")
        (root / "data.csv").write_text(text)
        config = root / "run.json"
        config.write_text(json.dumps({
            **TINY_RUN, "variant": variant, "split": split,
            "dataset": {"path": str(root / "data.csv"),
                        "standardize_features": standardize}}))

        def train(out):
            code = main(["train", "--config", str(config),
                         "--out", str(root / out)])
            return code, capsys.readouterr().err

        code, err = train("a")
        assert code in (0, 2, 3)
        if code != 0:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert code == 3 or not (root / "a").exists()
            return
        assert err == "" and train("b") == (0, "")
        for name in ("model.json", "report.json", "trainlog.csv"):
            assert ((root / "a" / name).read_bytes()
                    == (root / "b" / name).read_bytes()), name

    @pytest.mark.parametrize("variant", ["homlrn", "hemlrn"])
    def test_failed_later_step_keeps_the_grown_network(self, tmp_path,
                                                       capsys, variant):
        """Every candidate of layer 0's second step fails on the overflowing
        committed features; growth keeps the first block and exits 0."""
        values = ["-1.7976931348623157e308", "2.5", "2.80",
                  "-1.7976931348623157e308", "-0.0", "5e-324", "-5.0"]
        labels = ["c1", "c1", "c1", "c1", "c1", "c0", "c1"]
        (tmp_path / "data.csv").write_text("x0,label\n" + "".join(
            f"{v},{c}\n" for v, c in zip(values, labels)))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            **TINY_RUN, "variant": variant,
            "split": {**ALL_TRAIN, "stratified": False},
            "dataset": {"path": str(tmp_path / "data.csv"),
                        "standardize_features": False}}))
        for out in ("a", "b"):
            assert main(["train", "--config", str(config),
                         "--out", str(tmp_path / out)]) == 0
            assert capsys.readouterr().err == ""
        for name in ("model.json", "report.json", "trainlog.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["layers"][0]["width"] == 1


class TestEval:
    def test_eval_reproduces_test_metrics_exactly(self, trained_run, run_config,
                                                  capsys):
        model = os.path.join(trained_run, "model.json")
        args = ["eval", "--model", model, "--config", run_config,
                "--split", "test"]
        for override in FAST_OVERRIDES:
            args += ["--set", override]
        assert main(args) == 0
        printed = json.loads(capsys.readouterr().out)
        report = json.load(open(os.path.join(trained_run, "report.json")))
        assert printed["accuracy"] == report["final_metrics"]["test"]["accuracy"]
        assert printed["loss"] == report["final_metrics"]["test"]["loss"]
        net = load_model(model)
        assert printed["flops"] == net.count_flops()
        assert printed["params"] == net.count_params()

    def test_dimension_mismatch_exits_3(self, trained_run, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b,c,d,e,label\n" +
                        "\n".join("1,2,3,4,5,x" for _ in range(4)) + "\n")
        code = main(["eval", "--model",
                     os.path.join(trained_run, "model.json"),
                     "--data", str(wide)])
        assert code == 3

    def test_eval_on_a_headerless_csv_by_label_index_standardized(
            self, trained_run, tmp_path, capsys):
        X, y = two_moons(60, 0.15, seed=1)
        data = tmp_path / "bare.csv"
        data.write_text("".join(f"c{c},{float(a)!r},{float(b)!r}\n"
                                for (a, b), c in zip(X, y)))
        model = os.path.join(trained_run, "model.json")
        assert main(["eval", "--model", model, "--data", str(data),
                     "--label-column", "0", "--no-header", "--standardize"]) == 0
        printed = json.loads(capsys.readouterr().out)
        net = load_model(model)
        raw = load_csv(str(data), label_column=0, header=False)
        ds = apply_feature_standardization(raw)
        loss, accuracy = evaluate_metrics(net, ds.X, ds.targets("train"),
                                          LossKind.MSE)
        assert (printed["accuracy"], printed["loss"]) == (accuracy, loss)
        # the flag matters: the raw features score differently
        assert evaluate_metrics(net, raw.X, raw.targets("train"),
                                LossKind.MSE)[0] != loss

    def test_eval_on_data_reads_the_dataset_keys_of_set(
            self, trained_run, tmp_path, capsys):
        X, y = two_moons(60, 0.15, seed=1)
        data = tmp_path / "bare.csv"
        data.write_text("".join(f"c{c},{float(a)!r},{float(b)!r}\n"
                                for (a, b), c in zip(X, y)))
        model = os.path.join(trained_run, "model.json")
        printed = []
        for flags in (["--label-column", "0", "--no-header", "--standardize"],
                      ["--set", "dataset.label_column=0",
                       "--set", "dataset.header=false",
                       "--set", "dataset.standardize_features=true"]):
            assert main(["eval", "--model", model, "--data", str(data)]
                        + flags) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert main(["eval", "--model", model, "--data", str(data),
                     "--set", "dataset.label_column=9"]) == 2
        assert "dataset.label_column" in capsys.readouterr().err

    def test_eval_on_data_scores_in_the_loss_set(self, tmp_path, run_config,
                                                 moons_csv, capsys):
        out = str(tmp_path / "ce")
        assert main(fast_train_args(run_config, out, extra=[
            "--set", "train.loss=cross-entropy"])) == 0
        model = os.path.join(out, "model.json")
        capsys.readouterr()
        assert main(["eval", "--model", model, "--data", moons_csv,
                     "--set", "train.loss=cross-entropy"]) == 0
        printed = json.loads(capsys.readouterr().out)
        net, ds = load_model(model), load_csv(moons_csv)
        loss, accuracy = evaluate_metrics(net, ds.X, ds.targets("train"),
                                          LossKind.CROSS_ENTROPY)
        assert (printed["accuracy"], printed["loss"]) == (accuracy, loss)
        assert evaluate_metrics(net, ds.X, ds.targets("train"),
                                LossKind.MSE)[0] != loss

    def test_eval_on_data_applies_split_overrides(self, trained_run, moons_csv,
                                                  capsys):
        """--data scores the train split of the same split and standardize
        path --config takes, so --set split.* picks the rows scored."""
        model = os.path.join(trained_run, "model.json")
        assert main(["eval", "--model", model, "--data", moons_csv,
                     "--standardize", "--set", "split.train=0.5",
                     "--set", "split.test=0.5"]) == 0
        printed = json.loads(capsys.readouterr().out)
        ds = apply_feature_standardization(split_dataset(
            load_csv(moons_csv), {"train": 0.5, "test": 0.5},
            seed=DEFAULT_CONFIG["seed"]))
        loss, accuracy = evaluate_metrics(load_model(model), ds.X_split("train"),
                                          ds.targets("train"), LossKind.MSE)
        assert len(ds.splits["train"]) == 80
        assert (printed["accuracy"], printed["loss"]) == (accuracy, loss)

    def test_eval_on_data_scores_the_split_asked_for(self, trained_run,
                                                      moons_csv, capsys):
        model = os.path.join(trained_run, "model.json")
        halves = ["--standardize", "--set", "split.train=0.5",
                  "--set", "split.test=0.5"]
        printed = {}
        for split in ("train", "test"):
            assert main(["eval", "--model", model, "--data", moons_csv,
                         "--split", split] + halves) == 0
            printed[split] = json.loads(capsys.readouterr().out)
        ds = apply_feature_standardization(split_dataset(
            load_csv(moons_csv), {"train": 0.5, "test": 0.5},
            seed=DEFAULT_CONFIG["seed"]))
        loss, accuracy = evaluate_metrics(load_model(model), ds.X_split("test"),
                                          ds.targets("test"), LossKind.MSE)
        assert (printed["test"]["accuracy"], printed["test"]["loss"]) == (
            accuracy, loss)
        assert printed["test"] != printed["train"]

    def test_eval_on_data_without_the_split_asked_for_exits_2(
            self, trained_run, moons_csv, capsys):
        model = os.path.join(trained_run, "model.json")
        assert main(["eval", "--model", model, "--data", moons_csv,
                     "--split", "val"]) == 2
        assert "dataset has no 'val' split" in capsys.readouterr().err

    def test_eval_without_data_source_exits_2(self, trained_run):
        assert main(["eval", "--model",
                     os.path.join(trained_run, "model.json")]) == 2


class TestReportCommand:
    def make_report(self, tmp_path, steps, histogram):
        doc = {
            "variant": "hemlgop", "seed": 0, "steps": steps, "layers": [],
            "final_metrics": {"train": {"loss": 0.1, "accuracy": 1.0}},
            "params": 1, "flops": 1, "operator_histogram": histogram,
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_single_block_histogram(self, tmp_path, capsys):
        path = self.make_report(
            tmp_path,
            steps=[{"layer_index": 0, "block_width": 4,
                    "candidate_indices": [0], "candidate_scores": [0.5],
                    "chosen_op_set": {"nodal": "multiplication",
                                      "pool": "summation",
                                      "activation": "sigmoid"},
                    "r_value": 0.5, "accepted": True, "metric_after": 0.2}],
            histogram={"nodal": {"multiplication": 1},
                       "pool": {"summation": 1},
                       "activation": {"sigmoid": 1}})
        assert main(["report", "--report", path]) == 0
        out = capsys.readouterr().out
        assert "| nodal | multiplication | 1 |" in out
        assert "multiplication/summation/sigmoid" in out

    def test_homogeneous_three_block_histogram_counts_three(self, tmp_path,
                                                            capsys):
        path = self.make_report(
            tmp_path, steps=[],
            histogram={"nodal": {"gaussian": 3}, "pool": {"maximum": 3},
                       "activation": {"relu": 3}})
        assert main(["report", "--report", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "nodal,gaussian,3" in out

    def test_empty_steps_give_valid_empty_tables(self, tmp_path, capsys):
        path = self.make_report(tmp_path, steps=[], histogram={})
        assert main(["report", "--report", path]) == 0

    def test_csv_export(self, tmp_path, capsys):
        path = self.make_report(tmp_path, steps=[],
                                histogram={"nodal": {"dog": 2}})
        out_dir = str(tmp_path / "tables")
        assert main(["report", "--report", path, "--out", out_dir]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out_dir, "operator_histogram.csv"))
        assert os.path.exists(os.path.join(out_dir, "steps.csv"))

    def test_growth_tables_keep_their_text(self, tmp_path, capsys):
        path = self.make_report(
            tmp_path,
            steps=[{"layer_index": 0, "block_width": 4,
                    "chosen_op_set": {"nodal": "dog", "pool": "maximum",
                                      "activation": "elu"},
                    "r_value": 0.123456789, "accepted": False}],
            histogram={"pool": {"maximum": 1}})
        assert main(["report", "--report", path]) == 0
        assert capsys.readouterr().out == (
            "| category | operator | count |\n|---|---|---|\n"
            "| pool | maximum | 1 |\n\n"
            "| layer | width | op_set | r_value | accepted |\n"
            "|---|---|---|---|---|\n"
            "| 0 | 4 | dog/maximum/elu | 0.123457 | False |\n")
        assert main(["report", "--report", path, "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "category,operator,count\r\npool,maximum,1\r\n\r\n"
            "layer,width,op_set,r_value,accepted\r\n"
            "0,4,dog/maximum/elu,0.123456789,False\r\n")

    @pytest.mark.parametrize("variant", ["pop", "pmlp"])
    def test_pop_reports_print_their_layer_summaries(self, tmp_path, capsys,
                                                     variant):
        ops = [{"nodal": "gaussian", "pool": "summation", "activation": "tanh"},
               {"nodal": "multiplication", "pool": "maximum",
                "activation": "relu"}]
        path = tmp_path / "report.json"
        path.write_text(json.dumps({
            "variant": variant, "seed": 0, "final_metrics": {},
            "candidate_trainings": [], "layer_trainings": [],
            "template_exhausted": False,
            "layers": [{"layer_index": 0, "width": 3, "hidden_op": ops[0],
                        "output_op": ops[1], "train_mse": 0.5, "met_target": False},
                       {"layer_index": 1, "width": 2, "hidden_op": ops[1],
                        "output_op": ops[0], "train_mse": 1 / 3,
                        "met_target": True}]}))
        header = "layer,width,hidden_op_set,output_op_set,train_mse,met_target"
        rows = ["0,3,gaussian/summation/tanh,multiplication/maximum/relu,0.5,False",
                "1,2,multiplication/maximum/relu,gaussian/summation/tanh,"
                "0.3333333333333333,True"]
        out_dir = tmp_path / "tables"
        assert main(["report", "--report", str(path), "--format", "csv",
                     "--out", str(out_dir)]) == 0
        csv_text = "\r\n".join([header] + rows) + "\r\n"
        assert capsys.readouterr().out == csv_text
        assert sorted(os.listdir(out_dir)) == ["layers.csv"]
        assert (out_dir / "layers.csv").read_bytes() == csv_text.encode()
        assert main(["report", "--report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "| " + header.replace(",", " | ") + " |", "|---|---|---|---|---|---|",
            "| 0 | 3 | gaussian/summation/tanh | multiplication/maximum/relu "
            "| 0.5 | False |",
            "| 1 | 2 | multiplication/maximum/relu | gaussian/summation/tanh "
            "| 0.333333 | True |"]

    def test_malformed_report_exits_3(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["report", "--report", str(path)]) == 3

    @pytest.mark.parametrize("fields", [
        {"steps": [{"layer_index": 0}]},
        {"steps": 5},
        {"operator_histogram": [1]},
        {"operator_histogram": {"pool": 3}},
        {"variant": "pop", "layers": [{"layer_index": 0, "width": 1,
                                       "hidden_op": "dog"}]},
    ])
    def test_malformed_record_exits_3_with_one_error_line(self, tmp_path,
                                                          capsys, fields):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"final_metrics": {}, **fields}))
        assert main(["report", "--report", str(path)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: report: ")


class TestModelCommands:
    def test_flops_and_params_print_integers(self, trained_run, capsys):
        model = os.path.join(trained_run, "model.json")
        assert main(["flops", "--model", model]) == 0
        flops = int(capsys.readouterr().out.strip())
        assert main(["params", "--model", model]) == 0
        params = int(capsys.readouterr().out.strip())
        net = load_model(model)
        assert flops == net.count_flops()
        assert params == net.count_params()


class TestAtomicWrites:
    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "model.json"
        target.write_text("original")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            _atomic_write_text(str(target), "new content")
        monkeypatch.undo()
        assert target.read_text() == "original"
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []
