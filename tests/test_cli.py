import base64
import json
import os
import shutil
import signal
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphboost.cli import (ConfigError, cmd_curves, cmd_theory,
                            cmd_train, config_from_dict, main)
from graphboost.data import NodeDataset, Split, export_dataset, synthesize_two_block
from graphboost.graph import SparseGraph


@pytest.fixture
def dataset_dir(tmp_path):
    ds = synthesize_two_block(30, 0.8, 0.1, seed=0)
    n = ds.n
    split = Split(train=np.arange(0, 10), val=np.arange(10, 16),
                  test=np.arange(16, n))
    ds = NodeDataset(graph=ds.graph, features=ds.features, labels=ds.labels,
                     split=split, n_classes=2, name="toy")
    path = tmp_path / "toy"
    export_dataset(ds, path)
    return str(path)


def base_config(dataset_dir, **kw):
    blob = {
        "dataset": dataset_dir,
        "variant": "adj",
        "hidden_layers": 1,
        "hidden_width": 8,
        "n_rounds": 3,
        "seeds": [0, 1],
        "learner": {"epochs": 15},
        "normalize_features": False,
    }
    blob.update(kw)
    return blob


class TestConfig:
    def test_round_trip_identical(self, dataset_dir):
        cfg = config_from_dict(base_config(dataset_dir))
        again = config_from_dict(json.loads(json.dumps(asdict(cfg))))
        assert asdict(again) == asdict(cfg)

    def test_bad_variant_reports_field(self, dataset_dir):
        with pytest.raises(ConfigError, match="variant"):
            config_from_dict(base_config(dataset_dir, variant="nope"))

    def test_bad_nested_learner_field(self, dataset_dir):
        with pytest.raises(ConfigError):
            config_from_dict(base_config(dataset_dir,
                                         learner={"epochs": 0}))

    def test_mode_defaults_to_samme(self, dataset_dir):
        assert config_from_dict(base_config(dataset_dir)).mode == "samme"
        # samme_r is neither a variant nor a mode; an empty mode is refused
        for name, value in (("variant", "samme_r"), ("mode", "samme_r"),
                            ("mode", "")):
            with pytest.raises(ConfigError, match=f"^{name}: "):
                config_from_dict(base_config(dataset_dir, **{name: value}))

    def test_hidden_layers_range(self, dataset_dir):
        with pytest.raises(ConfigError, match="hidden_layers"):
            config_from_dict(base_config(dataset_dir, hidden_layers=5))

    @pytest.mark.parametrize("outer,key,value", [
        ("learner", "optimizer", "sgd"), ("learner", "dropout", 0),
        ("learner", "batch_size", 32),
        ("kta", "optimizer", "rmsprop"),
        ("fine_tune_cfg", "optimizer", "momentum")])
    def test_retired_field_at_another_value_is_named(self, dataset_dir,
                                                     outer, key, value):
        # training always steps by full-batch Adam without dropout; a field
        # that once chose otherwise is refused like any unknown name
        with pytest.raises(ConfigError,
                           match=f"^{outer}.{key}: unknown field$"):
            config_from_dict(base_config(dataset_dir, **{outer: {key: value}}))

    @pytest.mark.parametrize("name,field", [
        ("rho", {"rho": True}),
        ("learner.weight_decay", {"learner": {"weight_decay": False}}),
        ("learner.lr", {"learner": {"lr": True}}),
        ("kta.lr", {"kta": {"lr": True}}),
        ("fine_tune_cfg.weight_decay",
         {"fine_tune_cfg": {"weight_decay": False}})])
    def test_bool_for_float_field_is_named(self, dataset_dir, name, field):
        with pytest.raises(ConfigError, match=f"^{name}: must be a number"):
            config_from_dict(base_config(dataset_dir, **field))

    @pytest.mark.parametrize("outer,key,kind", [
        ("learner", "lr", "a number"), ("kta", "lr", "a number"),
        ("fine_tune_cfg", "weight_decay", "a number"),
        ("learner", "epochs", "an integer"),
        ("fine_tune_cfg", "epochs", "an integer")])
    def test_non_number_in_nested_field_is_named(self, dataset_dir, outer,
                                                 key, kind):
        # typed before the nested config's own checks compare the value
        with pytest.raises(ConfigError) as exc:
            config_from_dict(base_config(dataset_dir, **{outer: {key: "x"}}))
        assert str(exc.value) == f"{outer}.{key}: must be {kind}, got 'x'"


class TestTrain:
    def test_artifacts_and_aggregate(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir)))
        out = tmp_path / "run"
        aggregate = cmd_train(str(cfg_path), str(out))
        assert aggregate["n_seeds"] == 2
        assert 0.0 <= aggregate["test_acc"]["mean"] <= 1.0
        for seed in (0, 1):
            d = out / f"seed_{seed}"
            assert (d / "model.json").exists()
            assert (d / "trace.csv").exists()
            assert (d / "summary.json").exists()
        assert (out / "config.json").exists()
        hashes = json.loads((out / "inputs.json").read_text())
        assert set(hashes) == {"features.tsv", "labels.tsv", "edges.txt",
                               "split.json", "meta.json"}
        assert all(len(h) == 40 for h in hashes.values())

    def test_trace_row_count_matches_rounds(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir,
                                                   seeds=[3], n_rounds=1)))
        out = tmp_path / "run1"
        cmd_train(str(cfg_path), str(out))
        lines = (out / "seed_3" / "trace.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one round

    def test_same_seed_bit_identical_traces(self, dataset_dir, tmp_path):
        results = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"cfg_{name}.json"
            cfg_path.write_text(json.dumps(base_config(dataset_dir,
                                                       seeds=[7])))
            out = tmp_path / name
            cmd_train(str(cfg_path), str(out))
            results.append((out / "seed_7" / "trace.csv").read_bytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("mode", ["samme", "functional"])
    def test_seeds_share_one_read_only_dataset(self, dataset_dir, tmp_path,
                                               monkeypatch, mode):
        # the dataset is loaded once per run, and every seed's artifacts
        # are those of a run of that seed alone: no driver, fine-tune or
        # replay writes into the shared arrays, which are made read-only
        import graphboost.cli as cli
        from graphboost.data import load_planetoid
        loads = []

        def load_read_only(*args, **kw):
            ds = load_planetoid(*args, **kw)
            for a in (ds.features, ds.labels, ds.graph.edges,
                      ds.split.train, ds.split.val, ds.split.test):
                a.flags.writeable = False
            loads.append(ds)
            return ds
        monkeypatch.setattr(cli, "load_planetoid", load_read_only)
        blob = base_config(dataset_dir, variant="kta", mode=mode,
                           seeds=[0, 1, 2], fine_tune=True,
                           fine_tune_cfg={"epochs": 3, "lr": 1e-2})
        (tmp_path / "cfg.json").write_text(json.dumps(blob))
        cmd_train(str(tmp_path / "cfg.json"), str(tmp_path / "all"))
        assert len(loads) == 1
        for seed in blob["seeds"]:
            cfg_path = tmp_path / f"cfg_{seed}.json"
            cfg_path.write_text(json.dumps({**blob, "seeds": [seed]}))
            cmd_train(str(cfg_path), str(tmp_path / f"one_{seed}"))
            for name in ("model.json", "trace.csv", "summary.json"):
                assert ((tmp_path / "all" / f"seed_{seed}" / name)
                        .read_bytes() == (tmp_path / f"one_{seed}"
                                          / f"seed_{seed}" / name)
                        .read_bytes()), (seed, name)

    def test_functional_mode_runs(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, mode="functional", seeds=[0], n_rounds=2)))
        out = tmp_path / "fun"
        aggregate = cmd_train(str(cfg_path), str(out))
        summary = json.loads((out / "seed_0" / "summary.json").read_text())
        assert summary["t_star"] >= 1

    def test_fine_tune_flag(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, seeds=[0], n_rounds=2, fine_tune=True,
            fine_tune_cfg={"epochs": 3, "lr": 1e-3})))
        out = tmp_path / "ft"
        aggregate = cmd_train(str(cfg_path), str(out))
        assert aggregate["n_seeds"] == 1

    @pytest.mark.parametrize("mode", ["samme", "functional"])
    def test_fine_tuned_summary_is_the_tuned_models(self, tmp_path, mode):
        # the driver's score describes the model before fine-tuning; the
        # summary must count the tuned model's classes, as predict gives
        # them for the saved model
        from graphboost.boost import load_model, predict
        from graphboost.data import load_planetoid
        ds = synthesize_two_block(60, 0.3, 0.1, seed=3, noise=1.5)
        export_dataset(ds, tmp_path / "data")
        summaries = {}
        for fine in (False, True):
            cfg_path = tmp_path / f"cfg_{fine}.json"
            cfg_path.write_text(json.dumps({
                "dataset": str(tmp_path / "data"), "variant": "adj",
                "mode": mode, "n_rounds": 3, "hidden_width": 4,
                "seeds": [0], "learner": {"epochs": 3, "lr": 0.01},
                "fine_tune": fine,
                "fine_tune_cfg": {"epochs": 60, "lr": 0.05}}))
            run = tmp_path / f"run_{fine}"
            cmd_train(str(cfg_path), str(run))
            summaries[fine] = json.loads(
                (run / "seed_0" / "summary.json").read_text())
        data = load_planetoid(str(tmp_path / "data"))
        tuned = load_model(run / "seed_0" / "model.json", data.graph)
        classes = predict(tuned, data)[1]
        y, split = data.labels, data.split
        for key, ids in (("train_acc", split.train), ("test_acc", split.test)):
            assert summaries[True][key] == float(np.mean(classes[ids]
                                                         == y[ids]))
        assert summaries[True]["train_acc"] != summaries[False]["train_acc"]

    @pytest.mark.parametrize("variant", ["adj", "input_injection", "kta"])
    @pytest.mark.parametrize("mode", ["samme", "functional"])
    def test_train_propagates_no_more_than_the_driver(
            self, dataset_dir, tmp_path, monkeypatch, variant, mode):
        # without fine-tuning, train takes its summary from the driver's
        # score, so it applies P exactly as often as the driver alone: once
        # per aggregated stage, and 2^n_deg = 8 times for a KTA stage,
        # whose fit and output share one walk of the powers
        from graphboost import boost
        from graphboost.data import load_planetoid
        from graphboost.graph import PropagationMatrix
        calls = []
        original = PropagationMatrix.apply
        monkeypatch.setattr(PropagationMatrix, "apply",
                            lambda self, *a, **k: calls.append(1)
                            or original(self, *a, **k))
        blob = base_config(dataset_dir, variant=variant, mode=mode,
                           seeds=[0], n_rounds=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        in_train = len(calls)
        calls.clear()
        cfg = config_from_dict(blob)
        runner = (boost.run_functional_gb if mode == "functional"
                  else boost.run_samme)
        runner(load_planetoid(dataset_dir, normalize=False),
               boost.BoostConfig(
                   n_rounds=3, hidden=cfg.hidden, learner=cfg.learner,
                   aggregator=boost.AggregatorSpec(
                       kind={"adj": "fixed"}.get(variant, variant),
                       alignment=cfg.kta),
                   seed=0))
        assert calls and in_train == len(calls)
        aggregated = 3 if mode == "functional" else 2
        assert in_train == aggregated * (8 if variant == "kta" else 1)


class TestTheoryCommand:
    def test_report_files(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        report = cmd_theory(str(run / "seed_0" / "model.json"), dataset_dir,
                            out_dir=str(run / "seed_0"))
        assert (run / "seed_0" / "theory.json").exists()
        assert (run / "seed_0" / "spectral.csv").exists()
        assert report["spectral"] == "written"
        assert "optimization" not in report  # samme run
        assert report["complexity"]

    @pytest.mark.parametrize("n_rounds", [1, 3])
    def test_builds_the_base_operator_once(self, dataset_dir, tmp_path,
                                           monkeypatch, n_rounds):
        # the model's aggregators and the spectral report share one P; a
        # one-stage model holds no aggregator
        from graphboost import boost, cli
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, variant="kta", seeds=[0], n_rounds=n_rounds)))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        built = []
        for module in (boost, cli):
            original = module.base_operator
            monkeypatch.setattr(module, "base_operator",
                                lambda g, f=original: built.append(g) or f(g))
        report = cmd_theory(str(run / "seed_0" / "model.json"), dataset_dir,
                            out_dir=str(run / "seed_0"))
        assert len(built) == 1
        assert report["spectral"] == "written"

    def test_functional_report_has_optimization(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, mode="functional", seeds=[1], n_rounds=2)))
        run = tmp_path / "runf"
        cmd_train(str(cfg_path), str(run))
        report = cmd_theory(str(run / "seed_1" / "model.json"), dataset_dir,
                            out_dir=str(run / "seed_1"))
        assert "optimization" in report

    def test_theory_reads_features_as_trained(self, dataset_dir, tmp_path):
        # the run trains on raw features (normalize_features: False); the
        # spectral report at t = 0 is ||X||_F of the features theory loaded
        from graphboost.data import load_planetoid
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        cmd_theory(str(run / "seed_0" / "model.json"), dataset_dir,
                   out_dir=str(run / "seed_0"))
        rows = (run / "seed_0" / "spectral.csv").read_text().splitlines()
        frob_0 = float(rows[1].split(",")[1])
        raw = load_planetoid(dataset_dir, normalize=False).features
        normalized = load_planetoid(dataset_dir).features
        assert frob_0 == pytest.approx(np.linalg.norm(raw), rel=1e-12)
        assert frob_0 != pytest.approx(np.linalg.norm(normalized), rel=1e-3)

    def test_missing_config_states_default(self, dataset_dir, tmp_path,
                                           capsys):
        # without a config.json above the model, theory says it normalizes
        import shutil
        from graphboost.data import load_planetoid
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        cmd_theory(str(run / "seed_0" / "model.json"), dataset_dir,
                   out_dir=str(run / "seed_0"))
        assert capsys.readouterr().err == ""
        loose = tmp_path / "loose" / "seed_0"
        shutil.copytree(run / "seed_0", loose)
        cmd_theory(str(loose / "model.json"), dataset_dir,
                   out_dir=str(loose))
        err = capsys.readouterr().err
        assert "no config.json" in err and "normalize_features=true" in err
        rows = (loose / "spectral.csv").read_text().splitlines()
        normalized = load_planetoid(dataset_dir).features
        assert float(rows[1].split(",")[1]) == pytest.approx(
            np.linalg.norm(normalized), rel=1e-12)

    def test_out_directory_created(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        out = tmp_path / "reports" / "seed_0"
        assert main(["theory", "--model",
                     str(tmp_path / "run" / "seed_0" / "model.json"),
                     "--data", dataset_dir, "--out", str(out)]) == 0
        assert (out / "theory.json").exists()
        assert (out / "spectral.csv").exists()

    def test_old_run_directory_refused_by_name(self, dataset_dir, tmp_path,
                                               capsys):
        # a run directory written before format version 2, or whose
        # config.json carries a field of an older release, no longer loads:
        # theory exits 3 or 2 and names the key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        seed_dir = tmp_path / "run" / "seed_0"
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        args = ["theory", "--model", str(seed_dir / "model.json"),
                "--data", dataset_dir]
        model = json.loads((seed_dir / "model.json").read_text())
        del model["format_version"]
        (seed_dir / "model.json").write_text(json.dumps(model))
        assert main(args) == 3
        assert capsys.readouterr().err.endswith(
            "ValueError: model format_version None: only 3 is read\n")

        run_cfg = tmp_path / "run" / "config.json"
        current = json.loads(run_cfg.read_text())
        for name, value in (("dataset_name", "toy"), ("learner.seed", 0),
                            ("fine_tune_cfg.momentum", 0.9),
                            ("kta.optimizer", "adam"), ("base", "augmented"),
                            ("delta", 0.0)):
            old = json.loads(json.dumps(current))
            outer, _, key = name.rpartition(".")
            (old[outer] if outer else old)[key] = value
            run_cfg.write_text(json.dumps(old))
            assert main(args) == 2
            assert capsys.readouterr().err == (
                f"config error: {name}: unknown field\n")
        assert not (seed_dir / "theory.json").exists()

    @pytest.mark.parametrize("mode", ["functional", "samme"])
    @pytest.mark.parametrize("case", ["deleted", "garbled"])
    def test_report_reads_no_trace(self, dataset_dir, tmp_path, mode, case):
        # every train term comes from the model: theory.json is the same
        # whatever became of trace.csv
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0],
                                                   mode=mode)))
        seed_dir = tmp_path / "run" / "seed_0"
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        args = ["theory", "--model", str(seed_dir / "model.json"),
                "--data", dataset_dir]
        assert main(args) == 0
        before = (seed_dir / "theory.json").read_bytes()
        (seed_dir / "theory.json").unlink()
        if case == "deleted":
            (seed_dir / "trace.csv").unlink()
        else:
            (seed_dir / "trace.csv").write_text("t\n1\n2\n3\n")
        assert main(args) == 0
        assert (seed_dir / "theory.json").read_bytes() == before

    def test_fine_tuned_samme_train_term_is_the_tuned_models(self, tmp_path):
        # the bound adds the train error of the model whose complexity it
        # counts: after fine-tuning, that is the tuned model's
        ds = synthesize_two_block(60, 0.3, 0.1, seed=3, noise=1.5)
        export_dataset(ds, tmp_path / "data")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": str(tmp_path / "data"), "variant": "adj",
            "mode": "samme", "n_rounds": 3, "hidden_width": 4,
            "seeds": [0], "learner": {"epochs": 3, "lr": 0.01},
            "fine_tune": True, "fine_tune_cfg": {"epochs": 60, "lr": 0.05}}))
        seed_dir = tmp_path / "run" / "seed_0"
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        report = cmd_theory(str(seed_dir / "model.json"),
                            str(tmp_path / "data"))
        summary = json.loads((seed_dir / "summary.json").read_text())
        assert report["generalization"]["train_err"] == pytest.approx(
            1.0 - summary["train_acc"], rel=0, abs=1e-12)

    def test_spectral_skipped_above_cap(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        report = cmd_theory(str(run / "seed_0" / "model.json"), dataset_dir,
                            out_dir=str(run / "seed_0"), eigen_cap=5)
        assert report["spectral"].startswith("skipped")
        assert not (run / "seed_0" / "spectral.csv").exists()
        assert (run / "seed_0" / "theory.json").exists()

    def test_spectral_report_runs_no_eigendecomposition(
            self, dataset_dir, tmp_path, monkeypatch):
        import scipy.linalg

        import graphboost.graph

        def refuse(*args, **kwargs):
            raise AssertionError("dense eigendecomposition called")

        monkeypatch.setattr(graphboost.graph, "eigendecompose", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        report = cmd_theory(str(run / "seed_0" / "model.json"), dataset_dir,
                            out_dir=str(run / "seed_0"))
        assert report["spectral"] == "written"
        assert (run / "seed_0" / "spectral.csv").exists()


class TestCurvesCommand:
    def test_single_trace_passthrough(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        out_csv = tmp_path / "curves.csv"
        n = cmd_curves(str(run / "seed_*" / "trace.csv"), str(out_csv))
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "seed,t,metric,value"
        assert n == len(lines) - 1
        assert any(line.startswith("mean,") for line in lines)

    def test_multi_trace_aggregates(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir,
                                                   seeds=[0, 1, 2])))
        run = tmp_path / "run"
        cmd_train(str(cfg_path), str(run))
        out_csv = tmp_path / "curves.csv"
        cmd_curves(str(run / "seed_*" / "trace.csv"), str(out_csv))
        rows = [line.split(",") for line in
                out_csv.read_text().splitlines()[1:]]
        std_rows = [r for r in rows if r[0] == "std"]
        assert std_rows  # per-t std columns present


# model.json headers theory refuses: a mode no driver writes, fewer than two
# classes, no stage, or a t* that names no stage
HEADER_EDITS = {
    "mode_samme_r": {"mode": "samme_r"}, "mode_bogus": {"mode": "bogus"},
    "n_classes_x": {"n_classes": "x"}, "stages_empty": {"stages": []},
    "t_star_x": {"t_star": "x"}, "t_star_99": {"t_star": 99},
    "t_star_1.5": {"t_star": 1.5}, "t_star_0": {"t_star": 0},
    "aggregator_kind_kta": {"aggregator_kind": "kta"},
    "aggregator_kind_bogus": {"aggregator_kind": "bogus"},
    "flags_list": {"flags": []}, "functional_n_classes_5": {"n_classes": 5},
    "t_star_null": {"t_star": None}, "samme_t_star_1": {"t_star": 1}}
# flags that no run writes, each refused naming its key: case -> (flags,
# the stages, 1-based, set to weight 0 so that only the flag is wrong)
FLAGS = {
    "flags_key_other": ({"whatever": [1, 2]}, ()),
    "flags_wlc_failures_on_samme": ({"wlc_failures": [2]}, ()),
    "flags_skipped_string": ({"skipped": "x"}, ()),
    "flags_skipped_empty": ({"skipped": []}, ()),
    "flags_skipped_accepted_round": ({"skipped": [2]}, ()),
    "flags_skipped_beyond_the_stages": ({"skipped": [4]}, ()),
    "flags_skipped_descending": ({"skipped": [3, 2]}, (2, 3)),
    "flags_skipped_repeated": ({"skipped": [2, 2]}, (2,)),
    "flags_skipped_bool": ({"skipped": [True]}, (1,)),
    "flags_skipped_float": ({"skipped": [2.0]}, (2,)),
    "flags_diverged_no": ({"fine_tune_diverged": "no"}, ()),
    "functional_flags_key_other": ({"whatever": [1, 2]}, ()),
    "functional_flags_skipped": ({"skipped": [2]}, (2,)),
    "functional_flags_wlc_failures_first_stage": ({"wlc_failures": [1]}, ()),
    "functional_flags_wlc_failures_with_a_fit": ({"wlc_failures": [2]}, ()),
    "functional_flags_diverged_false": ({"fine_tune_diverged": False}, ())}
# model.json values that are not finite: case -> (the stage and field the
# error names, value)
NON_FINITE = {
    "kta_weight_nan": ("stage 2 aggregator weights", float("nan")),
    "kta_weight_inf": ("stage 2 aggregator weights", float("inf")),
    "learner_weight_nan": ("stage 1 learner weights", float("nan")),
    "wlc_alpha_inf": ("stage 2 wlc", float("inf"))}
# stage 1 learner output widths that no driver writes: a functional
# learner outputs one column, a SAMME learner one per class (here 2)
OUTPUT_WIDTH = {"functional_output_width_3": 3, "samme_output_width_1": 1,
                "samme_output_width_3": 3}
# model.json values that no trainer writes, each refused naming its stage:
# case -> (the stage and field the error names, stage index, key, value)
UNWRITTEN = {
    "wlc_alpha_true": ("stage 2 wlc", 1, "wlc", {"alpha": True, "beta": 0.5}),
    "wlc_beta_true": ("stage 2 wlc", 1, "wlc", {"alpha": 2.0, "beta": True}),
    "wlc_zero": ("stage 2 wlc", 1, "wlc", 0),
    "wlc_empty_string": ("stage 2 wlc", 1, "wlc", ""),
    "wlc_empty_list": ("stage 2 wlc", 1, "wlc", []),
    "wlc_false": ("stage 2 wlc", 1, "wlc", False),
    "kta_weight_true": ("stage 2 aggregator: weights", 1, "aggregator",
                        {"kind": "kta", "weights": [1.0, 0.5, True, 0.25, 0.5],
                         "n_deg": 3}),
    "injection_rho_true": ("stage 2 aggregator: rho", 1, "aggregator",
                           {"kind": "input_injection", "rho": True}),
    "weight_negative": ("stage 2 weight", 1, "weight", -0.5),
    "learner_null": ("stage 2 learner", 1, "learner", None)}


class TestExitCodes:
    def test_ok(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_config_error_is_2(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir,
                                                   variant="bogus")))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_dataset_is_3(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(str(tmp_path / "nope"),
                                                   seeds=[0])))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 3

    def test_curves_without_matches_is_3(self, tmp_path):
        assert main(["curves", "--glob", str(tmp_path / "*.csv"),
                     "--out", str(tmp_path / "c.csv")]) == 3

    @pytest.mark.parametrize("field", [
        {"variant": "input_injection", "rho": 2.0},
        {"variant": "kta", "n_deg": -1},
        {"variant": "kta", "n_deg": 11},
        {"hidden_width": 0},
    ], ids=["rho", "n_deg", "n_deg_over_max", "hidden_width"])
    def test_bad_model_field_is_2(self, dataset_dir, tmp_path, capsys,
                                  field):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0],
                                                   **field)))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        name = next(k for k in field if k != "variant")
        assert f"config error: {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "split_id_too_large", "split_id_negative", "empty_test",
        "empty_train", "nan_feature", "label_below_minus_one",
        "edges_not_integer", "split_not_json", "ragged_features",
        "split_array", "split_ids_string", "edge_out_of_range",
        "meta_count_string", "split_ids_float", "split_ids_bool",
        "ragged_digit_features", "non_digit_feature", "edges_three_fields",
        "edges_three_fields_every_line", "edges_float_id",
        "edge_id_beyond_int64"])
    def test_malformed_dataset_is_3(self, dataset_dir, tmp_path, capsys,
                                    case):
        split_path = os.path.join(dataset_dir, "split.json")
        with open(split_path) as fh:
            split = json.load(fh)
        if case == "split_id_too_large":
            split["test"][-1] = 999
        elif case == "split_id_negative":
            split["test"][-1] = -1
        elif case == "empty_test":
            split["test"] = []
        elif case == "empty_train":
            split["train"] = []
        elif case == "label_below_minus_one":
            # on a node outside every split, which no split check reads
            node = split["test"].pop()
            labels_path = os.path.join(dataset_dir, "labels.tsv")
            labels = np.loadtxt(labels_path, dtype=np.int64)
            labels[node] = -2
            np.savetxt(labels_path, labels, fmt="%d")
        elif case == "edges_not_integer":
            with open(os.path.join(dataset_dir, "edges.txt"), "a") as fh:
                fh.write("0 one\n")
        elif case == "edge_out_of_range":
            with open(os.path.join(dataset_dir, "edges.txt"), "a") as fh:
                fh.write("0 30\n")
        elif case == "edges_three_fields":
            with open(os.path.join(dataset_dir, "edges.txt"), "a") as fh:
                fh.write("0 1 2\n")
        elif case == "edges_three_fields_every_line":
            with open(os.path.join(dataset_dir, "edges.txt"), "w") as fh:
                fh.write("0 1 2\n1 2 3\n")
        elif case == "edges_float_id":
            with open(os.path.join(dataset_dir, "edges.txt"), "a") as fh:
                fh.write("0 1.0\n")
        elif case == "edge_id_beyond_int64":
            with open(os.path.join(dataset_dir, "edges.txt"), "a") as fh:
                fh.write(f"0 {2 ** 64}\n")
        elif case == "split_array":
            split = [split["train"], split["val"], split["test"]]
        elif case == "split_ids_string":
            split["train"] = "abc"
        elif case == "split_ids_float":
            split["train"] = [1.5, 2.7]  # numpy would read nodes 1 and 2
        elif case == "split_ids_bool":
            # True would be node 1, which no other train id repeats
            split["train"] = [True] + split["train"][2:]
        elif case == "meta_count_string":
            meta_path = os.path.join(dataset_dir, "meta.json")
            with open(meta_path) as fh:
                meta = json.load(fh)
            meta["k"] = "2"
            with open(meta_path, "w") as fh:
                json.dump(meta, fh)
        elif case == "ragged_features":
            feat_path = os.path.join(dataset_dir, "features.tsv")
            with open(feat_path) as fh:
                lines = fh.read().splitlines()
            lines[3] = lines[3].rsplit("\t", 1)[0]
            with open(feat_path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        elif case in ("ragged_digit_features", "non_digit_feature"):
            # a file in the single-digit layout the loader reads in bulk,
            # with one line spoiled
            feat_path = os.path.join(dataset_dir, "features.tsv")
            bits = np.loadtxt(feat_path, delimiter="\t", ndmin=2) > 0.5
            lines = ["\t".join(map(str, row)) for row in bits.astype(int)]
            lines[3] = (lines[3][:-2] if case == "ragged_digit_features"
                        else "x" + lines[3][1:])
            with open(feat_path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        elif case == "nan_feature":
            feat_path = os.path.join(dataset_dir, "features.tsv")
            x = np.loadtxt(feat_path, delimiter="\t", ndmin=2)
            x[3, 1] = np.nan
            np.savetxt(feat_path, x, delimiter="\t", fmt="%.17g")
        with open(split_path, "w") as fh:
            json.dump(split, fh)
            if case == "split_not_json":
                fh.write(",")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_edge_file_of_comments_only_trains(self, dataset_dir, tmp_path,
                                                capsys):
        # a graph without edges, which meta.json states; no warning of an
        # empty edge file reaches stderr
        with open(os.path.join(dataset_dir, "edges.txt"), "w") as fh:
            fh.write("# no edges\n")
        meta_path = os.path.join(dataset_dir, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        with open(meta_path, "w") as fh:
            json.dump({**meta, "e": 0}, fh)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_isolated_node_trains_and_normalized_base_is_2(self, tmp_path,
                                                           capsys):
        # D~^{-1/2} (A + I) D~^{-1/2} is defined on a node of degree 0; the
        # retired normalized base D^{-1/2} A D^{-1/2} was not
        ds = synthesize_two_block(30, 0.8, 0.1, seed=0)
        edges = ds.graph.edges[~np.any(ds.graph.edges == 7, axis=1)]
        split = Split(train=np.arange(0, 10), val=np.arange(10, 16),
                      test=np.arange(16, ds.n))
        lone = replace(ds, graph=SparseGraph.from_edges(ds.n, edges),
                       split=split)
        export_dataset(lone, tmp_path / "lone")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            str(tmp_path / "lone"), seeds=[0])))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        cfg_path.write_text(json.dumps(base_config(
            str(tmp_path / "lone"), seeds=[0], base="normalized")))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base: unknown field")
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("case", [
        "model_missing", "model_not_json", "model_without_mode",
        "format_version_2", "weights_not_base64", "weights_wrong_length",
        "activation_sigmoid", "base_normalized", "clip_other",
        "weight_x", "first_stage_aggregator", "later_stage_aggregator_null",
        "shapes_unchained", *HEADER_EDITS, *NON_FINITE, *OUTPUT_WIDTH,
        *UNWRITTEN, *FLAGS])
    def test_unreadable_run_file_is_3(self, dataset_dir, tmp_path, capsys,
                                      case):
        # t* is a functional model's field, aggregator weights a KTA
        # model's and rho an injection model's
        mode = ("functional" if case.startswith(("t_star", "functional"))
                else "samme")
        variant = {"kta": "kta", "injection": "input_injection"}.get(
            case.split("_")[0], "adj")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, seeds=[0], mode=mode, variant=variant)))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        model = tmp_path / "run" / "seed_0" / "model.json"
        args = ["theory", "--model", str(model), "--data", dataset_dir]
        if case == "model_missing":
            model.unlink()
        elif case == "model_not_json":
            model.write_text("not json")
        elif case == "model_without_mode":
            blob = json.loads(model.read_text())
            del blob["mode"]
            model.write_text(json.dumps(blob))
        else:
            blob = json.loads(model.read_text())
            learner = blob["stages"][0]["learner"]
            weights = learner["weights"]
            if case in HEADER_EDITS:
                blob.update(HEADER_EDITS[case])
            elif case == "weight_x":
                blob["stages"][0]["weight"] = "x"
            elif case == "first_stage_aggregator":
                blob["stages"][0]["aggregator"] = {"kind": "fixed"}
            elif case == "later_stage_aggregator_null":
                blob["stages"][1]["aggregator"] = None
            elif case == "shapes_unchained":
                # the 8 x 2 output layer's 16 entries read as 4 x 4
                blob["stages"][0]["learner"]["shapes"][1] = [4, 4]
            elif case in OUTPUT_WIDTH:
                # the output layer, zeroed, at another width
                rows, cols = learner["shapes"][-1][0], OUTPUT_WIDTH[case]
                learner["shapes"][-1] = [rows, cols]
                weights[-1] = base64.b64encode(
                    np.zeros(rows * cols, dtype="<f8").tobytes()).decode()
            elif case in NON_FINITE:
                # each value JSON writes as NaN or Infinity
                value = NON_FINITE[case][1]
                if case.startswith("kta"):
                    blob["stages"][1]["aggregator"]["weights"][2] = value
                elif case.startswith("wlc"):
                    blob["stages"][1]["wlc"] = {"alpha": value, "beta": 0.5}
                else:
                    raw = bytearray(base64.b64decode(weights[0]))
                    raw[8:16] = np.array([value], dtype="<f8").tobytes()
                    weights[0] = base64.b64encode(raw).decode()
            elif case == "format_version_2":
                # a version-2 learner's last W^(1) row is a bias
                blob["format_version"] = 2
            elif case == "weights_not_base64":
                weights[0] = "%" + weights[0][1:]
            elif case == "weights_wrong_length":
                weights[0] = weights[0][:-12]  # 9 bytes short
            elif case == "activation_sigmoid":
                learner["activation"] = "sigmoid"
            elif case == "base_normalized":
                blob["base"] = "normalized"
            elif case == "clip_other":
                blob["clip"] = 1e-6
            elif case in FLAGS:
                blob["flags"], zeroed = FLAGS[case]
                for t in zeroed:
                    blob["stages"][t - 1]["weight"] = 0.0
            else:
                _, stage, key, value = UNWRITTEN[case]
                blob["stages"][stage][key] = value
            model.write_text(json.dumps(blob))
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "data error" in err
        if case in NON_FINITE:
            assert NON_FINITE[case][0] in err and "finite" in err
        if case in UNWRITTEN:
            assert UNWRITTEN[case][0] in err
        if case in FLAGS:
            assert f"flags {next(iter(FLAGS[case][0]))!r}" in err
        if case in OUTPUT_WIDTH:
            assert f"stage 1 learner output width {OUTPUT_WIDTH[case]}:" in err
        if case == "weights_not_base64":
            assert ("stage 1 learner weights: Only base64 data is allowed"
                    in err)
        if case == "weights_wrong_length":
            assert ("stage 1 learner weights: a weight of shape "
                    f"{learner['shapes'][0]} needs") in err
        if case == "functional_n_classes_5":
            assert "n_classes 5:" in err

    @pytest.mark.parametrize("n_deg", [10 ** 20, True],
                             ids=["huge", "bool"])
    def test_kta_stage_degree_out_of_range_is_3(self, dataset_dir, tmp_path,
                                                capsys, n_deg):
        # a degree of 10^20 asks for 2^(10^20) products, and true reads as
        # 1: both are refused before any power is taken, and the alarm
        # turns a hang into a failure
        import signal
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, seeds=[0], variant="kta")))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        model = tmp_path / "run" / "seed_0" / "model.json"
        blob = json.loads(model.read_text())
        blob["stages"][2]["aggregator"]["n_deg"] = n_deg
        model.write_text(json.dumps(blob))

        def hang(*_):
            raise TimeoutError("theory did not refuse the degree in 1 s")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(1)
        try:
            code = main(["theory", "--model", str(model),
                         "--data", dataset_dir])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "stage 3 aggregator: n_deg" in err

    def test_trace_flag_is_2(self, dataset_dir, tmp_path, capsys):
        # theory reads no trace, so --trace is an unknown flag
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        model = tmp_path / "run" / "seed_0" / "model.json"
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--model", str(model), "--data", dataset_dir,
                  "--trace", str(tmp_path / "missing.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    @pytest.mark.parametrize("variant,mode", [
        ("adj", "samme"), ("input_injection", "functional")])
    def test_theory_on_data_of_another_width_is_3(self, dataset_dir, tmp_path,
                                                  capsys, variant, mode):
        # without inputs.json only the learners' input width ties the data
        # to the model
        from graphboost.data import load_planetoid
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, seeds=[0], variant=variant, mode=mode)))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        (tmp_path / "run" / "inputs.json").unlink()
        model = tmp_path / "run" / "seed_0" / "model.json"
        assert main(["theory", "--model", str(model),
                     "--data", dataset_dir]) == 0
        ds = load_planetoid(dataset_dir, normalize=False)
        narrow = tmp_path / "narrow"
        export_dataset(replace(ds, features=ds.features[:, :-1]), narrow)
        assert main(["theory", "--model", str(model),
                     "--data", str(narrow)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(model) in err and str(narrow) in err

    def test_theory_on_labels_beyond_the_models_classes_is_3(
            self, dataset_dir, tmp_path, capsys):
        # without inputs.json nothing else ties the data's labels to the
        # classes the model scores
        from graphboost.data import load_planetoid
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        (tmp_path / "run" / "inputs.json").unlink()
        model = tmp_path / "run" / "seed_0" / "model.json"
        ds = load_planetoid(dataset_dir, normalize=False)
        labels = ds.labels.copy()
        labels[ds.split.train[:3]] = 2
        three = tmp_path / "three"
        export_dataset(replace(ds, labels=labels, n_classes=3), three)
        assert main(["theory", "--model", str(model),
                     "--data", str(three)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(model) in err and str(three) in err
        assert not (model.parent / "theory.json").exists()

    @pytest.mark.parametrize("case", ["t_not_integer", "short_row",
                                      "column_missing"])
    def test_curves_on_malformed_trace_is_3(self, dataset_dir, tmp_path,
                                            capsys, case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        trace = tmp_path / "run" / "seed_0" / "trace.csv"
        lines = trace.read_text().splitlines()
        assert lines[1].startswith("1,")
        if case == "t_not_integer":
            lines[1] = "x" + lines[1][1:]
        elif case == "short_row":
            lines[1] = ",".join(lines[1].split(",")[:2])
        else:  # drop the alpha column
            lines = [",".join(f for i, f in enumerate(line.split(","))
                              if i != 5) for line in lines]
            assert "alpha" not in lines[0]
        trace.write_text("\n".join(lines) + "\n")
        assert main(["curves", "--glob", str(trace),
                     "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(trace) in err

    def test_theory_on_other_data_is_3(self, dataset_dir, tmp_path, capsys):
        import shutil
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        other = tmp_path / "other"
        shutil.copytree(dataset_dir, other)
        feat_path = other / "features.tsv"
        x = np.loadtxt(feat_path, delimiter="\t", ndmin=2)
        np.savetxt(feat_path, 2.0 * x, delimiter="\t", fmt="%.17g")
        model = tmp_path / "run" / "seed_0" / "model.json"
        assert main(["theory", "--model", str(model),
                     "--data", str(other)]) == 3
        err = capsys.readouterr().err
        assert "features.tsv is not the file the model was trained on" in err
        assert not (model.parent / "theory.json").exists()

    @pytest.mark.parametrize("blob", [
        lambda d: [base_config(d)],
        lambda d: base_config(d, seeds="abc"),
        lambda d: base_config(d, hidden_width=4.5),
        lambda d: base_config(d, n_rounds=2.5),
        lambda d: base_config(d, hidden_layers=1.0),
        lambda d: base_config(d, variant="kta", n_deg=2.0),
        lambda d: base_config(d, learner={"epochs": 2.5}),
    ], ids=["array", "seeds_string", "hidden_width_float",
            "n_rounds_float", "hidden_layers_float", "n_deg_float",
            "learner_epochs_float"])
    def test_config_type_error_is_2(self, dataset_dir, tmp_path, capsys,
                                    blob):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(blob(dataset_dir)))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        {"kta": {"optimizer": "sgd"}},
        {"kta": {"lr": 0}},
        {"fine_tune": True, "fine_tune_cfg": {"optimizer": "sgd"}},
        {"fine_tune": True, "fine_tune_cfg": {"lr": -1}},
        {"mode": "functional", "delta": -1},
        {"seeds": [True]},
        {"learner": {"weight_decay": -1}},
        {"fine_tune": True, "fine_tune_cfg": {"weight_decay": -1}},
        {"normalize_features": "no"},
        {"fine_tune": "false"},
        {"learner": {"optimizer": "sgd"}},
        {"learner": {"dropout": True}},
        {"learner": {"batch_size": 32}},
        {"learner": {"lr": float("nan")}},
        {"learner": {"weight_decay": float("inf")}},
        {"kta": {"lr": float("inf")}},
        {"fine_tune": True, "fine_tune_cfg": {"lr": float("nan")}},
        {"fine_tune": True, "fine_tune_cfg": {"weight_decay": float("nan")}},
        {"mode": "functional", "delta": float("nan")},
        {"rho": True},
        {"mode": "functional", "delta": True},
        {"learner": {"lr": True}},
        {"fine_tune": True, "fine_tune_cfg": {"weight_decay": True}},
        {"seeds": [0, 0]},
        # delta is no longer a config field: in range or not, it is refused
        # as an unknown field
        {"mode": "functional", "delta": 0.0},
    ], ids=["kta_optimizer", "kta_lr", "fine_tune_optimizer", "fine_tune_lr",
            "delta_negative", "seeds_bool", "learner_weight_decay",
            "fine_tune_weight_decay", "normalize_features_string",
            "fine_tune_string", "learner_optimizer", "learner_dropout",
            "learner_batch_size", "learner_lr_nan",
            "learner_weight_decay_inf", "kta_lr_inf", "fine_tune_lr_nan",
            "fine_tune_weight_decay_nan", "delta_nan", "rho_true",
            "delta_true", "learner_lr_true", "fine_tune_weight_decay_true",
            "seeds_repeated", "delta_retired"])
    def test_config_out_of_range_is_2(self, dataset_dir, tmp_path, capsys,
                                      field):
        # refused when the config loads, before a run directory exists
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, variant="kta", **field)))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [
        "--delta-prime=2", "--delta-prime=0", "--c0=-1", "--delta=-1",
        "--c0=nan", "--c0=inf", "--delta=nan"])
    def test_theory_flag_out_of_range_is_2(self, dataset_dir, tmp_path,
                                           capsys, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, seeds=[0], mode="functional")))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        model = tmp_path / "run" / "seed_0" / "model.json"
        assert main(["theory", "--model", str(model), "--data", dataset_dir,
                     flag]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and flag.split("=")[0] in err
        assert not (model.parent / "theory.json").exists()

    def test_all_rounds_rejected_is_4(self, tmp_path, capsys):
        # constant features on a ring, where every node has the same
        # degree, stay constant through every aggregation; on a balanced
        # train set every SAMME round has weighted error exactly 1/2 and
        # is rejected
        ring = SparseGraph.from_edges(20, [(i, (i + 1) % 20)
                                           for i in range(20)])
        split = Split(train=np.array([0, 1, 2, 3, 10, 11, 12, 13]), val=[],
                      test=np.array([4, 5, 6, 7, 14, 15, 16, 17]))
        flat = NodeDataset(graph=ring, features=np.ones((20, 2)),
                           labels=np.repeat([0, 1], 10), split=split,
                           n_classes=2)
        export_dataset(flat, tmp_path / "flat")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            str(tmp_path / "flat"), seeds=[0], hidden_width=4,
            learner={"epochs": 5})))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_huge_stage_weight_is_4(self, dataset_dir, tmp_path, capsys):
        # a finite weight of 1e308 takes the bound's total to infinity,
        # which strict JSON cannot write; no output file is written
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset_dir, seeds=[0])))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        model = tmp_path / "run" / "seed_0" / "model.json"
        blob = json.loads(model.read_text())
        blob["stages"][1]["weight"] = 1e308
        model.write_text(json.dumps(blob))
        out = tmp_path / "out"
        assert main(["theory", "--model", str(model), "--data", dataset_dir,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numeric failure" in err and "not a finite number" in err
        assert not out.exists()

    def test_functional_run_without_a_weak_learner_is_4(
            self, dataset_dir, tmp_path, capsys):
        # every round failed the weak-learning check: Gamma_T = 0 and the
        # optimization bound is vacuous
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset_dir, seeds=[0], mode="functional")))
        cmd_train(str(cfg_path), str(tmp_path / "run"))
        model = tmp_path / "run" / "seed_0" / "model.json"
        blob = json.loads(model.read_text())
        for stage in blob["stages"][1:]:
            stage["wlc"] = None
        blob["flags"]["wlc_failures"] = list(range(2, len(blob["stages"]) + 1))
        model.write_text(json.dumps(blob))
        assert main(["theory", "--model", str(model),
                     "--data", dataset_dir]) == 4
        err = capsys.readouterr().err
        assert "numeric failure" in err and "vacuous" in err
        assert not (model.parent / "theory.json").exists()


# values for one run-file field: every JSON type, bools, zero, negatives,
# huge and non-finite numbers
ODD_VALUES = (None, True, False, 0, 1, -1, 2.5, -0.5, 10 ** 20, 1e308,
              float("nan"), float("inf"), "", "x", [], [1], {}, {"a": 1})


def json_fields(node, path=()):
    """The path of every value below a JSON object or array, containers
    included."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield path + (key,)
            yield from json_fields(child, path + (key,))


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class Hang(BaseException):
    """Raised by the alarm; no handler of the CLI catches it."""


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(data directory, run directories) of three runs trained on a 20-node
    graph: SAMME on KTA, functional on input injection, SAMME on the fixed
    operator."""
    root = tmp_path_factory.mktemp("runs")
    export_dataset(synthesize_two_block(20, 0.8, 0.1, seed=0), root / "data")
    runs = []
    for variant, mode in (("kta", "samme"), ("input_injection", "functional"),
                          ("adj", "samme")):
        cfg_path = root / f"{variant}.json"
        cfg_path.write_text(json.dumps(base_config(
            str(root / "data"), seeds=[0], variant=variant, mode=mode,
            n_rounds=2, hidden_width=4, learner={"epochs": 3})))
        cmd_train(str(cfg_path), str(root / variant))
        runs.append(root / variant)
    return root / "data", runs


class TestRunFileProperty:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_one_changed_field_exits_with_a_documented_code(self, tiny_runs,
                                                            data):
        # one field of a run's model.json or config.json is set to an odd
        # value or deleted; theory ends with exit 0, 2, 3 or 4, never a
        # traceback, and within the alarm
        data_dir, runs = tiny_runs
        run = data.draw(st.sampled_from(runs))
        model = run / "seed_0" / "model.json"
        path = data.draw(st.sampled_from([model, run / "config.json"]))
        original = path.read_text()
        blob = json.loads(original)
        *parents, key = data.draw(st.sampled_from(list(json_fields(blob))))
        node = blob
        for part in parents:
            node = node[part]
        value = data.draw(st.sampled_from(("delete",) + ODD_VALUES))
        if value == "delete":
            del node[key]
        else:
            node[key] = value
        path.write_text(json.dumps(blob))
        out = run / "out"
        shutil.rmtree(out, ignore_errors=True)

        def hang(*_):
            raise Hang(f"theory took over 10 s with {parents + [key]} = "
                       f"{value!r}")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            code = main(["theory", "--model", str(model), "--data",
                         str(data_dir), "--out", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            path.write_text(original)
        assert code in (0, 2, 3, 4)
        if code == 0:
            # strict JSON: NaN and Infinity are refused
            json.loads((out / "theory.json").read_text(),
                       parse_constant=refuse_constant)
