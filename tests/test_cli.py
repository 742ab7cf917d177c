import base64
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from graphboost.cli import (ConfigError, cmd_curves, cmd_theory,
                            cmd_train, config_from_dict, config_to_dict,
                            main)
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
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert config_to_dict(again) == config_to_dict(cfg)

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
        ("rho", {"rho": True}), ("delta", {"delta": False}),
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

    def test_parallel_jobs_match_sequential(self, dataset_dir, tmp_path):
        for name, jobs in (("seq", 1), ("par", 2)):
            cfg_path = tmp_path / f"cfg_{name}.json"
            cfg_path.write_text(json.dumps(base_config(dataset_dir,
                                                       seeds=[0, 1])))
            cmd_train(str(cfg_path), str(tmp_path / name), jobs=jobs)
        a = (tmp_path / "seq" / "seed_0" / "trace.csv").read_bytes()
        b = (tmp_path / "par" / "seed_0" / "trace.csv").read_bytes()
        assert a == b


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
            "ValueError: model format_version None: only 2 is read\n")

        run_cfg = tmp_path / "run" / "config.json"
        current = json.loads(run_cfg.read_text())
        for name, value in (("dataset_name", "toy"), ("learner.seed", 0),
                            ("fine_tune_cfg.momentum", 0.9),
                            ("kta.optimizer", "adam"), ("base", "augmented")):
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
    "flags_list": {"flags": []}}
# model.json values that are not finite: case -> (the stage and field the
# error names, value)
NON_FINITE = {
    "kta_weight_nan": ("stage 2 aggregator weights", float("nan")),
    "kta_weight_inf": ("stage 2 aggregator weights", float("inf")),
    "learner_weight_nan": ("stage 1 learner weights", float("nan")),
    "wlc_alpha_inf": ("stage 2 wlc", float("inf"))}


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
        {"hidden_width": 0},
    ], ids=["rho", "n_deg", "hidden_width"])
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
        "meta_count_string", "split_ids_float", "split_ids_bool"])
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
        "format_version_3", "weights_not_base64", "weights_wrong_length",
        "activation_sigmoid", "bias_false", "base_normalized", "clip_other",
        "weight_x", "first_stage_aggregator", "later_stage_aggregator_null",
        "shapes_unchained", *HEADER_EDITS, *NON_FINITE])
    def test_unreadable_run_file_is_3(self, dataset_dir, tmp_path, capsys,
                                      case):
        # t* is a functional model's field, and aggregator weights a KTA
        # model's
        mode = "functional" if case.startswith("t_star") else "samme"
        variant = "kta" if case.startswith("kta") else "adj"
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
            elif case == "format_version_3":
                blob["format_version"] = 3
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
            else:
                learner["bias"] = False
            model.write_text(json.dumps(blob))
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "data error" in err
        if case in NON_FINITE:
            assert NON_FINITE[case][0] in err and "finite" in err

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
    ], ids=["kta_optimizer", "kta_lr", "fine_tune_optimizer", "fine_tune_lr",
            "delta_negative", "seeds_bool", "learner_weight_decay",
            "fine_tune_weight_decay", "normalize_features_string",
            "fine_tune_string", "learner_optimizer", "learner_dropout",
            "learner_batch_size", "learner_lr_nan",
            "learner_weight_decay_inf", "kta_lr_inf", "fine_tune_lr_nan",
            "fine_tune_weight_decay_nan", "delta_nan", "rho_true",
            "delta_true", "learner_lr_true", "fine_tune_weight_decay_true",
            "seeds_repeated"])
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
