import json
import os

import numpy as np
import pytest

from graphboost.cli import (ConfigError, cmd_curves, cmd_theory,
                            cmd_train, config_from_dict, config_to_dict,
                            main)
from graphboost.data import NodeDataset, Split, export_dataset, synthesize_two_block


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
        "learner": {"epochs": 15, "seed": 0},
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

    def test_mode_derived_from_variant(self, dataset_dir):
        cfg = config_from_dict(base_config(dataset_dir, variant="samme_r"))
        assert cfg.mode == "samme_r"

    def test_hidden_layers_range(self, dataset_dir):
        with pytest.raises(ConfigError, match="hidden_layers"):
            config_from_dict(base_config(dataset_dir, hidden_layers=5))


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
