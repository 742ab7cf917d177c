"""Experiment runner: `graphboost train|theory|curves`.

Runs are driven by a declarative JSON config; every run directory is
self-describing (config copy plus content hashes of the dataset files).
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import glob as globmod
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .aggregate import MAX_N_DEG, AlignmentConfig
from .boost import (TRACE_COLUMNS, AggregatorSpec, AllRoundsRejected,
                    BoostConfig, FineTuneConfig, _is_number, fine_tune,
                    load_model, predict, read_trace_csv, run_functional_gb,
                    run_samme, save_model, write_trace_csv)
from .data import DataError, load_planetoid, read_file
from .graph import DENSE_EIGEN_CAP, base_operator
from .losses import class_ids
from .mlp import TrainConfig, TrainingDiverged
from .theory import NumericalError, build_theory_report, smoothing_report

VARIANTS = ("adj", "kta", "input_injection")


class ConfigError(ValueError):
    pass


def _require_types(cls, values, prefix=""):
    """A name that is no field of dataclass ``cls``, a float or bool in a
    field annotated ``int``, a bool or non-number in one annotated
    ``float``, or anything but true or false in one annotated ``bool``, is
    a ConfigError; ``values`` maps field names to values (the config
    modules keep annotations as strings)."""
    types = {f.name: f.type for f in fields(cls)}
    for name, value in values.items():
        if name not in types:
            raise ConfigError(f"{prefix}{name}: unknown field")
        kind = types[name]
        if kind == "bool" and not isinstance(value, bool):
            raise ConfigError(
                f"{prefix}{name}: must be true or false, got {value!r}")
        if kind == "int" and not _is_number(value, numbers.Integral):
            raise ConfigError(
                f"{prefix}{name}: must be an integer, got {value!r}")
        if kind == "float" and not _is_number(value):
            raise ConfigError(
                f"{prefix}{name}: must be a number, got {value!r}")


@dataclass
class ExperimentConfig:
    dataset: str = ""
    variant: str = "adj"
    mode: str = "samme"             # samme | functional
    hidden_layers: int = 1          # 0..4 hidden layers
    hidden_width: int = 64
    n_rounds: int = 100
    rho: float = 0.5
    n_deg: int = 3
    seeds: list = field(default_factory=lambda: [0])
    learner: TrainConfig = field(default_factory=TrainConfig)
    kta: AlignmentConfig = field(default_factory=AlignmentConfig)
    fine_tune: bool = False
    fine_tune_cfg: FineTuneConfig = field(default_factory=FineTuneConfig)
    normalize_features: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant: '{self.variant}' not one of {VARIANTS}")
        if self.mode not in ("samme", "functional"):
            raise ConfigError(f"mode: unknown boosting mode '{self.mode}'")
        if not 0 <= self.hidden_layers <= 4:
            raise ConfigError("hidden_layers: must be in 0..4")
        if self.hidden_width < 1:
            raise ConfigError("hidden_width: must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho: must lie in [0, 1]")
        if not 0 <= self.n_deg <= MAX_N_DEG:
            raise ConfigError(f"n_deg: must be in 0..{MAX_N_DEG}")
        if self.n_rounds < 1:
            raise ConfigError("n_rounds: must be >= 1")
        if not (isinstance(self.seeds, list) and self.seeds and all(
                _is_number(s, numbers.Integral) and s >= 0
                for s in self.seeds)):
            raise ConfigError(
                "seeds: need a non-empty list of non-negative integers")
        if len(set(self.seeds)) < len(self.seeds):
            # each seed trains into its own seed_<s> directory
            raise ConfigError(f"seeds: repeated seed in {self.seeds}")

    @property
    def hidden(self):
        return (self.hidden_width,) * self.hidden_layers


def config_from_dict(blob: dict) -> ExperimentConfig:
    if not isinstance(blob, dict):
        raise ConfigError("a config is a JSON object")
    blob = dict(blob)
    # typed before built, since every __post_init__ compares numbers
    try:
        for key, cls in (("learner", TrainConfig), ("kta", AlignmentConfig),
                         ("fine_tune_cfg", FineTuneConfig)):
            if key in blob:
                if not isinstance(blob[key], dict):
                    raise ConfigError(f"{key}: must be a JSON object")
                _require_types(cls, blob[key], f"{key}.")
                blob[key] = cls(**blob[key])
        _require_types(ExperimentConfig, blob)
        return ExperimentConfig(**blob)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(blob)


def _git_blob_sha1(path):
    with open(path, "rb") as fh:
        content = fh.read()
    h = hashlib.sha1()
    h.update(f"blob {len(content)}\0".encode())
    h.update(content)
    return h.hexdigest()


def _dataset_hashes(directory):
    out = {}
    for fname in sorted(os.listdir(directory)):
        full = os.path.join(directory, fname)
        if os.path.isfile(full):
            out[fname] = _git_blob_sha1(full)
    return out


def run_single_seed(cfg: ExperimentConfig, dataset, seed: int,
                    out_dir: str) -> dict:
    """Train one model on ``dataset``, which no step writes into; write
    model.json, trace.csv, summary.json. The summary's classes come from
    the driver's score, or, after fine-tuning, from the tuned model's
    ``predict``."""
    # every variant names its aggregator kind except adj, the fixed one
    spec = AggregatorSpec(kind={"adj": "fixed"}.get(cfg.variant, cfg.variant),
                          rho=cfg.rho, n_deg=cfg.n_deg, alignment=cfg.kta)
    runner = run_functional_gb if cfg.mode == "functional" else run_samme
    model, trace, score = runner(dataset, BoostConfig(
        n_rounds=cfg.n_rounds, hidden=cfg.hidden, learner=cfg.learner,
        aggregator=spec, seed=seed))
    if cfg.fine_tune:
        model, _ = fine_tune(model, dataset, cfg.fine_tune_cfg)
        score, _ = predict(model, dataset)

    os.makedirs(out_dir, exist_ok=True)
    save_model(model, os.path.join(out_dir, "model.json"))
    write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))

    classes = class_ids(score)
    y = dataset.labels
    sp = dataset.split
    summary = {
        "seed": seed,
        "train_acc": float(np.mean(classes[sp.train] == y[sp.train])),
        "val_acc": (float(np.mean(classes[sp.val] == y[sp.val]))
                    if len(sp.val) else None),
        "test_acc": float(np.mean(classes[sp.test] == y[sp.test])),
        "t_star": model.t_star,
        "n_stages": len(model.stages),
        "flags": model.flags,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def _mean_std(vals):
    """{"mean", "std"} of ``vals``: the std is the sample std (ddof=1), and
    0.0 for one value."""
    return {"mean": float(np.mean(vals)),
            "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0}


def cmd_train(config_path, out_root):
    cfg = load_config(config_path)
    if not os.path.isdir(cfg.dataset):
        raise DataError(f"dataset directory not found: {cfg.dataset}")
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "config.json"), "w") as fh:
        json.dump(asdict(cfg), fh, indent=1)
    with open(os.path.join(out_root, "inputs.json"), "w") as fh:
        json.dump(_dataset_hashes(cfg.dataset), fh, indent=1)

    dataset = load_planetoid(cfg.dataset, normalize=cfg.normalize_features)
    summaries = [run_single_seed(cfg, dataset, s,
                                 os.path.join(out_root, f"seed_{s}"))
                 for s in cfg.seeds]

    def agg(key):
        vals = [s[key] for s in summaries if s[key] is not None]
        return _mean_std(vals) if vals else None

    aggregate = {
        "n_seeds": len(summaries),
        "train_acc": agg("train_acc"),
        "val_acc": agg("val_acc"),
        "test_acc": agg("test_acc"),
        "per_seed": summaries,
    }
    with open(os.path.join(out_root, "summary.json"), "w") as fh:
        json.dump(aggregate, fh, indent=1)
    return aggregate


def cmd_theory(model_path, data_dir, out_dir=None, c0=1.0, delta_prime=0.05,
               delta=0.0, eigen_cap=DENSE_EIGEN_CAP):
    # checked before any file is read: the bounds refuse these values only
    # after the whole report has been computed
    if not 0.0 < delta_prime < 1.0:
        raise ConfigError(f"--delta-prime: must lie in (0, 1), got "
                          f"{delta_prime}")
    if not all(math.isfinite(v) and v >= 0.0 for v in (c0, delta)):
        raise ConfigError(f"--c0, --delta: must be finite and >= 0, got "
                          f"{c0}, {delta}")
    out_dir = out_dir or os.path.dirname(os.path.abspath(model_path))
    # bounds are computed on the data and features the model was trained
    # on: the run's config.json and inputs.json sit one level above
    # seed_<s>/model.json
    run_dir = os.path.dirname(os.path.dirname(os.path.abspath(model_path)))
    cfg_path = os.path.join(run_dir, "config.json")
    if os.path.exists(cfg_path):
        normalize = load_config(cfg_path).normalize_features
    else:
        normalize = True
        print(f"theory: no config.json at {cfg_path}; loading the data "
              "with normalize_features=true", file=sys.stderr)
    dataset = load_planetoid(data_dir, normalize=normalize)
    inputs_path = os.path.join(run_dir, "inputs.json")
    if os.path.exists(inputs_path):
        recorded = read_file(inputs_path)
        if not isinstance(recorded, dict):
            raise DataError(f"{inputs_path} is not a JSON object")
        found = _dataset_hashes(data_dir)
        for fname in sorted(set(recorded) | set(found)):
            if recorded.get(fname) != found.get(fname):
                raise DataError(
                    f"{os.path.join(data_dir, fname)} is not the file the "
                    f"model was trained on (see {inputs_path})")
    # one operator serves the model's aggregators and the spectral report
    operator = base_operator(dataset.graph)
    model = read_file(model_path, load_model, graph=dataset.graph,
                      operator=operator)
    # without inputs.json nothing above ties the data to the model, so
    # check that its learners can read the data's features and that it
    # scores every class the train and test labels name
    width = dataset.features.shape[1] * (
        2 if model.aggregator_kind == "input_injection" else 1)
    for stage in model.stages:
        if stage.learner.weights[0].shape[0] != width:
            raise DataError(
                f"{model_path} has learners that read "
                f"{stage.learner.weights[0].shape[0]} input columns, "
                f"but the features in {data_dir} give {width}")
    split = dataset.split
    top = int(dataset.labels[np.concatenate([split.train, split.test])].max())
    if top >= model.n_classes:
        raise DataError(
            f"{model_path} scores {model.n_classes} classes, but the train "
            f"or test labels in {data_dir} reach {top}")
    # the spectral report holds a few N x C arrays at a time (the features,
    # one power, its projection onto the top eigenspace and their
    # difference); a graph over eigen_cap nodes skips it
    trajectory = None
    if dataset.n <= eigen_cap:
        trajectory = smoothing_report(
            operator, dataset.features,
            t_max=min(32, 2 * len(model.stages)))
    report = build_theory_report(model, dataset, c0=c0,
                                 delta_prime=delta_prime, delta=delta)

    report["spectral"] = ("written" if trajectory is not None
                          else f"skipped: N={dataset.n} over eigen cap")
    # strict JSON, checked before either file is written
    try:
        text = json.dumps(report, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"theory.json would hold a value that is not "
                             f"a finite number: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    if trajectory is not None:
        trajectory.write_csv(os.path.join(out_dir, "spectral.csv"))
    with open(os.path.join(out_dir, "theory.json"), "w") as fh:
        fh.write(text)
    return report


def cmd_curves(pattern, out_path):
    """Merge trace CSVs into one long-format table (seed, t, metric, value)
    with per-(t, metric) mean/std rows appended under pseudo-seeds."""
    paths = sorted(globmod.glob(pattern))
    if not paths:
        raise DataError(f"no trace files match {pattern}")
    metrics = [c for c in TRACE_COLUMNS if c not in ("t", "wlc_pass")]
    rows = []
    by_key = {}
    for path in paths:
        seed = os.path.basename(os.path.dirname(path)) or path
        for row in read_file(path, read_trace_csv):
            for metric in metrics:
                val = row[metric]
                rows.append((seed, row["t"], metric, val))
                if np.isfinite(val):
                    by_key.setdefault((row["t"], metric), []).append(val)
    for (t, metric), vals in sorted(by_key.items()):
        rows += [(stat, t, metric, val)
                 for stat, val in _mean_std(vals).items()]
    with open(out_path, "w") as fh:
        fh.write("seed,t,metric,value\n")
        for seed, t, metric, val in rows:
            fh.write(f"{seed},{t},{metric},{val!r}\n")
    return len(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="graphboost")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a boosting experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)

    p_theory = sub.add_parser("theory", help="bound report for a run")
    p_theory.add_argument("--model", required=True)
    p_theory.add_argument("--data", required=True)
    p_theory.add_argument("--out", default=None)
    p_theory.add_argument("--c0", type=float, default=1.0)
    p_theory.add_argument("--delta-prime", type=float, default=0.05)
    p_theory.add_argument("--delta", type=float, default=0.0)

    p_curves = sub.add_parser("curves", help="merge traces for plotting")
    p_curves.add_argument("--glob", required=True)
    p_curves.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            cmd_train(args.config, args.out)
        elif args.command == "theory":
            cmd_theory(args.model, args.data, out_dir=args.out,
                       c0=args.c0, delta_prime=args.delta_prime,
                       delta=args.delta)
        elif args.command == "curves":
            cmd_curves(args.glob, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, TrainingDiverged, AllRoundsRejected,
            ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
