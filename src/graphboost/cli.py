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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .aggregate import AlignmentConfig
from .boost import (AggregatorSpec, FineTuneConfig, FunctionalGBConfig,
                    SammeConfig, fine_tune, load_model, predict,
                    read_trace_csv, run_functional_gb, run_samme,
                    run_samme_r, save_model, write_trace_csv)
from .data import DataError, load_planetoid
from .graph import (DENSE_EIGEN_CAP, ConvergenceError, augmented_adjacency,
                    normalized_adjacency)
from .mlp import TrainConfig, TrainingDiverged
from .theory import NumericalError, build_theory_report, smoothing_report

VARIANTS = ("adj", "kta", "input_injection", "samme_r")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: str = ""
    dataset_name: str = ""
    variant: str = "adj"
    mode: str = ""                  # samme | samme_r | functional; derived
    hidden_layers: int = 1          # 0..4 hidden layers
    hidden_width: int = 64
    base: str = "augmented"
    n_rounds: int = 100
    rho: float = 0.5
    n_deg: int = 3
    delta: float = 0.0
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
        if not self.mode:
            self.mode = "samme_r" if self.variant == "samme_r" else "samme"
        if self.mode not in ("samme", "samme_r", "functional"):
            raise ConfigError(f"mode: unknown boosting mode '{self.mode}'")
        if not 0 <= self.hidden_layers <= 4:
            raise ConfigError("hidden_layers: must be in 0..4")
        if self.base not in ("augmented", "normalized"):
            raise ConfigError(f"base: unknown operator '{self.base}'")
        if self.n_rounds < 1:
            raise ConfigError("n_rounds: must be >= 1")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")

    @property
    def hidden(self):
        return (self.hidden_width,) * self.hidden_layers

    def aggregator_spec(self):
        kind = {"adj": "fixed", "kta": "kta",
                "input_injection": "input_injection",
                "samme_r": "fixed"}[self.variant]
        return AggregatorSpec(kind=kind, base=self.base, rho=self.rho,
                              n_deg=self.n_deg, alignment=self.kta)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def config_from_dict(blob: dict) -> ExperimentConfig:
    blob = dict(blob)
    try:
        for key, cls in (("learner", TrainConfig), ("kta", AlignmentConfig),
                         ("fine_tune_cfg", FineTuneConfig)):
            if key in blob and isinstance(blob[key], dict):
                blob[key] = cls(**blob[key])
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


def run_single_seed(cfg: ExperimentConfig, seed: int, out_dir: str) -> dict:
    """Train one model; write model.json, trace.csv, summary.json."""
    dataset = load_planetoid(cfg.dataset, name=cfg.dataset_name,
                             normalize=cfg.normalize_features)
    spec = cfg.aggregator_spec()
    if cfg.mode == "functional":
        run_cfg = FunctionalGBConfig(
            n_rounds=cfg.n_rounds, hidden=cfg.hidden, learner=cfg.learner,
            aggregator=spec, delta=cfg.delta, seed=seed)
        model, trace = run_functional_gb(dataset, run_cfg)
    else:
        run_cfg = SammeConfig(n_rounds=cfg.n_rounds, hidden=cfg.hidden,
                              learner=cfg.learner, aggregator=spec,
                              seed=seed)
        runner = run_samme_r if cfg.mode == "samme_r" else run_samme
        model, trace = runner(dataset, run_cfg)
    if cfg.fine_tune:
        model, _ = fine_tune(model, dataset, cfg.fine_tune_cfg)

    os.makedirs(out_dir, exist_ok=True)
    save_model(model, os.path.join(out_dir, "model.json"))
    write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))

    _, classes = predict(model, dataset)
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


def cmd_train(config_path, out_root, jobs=1):
    cfg = load_config(config_path)
    if not os.path.isdir(cfg.dataset):
        raise DataError(f"dataset directory not found: {cfg.dataset}")
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "config.json"), "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=1)
    with open(os.path.join(out_root, "inputs.json"), "w") as fh:
        json.dump(_dataset_hashes(cfg.dataset), fh, indent=1)

    seed_dirs = [os.path.join(out_root, f"seed_{s}") for s in cfg.seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(run_single_seed,
                                      [cfg] * len(cfg.seeds), cfg.seeds,
                                      seed_dirs))
    else:
        summaries = [run_single_seed(cfg, s, d)
                     for s, d in zip(cfg.seeds, seed_dirs)]

    def agg(key):
        vals = [s[key] for s in summaries if s[key] is not None]
        if not vals:
            return None
        return {"mean": float(np.mean(vals)),
                "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0}

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
               delta=0.0, trace_path=None, eigen_cap=DENSE_EIGEN_CAP):
    out_dir = out_dir or os.path.dirname(os.path.abspath(model_path))
    # bounds are computed on the features the model was trained on: the
    # run's config.json sits one level above seed_<s>/model.json
    cfg_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(model_path))), "config.json")
    normalize = (load_config(cfg_path).normalize_features
                 if os.path.exists(cfg_path) else True)
    dataset = load_planetoid(data_dir, normalize=normalize)
    model = load_model(model_path, dataset.graph)
    trace_path = trace_path or os.path.join(os.path.dirname(model_path),
                                            "trace.csv")
    trace = read_trace_csv(trace_path)
    report = build_theory_report(model, trace, dataset, c0=c0,
                                 delta_prime=delta_prime, delta=delta)

    operator = (augmented_adjacency(dataset.graph)
                if model.base == "augmented"
                else normalized_adjacency(dataset.graph))
    if dataset.n <= eigen_cap:
        trajectory = smoothing_report(operator, dataset.features,
                                      t_max=min(32, 2 * len(model.stages)),
                                      cap=eigen_cap)
        trajectory.write_csv(os.path.join(out_dir, "spectral.csv"))
        report["spectral"] = "written"
    else:
        report["spectral"] = f"skipped: N={dataset.n} over eigen cap"

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "theory.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def cmd_curves(pattern, out_path):
    """Merge trace CSVs into one long-format table (seed, t, metric, value)
    with per-(t, metric) mean/std rows appended under pseudo-seeds."""
    paths = sorted(globmod.glob(pattern))
    if not paths:
        raise DataError(f"no trace files match {pattern}")
    metrics = ("train_loss", "train_err", "test_err", "cos_theta", "alpha",
               "beta", "gamma", "grad_l1")
    rows = []
    by_key = {}
    for path in paths:
        seed = os.path.basename(os.path.dirname(path)) or path
        for row in read_trace_csv(path):
            for metric in metrics:
                val = row[metric]
                rows.append((seed, row["t"], metric, val))
                if np.isfinite(val):
                    by_key.setdefault((row["t"], metric), []).append(val)
    for (t, metric), vals in sorted(by_key.items()):
        rows.append(("mean", t, metric, float(np.mean(vals))))
        rows.append(("std", t, metric,
                     float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0))
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
    p_train.add_argument("--jobs", type=int, default=1)

    p_theory = sub.add_parser("theory", help="bound report for a run")
    p_theory.add_argument("--model", required=True)
    p_theory.add_argument("--data", required=True)
    p_theory.add_argument("--out", default=None)
    p_theory.add_argument("--trace", default=None)
    p_theory.add_argument("--c0", type=float, default=1.0)
    p_theory.add_argument("--delta-prime", type=float, default=0.05)
    p_theory.add_argument("--delta", type=float, default=0.0)

    p_curves = sub.add_parser("curves", help="merge traces for plotting")
    p_curves.add_argument("--glob", required=True)
    p_curves.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            cmd_train(args.config, args.out, jobs=args.jobs)
        elif args.command == "theory":
            cmd_theory(args.model, args.data, out_dir=args.out,
                       c0=args.c0, delta_prime=args.delta_prime,
                       delta=args.delta, trace_path=args.trace)
        elif args.command == "curves":
            cmd_curves(args.glob, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, TrainingDiverged, ConvergenceError,
            FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
