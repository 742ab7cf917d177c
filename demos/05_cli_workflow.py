#!/usr/bin/env python3
"""The file-based workflow: dataset directory -> train -> theory -> curves.

Everything the command line does is also callable as plain functions, which
is what this script uses; swap in `graphboost train --config ... --out ...`
etc. for the same effect from a shell.
"""

import json
import pathlib
import tempfile

import numpy as np

from graphboost import NodeDataset, Split, export_dataset, synthesize_two_block
from graphboost.cli import cmd_curves, cmd_theory, cmd_train

# the working directory and everything in it go when the block ends
with tempfile.TemporaryDirectory(prefix="graphboost_demo_") as tmp:
    work = pathlib.Path(tmp)
    print(f"working under {work}")

    # a dataset directory in the documented text format
    base = synthesize_two_block(n=60, p_in=0.3, p_out=0.04, seed=5, noise=0.3)
    dataset = NodeDataset(graph=base.graph, features=base.features,
                          labels=base.labels,
                          split=Split(train=np.arange(0, 20),
                                      val=np.arange(20, 30),
                                      test=np.arange(30, 60)),
                          n_classes=2, name="demo")
    data_dir = work / "data"
    export_dataset(dataset, data_dir)
    print("dataset files:", sorted(p.name for p in data_dir.iterdir()))

    # a declarative run config
    config = {
        "dataset": str(data_dir),
        "variant": "kta",
        "hidden_layers": 1,
        "hidden_width": 16,
        "n_rounds": 6,
        "seeds": [0, 1, 2],
        "learner": {"epochs": 40, "lr": 0.01},
        "kta": {"epochs": 10, "lr": 0.01},
        "normalize_features": False,
    }
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))

    run_dir = work / "run"
    aggregate = cmd_train(str(cfg_path), str(run_dir))
    acc = aggregate["test_acc"]
    print(f"\ntrained {aggregate['n_seeds']} seeds: "
          f"test accuracy {acc['mean']:.3f} +- {acc['std']:.3f}")

    report = cmd_theory(str(run_dir / "seed_0" / "model.json"), str(data_dir),
                        out_dir=str(run_dir / "seed_0"))
    gen = report["generalization"]
    print(f"bound report written: total = {gen['total']:.3f} "
          f"(complexity share {gen['complexity']:.3f}), "
          f"spectral trajectory: {report['spectral']}")

    n_rows = cmd_curves(str(run_dir / "seed_*" / "trace.csv"),
                        str(work / "curves.csv"))
    print(f"curves.csv holds {n_rows} long-format rows "
          "(seed, t, metric, value) ready for any plotting tool")
    print("\nrun artifacts:")
    for p in sorted(run_dir.rglob("*")):
        if p.is_file():
            print("  ", p.relative_to(work))
