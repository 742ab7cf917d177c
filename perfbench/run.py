r"""End-to-end benchmark of graphboost on offline CSBM graphs.

    python3 perfbench/run.py --workload cora-adj --seed 1 --seconds 24 \
        --trace 0

Run from the repository root. The run writes the workload's dataset from
``--seed``, warms every code path once on a short model, then repeats whole
rounds of [setup, train, predict, fine-tune, theory] through the public API,
at least ``MIN_ROUNDS`` and then while one more round's operations fit in
``--seconds``, checking every round's outputs against computations made
here. The last line of standard output is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics from wrapped module functions
with ``--trace 1``. ``--smoke`` runs one round on a graph of a few hundred
nodes with the same checks.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the default thread count used both cores of a
# 2-core machine for no wall-clock gain and widened the spread of timings
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import csbm  # noqa: E402
from graphboost import boost, cli, data  # noqa: E402
from tracer import Tracer  # noqa: E402

# measure the checkout's program, never an installed copy
if not os.path.abspath(cli.__file__).startswith(
        os.path.join(ROOT, "src", "graphboost") + os.sep):
    raise SystemExit(f"graphboost comes from {cli.__file__}, not src/")

WORK = os.path.join(HERE, "_work")

# every end-to-end time is a median over at least this many rounds, and a
# sub-second operation is repeated within a round on top
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    shape: csbm.CsbmShape
    variant: str
    mode: str
    n_rounds: int           # boosting rounds T
    fine_tune_epochs: int
    setup_reps: int         # load_planetoid calls per round
    predict_reps: int       # load_model + predict calls per round
    theory_reps: int        # cmd_theory calls per round

    @property
    def spectral(self):
        """Theory runs the dense spectral report: on the fixed chain only."""
        return self.variant == "adj"

    def config(self, dataset_dir):
        return {"dataset": dataset_dir, "variant": self.variant,
                "mode": self.mode, "n_rounds": self.n_rounds, "seeds": [0]}


# cora-kta skips the spectral report: on the same graph and features it
# would repeat cora-adj's eigendecomposition and bury the polynomial-chain
# power iteration that is particular to KTA
WORKLOADS = {
    "cora-adj": Workload(csbm.CORA, "adj", "samme", n_rounds=3,
                         fine_tune_epochs=2, setup_reps=5, predict_reps=5,
                         theory_reps=1),
    "cora-kta": Workload(csbm.CORA, "kta", "samme", n_rounds=3,
                         fine_tune_epochs=1, setup_reps=5, predict_reps=3,
                         theory_reps=2),
    "pubmed-functional": Workload(csbm.PUBMED, "input_injection",
                                  "functional", n_rounds=2,
                                  fine_tune_epochs=1, setup_reps=2,
                                  predict_reps=3, theory_reps=1),
}

SMOKE_SHAPES = {
    "cora-csbm": replace(csbm.CORA, n=300, c=120, e=600, topic=12,
                         n_val=50, signal=0.3),
    "pubmed-csbm": replace(csbm.PUBMED, n=400, c=60, e=900, topic=8,
                           n_val=50, signal=0.2),
}


def smoke(w: Workload) -> Workload:
    return replace(w, shape=SMOKE_SHAPES[w.shape.name], n_rounds=2,
                   fine_tune_epochs=1, setup_reps=1, predict_reps=1,
                   theory_reps=1)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


class Round:
    """One pass over every operation; times in seconds, outputs for the
    checks."""

    def __init__(self, index, w: Workload, ds_dir, run_dir, cfg_path,
                 eigen_cap):
        self.index, self.w = index, w
        self.ds_dir, self.run_dir = ds_dir, run_dir
        self.cfg_path, self.eigen_cap = cfg_path, eigen_cap
        self.times = {"setup_s": [], "train_s": [], "predict_s": [],
                      "fine_tune_s": [], "theory_s": []}

    def run(self, span):
        w = self.w
        for _ in range(w.setup_reps):
            with span("op.setup"):
                t, dataset = timed(data.load_planetoid, self.ds_dir)
            self.times["setup_s"].append(t)
        self.dataset = dataset
        if os.path.isdir(self.run_dir):
            shutil.rmtree(self.run_dir)
        with span("op.train"):
            t, self.summary = timed(cli.cmd_train, self.cfg_path,
                                    self.run_dir)
        self.times["train_s"].append(t)
        self.model_path = os.path.join(self.run_dir, "seed_0", "model.json")

        def load_predict():
            model = boost.load_model(self.model_path, dataset.graph)
            return model, boost.predict(model, dataset)
        for _ in range(w.predict_reps):
            with span("op.predict"):
                t, (self.model, self.prediction) = timed(load_predict)
            self.times["predict_s"].append(t)

        ft_cfg = boost.FineTuneConfig(epochs=w.fine_tune_epochs)
        with span("op.fine_tune"):
            t, (self.tuned, self.fine_tune_info) = timed(
                boost.fine_tune, self.model, dataset, ft_cfg)
        self.times["fine_tune_s"].append(t)

        for _ in range(w.theory_reps):
            with span("op.theory"):
                t, self.report = timed(cli.cmd_theory, self.model_path,
                                       self.ds_dir, eigen_cap=self.eigen_cap)
            self.times["theory_s"].append(t)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round, same checks")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    # a cap of 0 sends theory down the over-cap path: power iteration only
    eigen_cap = cli.DENSE_EIGEN_CAP if w.spectral else 0

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = os.path.join(WORK, tag)
    os.makedirs(work, exist_ok=True)
    try:
        return bench(args, w, work, eigen_cap)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, w: Workload, work, eigen_cap):
    log = print_err
    log(f"threads: {', '.join(f'{v}={os.environ[v]}' for v in THREAD_ENV)}")
    generated = csbm.generate(w.shape, args.seed)
    ds_dir = os.path.join(work, "dataset")
    csbm.write_dataset(generated, w.shape, ds_dir)

    def write_config(name, workload):
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(workload.config(ds_dir), fh)
        return path

    tracer = Tracer()
    if args.trace:
        tracer.install()

    # warm-up, discarded: every operation once on the full graph with a
    # model of one aggregation stage, and theory kept off the dense
    # eigendecomposition, which alone costs more than the rest. A warm-up
    # on a smaller graph left the allocator unprimed, and the first round's
    # peak memory then moved by up to 11% from seed to seed
    warm_w = replace(w, n_rounds=1 if w.mode == "functional" else 2,
                     fine_tune_epochs=1, setup_reps=1, predict_reps=1,
                     theory_reps=1)
    warm = Round(-1, warm_w, ds_dir, os.path.join(work, "warm"),
                 write_config("warm.json", warm_w), eigen_cap=0)
    t, _ = timed(warm.run, tracer.span)
    log(f"warm-up: {t:.1f} s")

    cfg_path = write_config("config.json", w)
    n_ops = w.setup_reps + w.predict_reps + w.theory_reps + 2
    attempted = failed = 0
    rounds = []
    problems = []
    measured = 0.0   # operation time only; checks do not count
    while True:
        rnd = Round(len(rounds), w, ds_dir, os.path.join(work, "run"),
                    cfg_path, eigen_cap)
        tracer.begin_round(len(rounds))
        attempted += n_ops
        try:
            rnd.run(tracer.span)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            log(f"round {len(rounds)}: operation failed: {exc!r}")
            # the failed operation and the rest of its round
            failed += n_ops - sum(len(v) for v in rnd.times.values())
            tracer.end_round()
            break
        tracer.end_round()
        problems += checks.check_round(rnd, w, generated)
        if not rounds:
            # the high-water mark after one round, so that it does not
            # depend on how many rounds fit in the run
            rnd.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss * 1024 / 1e6)
        rnd.model_sha = sha256(rnd.model_path)
        rounds.append(rnd)
        log(f"round {rnd.index}: " + ", ".join(
            f"{k}={statistics.median(v):.3f}" for k, v in rnd.times.items()))
        last = sum(sum(v) for v in rnd.times.values())
        measured += last
        if args.smoke or (len(rounds) >= MIN_ROUNDS
                          and measured + last > args.seconds):
            break
        # only what the checks across rounds need is kept
        rnd.dataset = rnd.model = rnd.tuned = None

    problems += checks.check_across_rounds(rounds)
    for p in problems:
        log(f"check failed: {p}")
    correct = bool(rounds) and not problems

    if args.trace:
        metrics = tracer.metrics()
        with open(os.path.join(WORK, f"spans-{args.workload}-{args.seed}"
                               ".json"), "w") as fh:
            json.dump({"per_round": tracer.per_round(),
                       "spans": tracer.spans}, fh)
    else:
        metrics = end_to_end(rounds) if rounds else {}
    log(f"rounds: {len(rounds)}, {measured:.1f} s of operations")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(rounds):
    out = {}
    for key in rounds[0].times:
        vals = [t for r in rounds for t in r.times[key]]
        out[key] = {"value": statistics.median(vals), "unit": "s"}
    first = rounds[0]
    out["test_acc"] = {"value": first.test_acc, "unit": "fraction"}
    out["fine_tune_acc"] = {"value": first.fine_tune_acc, "unit": "fraction"}
    out["peak_rss_mb"] = {"value": first.peak_rss_mb, "unit": "MB"}
    out["model_mb"] = {"value": os.path.getsize(first.model_path) / 1e6,
                       "unit": "MB"}
    return out


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def print_err(msg):
    print(msg, file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
