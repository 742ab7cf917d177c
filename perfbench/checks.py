"""Output checks that rest on computations made apart from the program or on
properties the method must have. Each returns a list of problems."""

from __future__ import annotations

import csv
import os

import numpy as np
import scipy.sparse as sp

from graphboost import boost

EXACT = 1e-12
NORM_RTOL = 1e-9
OP_NORM_ATOL = 1e-6


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def augmented_operator(n, edges):
    """D^{-1/2} (A + I) D^{-1/2} built straight from the edge list."""
    i, j = edges[:, 0], edges[:, 1]
    a = sp.coo_matrix((np.ones(2 * len(i)), (np.r_[i, j], np.r_[j, i])),
                      shape=(n, n)).tocsr() + sp.identity(n, format="csr")
    w = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    return sp.diags(w) @ a @ sp.diags(w)


def propagated_norms(generated, t_max):
    """||P^t X||_F for t = 0..t_max, X the L1 row-normalised features."""
    x = generated.features.astype(float)
    rows = x.sum(axis=1, keepdims=True)
    x /= np.where(rows == 0.0, 1.0, rows)
    p = augmented_operator(len(generated.labels), generated.edges)
    norms = [float(np.linalg.norm(x))]
    for _ in range(t_max):
        x = p @ x
        norms.append(float(np.linalg.norm(x)))
    return norms


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_round(rnd, w, generated):
    """Checks on one round; sets ``rnd.test_acc`` and, on the first round,
    ``rnd.fine_tune_acc``."""
    problems = []
    y = generated.labels
    train, test = generated.train, generated.test
    scores, classes = rnd.prediction
    seed_dir = os.path.join(rnd.run_dir, "seed_0")
    n_stages = w.n_rounds + (1 if w.mode == "functional" else 0)

    # accuracy recomputed from predict against the generator's labels
    rnd.test_acc = float(np.mean(classes[test] == y[test]))
    reported = rnd.summary["per_seed"][0]["test_acc"]
    if not close(rnd.test_acc, reported, EXACT):
        problems.append(f"test_acc {rnd.test_acc} != summary {reported}")
    majority = np.bincount(y[test]).max() / len(test)
    if rnd.test_acc <= majority:
        problems.append(f"test_acc {rnd.test_acc} <= majority {majority}")

    # the trace has one row per stage; predict reproduces the row the model
    # predicts from: the last for SAMME, t* for functional
    trace = read_trace(os.path.join(seed_dir, "trace.csv"))
    if len(trace) != n_stages or len(rnd.model.stages) != n_stages:
        problems.append(f"{len(trace)} trace rows, {len(rnd.model.stages)} "
                        f"stages, expected {n_stages}")
    t_row = rnd.model.t_star if w.mode == "functional" else n_stages
    row = next((r for r in trace if int(r["t"]) == t_row), None)
    if row is None:
        problems.append(f"trace has no row t={t_row}")
    else:
        for name, ids in (("train_err", train), ("test_err", test)):
            err = float(np.mean(classes[ids] != y[ids]))
            if not close(err, float(row[name]), EXACT):
                problems.append(f"{name}: predict {err} != trace {row[name]}")

    report = rnd.report
    gen = report["generalization"]
    addends = (gen["train_err"] + gen["complexity"] + gen["partition_slack"]
               + gen["confidence"])
    if not close(gen["total"], addends, EXACT):
        problems.append(f"generalisation total {gen['total']} != {addends}")

    spectral_csv = os.path.join(seed_dir, "spectral.csv")
    if w.spectral != os.path.exists(spectral_csv):
        problems.append(f"spectral.csv present={w.spectral} expected")

    if w.spectral:
        problems += _check_fixed_chain(report, generated, spectral_csv)
    if w.mode == "functional":
        problems += _check_optimisation(report, trace, scores, y, train)

    problems += _check_fine_tune(rnd, w, generated)
    return problems


def _check_fixed_chain(report, generated, spectral_csv):
    problems = []
    with open(spectral_csv, newline="") as fh:
        frob = [float(r["frob_direct"]) for r in csv.DictReader(fh)]
    entries = report["complexity"]
    norms = propagated_norms(generated, max(len(frob), len(entries)) - 1)
    for e in entries:
        t = e["t"] - 1
        if not close(e["px_frobenius"], norms[t], NORM_RTOL):
            problems.append(f"px_frobenius t={e['t']}: {e['px_frobenius']} "
                            f"!= {norms[t]}")
        if abs(e["op_norm"] - 1.0) > OP_NORM_ATOL:
            problems.append(f"op_norm of P^{t} is {e['op_norm']}, not 1")
    for t, value in enumerate(frob):
        if not close(value, norms[t], NORM_RTOL):
            problems.append(f"frob_direct t={t}: {value} != {norms[t]}")
    return problems


def _check_optimisation(report, trace, scores, y, train):
    """Realised margin error of the predicted scores against
    (1 + e^0) L(1) / (2 M Gamma_T), both taken here from predict and the
    trace."""
    opt = report["optimization"]
    if not opt["guaranteed"]:
        return []
    gamma_total = sum(float(r["gamma"]) for r in trace if int(r["t"]) >= 2)
    rhs = float(trace[0]["train_loss"]) / (len(train) * gamma_total)
    realised = float(np.mean(scores[train] * (2.0 * y[train] - 1.0) < 0.0))
    if not realised <= rhs:
        return [f"optimisation bound fails: {realised} > {rhs}"]
    if not close(rhs, opt["rhs"], NORM_RTOL):
        return [f"optimisation rhs {opt['rhs']} != {rhs}"]
    return []


def _check_fine_tune(rnd, w, generated):
    """Fine-tune did not diverge and, on the functional workload, moved the
    weights; on the first round, the errors it reports are those its models
    predict, and the tuned model predicts the same from memory and from its
    saved JSON.

    SAMME models are exempt from the move: their learners fit the train
    nodes exactly, every stage weight sits at its clip, and the softened
    train loss is saturated, with gradients of 1e-25 and below that leave
    Adam's steps at zero."""
    tuned, info = rnd.tuned, rnd.fine_tune_info
    problems = []
    if tuned.flags.get("fine_tune_diverged"):
        problems.append("fine-tune diverged")
    moved = any(not np.array_equal(a, b)
                for before, after in zip(rnd.model.stages, tuned.stages)
                if before.learner
                for a, b in zip(before.learner.weights,
                                after.learner.weights))
    if w.mode == "functional" and not moved:
        problems.append("fine-tune left every learner weight unchanged")
    if rnd.index != 0:
        return problems

    y = generated.labels
    scores, classes = boost.predict(tuned, rnd.dataset)
    rnd.fine_tune_acc = float(np.mean(classes[generated.test]
                                      == y[generated.test]))
    for name, ids in (("train_err", generated.train),
                      ("val_err", generated.val)):
        errs = tuple(float(np.mean(c[ids] != y[ids]))
                     for c in (rnd.prediction[1], classes))
        if errs != tuple(info[name]):
            problems.append(f"fine-tune {name} {info[name]} != predicted "
                            f"{errs}")

    path = os.path.join(rnd.run_dir, "tuned.json")
    boost.save_model(tuned, path)
    reloaded = boost.predict(boost.load_model(path, rnd.dataset.graph),
                             rnd.dataset)
    if not (np.array_equal(scores, reloaded[0])
            and np.array_equal(classes, reloaded[1])):
        problems.append("reloaded fine-tuned model predicts differently")
    return problems


def check_across_rounds(rounds):
    """Same config and seed give byte-identical models every round."""
    problems = []
    for r in rounds[1:]:
        if r.model_sha != rounds[0].model_sha:
            problems.append(f"round {r.index}: model.json differs")
        if r.test_acc != rounds[0].test_acc:
            problems.append(f"round {r.index}: test_acc differs")
    return problems
