"""Dataset ingestion, the optimizer, the training loop, and evaluation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import (BadHeaderError, BadLabelError, EmptySetError,
                     LengthMismatchError, NonFiniteLossError)
from .fol import FolGraph
from .kernel import (Model, backward, clone_model, cross_entropy, forward)

LABEL_SETS = {
    "favor-against-none": ["Favor", "Against", "None"],
    "pro-con-neutral": ["Pro", "Con", "Neutral"],
}


@dataclass
class LabeledExample:
    text: str
    target: str
    label: str
    rationale: str = ""
    graph: Optional[FolGraph] = None
    llm_stance: Optional[str] = None


def load_dataset(path: str, label_set: list[str]) -> list[LabeledExample]:
    """CSV with header text,target,label; labels validated against label_set."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BadHeaderError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header[:3]] != ["text", "target", "label"]:
            raise BadHeaderError(f"{path}: expected header text,target,label, got {header}")
        examples = []
        for row_idx, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise BadHeaderError(f"{path}: row {row_idx} has {len(row)} fields")
            text, target, label = row[0], row[1], row[2].strip()
            if label not in label_set:
                raise BadLabelError(row_idx, label)
            examples.append(LabeledExample(text=text, target=target, label=label))
    return examples


def load_graph_records(path: str, label_set: list[str]) -> list[LabeledExample]:
    """Newline-JSON records produced by the generate-fol stage."""
    examples = []
    with open(path, encoding="utf-8") as fh:
        for row_idx, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            label = record["label"]
            if label not in label_set:
                raise BadLabelError(row_idx, label)
            examples.append(LabeledExample(
                text=record["text"], target=record["target"], label=label,
                rationale=record.get("rationale", ""),
                graph=FolGraph.from_dict(record["graph"]),
                llm_stance=record.get("llm_stance")))
    return examples


# ---------------------------------------------------------------------------
# Optimizer (decoupled weight decay)

@dataclass
class AdamW:
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1 ** t)
            v_hat = self.v[name] / (1 - self.beta2 ** t)
            p -= self.learning_rate * (m_hat / (np.sqrt(v_hat) + self.eps)
                                       + self.weight_decay * p)


# ---------------------------------------------------------------------------
# Metrics

def _confusion_f1(preds: list[str], golds: list[str], label: str) -> float:
    tp = sum(1 for p, y in zip(preds, golds) if p == label and y == label)
    fp = sum(1 for p, y in zip(preds, golds) if p == label and y != label)
    fn = sum(1 for p, y in zip(preds, golds) if p != label and y == label)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def macro_f1(preds: list[str], golds: list[str], mode: str,
             label_set: list[str]) -> dict:
    """mode 'favor_against_only' averages the first two (polar) classes;
    'all_classes' averages all and reports the polar classes individually."""
    if len(preds) != len(golds):
        raise LengthMismatchError(f"{len(preds)} preds vs {len(golds)} golds")
    per_class = {label: _confusion_f1(preds, golds, label) for label in label_set}
    absent = [label for label in label_set
              if label not in golds and label not in preds]
    polar = label_set[:2]
    if mode == "favor_against_only":
        score = sum(per_class[c] for c in polar) / 2
    elif mode == "all_classes":
        score = sum(per_class.values()) / len(label_set)
    else:
        raise ValueError(f"unknown macro_f1 mode {mode!r}")
    return {
        "mode": mode,
        "per_class_f1": per_class,
        "f_avg": score,
        "polar_f1": {c: per_class[c] for c in polar},
        "absent_classes": absent,
    }


# ---------------------------------------------------------------------------
# Training loop

@dataclass
class TrainResult:
    model: Model
    log: list[dict]
    best_val_loss: float
    epochs_run: float


def _batch_loss_and_grads(model: Model, batch: list[LabeledExample]) -> tuple[float, dict, int]:
    grads = model.zero_grads()
    total = 0.0
    correct = 0
    label_index = {label: i for i, label in enumerate(model.labels)}
    for ex in batch:
        cache = forward(ex.graph, model)
        gold = label_index[ex.label]
        total += cross_entropy(cache.probabilities, gold)
        if int(np.argmax(cache.probabilities)) == gold:
            correct += 1
        ex_grads = backward(ex.graph, model, gold, cache)
        for name in grads:
            grads[name] += ex_grads[name]
    for name in grads:
        grads[name] /= len(batch)
    return total / len(batch), grads, correct


def dataset_loss(model: Model, examples: list[LabeledExample]) -> tuple[float, list[str]]:
    label_index = {label: i for i, label in enumerate(model.labels)}
    total = 0.0
    preds = []
    for ex in examples:
        cache = forward(ex.graph, model)
        total += cross_entropy(cache.probabilities, label_index[ex.label])
        preds.append(model.labels[int(np.argmax(cache.probabilities))])
    return total / len(examples), preds


def train(train_set: list[LabeledExample], dev_set: list[LabeledExample],
          model: Model, cfg: RunConfig,
          f1_mode: str = "all_classes") -> TrainResult:
    """Mini-batch training with sub-epoch validation, lowest-dev-loss
    checkpointing, and patience counted in consecutive non-improving
    validations. patience <= 0 disables early stopping."""
    if not train_set:
        raise EmptySetError("empty training set")
    if not dev_set:
        raise EmptySetError("empty dev set")
    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamW(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
    steps_per_epoch = max(1, math.ceil(len(train_set) / cfg.batch_size))
    val_every = max(1, math.ceil(cfg.validation_interval * steps_per_epoch))
    best = clone_model(model)
    best_loss = float("inf")
    non_improving = 0
    log: list[dict] = []
    params = model.parameters()
    step = 0
    stop = False
    epochs_run = 0.0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(train_set), cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            loss, grads, _ = _batch_loss_and_grads(model, batch)
            if not math.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss at step {step}", batch_index=start // cfg.batch_size)
            if cfg.grad_clip is not None:
                norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                if norm > cfg.grad_clip:
                    scale = cfg.grad_clip / norm
                    for g in grads.values():
                        g *= scale
            optimizer.step(params, grads)
            model.assert_finite()
            step += 1
            epochs_run = epoch + min(1.0, (start + cfg.batch_size) / len(train_set))
            if step % val_every == 0:
                val_loss, val_preds = dataset_loss(model, dev_set)
                val_f1 = macro_f1(val_preds, [ex.label for ex in dev_set],
                                  f1_mode, model.labels)["f_avg"]
                log.append({"step": step, "epoch": round(epochs_run, 4),
                            "train_loss": round(loss, 10),
                            "val_loss": round(val_loss, 10),
                            "val_f1": round(val_f1, 10)})
                if val_loss < best_loss:
                    best_loss = val_loss
                    best = clone_model(model)
                    non_improving = 0
                else:
                    non_improving += 1
                    if cfg.patience > 0 and non_improving >= cfg.patience:
                        stop = True
                        break
        if stop:
            break
    if best_loss == float("inf"):
        best = clone_model(model)
        best_loss, _ = dataset_loss(model, dev_set)
    return TrainResult(model=best, log=log, best_val_loss=best_loss,
                       epochs_run=epochs_run)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(test_set: list[LabeledExample], model: Model,
             modes: tuple[str, ...] = ("all_classes", "favor_against_only")) -> dict:
    """Deterministic evaluation: metric modes, per-target breakdown, and the
    selected-filter trace (layer-1 top-g indices per node) per example."""
    if not test_set:
        raise EmptySetError("empty test set")
    label_index = {label: i for i, label in enumerate(model.labels)}
    predictions = []
    preds = []
    for ex in test_set:
        cache = forward(ex.graph, model)
        pred = model.labels[int(np.argmax(cache.probabilities))]
        preds.append(pred)
        predictions.append({
            "text": ex.text,
            "target": ex.target,
            "gold": ex.label,
            "pred": pred,
            "probabilities": [round(float(p), 10) for p in cache.probabilities],
            "selected_filters": cache.layers[0].selected.tolist(),
        })
    golds = [ex.label for ex in test_set]
    metrics = {mode: macro_f1(preds, golds, mode, model.labels) for mode in modes}
    accuracy = sum(1 for p, y in zip(preds, golds) if p == y) / len(golds)
    per_target: dict[str, dict] = {}
    for target in sorted({ex.target for ex in test_set}):
        idx = [i for i, ex in enumerate(test_set) if ex.target == target]
        t_preds = [preds[i] for i in idx]
        t_golds = [golds[i] for i in idx]
        per_target[target] = {
            "count": len(idx),
            "accuracy": sum(1 for p, y in zip(t_preds, t_golds) if p == y) / len(idx),
            "f1_all_classes": macro_f1(t_preds, t_golds, "all_classes",
                                       model.labels)["f_avg"],
        }
    return {
        "accuracy": accuracy,
        "metrics": metrics,
        "per_target": per_target,
        "predictions": predictions,
    }


def trial_summary(scores: list[float]) -> dict:
    arr = np.asarray(scores, dtype=np.float64)
    return {"trials": len(scores),
            "scores": [float(s) for s in arr],
            "mean": float(arr.mean()),
            "std": float(arr.std())}
