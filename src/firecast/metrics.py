"""Pixel-level evaluation: ROC AUC via the Mann-Whitney statistic,
threshold counts, and positive-class precision/recall/IoU with uncertain
(-1) pixels excluded throughout.

Positive-class IoU is bounded above by recall, so low-recall models cannot
show mid-range IoU under that definition; the two-class mean IoU is
computed alongside it for comparability with class-averaged reports.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import nn


PREDICT_BATCH = 32  # samples per predict_pixels forward pass


class UndefinedAUCError(ValueError):
    """AUC is undefined unless both classes are present."""


def _midranks(values):
    """1-based ranks; tied values share the mean of their rank range."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    s = values[order]
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # first index of each run
    end = np.r_[start[1:], s.size] - 1
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties 1/2).

    Mann-Whitney rank form; equal to the trapezoidal area under the ROC
    curve, midranks handling ties. NaN scores raise ValueError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    n_nan = int(np.isnan(scores).sum())
    if n_nan:
        raise ValueError(f"roc_auc: {n_nan} of {scores.size} scores are NaN")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError(
            f"need both classes, got {n_pos} positive / {n_neg} negative")
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class Counts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def confusion(scores, labels, threshold: float = 0.5) -> Counts:
    """Counts at prediction = (score >= threshold); labels must be binary."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    return Counts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def _safe_div(num, den):
    return (num / den, False) if den else (0.0, True)


@dataclass(frozen=True)
class EvalResult:
    auc: float
    precision: float
    recall: float
    iou: float  # positive class
    mean_iou: float  # mean of fire / no-fire class IoU
    counts: Counts
    n_valid: int
    degenerate: bool  # some ratio had an empty denominator

    CSV_FIELDS = ("auc", "precision", "recall", "iou", "mean_iou",
                  "tp", "fp", "tn", "fn", "n_valid", "degenerate")

    def csv_row(self):
        return [repr(self.auc), repr(self.precision), repr(self.recall),
                repr(self.iou), repr(self.mean_iou), self.counts.tp,
                self.counts.fp, self.counts.tn, self.counts.fn, self.n_valid,
                int(self.degenerate)]


def summarize(scores, labels, threshold: float = 0.5) -> EvalResult:
    """Metrics on pooled scored pixels; labels in {-1,0,1}, -1 dropped."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    valid = labels != -1
    scores = scores[valid]
    labels = labels[valid]
    if labels.size == 0:
        raise ValueError("no valid pixels to evaluate")
    auc = roc_auc(scores, labels)
    c = confusion(scores, labels, threshold)
    precision, d1 = _safe_div(c.tp, c.tp + c.fp)
    recall, d2 = _safe_div(c.tp, c.tp + c.fn)
    iou, d3 = _safe_div(c.tp, c.tp + c.fp + c.fn)
    iou_neg, d4 = _safe_div(c.tn, c.tn + c.fn + c.fp)
    return EvalResult(
        auc=auc, precision=precision, recall=recall, iou=iou,
        mean_iou=0.5 * (iou + iou_neg), counts=c, n_valid=int(labels.size),
        degenerate=d1 or d2 or d3 or d4,
    )


def predict_pixels(model, samples):
    """Run the model over a dataset; returns (probabilities, labels) pooled
    over every pixel, uncertain ones included (callers filter)."""
    if not samples:
        raise ValueError("empty dataset")
    probs = []
    labels = []
    with nn.no_grad():
        for lo in range(0, len(samples), PREDICT_BATCH):
            chunk = samples[lo:lo + PREDICT_BATCH]
            x = np.stack([s.features for s in chunk])
            logits = model.forward(x).data[:, 0]
            probs.append(nn.stable_sigmoid(logits).ravel())
            labels.append(np.stack([s.label for s in chunk]).ravel())
    return np.concatenate(probs), np.concatenate(labels)


def evaluate(model, samples, threshold: float = 0.5) -> EvalResult:
    """Pool all valid pixels of a dataset through the model and summarize."""
    probs, labels = predict_pixels(model, samples)
    return summarize(probs, labels, threshold)


def write_eval_csv(result: EvalResult, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(EvalResult.CSV_FIELDS)
        w.writerow(result.csv_row())


def write_pgm(plane, path) -> None:
    """8-bit binary PGM of values in [0, 1] (labels: -1 maps to 0)."""
    arr = np.asarray(plane, dtype=np.float64)
    gray = np.clip(arr, 0.0, 1.0)
    data = np.round(gray * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_probability_maps(model, samples, out_dir) -> list:
    """Per-tile probability + label PGM pairs (segmentation figures
    analogue), from predict_pixels' batched forward passes. A tile with a
    non-finite probability raises ValueError naming it before any map is
    written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if not samples:
        return []
    probs, labels = predict_pixels(model, samples)
    shape = (len(samples),) + samples[0].label.shape
    probs = probs.reshape(shape)
    bad = ~np.isfinite(probs).all(axis=(1, 2))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"tile {i} (date {samples[i].date}, origin {samples[i].origin}) "
                         "has non-finite probabilities")
    written = []
    for i, (prob, label) in enumerate(zip(probs, labels.reshape(shape))):
        prob_path = out_dir / f"prob_{i:04d}.pgm"
        label_path = out_dir / f"label_{i:04d}.pgm"
        write_pgm(prob, prob_path)
        write_pgm(label, label_path)
        written.append((prob_path, label_path))
    return written
