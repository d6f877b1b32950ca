"""Weighted-BCE training loop: Adam with bias correction, ignore-class
masking, per-epoch validation AUC, and best-checkpoint selection."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import metrics, nn
from .nn import Tensor


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-4
    positive_weight: float = 3.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    rng_seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.eval_every <= 0:
            raise ValueError("epochs, batch_size, eval_every must be positive")
        if self.learning_rate <= 0 or self.positive_weight <= 0:
            raise ValueError("learning_rate and positive_weight must be positive")


def weighted_bce(logits: Tensor, labels, w_pos: float) -> Tensor:
    """Mean binary cross-entropy over pixels whose label is not -1, with
    positive pixels weighted by w_pos.

    Stable softplus form: per valid pixel
        w_pos*y*softplus(-z) + (1-y)*softplus(z).
    All pixels ignored -> loss 0 with zero gradient.
    """
    labels = np.asarray(labels)
    z = logits.data
    if z.ndim == 4 and z.shape[1] == 1:
        z = z[:, 0]
    if labels.shape != z.shape:
        raise nn.ShapeError(f"labels {labels.shape} vs logits {logits.shape}")

    valid = labels != -1
    n_valid = int(valid.sum())
    if n_valid == 0:
        def back_zero(g):
            nn._accumulate(logits, np.zeros_like(logits.data))
        return nn._make(np.float64(0.0), (logits,), back_zero)

    y = (labels == 1).astype(np.float64)
    weight = np.where(valid, np.where(y == 1.0, w_pos, 1.0), 0.0)
    softplus_pos = np.logaddexp(0.0, -z)  # -log sigmoid(z)
    softplus_neg = np.logaddexp(0.0, z)  # -log(1 - sigmoid(z))
    per_pixel = weight * (y * softplus_pos + (1.0 - y) * softplus_neg)
    value = per_pixel.sum() / n_valid

    def back(g):
        s = nn.stable_sigmoid(z)
        dz = weight * (s - y) * (float(g) / n_valid)
        _shape = logits.data.shape
        nn._accumulate(logits, dz.reshape(_shape))

    return nn._make(np.float64(value), (logits,), back)


class OptimizerState:
    """Adam first/second moment buffers plus the step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.step = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: OptimizerState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update; parameters are modified in place."""
    for name in params:
        if grads.get(name) is None:
            raise ValueError(f"missing gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        p.data = p.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_auc: float | None
    is_best: bool


@dataclass
class TrainReport:
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_auc: float = float("-inf")
    best_params: dict[str, np.ndarray] = field(default_factory=dict)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("epoch", "train_loss", "val_auc", "is_best"))
            for r in self.history:
                w.writerow((r.epoch, repr(r.train_loss),
                            "" if r.val_auc is None else repr(r.val_auc),
                            int(r.is_best)))


def _collate(samples):
    x = np.stack([s.features for s in samples]).astype(np.float64)
    y = np.stack([s.label for s in samples])
    return x, y


def train(model, train_data, val_data, cfg: TrainConfig) -> TrainReport:
    """Seeded minibatch loop keeping the checkpoint with the best
    validation AUC (strictly-greater, so ties keep the earliest epoch)."""
    if not train_data or not val_data:
        raise ValueError("train and validation datasets must be nonempty")
    rng = np.random.default_rng(cfg.rng_seed)
    params = model.params
    state = OptimizerState(params)
    report = TrainReport()

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_data))
        losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_data[i] for i in order[lo:lo + cfg.batch_size]]
            x, y = _collate(batch)
            logits = model.forward(x)
            loss = weighted_bce(logits, y, cfg.positive_weight)
            for p in params.values():
                p.grad = None
            nn.backward(loss)
            adam_step(params, {k: p.grad for k, p in params.items()}, state, cfg)
            losses.append(loss.item())

        val_auc = None
        is_best = False
        if epoch % cfg.eval_every == 0:
            probs, labels = metrics.predict_pixels(model, val_data)
            keep = labels != -1
            val_auc = metrics.roc_auc(probs[keep], labels[keep])
            if val_auc > report.best_val_auc:
                report.best_val_auc = val_auc
                report.best_epoch = epoch
                report.best_params = {k: p.data.copy() for k, p in params.items()}
                is_best = True
        report.history.append(EpochRecord(epoch, float(np.mean(losses)),
                                          val_auc, is_best))
    return report
