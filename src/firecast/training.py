"""Weighted-BCE training loop: Adam with bias correction, ignore-class
masking, per-epoch validation AUC, and best-checkpoint selection."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import metrics, nn
from .nn import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-4
    positive_weight: float = 3.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0 or self.positive_weight <= 0:
            raise ValueError("learning_rate and positive_weight must be positive")


def weighted_bce(logits: Tensor, labels, w_pos: float) -> Tensor:
    """Mean binary cross-entropy over pixels whose label is not -1, with
    positive pixels weighted by w_pos.

    Stable softplus form: per valid pixel
        w_pos*y*softplus(-z) + (1-y)*softplus(z).
    All pixels ignored -> loss 0 with zero gradient. The per-pixel terms
    and the gradient are in the logits' dtype; the loss value is summed in
    float64.
    """
    labels = np.asarray(labels)
    z = logits.data
    if z.ndim == 4 and z.shape[1] == 1:
        z = z[:, 0]
    if labels.shape != z.shape:
        raise nn.ShapeError(f"labels {labels.shape} vs logits {logits.shape}")

    valid = labels != -1
    n_valid = max(int(valid.sum()), 1)
    y = (labels == 1).astype(z.dtype)
    weight = valid.astype(z.dtype)
    weight[labels == 1] = w_pos
    softplus_pos = np.logaddexp(0.0, -z)  # -log sigmoid(z)
    softplus_neg = np.logaddexp(0.0, z)  # -log(1 - sigmoid(z))
    per_pixel = weight * (y * softplus_pos + (1.0 - y) * softplus_neg)
    value = per_pixel.sum(dtype=np.float64) / n_valid

    node, shape = logits.node, logits.shape

    def back(g):
        s = nn.stable_sigmoid(z, z.dtype)
        dz = weight * (s - y) * (float(g) / n_valid)
        nn._accumulate(node, dz.reshape(shape))

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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        p.data = p.data - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_auc: float
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
                w.writerow((r.epoch, repr(r.train_loss), repr(r.val_auc), int(r.is_best)))


def _collate(samples):
    x = np.stack([s.features for s in samples])
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
            if not np.isfinite(loss.item()):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}, "
                                         f"batch {lo // cfg.batch_size + 1}")
            for p in params.values():
                p.grad = None
            nn.backward(loss)
            adam_step(params, {k: p.grad for k, p in params.items()}, state, cfg)
            losses.append(loss.item())
            # the tape held only the arrays its rules read, and backward
            # released it behind the loss, so only the logits' own data
            # are left to free before the next batch
            del logits, loss

        probs, labels = metrics.predict_pixels(model, val_data)
        keep = labels != -1
        val_auc = metrics.roc_auc(probs[keep], labels[keep])
        is_best = val_auc > report.best_val_auc
        if is_best:
            report.best_val_auc = val_auc
            report.best_epoch = epoch
            report.best_params = {k: p.data.copy() for k, p in params.items()}
        report.history.append(EpochRecord(epoch, float(np.mean(losses)),
                                          val_auc, is_best))
    return report
