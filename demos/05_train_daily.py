"""End to end at toy scale: synthesize scenes, build the daily dataset,
train a small autoencoder, and score it on the held-out split.

Runs in about a minute on a laptop CPU. The generating logit gives an
oracle ceiling: the model cannot beat the rule that made the labels.
"""

import numpy as np

from firecast.metrics import evaluate, roc_auc
from firecast.models import ModelConfig, build
from firecast.sampler import SamplerConfig, build_dataset, split_subsets
from firecast.synth import SynthConfig, fire_logit, gen_scenes
from firecast.training import TrainConfig, train

weights = tuple(2.5 * w for w in SynthConfig().fire_logit_weights)
synth_cfg = SynthConfig(grid=(96, 96), days=70, rng_seed=1, smoothing_radius=12,
                        fire_logit_weights=weights, fire_bias=-25.0)
stacks = gen_scenes(synth_cfg)
cfg = SamplerConfig(tile_size=32, rng_seed=1)

# z-scored with the train-split days' channel stats
samples, _ = build_dataset(stacks, cfg, "daily")
subsets = split_subsets(samples)
print("samples:", {k: len(v) for k, v in subsets.items()})

model = build(ModelConfig("autoencoder", (8, 16), tile=32),
              np.random.default_rng([1, 3]))
tcfg = TrainConfig(epochs=5, batch_size=32, learning_rate=1e-3,
                   positive_weight=3.0, rng_seed=1)
report = train(model, subsets["train"], subsets["val"], tcfg)
for r in report.history:
    print(f"  epoch {r.epoch}: loss {r.train_loss:.4f} val AUC {r.val_auc:.4f}"
          + (" <- best" if r.is_best else ""))

model.load_params(report.best_params)
result = evaluate(model, subsets["test"])
print(f"\ntest: AUC {result.auc:.3f} precision {result.precision:.3f} "
      f"recall {result.recall:.3f} IoU {result.iou:.3f} "
      f"(mean IoU {result.mean_iou:.3f}) over {result.n_valid} px")

# Oracle ceiling: score the same test pixels with the generating logit of
# the label day (the rule the labels were drawn from).
date_index = {s.date: i for i, s in enumerate(stacks)}
scores, labels = [], []
for s in subsets["test"]:
    label_stack = stacks[date_index[s.date] + 1]
    r0, c0 = s.origin
    logit = fire_logit(label_stack.channels, synth_cfg)[r0:r0 + 32, c0:c0 + 32]
    scores.append(logit.ravel())
    labels.append(s.label.ravel())
scores = np.concatenate(scores)
labels = np.concatenate(labels)
keep = labels != -1
ceiling = roc_auc(scores[keep], (labels[keep] == 1).astype(int))
print(f"generating-logit ceiling on those pixels: {ceiling:.3f}")
