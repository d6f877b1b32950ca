"""Tile sampling: fire clustering, positive/negative tiles, weekly splits.

Shows how a run of daily scenes turns into the three datasets: fires are
clustered with a 10 km merge rule, one positive tile is cut per cluster,
twice as many fire-free tiles are drawn, and whole weeks are dealt to
train/val/test with a one-day buffer.
"""

from collections import Counter

import numpy as np

from firecast.sampler import (
    SamplerConfig,
    assign_splits,
    build_dataset,
    find_fire_clusters,
)
from firecast.synth import SynthConfig, gen_scenes

synth = SynthConfig(grid=(128, 128), days=35, rng_seed=7, smoothing_radius=10,
                    fire_logit_weights=tuple(2.5 * w for w in SynthConfig().fire_logit_weights),
                    fire_bias=-24.0)
stacks = gen_scenes(synth)
cfg = SamplerConfig(tile_size=32, rng_seed=7)

clusters = find_fire_clusters(stacks[3].fire_mask, stacks[3].geo,
                              cfg.cluster_merge_distance)
print(f"day 3 has {int((stacks[3].fire_mask == 1).sum())} fire pixels "
      f"in {len(clusters)} clusters")
for c in clusters:
    r, col = c.centroid()
    print(f"  cluster of {len(c.pixels):3d} px around ({r:.0f}, {col:.0f})")

split_map = assign_splits([s.date for s in stacks], cfg, np.random.default_rng(7))
days = sorted(split_map)
print("\nweek-block split assignment (one-day buffer at each block end):")
for i in range(0, len(days), 7):
    week = [split_map[d] for d in days[i:i + 7]]
    print(f"  week {i // 7}: " + " ".join(f"{s:8s}" for s in week))

for task in ("daily", "aggregated", "sequence"):
    samples, _ = build_dataset(stacks, cfg, task)
    kinds = Counter(s.kind for s in samples)
    splits = Counter(s.split for s in samples)
    shape = samples[0].features.shape if samples else None
    print(f"\n{task}: {len(samples)} samples, features {shape}")
    print(f"  positives {kinds['positive']}, negatives {kinds['negative']} "
          f"(ratio {cfg.negative_ratio})")
    print(f"  splits: {dict(splits)}")
