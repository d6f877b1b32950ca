"""A fixed unit of work that measures how fast the machine runs right now.

    python3 perfbench/reference.py

run.py times this process between the verbs and scales every verb time by
REFERENCE_S / (its median time), so that the metrics read as if the
machine ran at one fixed speed. The work mixes what the verbs do:
interpreter start and imports, pure-Python loops over lists and dicts (the
sampler), numpy elementwise passes and small matrix products (the conv
layers). It uses nothing from firecast, so no change to the program moves
it.
"""

import numpy as np

rng = np.random.default_rng(0)
buckets = {}
for i, v in enumerate(rng.integers(0, 500, size=90000).tolist()):
    buckets.setdefault(v, []).append(i)
pairs = sum(len(m) * (len(m) - 1) // 2 for m in buckets.values())
x = rng.standard_normal((64, 72, 256))
w = rng.standard_normal((16, 72))
for _ in range(10):
    y = np.maximum(w @ x, 0.0)
    x[:, :16] = np.tanh(y) * 0.5
assert pairs > 0 and np.isfinite(x).all()
