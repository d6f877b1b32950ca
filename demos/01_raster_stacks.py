"""Raster stacks: the WFRS container and normalization.

Builds a tiny two-channel stack by hand, round-trips it through a file,
then z-scores it with its own channel statistics.
"""

import datetime
import tempfile
from pathlib import Path

import numpy as np

from firecast.raster import (
    GeoTransform,
    RasterStack,
    compute_stats,
    normalize,
    read_stack,
    write_stack,
)

# A 4x4 grid at 1 km resolution with a two-pixel fire.
geo = GeoTransform(origin_x=-2000.0, origin_y=0.0, pixel_size=1000.0)
elevation = np.linspace(100, 900, 16).reshape(4, 4).astype(np.float32)
drought = np.full((4, 4), 2.5, dtype=np.float32)
mask = np.zeros((4, 4), dtype=np.int8)
mask[1, 2] = 1
mask[3, 0] = -1  # cloud-covered pixel, unknown label

stack = RasterStack(
    date=datetime.date(2020, 8, 15),
    channel_names=("elevation", "drought"),
    channels=np.stack([elevation, drought]),
    fire_mask=mask,
    geo=geo,
)
print(f"stack {stack.date}: {stack.height}x{stack.width}, "
      f"channels {stack.channel_names}")
print("fire pixels:", np.argwhere(stack.fire_mask == 1).tolist())

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.wfrs"
    write_stack(stack, path)
    print(f"wrote {path.stat().st_size} bytes")
    again = read_stack(path)
    print("round trip equal:", again == stack)

# Channel normalization with training-split statistics.
stats = compute_stats([stack])
normed = normalize(stack, stats)
print("\nper-channel mean after z-scoring:",
      [f"{normed.channels[i].mean():.2e}" for i in range(2)])
