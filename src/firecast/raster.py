"""Multi-channel raster stacks with fire masks, and the WFRS on-disk container.

A stack bundles one calendar day of co-registered float channels plus an
int8 fire mask (1 fire, 0 no fire, -1 uncertain) on a single affine grid.
The WFRS byte layout (little-endian):

    bytes 0-3   magic b"WFRS"
    byte  4     version (1)
    bytes 5-8   height u32
    bytes 9-12  width u32
    bytes 13-14 channel count u16
    per channel: name length u8, UTF-8 name bytes
    per channel: row-major float32 plane
    row-major int8 fire mask plane
    date as days since 1970-01-01, i64
    geo transform: origin_x, origin_y, pixel_size as 3 x float64
"""

from __future__ import annotations

import datetime
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .binio import EPOCH, FormatError, Reader

MAGIC = b"WFRS"
VERSION = 1

# Canonical channel order for the ten feature planes.
CHANNELS = (
    "elevation",
    "drought",
    "ndvi",
    "precipitation",
    "humidity",
    "wind_direction",
    "wind_velocity",
    "temp_min",
    "temp_max",
    "erc",
)

_DIMS = struct.Struct("<IIH")
_TRAILER = struct.Struct("<qddd")

# Reject absurd headers before allocating planes.
_MAX_ELEMENTS = 2**31

# the fire-mask codes as int8 bytes: -1 uncertain, 0 no fire, 1 fire
_MASK_CODES = np.array([-1, 0, 1], np.int8).tobytes()


class DimensionError(FormatError):
    """Header declares empty or implausibly large planes."""


def is_fire_mask(values) -> bool:
    """Whether every value, as given, is a fire-mask code (1 fire, 0 no
    fire, -1 uncertain): a cast to int8 must not make one out of another
    value, such as 257, 0.7 or a uint8 255."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):
        coded = values.astype(np.int8, copy=False)
    return ((coded is values or np.array_equal(coded, values))
            and not coded.tobytes().translate(None, _MASK_CODES))


@dataclass(frozen=True)
class GeoTransform:
    """Affine mapping from pixel indices to world coordinates.

    The center of pixel (row, col) sits at
    ``(origin_x + col * pixel_size, origin_y + row * pixel_size)``;
    pixel_size is meters per pixel and uniform in both axes.
    """

    origin_x: float
    origin_y: float
    pixel_size: float

    def __post_init__(self):
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValueError(
                f"origin must be finite, got ({self.origin_x}, {self.origin_y})")
        if not (math.isfinite(self.pixel_size) and self.pixel_size > 0):
            raise ValueError(f"pixel_size must be finite and > 0, got {self.pixel_size}")


@dataclass
class RasterStack:
    """One day's co-registered channels plus fire mask on a common grid."""

    date: datetime.date
    channel_names: tuple[str, ...]
    channels: np.ndarray  # float32 [n_channels, height, width]
    fire_mask: np.ndarray  # int8 [height, width], values in {-1, 0, 1}
    geo: GeoTransform

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float32)
        if not is_fire_mask(self.fire_mask):
            raise ValueError("fire_mask values must be in {-1, 0, 1}")
        self.fire_mask = np.asarray(self.fire_mask, dtype=np.int8)
        self.channel_names = tuple(self.channel_names)
        if self.channels.ndim != 3:
            raise ValueError("channels must be [n_channels, height, width]")
        if self.fire_mask.ndim != 2:
            raise ValueError("fire_mask must be 2-D")
        if self.channels.shape[0] != len(self.channel_names):
            raise ValueError("channel plane count does not match names")
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError("channel names must be unique")
        if self.channels.shape[0] and self.channels.shape[1:] != self.fire_mask.shape:
            raise ValueError("channel planes and fire_mask must share (height, width)")

    @property
    def height(self):
        return self.fire_mask.shape[0]

    @property
    def width(self):
        return self.fire_mask.shape[1]

    def channel(self, name: str) -> np.ndarray:
        return self.channels[self.channel_names.index(name)]

    def __eq__(self, other):
        if not isinstance(other, RasterStack):
            return NotImplemented
        return (self.date == other.date
                and self.channel_names == other.channel_names
                and self.channels.shape == other.channels.shape
                and np.array_equal(self.channels, other.channels)
                and np.array_equal(self.fire_mask, other.fire_mask)
                and self.geo == other.geo)


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean/std, computed over the training split only."""

    channel_names: tuple[str, ...]
    mean: np.ndarray  # float64 [n_channels]
    std: np.ndarray  # float64 [n_channels]

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        if self.mean.shape != (len(self.channel_names),) or self.std.shape != self.mean.shape:
            raise ValueError("stats arrays must be one value per channel")
        if (self.std < 0).any():
            raise ValueError("std must be >= 0")


def compute_stats(stacks) -> ChannelStats:
    """Pool every pixel of every stack (population std, ddof=0).

    One channel at a time: a float64 row of that channel's pixels is all
    that is held, and its mean and std are those of the pooled [C, P]
    array's rows to the byte.
    """
    stacks = list(stacks)
    if not stacks:
        raise ValueError("no stacks to compute stats from")
    names = stacks[0].channel_names
    for s in stacks:
        if s.channel_names != names:
            raise ValueError("stacks disagree on channel names")
    mean = np.empty(len(names))
    std = np.empty(len(names))
    for c in range(len(names)):
        row = np.concatenate([s.channels[c].ravel() for s in stacks], dtype=np.float64)
        mean[c] = row.mean()
        std[c] = row.std()
    return ChannelStats(names, mean, std)


def write_stack(stack: RasterStack, path) -> None:
    """Serialize a stack to the WFRS layout documented in the module docstring."""
    parts = [MAGIC, bytes((VERSION,)),
             _DIMS.pack(stack.height, stack.width, len(stack.channel_names))]
    for name in stack.channel_names:
        raw = name.encode("utf-8")
        if len(raw) > 255:
            raise ValueError(f"channel name too long: {name!r}")
        parts.append(struct.pack("<B", len(raw)))
        parts.append(raw)
    for plane in stack.channels:
        parts.append(np.ascontiguousarray(plane, dtype="<f4").tobytes())
    parts.append(np.ascontiguousarray(stack.fire_mask, dtype=np.int8).tobytes())
    parts.append(_TRAILER.pack((stack.date - EPOCH).days, stack.geo.origin_x,
                               stack.geo.origin_y, stack.geo.pixel_size))
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def read_stack(path) -> RasterStack:
    """Parse a WFRS file; inverse of write_stack, bit-exact on planes."""
    r = Reader(path, MAGIC, VERSION)
    height, width, n_channels = r.unpack(_DIMS)
    if height == 0 or width == 0:
        raise DimensionError(f"{path}: empty plane {height}x{width}")
    if height * width * max(n_channels, 1) > _MAX_ELEMENTS:
        raise DimensionError(
            f"{path}: {n_channels} channels of {height}x{width} exceeds the element cap")
    names = tuple(r.text(r.take(1)[0]) for _ in range(n_channels))
    channels = r.array("<f4", (n_channels, height, width)).copy()
    fire_mask = r.array(np.int8, (height, width)).copy()
    days, ox, oy, ps = r.unpack(_TRAILER)
    r.done()
    try:
        geo = GeoTransform(ox, oy, ps)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    return RasterStack(
        date=r.date(days),
        channel_names=names,
        channels=channels,
        fire_mask=fire_mask,
        geo=geo,
    )


def box_sums(plane, rows, cols) -> np.ndarray:
    """Sums of plane over a grid of boxes: with rows = (r0, r1) and
    cols = (c0, c1), index arrays of box starts and stops,
    out[i, j] = plane[r0[i]:r1[i], c0[j]:c1[j]].sum().

    One integral image (summed-area table, Crow 1984) gives every box in
    four lookups whatever its size. Integer and boolean planes sum exactly.
    """
    h, w = plane.shape
    sums = plane.cumsum(axis=0).cumsum(axis=1)
    integral = np.zeros((h + 1, w + 1), sums.dtype)
    integral[1:, 1:] = sums
    (r0, r1), (c0, c1) = rows, cols
    return (integral[r1][:, c1] - integral[r0][:, c1]
            - integral[r1][:, c0] + integral[r0][:, c0])


def normalize(stack: RasterStack, stats: ChannelStats) -> RasterStack:
    """Z-score each channel with train-split stats; the fire mask is untouched."""
    if stats.channel_names != stack.channel_names:
        raise ValueError("stats channels do not match stack channels")
    denom = np.maximum(stats.std, 1e-8)
    scaled = (stack.channels.astype(np.float64)
              - stats.mean[:, None, None]) / denom[:, None, None]
    return RasterStack(
        date=stack.date,
        channel_names=stack.channel_names,
        channels=scaled.astype(np.float32),
        fire_mask=stack.fire_mask,
        geo=stack.geo,
    )
