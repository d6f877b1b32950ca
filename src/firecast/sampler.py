"""Turns a time-ordered stack collection into training datasets.

Three task framings share one sampling pass over the label planes:

  daily       features day t, label = next day's fire mask
  aggregated  features day t, label = OR of the masks over days t+1..t+7
  sequence    features days t-6..t, label as in aggregated

Tiles are placed one per fire cluster (single-linkage chaining with a
distance threshold), negatives are drawn from the same day at a fixed
ratio, and whole 7-day blocks are assigned to train/val/test with the
last day of each block excluded so no two splits hold adjacent label
days.

WFDS dataset files are little-endian, with no padding:

  file header, 13 bytes, struct "<4sBQ":
    magic b"WFDS", version (u8, 1), sample count (u64)
  then per sample a 24-byte header, struct "<BBBqIIBHH" (1+1+1+8+4+4+1+2+2):
    kind (u8: 0 negative, 1 positive), task (u8: 0 daily, 1 aggregated,
    2 sequence), split (u8: 0 train, 1 val, 2 test), feature date (i64,
    days since 1970-01-01; the last frame's for sequences), origin row
    (u32), origin col (u32), time steps T (u8, 1 unless sequence),
    channels C (u16), tile side S (u16)
  followed by T*C*S*S "<f4" features in (T,) C, S, S order and S*S int8
  labels in {-1, 0, 1}, row-major.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass, replace

import numpy as np

from .raster import _EPOCH, GeoTransform, RasterStack

BLOCK_DAYS = 7
SPLITS = ("train", "val", "test")

DATASET_MAGIC = b"WFDS"
DATASET_VERSION = 1

_TASKS = ("daily", "aggregated", "sequence")

# index entries gathered at once by find_fire_clusters (8 MB of intp)
_GATHER_BLOCK = 1 << 20

# fixed sub-stream tags so parallel and serial dataset builds agree
_SPLIT_STREAM = 1
_NEGATIVE_STREAM = 2


class SamplingExhaustedError(RuntimeError):
    """Rejection sampling hit its attempt cap before reaching the target."""

    def __init__(self, achieved, target):
        super().__init__(
            f"negative sampling exhausted: found {achieved} of {target} fire-free tiles")
        self.achieved = achieved
        self.target = target


@dataclass(frozen=True)
class SamplerConfig:
    tile_size: int = 128
    cluster_merge_distance: float = 10.0  # km
    negative_ratio: float = 2.0
    split_ratio: tuple[float, float, float] = (6.0, 1.0, 1.0)
    buffer_days: int = 1
    aggregation_window: int = 7
    rng_seed: int = 0

    def __post_init__(self):
        if self.tile_size <= 0:
            raise ValueError("tile_size must be > 0")
        if self.cluster_merge_distance <= 0:
            raise ValueError("cluster_merge_distance must be > 0")
        if self.negative_ratio < 0:
            raise ValueError("negative_ratio must be >= 0")
        if any(r <= 0 for r in self.split_ratio):
            raise ValueError("split_ratio components must be positive")
        if not 0 <= self.buffer_days < BLOCK_DAYS:
            raise ValueError("buffer_days must be in [0, 7)")


@dataclass
class TileSample:
    """Feature tile for one day; the label window starts the following day."""

    features: np.ndarray  # float32 [channels, tile, tile]
    label: np.ndarray  # int8 [tile, tile], values in {-1, 0, 1}
    date: datetime.date  # day the features were sampled
    origin: tuple[int, int]  # (row, col) of the window in the source grid
    split: str
    kind: str  # positive | negative


@dataclass
class SequenceSample:
    """A week of daily feature tiles sharing one aggregated label."""

    features: np.ndarray  # float32 [time, channels, tile, tile]
    label: np.ndarray
    dates: tuple[datetime.date, ...]  # strictly consecutive
    origin: tuple[int, int]
    split: str
    kind: str

    @property
    def date(self):
        return self.dates[-1]


def last_frame(samples) -> list[TileSample]:
    """Each SequenceSample's final frame as a TileSample sharing its
    arrays, so an image model reads the same tiles a sequence model does."""
    return [TileSample(features=s.features[-1], label=s.label, date=s.date,
                       origin=s.origin, split=s.split, kind=s.kind)
            for s in samples]


@dataclass(frozen=True)
class FireCluster:
    pixels: frozenset[tuple[int, int]]
    date: datetime.date

    def centroid(self):
        rows, cols = zip(*self.pixels)
        return (sum(rows) / len(rows), sum(cols) / len(cols))


# ---------------------------------------------------------------------------
# fire clustering
# ---------------------------------------------------------------------------

def find_fire_clusters(mask, geo: GeoTransform, merge_km: float,
                       date=None) -> list[FireCluster]:
    """Partition fire pixels (value 1) into single-linkage clusters.

    Two pixels share a cluster iff a chain of fire pixels connects them
    with consecutive center distances <= merge_km, so the clusters are the
    connected components of the graph joining fire pixels at most
    r = merge_km * 1000 / pixel_size pixels apart.

    Algorithm: an index grid holds each fire pixel's number (row-major)
    and -1 elsewhere. Every fire pixel gathers the grid at the K offsets
    of the half disk dr^2 + dc^2 <= r^2 with dr > 0, or dr == 0 and
    dc > 0, which lists each edge once. Components are then labelled by
    min-label hooking with pointer jumping (Shiloach & Vishkin 1982), so
    each pixel ends labelled with its cluster's first pixel.

    Cost: O(P*K) time for P fire pixels and K offsets (K = 158 at 10 km
    on 1 km pixels), whatever the fire density. Memory is the index grid
    plus at most _GATHER_BLOCK gathered entries at a time. The hooking
    rounds, O(log P) of them, touch only edges that still join two
    components.

    Order: clusters are sorted by (min row, min col) over their pixels;
    ties go to the cluster whose first pixel in row-major order comes
    first.
    """
    mask = np.asarray(mask)
    fire = np.argwhere(mask == 1)
    if len(fire) == 0:
        return []
    n = len(fire)
    rows, cols = fire[:, 0], fire[:, 1]
    h, w = mask.shape
    radius_px = merge_km * 1000.0 / geo.pixel_size
    r2 = radius_px * radius_px
    # reach one past floor(r) and let the r2 test decide; offsets beyond
    # the grid join nothing
    reach_r = min(int(radius_px) + 1, h - 1)
    reach_c = min(int(radius_px) + 1, w - 1)
    dr, dc = np.mgrid[0:reach_r + 1, -reach_c:reach_c + 1]
    half_disk = (dr * dr + dc * dc <= r2) & ((dr > 0) | (dc > 0))
    dr, dc = dr[half_disk], dc[half_disk]

    index = np.full((h + reach_r, w + 2 * reach_c), -1, dtype=np.intp)
    index[rows, cols + reach_c] = np.arange(n)
    parent = np.arange(n)
    block = max(1, _GATHER_BLOCK // max(len(dr), 1))
    for start in range(0, n, block):
        part = slice(start, start + block)
        nbr = index[rows[part, None] + dr, cols[part, None] + reach_c + dc]
        u, k = np.nonzero(nbr >= 0)
        _hook(parent, u + start, nbr[u, k])

    roots, label = np.unique(parent, return_inverse=True)
    min_col = np.full(len(roots), w)
    np.minimum.at(min_col, label, cols)
    # a root is its cluster's first pixel, so it also holds the min row
    order = np.lexsort((roots, min_col, rows[roots]))
    members = np.argsort(label, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(label))))
    pixels = list(zip(rows[members].tolist(), cols[members].tolist()))
    return [FireCluster(frozenset(pixels[bounds[j]:bounds[j + 1]]), date)
            for j in order.tolist()]


def _hook(parent, u, v):
    """Merge the edges (u, v) into `parent`, a forest in which every node
    points at its root, until each edge's ends share a root; every root
    stays the smallest node of its tree."""
    while True:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        if not cross.any():
            return
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        # hook the larger root of each edge under the smaller one
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        # pointer jumping back to a forest of stars
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent[:] = grand


# ---------------------------------------------------------------------------
# tile extraction
# ---------------------------------------------------------------------------

def _window_origin(centroid, shape, tile):
    h, w = shape
    r = int(np.floor(centroid[0] + 0.5)) - tile // 2
    c = int(np.floor(centroid[1] + 0.5)) - tile // 2
    return (min(max(r, 0), h - tile), min(max(c, 0), w - tile))


def extract_positive_tiles(stack: RasterStack, clusters, cfg: SamplerConfig,
                           split: str = "train") -> list[TileSample]:
    """One tile per cluster, centered on its rounded centroid and clamped
    inside the grid; labels come from the stack's fire mask."""
    t = cfg.tile_size
    if stack.height < t or stack.width < t:
        raise ValueError(
            f"grid {stack.height}x{stack.width} smaller than tile size {t}")
    tiles = []
    for cluster in clusters:
        r0, c0 = _window_origin(cluster.centroid(), (stack.height, stack.width), t)
        tiles.append(TileSample(
            features=stack.channels[:, r0:r0 + t, c0:c0 + t].copy(),
            label=stack.fire_mask[r0:r0 + t, c0:c0 + t].copy(),
            date=stack.date,
            origin=(r0, c0),
            split=split,
            kind="positive",
        ))
    return tiles


def sample_negative_tiles(stack: RasterStack, n_positive: int,
                          cfg: SamplerConfig, rng,
                          split: str = "train") -> list[TileSample]:
    """Uniform-random fire-free windows (uncertain pixels allowed), exactly
    negative_ratio * n_positive of them; capped rejection sampling."""
    if n_positive < 0:
        raise ValueError("n_positive must be >= 0")
    target = int(round(cfg.negative_ratio * n_positive))
    if target == 0:
        return []
    t = cfg.tile_size
    if stack.height < t or stack.width < t:
        raise ValueError(
            f"grid {stack.height}x{stack.width} smaller than tile size {t}")
    tiles = []
    attempts = 0
    cap = 1000 * target
    while len(tiles) < target:
        if attempts >= cap:
            raise SamplingExhaustedError(len(tiles), target)
        attempts += 1
        r0 = int(rng.integers(0, stack.height - t + 1))
        c0 = int(rng.integers(0, stack.width - t + 1))
        label = stack.fire_mask[r0:r0 + t, c0:c0 + t]
        if (label == 1).any():
            continue
        tiles.append(TileSample(
            features=stack.channels[:, r0:r0 + t, c0:c0 + t].copy(),
            label=label.copy(),
            date=stack.date,
            origin=(r0, c0),
            split=split,
            kind="negative",
        ))
    return tiles


# ---------------------------------------------------------------------------
# split assignment and label aggregation
# ---------------------------------------------------------------------------

def assign_splits(dates, cfg: SamplerConfig, rng) -> dict[datetime.date, str]:
    """Group days into consecutive 7-day blocks from the earliest date and
    draw each block's split with probabilities split_ratio/sum; the final
    buffer_days day(s) of every block map to "excluded"."""
    dates = sorted(set(dates))
    if not dates:
        raise ValueError("dates must be nonempty")
    start = dates[0]
    n_blocks = (dates[-1] - start).days // BLOCK_DAYS + 1
    weights = np.asarray(cfg.split_ratio, dtype=np.float64)
    probs = weights / weights.sum()
    blocks = rng.choice(len(SPLITS), size=n_blocks, p=probs)
    out = {}
    for d in dates:
        offset = (d - start).days
        if offset % BLOCK_DAYS >= BLOCK_DAYS - cfg.buffer_days:
            out[d] = "excluded"
        else:
            out[d] = SPLITS[blocks[offset // BLOCK_DAYS]]
    return out


def aggregate_masks(masks) -> np.ndarray:
    """Pixelwise OR of fire masks with precedence fire > uncertain > clear."""
    masks = [np.asarray(m) for m in masks]
    shape = masks[0].shape
    for m in masks[1:]:
        if m.shape != shape:
            raise ValueError(f"mask shape mismatch: {m.shape} vs {shape}")
    stacked = np.stack(masks)
    any_fire = (stacked == 1).any(axis=0)
    any_uncertain = (stacked == -1).any(axis=0)
    return np.where(any_fire, 1, np.where(any_uncertain, -1, 0)).astype(np.int8)


# ---------------------------------------------------------------------------
# dataset building
# ---------------------------------------------------------------------------

def build_dataset(stacks, cfg: SamplerConfig, task: str):
    """Produce TileSamples (daily/aggregated) or SequenceSamples (sequence)
    for every day with enough history and future, skipping excluded label
    days. Deterministic given (stacks, cfg.rng_seed)."""
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    stacks = list(stacks)
    if not stacks:
        raise ValueError("no stacks")
    dates = [s.date for s in stacks]
    for a, b in zip(dates, dates[1:]):
        if (b - a).days != 1:
            raise ValueError(f"stacks must cover consecutive dates, gap {a} -> {b}")

    window = cfg.aggregation_window
    split_map = assign_splits(dates, cfg,
                              np.random.default_rng([cfg.rng_seed, _SPLIT_STREAM]))
    samples = []
    n = len(stacks)
    for i, stack in enumerate(stacks):
        if task == "daily":
            if i + 1 >= n:
                continue
            label_plane = stacks[i + 1].fire_mask
        else:
            if i + window >= n or (task == "sequence" and i - (window - 1) < 0):
                continue
            label_plane = aggregate_masks(
                [stacks[i + k].fire_mask for k in range(1, window + 1)])
        label_date = dates[i + 1]
        split = split_map[label_date]
        if split == "excluded":
            continue

        clusters = find_fire_clusters(label_plane, stack.geo,
                                      cfg.cluster_merge_distance, date=label_date)
        paired = RasterStack(stack.date, stack.channel_names, stack.channels,
                             label_plane, stack.geo)
        pos = extract_positive_tiles(paired, clusters, cfg, split=split)
        neg_rng = np.random.default_rng(
            [cfg.rng_seed, _NEGATIVE_STREAM, (stack.date - _EPOCH).days])
        neg = sample_negative_tiles(paired, len(pos), cfg, neg_rng, split=split)

        day_samples = pos + neg
        if task == "sequence":
            frame_range = range(i - window + 1, i + 1)
            frame_dates = tuple(dates[k] for k in frame_range)
            day_samples = [
                SequenceSample(
                    features=np.stack([
                        stacks[k].channels[:, s.origin[0]:s.origin[0] + cfg.tile_size,
                                           s.origin[1]:s.origin[1] + cfg.tile_size]
                        for k in frame_range]),
                    label=s.label,
                    dates=frame_dates,
                    origin=s.origin,
                    split=s.split,
                    kind=s.kind,
                ) for s in day_samples
            ]
        samples.extend(day_samples)
    return samples


def split_subsets(samples):
    """Partition a dataset by split assignment."""
    out = {name: [] for name in SPLITS}
    for s in samples:
        out[s.split].append(s)
    return out


# ---------------------------------------------------------------------------
# WFDS dataset files
# ---------------------------------------------------------------------------

_FILE_HEADER = struct.Struct("<4sBQ")
_SAMPLE_HEADER = struct.Struct("<BBBqIIBHH")

# a WFDS kind, task or split code is the name's index in _KINDS, _TASKS, SPLITS
_KINDS = ("negative", "positive")


def _decode(path, field, names, code):
    if code >= len(names):
        raise ValueError(f"{path}: unknown {field} code {code}")
    return names[code]


def write_dataset(samples, task: str, path) -> None:
    """Serialize samples; sequence features are [T,C,h,w], others [C,h,w]."""
    parts = [_FILE_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(samples))]
    for s in samples:
        feats = np.ascontiguousarray(s.features, dtype="<f4")
        if feats.ndim == 3:
            t_steps = 1
            channels, tile = feats.shape[:2]
        else:
            t_steps, channels, tile = feats.shape[:3]
        parts.append(_SAMPLE_HEADER.pack(
            _KINDS.index(s.kind), _TASKS.index(task), SPLITS.index(s.split),
            (s.date - _EPOCH).days, s.origin[0], s.origin[1],
            t_steps, channels, tile))
        parts.append(feats.tobytes())
        parts.append(np.ascontiguousarray(s.label, dtype=np.int8).tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def read_dataset(path):
    """Returns (samples, task)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _FILE_HEADER.size or data[:4] != DATASET_MAGIC:
        raise ValueError(f"{path}: not a WFDS dataset file")
    _, version, count = _FILE_HEADER.unpack_from(data)
    if version != DATASET_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    pos = _FILE_HEADER.size
    samples = []
    task = None
    for _ in range(count):
        if pos + _SAMPLE_HEADER.size > len(data):
            raise ValueError(f"{path}: truncated sample header")
        kind, task_code, split, days, orow, ocol, t_steps, channels, tile = \
            _SAMPLE_HEADER.unpack_from(data, pos)
        pos += _SAMPLE_HEADER.size
        task = _decode(path, "task", _TASKS, task_code)
        kind = _decode(path, "kind", _KINDS, kind)
        split = _decode(path, "split", SPLITS, split)
        n_feat = t_steps * channels * tile * tile
        if pos + n_feat * 4 + tile * tile > len(data):
            raise ValueError(f"{path}: truncated sample payload")
        feats = np.frombuffer(data, dtype="<f4", count=n_feat, offset=pos)
        pos += n_feat * 4
        label = np.frombuffer(data, dtype=np.int8, count=tile * tile, offset=pos)
        pos += tile * tile
        label = label.reshape(tile, tile).copy()
        date = _EPOCH + datetime.timedelta(days=days)
        if task == "sequence":
            samples.append(SequenceSample(
                features=feats.reshape(t_steps, channels, tile, tile).copy(),
                label=label,
                dates=tuple(date - datetime.timedelta(days=t_steps - 1 - k)
                            for k in range(t_steps)),
                origin=(orow, ocol), split=split, kind=kind))
        else:
            samples.append(TileSample(
                features=feats.reshape(channels, tile, tile).copy(),
                label=label, date=date, origin=(orow, ocol), split=split, kind=kind))
    return samples, task
