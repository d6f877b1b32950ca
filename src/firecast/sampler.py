"""Turns a time-ordered stack collection into training datasets.

The three task framings share one sampling rule. A task is a pair
(ahead, frames): a sample's label plane is the OR of the fire masks of
the `ahead` days after its feature day t, and its features are the
`frames` days ending on t. With w = aggregation_window:

  daily       (1, 1)  features day t, label = day t+1's fire mask
  aggregated  (w, 1)  features day t, label = OR of days t+1..t+w
  sequence    (w, w)  features days t-w+1..t, label as in aggregated

Every task yields one Sample type: a daily or aggregated sample holds
one [C,S,S] feature frame, a sequence sample [T,C,S,S] frames, and each
stores one date, its last frame's. Samples are views, not copies: a
built sample's features view one [D,C,H,W] array of the stacks'
channels, z-scored with the channel stats of the train-split days only,
and its label views its day's label plane, and a sample read from a WFDS
file views the file's bytes. The placement functions give window
origins, one per fire cluster (single-linkage chaining with a distance
threshold) and negatives drawn uniformly from the same day's fire-free
windows at a fixed ratio; build_dataset cuts every sample from them.
Whole 7-day blocks are assigned to train/val/test with the last day of
each block excluded, so for the daily task no two splits hold adjacent
label days. The 7-day label windows of the aggregated and sequence tasks
are not kept apart: a window that starts at block offset 1 or later runs
into the next block, which may hold another split (on criterion 6's data,
5 of 12 to 20 of 24 test label days also fall in a train label window).
The fix changes which days are sampled, which perfbench/checks.py pins, so
it waits for a change to the benchmark (ROADMAP item 2).

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
  labels in {-1, 0, 1}, row-major. All samples of a file share one task
  and one (T, C, S); C and S are at least 1, and T is 1 unless the task
  is sequence, where T >= 1.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import raster
from .binio import EPOCH, FormatError, Reader
from .raster import GeoTransform, RasterStack, box_sums, is_fire_mask

BLOCK_DAYS = 7
# trailing days of each block left out of every split
BUFFER_DAYS = 1
SPLITS = ("train", "val", "test")
TASKS = ("daily", "aggregated", "sequence")

DATASET_MAGIC = b"WFDS"
DATASET_VERSION = 1

# index entries gathered at once by find_fire_clusters (8 MB of intp)
_GATHER_BLOCK = 1 << 20

# fixed sub-stream tags so parallel and serial dataset builds agree
_SPLIT_STREAM = 1
_NEGATIVE_STREAM = 2


class NoFireFreeWindowError(RuntimeError):
    """Every tile-sized window of a day's label plane holds fire."""


@dataclass(frozen=True)
class SamplerConfig:
    tile_size: int = 32
    cluster_merge_distance: float = 10.0  # km
    negative_ratio: float = 2.0
    split_ratio: tuple[float, float, float] = (6.0, 1.0, 1.0)
    aggregation_window: int = 7
    rng_seed: int = 0

    def __post_init__(self):
        if self.tile_size <= 0:
            raise ValueError("tile_size must be > 0")
        if self.cluster_merge_distance <= 0:
            raise ValueError("cluster_merge_distance must be > 0")
        if self.negative_ratio < 0:
            raise ValueError("negative_ratio must be >= 0")
        if len(self.split_ratio) != len(SPLITS):
            raise ValueError(f"split_ratio needs {len(SPLITS)} entries, one per split")
        if any(r <= 0 for r in self.split_ratio):
            raise ValueError("split_ratio components must be positive")
        if self.aggregation_window <= 0:
            raise ValueError("aggregation_window must be > 0")


@dataclass
class Sample:
    """A feature tile and its label. A sequence's T frames are the T
    consecutive days ending on `date`; the label window starts the day
    after it."""

    features: np.ndarray  # float32 [C, S, S], or [T, C, S, S] for sequences
    label: np.ndarray  # int8 [S, S], values in {-1, 0, 1}
    date: datetime.date  # the last frame's day
    origin: tuple[int, int]  # (row, col) of the window in the source grid
    split: str
    kind: str  # positive | negative


def last_frame(samples) -> list[Sample]:
    """Each sequence sample's final frame as a sample sharing its arrays,
    so an image model reads the same tiles a sequence model does."""
    return [replace(s, features=s.features[-1]) for s in samples]


@dataclass(frozen=True)
class FireCluster:
    pixels: frozenset[tuple[int, int]]

    def centroid(self):
        rows, cols = zip(*self.pixels)
        return (sum(rows) / len(rows), sum(cols) / len(cols))


# ---------------------------------------------------------------------------
# fire clustering
# ---------------------------------------------------------------------------

def find_fire_clusters(mask, geo: GeoTransform, merge_km: float) -> list[FireCluster]:
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
    return [FireCluster(frozenset(pixels[bounds[j]:bounds[j + 1]]))
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


def _window(a, origin, t):
    """A view of the t x t window at origin over a's last two axes."""
    r0, c0 = origin
    return a[..., r0:r0 + t, c0:c0 + t]


def extract_positive_tiles(stack: RasterStack, clusters,
                           cfg: SamplerConfig) -> list[tuple[int, int]]:
    """The (row, col) origin of one tile per cluster, centered on its
    rounded centroid and clamped inside the stack's grid."""
    t = cfg.tile_size
    if stack.height < t or stack.width < t:
        raise ValueError(
            f"grid {stack.height}x{stack.width} smaller than tile size {t}")
    return [_window_origin(c.centroid(), (stack.height, stack.width), t) for c in clusters]


def sample_negative_tiles(stack: RasterStack, n_positive: int,
                          cfg: SamplerConfig, rng) -> list[tuple[int, int]]:
    """The (row, col) origins of exactly negative_ratio * n_positive
    windows drawn uniformly, with replacement, from those whose window of
    the stack's fire mask holds no fire (uncertain pixels allowed).

    One integral image of the fire pixels counts the fire under every
    origin; draws of (row, col) are then accepted iff that count is 0.
    Raises NoFireFreeWindowError when no origin is fire-free, so the
    draws always end.
    """
    if n_positive < 0:
        raise ValueError("n_positive must be >= 0")
    target = int(round(cfg.negative_ratio * n_positive))
    if target == 0:
        return []
    t = cfg.tile_size
    if stack.height < t or stack.width < t:
        raise ValueError(
            f"grid {stack.height}x{stack.width} smaller than tile size {t}")
    rows = np.arange(stack.height - t + 1)
    cols = np.arange(stack.width - t + 1)
    fire_free = box_sums(stack.fire_mask == 1, (rows, rows + t), (cols, cols + t)) == 0
    if not fire_free.any():
        raise NoFireFreeWindowError(
            f"no fire-free {t}x{t} window on {stack.date}")
    origins = []
    while len(origins) < target:
        r0 = int(rng.integers(0, len(rows)))
        c0 = int(rng.integers(0, len(cols)))
        if fire_free[r0, c0]:
            origins.append((r0, c0))
    return origins


# ---------------------------------------------------------------------------
# split assignment and label aggregation
# ---------------------------------------------------------------------------

def assign_splits(dates, cfg: SamplerConfig, rng) -> dict[datetime.date, str]:
    """Group days into consecutive 7-day blocks from the earliest date and
    draw each block's split with probabilities split_ratio/sum; the final
    BUFFER_DAYS day(s) of every block map to "excluded"."""
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
        if offset % BLOCK_DAYS >= BLOCK_DAYS - BUFFER_DAYS:
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
    """(samples, stats): samples for every feature day t with the task's
    `frames - 1` days before it and `ahead` days after it, skipping days
    whose label day t+1 is excluded, and the train-split days' channel
    stats. A day's tiles are placed on its label plane, positives before
    negatives. A sample's features view its window of one [D, C, H, W]
    array of the channels z-scored with stats, day t or, for a sequence,
    days t-frames+1..t; its label views the label plane, and its date is
    t. Deterministic given (stacks, cfg.rng_seed)."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    stacks = list(stacks)
    if not stacks:
        raise ValueError("no stacks")
    dates = [s.date for s in stacks]
    for a, b in zip(dates, dates[1:]):
        if (b - a).days != 1:
            raise ValueError(f"stacks must cover consecutive dates, gap {a} -> {b}")
    if len({s.channels.shape for s in stacks}) > 1:
        raise ValueError("stacks must share one channel count and grid")

    w = cfg.aggregation_window
    ahead, frames = {"daily": (1, 1), "aggregated": (w, 1), "sequence": (w, w)}[task]
    split_map = assign_splits(dates, cfg,
                              np.random.default_rng([cfg.rng_seed, _SPLIT_STREAM]))
    train_stacks = [s for s in stacks if split_map[s.date] == "train"]
    if not train_stacks:
        raise ValueError("no stacks fall in the train split; need more days")
    stats = raster.compute_stats(train_stacks)
    scene = np.empty((len(stacks), *stacks[0].channels.shape), np.float32)
    for k, stack in enumerate(stacks):
        scene[k] = raster.normalize(stack, stats).channels
    t = cfg.tile_size
    samples = []
    for i in range(frames - 1, len(stacks) - ahead):
        split = split_map[dates[i + 1]]
        if split == "excluded":
            continue
        label_plane = aggregate_masks([s.fire_mask for s in stacks[i + 1:i + 1 + ahead]])
        day = RasterStack(dates[i], stacks[i].channel_names, scene[i], label_plane,
                          stacks[i].geo)
        clusters = find_fire_clusters(label_plane, day.geo, cfg.cluster_merge_distance)
        pos = extract_positive_tiles(day, clusters, cfg)
        neg_rng = np.random.default_rng(
            [cfg.rng_seed, _NEGATIVE_STREAM, (dates[i] - EPOCH).days])
        neg = sample_negative_tiles(day, len(pos), cfg, neg_rng)
        feats = scene[i] if frames == 1 else scene[i + 1 - frames:i + 1]
        samples += [Sample(_window(feats, o, t), _window(label_plane, o, t), dates[i], o,
                           split, kind)
                    for kind, origins in (("positive", pos), ("negative", neg))
                    for o in origins]
    return samples, stats


def split_subsets(samples):
    """Partition a dataset by split assignment."""
    out = {name: [] for name in SPLITS}
    for s in samples:
        out[s.split].append(s)
    return out


# ---------------------------------------------------------------------------
# WFDS dataset files
# ---------------------------------------------------------------------------

_COUNT = struct.Struct("<Q")
_SAMPLE_HEADER = struct.Struct("<BBBqIIBHH")

# a WFDS kind, task or split code is the name's index in _KINDS, TASKS, SPLITS
_KINDS = ("negative", "positive")


def _decode(path, field, names, code):
    if code >= len(names):
        raise FormatError(f"{path}: unknown {field} code {code}")
    return names[code]


def write_dataset(samples, task: str, path) -> None:
    """Serialize samples; sequence features are [T,C,h,w], others [C,h,w].
    Each header, feature block and label block goes to the file as it is
    made, so no copy of the whole file is held."""
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC + bytes((DATASET_VERSION,)) + _COUNT.pack(len(samples)))
        for s in samples:
            feats = np.ascontiguousarray(s.features, dtype="<f4")
            f.write(_SAMPLE_HEADER.pack(
                _KINDS.index(s.kind), TASKS.index(task), SPLITS.index(s.split),
                (s.date - EPOCH).days, s.origin[0], s.origin[1],
                feats.shape[0] if feats.ndim == 4 else 1, feats.shape[-3], feats.shape[-1]))
            f.write(feats)
            f.write(np.ascontiguousarray(s.label, dtype=np.int8))


def read_dataset(path):
    """Returns (samples, task); every sample must carry the same task. The
    samples' arrays are read-only views of the file's bytes."""
    r = Reader(path, DATASET_MAGIC, DATASET_VERSION)
    (count,) = r.unpack(_COUNT)
    samples = []
    task = dims = None
    for i in range(count):
        kind, task_code, split, days, orow, ocol, t_steps, channels, tile = \
            r.unpack(_SAMPLE_HEADER)
        sample_task = _decode(path, "task", TASKS, task_code)
        kind = _decode(path, "kind", _KINDS, kind)
        split = _decode(path, "split", SPLITS, split)
        if task not in (None, sample_task):
            raise FormatError(
                f"{path}: sample {i} has task {sample_task!r}, earlier samples {task!r}")
        task = sample_task
        if t_steps == 0 or (t_steps != 1 and task != "sequence"):
            raise FormatError(f"{path}: sample {i} of task {task!r} has T = {t_steps}")
        if channels == 0 or tile == 0:
            raise FormatError(f"{path}: sample {i} has C = {channels}, S = {tile}")
        if dims not in (None, (t_steps, channels, tile)):
            raise FormatError(f"{path}: sample {i} has (T, C, S) = "
                              f"{(t_steps, channels, tile)}, earlier samples {dims}")
        dims = (t_steps, channels, tile)
        frames = (t_steps,) if task == "sequence" else ()
        feats = r.array("<f4", frames + (channels, tile, tile))
        label = r.array(np.int8, (tile, tile))
        if not is_fire_mask(label):
            raise FormatError(f"{path}: sample {i} has a label outside {{-1, 0, 1}}")
        r.date(days - t_steps + 1)  # the first frame's date must be in range too
        samples.append(Sample(features=feats, label=label, date=r.date(days),
                              origin=(orow, ocol), split=split, kind=kind))
    r.done()
    return samples, task
