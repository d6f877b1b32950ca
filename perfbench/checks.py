"""Checks on the outputs of one benchmark run, computed apart from firecast.

The scene (WFRS), dataset (WFDS) and map (PGM) files are parsed here from
their documented byte layouts. Labels, feature tiles, cluster counts, AUC,
confusion counts and the oracle ceiling are recomputed here from the scene
files and the workload's settings. firecast itself is used only to build
the model, load the trained checkpoint and run it forward, which gives the
checkpoint's probabilities that `eval` and `predict` must agree with and
the train-split loss that training must have lowered.

`check_run` returns a list of failure messages; an empty list means every
check passed.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import struct
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import (EPOCHS, LABEL_WINDOW, LEARN_WEIGHTS, MERGE_KM, NEGATIVE_RATIO,
                       POSITIVE_WEIGHT, THRESHOLD, Workload)

SPLITS = ("train", "val", "test")
EPOCH = datetime.date(1970, 1, 1)
DAY = datetime.timedelta(days=1)
BLOCK_DAYS = 7  # weekly split blocks; the last day of each is a buffer
AUC_TOL = 1e-9
CEILING_SLACK = 0.02
# training must close at least this share of the gap between the initial
# model's train loss and the best constant prediction's; README "Output
# checks" gives the shares seen over seeds 1 to 20
LEARNED_SHARE = 0.2
PREDICT_BATCH = 32  # the batch firecast.metrics.predict_pixels uses

_WFRS_HEADER = struct.Struct("<4sBIIH")
_WFRS_TRAILER = struct.Struct("<qddd")
_WFDS_HEADER = struct.Struct("<4sBQ")
# the writer packs kind, task, split (u8), date (i64), origin row/col (u32),
# frames (u8), channels and tile (u16): 24 bytes, no padding
_WFDS_SAMPLE = struct.Struct("<BBBqIIBHH")
_TASK_NAMES = ("daily", "aggregated", "sequence")
_KIND_NAMES = ("negative", "positive")


class CheckError(Exception):
    """An output of the pipeline disagrees with the independent computation."""


# what a missing, truncated or corrupt output file raises in the readers
_FAULTS = (CheckError, OSError, ValueError, KeyError, IndexError, struct.error)


def _require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    date: datetime.date
    channels: np.ndarray  # float32 [C, H, W]
    mask: np.ndarray  # int8 [H, W]
    pixel_size: float


@dataclass
class Sample:
    kind: str
    task: str
    split: str
    date: datetime.date  # last feature day; the label window starts a day later
    origin: tuple[int, int]
    features: np.ndarray  # float32 [T, C, tile, tile]
    label: np.ndarray  # int8 [tile, tile]


def read_wfrs(path) -> Scene:
    data = Path(path).read_bytes()
    magic, version, h, w, n_ch = _WFRS_HEADER.unpack_from(data)
    _require(magic == b"WFRS" and version == 1, f"{path}: not a WFRS v1 file")
    pos = _WFRS_HEADER.size
    for _ in range(n_ch):
        pos += 1 + data[pos]
    plane = h * w
    channels = np.frombuffer(data, "<f4", n_ch * plane, pos).reshape(n_ch, h, w)
    pos += 4 * n_ch * plane
    mask = np.frombuffer(data, np.int8, plane, pos).reshape(h, w)
    pos += plane
    days, _, _, pixel_size = _WFRS_TRAILER.unpack_from(data, pos)
    _require(pos + _WFRS_TRAILER.size == len(data), f"{path}: trailing bytes")
    return Scene(EPOCH + days * DAY, channels, mask, pixel_size)


def load_scenes(scenes_dir) -> dict[datetime.date, Scene]:
    scenes = [read_wfrs(p) for p in sorted(Path(scenes_dir).glob("*.wfrs"))]
    _require(scenes, f"no scenes in {scenes_dir}")
    return {s.date: s for s in scenes}


def wfds_count(path) -> int:
    """The sample count from a WFDS file header."""
    with open(path, "rb") as f:
        head = f.read(_WFDS_HEADER.size)
    magic, _, count = _WFDS_HEADER.unpack(head)
    _require(magic == b"WFDS", f"{path}: not a WFDS file")
    return count


def read_wfds(path) -> list[Sample]:
    data = Path(path).read_bytes()
    magic, version, count = _WFDS_HEADER.unpack_from(data)
    _require(magic == b"WFDS" and version == 1, f"{path}: not a WFDS v1 file")
    pos = _WFDS_HEADER.size
    out = []
    for _ in range(count):
        _require(pos + _WFDS_SAMPLE.size <= len(data), f"{path}: truncated header")
        kind, task, split, days, row, col, frames, ch, tile = \
            _WFDS_SAMPLE.unpack_from(data, pos)
        pos += _WFDS_SAMPLE.size
        n_feat = frames * ch * tile * tile
        _require(pos + 4 * n_feat + tile * tile <= len(data), f"{path}: truncated payload")
        feats = np.frombuffer(data, "<f4", n_feat, pos).reshape(frames, ch, tile, tile)
        pos += 4 * n_feat
        label = np.frombuffer(data, np.int8, tile * tile, pos).reshape(tile, tile)
        pos += tile * tile
        out.append(Sample(_KIND_NAMES[kind], _TASK_NAMES[task], SPLITS[split],
                          EPOCH + days * DAY, (row, col), feats, label))
    _require(pos == len(data), f"{path}: {len(data) - pos} trailing bytes")
    return out


def read_pgm(path):
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    _require(len(parts) == 4 and parts[0] == b"P5" and parts[2] == b"255",
             f"{path}: not an 8-bit P5 map")
    w, h = (int(v) for v in parts[1].split())
    _require(len(parts[3]) == w * h, f"{path}: {len(parts[3])} bytes for {w}x{h}")
    return np.frombuffer(parts[3], np.uint8).reshape(h, w)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------

def single_linkage(points: np.ndarray, radius: float) -> list[np.ndarray]:
    """Groups of points chained by steps of at most `radius` (breadth-first
    search over the pairwise distances)."""
    r2 = radius * radius
    unvisited = np.ones(len(points), dtype=bool)
    groups = []
    for seed in range(len(points)):
        if not unvisited[seed]:
            continue
        unvisited[seed] = False
        members = [seed]
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            cand = np.flatnonzero(unvisited)
            d = points[cand] - points[i]
            near = cand[(d * d).sum(axis=1) <= r2]
            unvisited[near] = False
            members.extend(near.tolist())
            frontier.extend(near.tolist())
        groups.append(points[members])
    return groups


def midrank_auc(scores, positive) -> float:
    """Mann-Whitney AUC with tied scores sharing their mean rank."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    order = np.argsort(scores, kind="mergesort")
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    _require(n_pos and n_neg, f"AUC needs both classes: {n_pos} fire, {n_neg} clear")
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def stable_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _label_days(task, feature_day):
    if task == "daily":
        return [feature_day + DAY]
    return [feature_day + k * DAY for k in range(1, LABEL_WINDOW + 1)]


def label_plane(scenes, task, feature_day):
    """Next-day mask, or the fire > uncertain > clear OR of the next seven."""
    masks = np.stack([scenes[d].mask for d in _label_days(task, feature_day)])
    return np.where((masks == 1).any(axis=0), 1,
                    np.where((masks == -1).any(axis=0), -1, 0)).astype(np.int8)


def oracle_score(scenes, wl: Workload, feature_day):
    """A monotone transform of the generating fire probability over the
    label window: the logit for one day, and -log prod(1 - p_d) =
    sum softplus(logit_d) for the 7-day window."""
    w = np.asarray(LEARN_WEIGHTS)[:, None, None]
    logits = [(w * scenes[d].channels.astype(np.float64)).sum(axis=0) + wl.bias
              for d in _label_days(wl.task, feature_day)]
    if wl.task == "daily":
        return logits[0]
    return sum(np.logaddexp(0.0, z) for z in logits)


def _window(centroid, shape, tile):
    h, w = shape
    r = int(math.floor(centroid[0] + 0.5)) - tile // 2
    c = int(math.floor(centroid[1] + 0.5)) - tile // 2
    return (min(max(r, 0), h - tile), min(max(c, 0), w - tile))


def _feature_days(task, date):
    frames = LABEL_WINDOW if task == "sequence" else 1
    return [date - k * DAY for k in range(frames - 1, -1, -1)]


def _eligible_feature_days(task, dates):
    """Feature days whose label day is sampled: enough history and future,
    and the label day is not the buffer day that ends a weekly block."""
    n = len(dates)
    out = []
    for i, day in enumerate(dates):
        if task == "daily":
            ok = i + 1 < n
        else:
            ok = i + LABEL_WINDOW < n and (task != "sequence" or i >= LABEL_WINDOW - 1)
        if ok and (dates[i + 1] - dates[0]).days % BLOCK_DAYS != BLOCK_DAYS - 1:
            out.append(day)
    return out


# ---------------------------------------------------------------------------
# per-verb checks
# ---------------------------------------------------------------------------

def check_datasets(work: Path, wl: Workload, scenes) -> dict[str, list[Sample]]:
    """build-dataset: labels, z-scored features, tile kinds, cluster counts,
    negative ratio and split adjacency, all against the scene files."""
    stats = json.loads((work / "stats.json").read_text())
    mean = np.asarray(stats["mean"])[:, None, None]
    std = np.maximum(np.asarray(stats["std"]), 1e-8)[:, None, None]
    zscored = {d: ((s.channels.astype(np.float64) - mean) / std).astype(np.float32)
               for d, s in scenes.items()}
    data = {sp: read_wfds(work / f"{wl.task}_{sp}.wfds") for sp in SPLITS}
    t = wl.tile
    planes = {}
    origins = defaultdict(lambda: {"positive": [], "negative": []})
    split_of = {}
    for split, samples in data.items():
        _require(samples, f"{split} split is empty")
        for s in samples:
            where = f"{split} {s.kind} sample {s.date} {s.origin}"
            _require(s.split == split and s.task == wl.task, f"{where}: wrong split/task code")
            if s.date not in planes:
                planes[s.date] = label_plane(scenes, wl.task, s.date)
            r0, c0 = s.origin
            _require(np.array_equal(s.label, planes[s.date][r0:r0 + t, c0:c0 + t]),
                     f"{where}: label differs from the scene masks")
            expect = np.stack([zscored[d][:, r0:r0 + t, c0:c0 + t]
                               for d in _feature_days(wl.task, s.date)])
            _require(expect.shape == s.features.shape
                     and np.allclose(s.features, expect, rtol=0, atol=1e-4),
                     f"{where}: features differ from the z-scored scene window")
            has_fire = bool((s.label == 1).any())
            _require(has_fire == (s.kind == "positive"),
                     f"{where}: {'fire in a negative' if has_fire else 'no fire in a positive'}")
            label_day = s.date + DAY
            _require(split_of.setdefault(label_day, split) == split,
                     f"label day {label_day} in two splits")
            origins[s.date][s.kind].append(s.origin)
    for day, split in split_of.items():
        nxt = split_of.get(day + DAY)
        _require(nxt in (None, split), f"adjacent label days {day} in {split}, next in {nxt}")

    dates = sorted(scenes)
    eligible = _eligible_feature_days(wl.task, dates)
    extra = set(origins) - set(eligible)
    _require(not extra, f"samples on unsampled days {sorted(extra)[:3]}")
    shape = scenes[dates[0]].mask.shape
    radius = MERGE_KM * 1000.0 / scenes[dates[0]].pixel_size
    for day in eligible:
        plane = planes.get(day)
        if plane is None:
            plane = label_plane(scenes, wl.task, day)
        clusters = single_linkage(np.argwhere(plane == 1), radius)
        expect = sorted(_window(c.mean(axis=0), shape, t) for c in clusters)
        got = origins[day]
        _require(sorted(got["positive"]) == expect,
                 f"feature day {day}: {len(got['positive'])} positives at other places "
                 f"than the {len(expect)} clusters")
        _require(len(got["negative"]) == NEGATIVE_RATIO * len(expect),
                 f"feature day {day}: {len(got['negative'])} negatives for "
                 f"{len(expect)} positives")
    return data


def _build_model(work: Path, rng):
    from firecast import models

    meta = json.loads((work / "checkpoint.json").read_text())
    return models.build(models.ModelConfig(
        arch=meta["arch"], filter_scheme=tuple(meta["filter_scheme"]),
        in_channels=meta["in_channels"], tile=meta["tile"],
        lstm_hidden=meta["lstm_hidden"]), rng)


def trained_model(work: Path):
    """The model in the trained checkpoint."""
    from firecast import nn

    model = _build_model(work, np.random.default_rng(0))
    model.load_params(nn.load_checkpoint(work / "checkpoint.wfck"))
    return model


def initial_model(work: Path, seed: int):
    """The model `train` started from: the checkpoint's architecture drawn
    from the run's init seed, as the train verb draws it."""
    from firecast.cli import _INIT_STREAM

    return _build_model(work, np.random.default_rng([seed, _INIT_STREAM]))


def model_logits(model, samples: list[Sample]) -> np.ndarray:
    """Per-sample logit planes [N, tile, tile], batched as firecast's
    evaluator batches them."""
    from firecast import nn

    sequence = model.config.is_sequence
    out = []
    with nn.no_grad():
        for lo in range(0, len(samples), PREDICT_BATCH):
            chunk = samples[lo:lo + PREDICT_BATCH]
            x = np.stack([s.features if sequence else s.features[0]
                          for s in chunk]).astype(np.float64)
            out.append(model.forward(x).data[:, 0])
    return np.concatenate(out)


def checkpoint_probabilities(work: Path, samples: list[Sample]) -> np.ndarray:
    """Per-sample probability planes [N, tile, tile] of the trained checkpoint."""
    return stable_sigmoid(model_logits(trained_model(work), samples))


def weighted_bce(logits, samples: list[Sample]) -> float:
    """Mean over non-uncertain pixels of w*y*softplus(-z) + (1-y)*softplus(z),
    with fire pixels weighted by the workload's positive weight."""
    z, fire = _pixels(samples, logits)
    return float(np.where(fire, POSITIVE_WEIGHT * np.logaddexp(0.0, -z),
                          np.logaddexp(0.0, z)).mean())


def constant_bce(samples: list[Sample]) -> float:
    """The lowest weighted BCE that one probability predicted for every
    pixel reaches: p = w*n1 / (w*n1 + n0) for n1 fire and n0 clear pixels."""
    labels = np.stack([s.label for s in samples])
    n1, n0 = int((labels == 1).sum()), int((labels == 0).sum())
    p = POSITIVE_WEIGHT * n1 / (POSITIVE_WEIGHT * n1 + n0)
    return -(POSITIVE_WEIGHT * n1 * math.log(p) + n0 * math.log1p(-p)) / (n1 + n0)


def _pixels(samples, probs):
    labels = np.stack([s.label for s in samples]).ravel()
    valid = labels != -1
    return probs.ravel()[valid], labels[valid] == 1


def check_train(work: Path, wl: Workload, seed: int, train: list[Sample],
                val: list[Sample]) -> tuple[float, float, float]:
    """train: one finite row per epoch; is_best marks each new best val AUC;
    the checkpoint scores the best val AUC; and training learned: on the
    train split, the checkpoint's weighted BCE closes at least LEARNED_SHARE
    of the gap from the initial model's to the best constant prediction's.
    Returns the three losses (initial, checkpoint, constant)."""
    rows = read_csv(work / "report.csv")
    _require([int(r["epoch"]) for r in rows] == list(range(1, EPOCHS + 1)),
             f"report.csv has epochs {[r['epoch'] for r in rows]}")
    best = -math.inf
    for r in rows:
        loss, auc = float(r["train_loss"]), float(r["val_auc"])
        _require(math.isfinite(loss) and math.isfinite(auc),
                 f"epoch {r['epoch']}: loss {loss}, val AUC {auc}")
        _require(int(r["is_best"]) == (auc > best),
                 f"epoch {r['epoch']}: is_best={r['is_best']} with val AUC {auc} "
                 f"after best {best}")
        best = max(best, auc)
    ckpt_auc = midrank_auc(*_pixels(val, checkpoint_probabilities(work, val)))
    _require(abs(ckpt_auc - best) <= AUC_TOL,
             f"checkpoint val AUC {ckpt_auc!r} != best epoch's {best!r}")
    start = weighted_bce(model_logits(initial_model(work, seed), train), train)
    end = weighted_bce(model_logits(trained_model(work), train), train)
    floor = constant_bce(train)
    _require(end <= start - LEARNED_SHARE * (start - floor),
             f"training did not learn: weighted BCE on the train split went from "
             f"{start:.4f} (initial model) to {end:.4f} (checkpoint), less than "
             f"{LEARNED_SHARE} of the way to {floor:.4f} (best constant prediction)")
    return start, end, floor


def check_eval(work: Path, wl: Workload, test: list[Sample], probs, scenes) -> float:
    """eval: AUC and confusion counts recomputed on the checkpoint's test
    probabilities; AUC at most the generating rule's AUC + slack."""
    (row,) = read_csv(work / "metrics.csv")
    scores, positive = _pixels(test, probs)
    n_valid = int(row["n_valid"])
    _require(n_valid == len(scores),
             f"n_valid {n_valid} != {len(scores)} non-uncertain test pixels")
    pred = scores >= THRESHOLD
    counts = {"tp": pred & positive, "fp": pred & ~positive,
              "tn": ~pred & ~positive, "fn": ~pred & positive}
    for key, hits in counts.items():
        _require(int(row[key]) == int(hits.sum()),
                 f"{key} {row[key]} != recomputed {int(hits.sum())}")
    _require(sum(int(row[k]) for k in counts) == n_valid, "tp+fp+tn+fn != n_valid")
    auc = float(row["auc"])
    mine = midrank_auc(scores, positive)
    _require(abs(auc - mine) <= AUC_TOL, f"auc {auc!r} != recomputed {mine!r}")

    t = wl.tile
    planes = {}
    tiles = []
    for s in test:
        if s.date not in planes:
            planes[s.date] = oracle_score(scenes, wl, s.date)
        r0, c0 = s.origin
        tiles.append(planes[s.date][r0:r0 + t, c0:c0 + t])
    oracle = np.stack(tiles)
    ceiling = midrank_auc(*_pixels(test, oracle))
    _require(auc <= ceiling + CEILING_SLACK,
             f"test AUC {auc:.4f} above the generating rule's {ceiling:.4f} + {CEILING_SLACK}")
    return ceiling


def check_predict(work: Path, wl: Workload, test: list[Sample], probs) -> None:
    """predict: min(max_maps, test size) P5 pairs; label maps are the WFDS
    labels at 255/0; probability maps within one grey level of eval's."""
    maps = work / "maps"
    n = min(wl.max_maps, len(test))
    names = sorted(p.name for p in maps.glob("*.pgm"))
    expect = sorted([f"prob_{i:04d}.pgm" for i in range(n)]
                    + [f"label_{i:04d}.pgm" for i in range(n)])
    _require(names == expect, f"{len(names)} map files, expected {2 * n}")
    for i in range(n):
        label = read_pgm(maps / f"label_{i:04d}.pgm")
        prob = read_pgm(maps / f"prob_{i:04d}.pgm")
        _require(label.shape == prob.shape == (wl.tile, wl.tile), f"map {i}: wrong size")
        _require(np.array_equal(label, np.where(test[i].label == 1, 255, 0)),
                 f"label map {i} differs from its WFDS label")
        grey = np.round(255.0 * probs[i])
        _require(np.abs(prob.astype(np.float64) - grey).max() <= 1,
                 f"probability map {i} more than one grey level from eval's")


def check_run(work, scenes_dir, wl: Workload, seed: int) -> tuple[list[str], dict]:
    """Run every check on the outputs of one run with init seed `seed`;
    returns (failures, facts)."""
    work = Path(work)
    failures = []

    def attempt(what, fn, *args):
        try:
            return fn(*args)
        except _FAULTS as e:
            failures.append(f"{what}: {e}")
            return None

    scenes = attempt("scenes", load_scenes, scenes_dir)
    data = scenes and attempt("build-dataset", check_datasets, work, wl, scenes)
    if not data:
        return failures, {}
    losses = attempt("train", check_train, work, wl, seed, data["train"], data["val"])
    probs = attempt("checkpoint", checkpoint_probabilities, work, data["test"])
    if probs is None:
        return failures, {}
    ceiling = attempt("eval", check_eval, work, wl, data["test"], probs, scenes)
    attempt("predict", check_predict, work, wl, data["test"], probs)
    return failures, {"ceiling_auc": ceiling, "train_bce": losses}
