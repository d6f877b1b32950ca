import datetime
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firecast import raster, sampler
from firecast.binio import FormatError
from firecast.raster import CHANNELS, GeoTransform, RasterStack
from firecast.sampler import (
    FireCluster,
    NoFireFreeWindowError,
    Sample,
    SamplerConfig,
    aggregate_masks,
    assign_splits,
    build_dataset,
    extract_positive_tiles,
    find_fire_clusters,
    last_frame,
    read_dataset,
    sample_negative_tiles,
    split_subsets,
    write_dataset,
)

GEO_1KM = GeoTransform(0.0, 0.0, 1000.0)
D0 = datetime.date(2018, 6, 1)


def bfs_cluster_oracle(mask, radius_px):
    """Brute-force BFS over the radius neighborhood; scans all fire pixels
    per expansion. Returns a set of frozensets of (row, col)."""
    fire = [tuple(p) for p in np.argwhere(np.asarray(mask) == 1)]
    unvisited = set(fire)
    clusters = set()
    while unvisited:
        seed = next(iter(unvisited))
        unvisited.discard(seed)
        queue = deque([seed])
        members = {seed}
        while queue:
            r, c = queue.popleft()
            reached = [p for p in unvisited
                       if (p[0] - r) ** 2 + (p[1] - c) ** 2 <= radius_px ** 2]
            for p in reached:
                unvisited.discard(p)
                members.add(p)
                queue.append(p)
        clusters.add(frozenset(members))
    return clusters


def stack_with_mask(mask, n_channels=10, seed=0, date=D0, geo=GEO_1KM):
    mask = np.asarray(mask, dtype=np.int8)
    rng = np.random.default_rng(seed)
    channels = rng.normal(size=(n_channels, *mask.shape)).astype(np.float32)
    return RasterStack(date, CHANNELS[:n_channels], channels, mask, geo)


# --- clustering -------------------------------------------------------------------

def test_two_pixels_5km_apart_merge():
    mask = np.zeros((32, 32), dtype=np.int8)
    mask[10, 10] = 1
    mask[10, 15] = 1  # 5 px = 5 km
    clusters = find_fire_clusters(mask, GEO_1KM, merge_km=10.0)
    assert len(clusters) == 1
    assert clusters[0].pixels == frozenset({(10, 10), (10, 15)})


def test_two_pixels_15km_apart_stay_separate():
    mask = np.zeros((32, 32), dtype=np.int8)
    mask[10, 10] = 1
    mask[10, 25] = 1
    clusters = find_fire_clusters(mask, GEO_1KM, merge_km=10.0)
    assert len(clusters) == 2


def test_threshold_is_inclusive():
    mask = np.zeros((16, 16), dtype=np.int8)
    mask[0, 0] = 1
    mask[0, 10] = 1
    assert len(find_fire_clusters(mask, GEO_1KM, 10.0)) == 1


def test_chain_connectivity():
    # pixels 8 km apart pairwise chain into one cluster spanning 16 km
    mask = np.zeros((8, 40), dtype=np.int8)
    mask[4, 0] = mask[4, 8] = mask[4, 16] = 1
    clusters = find_fire_clusters(mask, GEO_1KM, 10.0)
    assert len(clusters) == 1
    assert len(clusters[0].pixels) == 3


def test_no_fire_returns_empty():
    assert find_fire_clusters(np.zeros((8, 8), dtype=np.int8), GEO_1KM, 10.0) == []


def test_uncertain_pixels_not_clustered():
    mask = np.full((8, 8), -1, dtype=np.int8)
    assert find_fire_clusters(mask, GEO_1KM, 10.0) == []


def test_pixel_size_scales_distance():
    mask = np.zeros((8, 8), dtype=np.int8)
    mask[0, 0] = mask[0, 4] = 1
    # 4 px at 4 km/px = 16 km -> separate
    assert len(find_fire_clusters(mask, GeoTransform(0, 0, 4000.0), 10.0)) == 2
    # 4 px at 1 km/px = 4 km -> merged
    assert len(find_fire_clusters(mask, GEO_1KM, 10.0)) == 1


# (shape, fire share, uncertain share, pixel size m, merge km): dense,
# thin and non-square grids, uncertain pixels among the fire, non-integer
# radii and radii below one pixel
ORACLE_CASES = [
    ((64, 64), 0.10, 0.0, 1000.0, 10.0),
    ((32, 32), 0.40, 0.0, 1000.0, 10.0),
    ((1, 200), 0.30, 0.2, 1000.0, 1.0),  # r = 1
    ((7, 64), 0.25, 0.3, 1500.0, 10.0),  # r = 6.67
    ((40, 24), 0.10, 0.1, 4000.0, 10.0),  # r = 2.5
    ((32, 32), 0.40, 0.1, 250.0, 0.6),  # r = 2.4
    ((24, 40), 0.40, 0.2, 250.0, 0.36),  # r = 1.44
    ((16, 48), 0.40, 0.2, 1500.0, 1.2),  # r = 0.8
    ((16, 16), 0.40, 0.0, 4000.0, 3.0),  # r = 0.75
]


def cluster_order_key(pixels):
    """The documented order: (min row, min col), ties to the cluster whose
    first pixel in row-major order comes first."""
    return (min(r for r, _ in pixels), min(c for _, c in pixels), min(pixels))


def oracle_inputs():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        yield (rng.uniform(size=(64, 64)) < 0.02).astype(np.int8), GEO_1KM, 10.0
    for case, (shape, fire, uncertain, pixel_m, merge_km) in enumerate(ORACLE_CASES):
        for seed in range(5):
            u = np.random.default_rng([case, seed]).uniform(size=shape)
            mask = np.where(u < fire, 1, np.where(u > 1.0 - uncertain, -1, 0))
            yield mask.astype(np.int8), GeoTransform(0.0, 0.0, pixel_m), merge_km


def test_clustering_matches_bfs_oracle_100_masks():
    ties = 0
    for mask, geo, merge_km in oracle_inputs():
        got = [c.pixels for c in find_fire_clusters(mask, geo, merge_km)]
        want = sorted(bfs_cluster_oracle(mask, merge_km * 1000.0 / geo.pixel_size),
                      key=cluster_order_key)
        assert got == want
        keys = [cluster_order_key(p)[:2] for p in want]
        ties += sum(a == b for a, b in zip(keys, keys[1:]))
    assert ties > 0  # the tie-break was exercised

    whole = find_fire_clusters(np.ones((96, 96), dtype=np.int8), GEO_1KM, 10.0)
    assert len(whole) == 1 and len(whole[0].pixels) == 96 * 96


def test_clustering_in_gather_blocks_gives_the_same_clusters(monkeypatch):
    cases = list(oracle_inputs())[100::5]  # one mask per ORACLE_CASES row
    whole = [find_fire_clusters(*case) for case in cases]
    monkeypatch.setattr(sampler, "_GATHER_BLOCK", 50)
    assert [find_fire_clusters(*case) for case in cases] == whole


def test_cluster_partition_covers_all_fire_pixels():
    rng = np.random.default_rng(123)
    mask = (rng.uniform(size=(64, 64)) < 0.05).astype(np.int8)
    clusters = find_fire_clusters(mask, GEO_1KM, 10.0)
    union = set()
    total = 0
    for c in clusters:
        union |= c.pixels
        total += len(c.pixels)
    assert union == {tuple(p) for p in np.argwhere(mask == 1)}
    assert total == len(union)  # no pixel in two clusters


def test_cluster_output_order_deterministic():
    mask = np.zeros((64, 64), dtype=np.int8)
    mask[50, 3] = mask[2, 40] = mask[30, 30] = 1
    clusters = find_fire_clusters(mask, GEO_1KM, 5.0)
    mins = [min(c.pixels) for c in clusters]
    assert mins == sorted(mins)


# --- positive tiles ----------------------------------------------------------------

def centered_cluster(r, c):
    return FireCluster(frozenset({(r, c)}))


def test_tile_centered_on_centroid():
    stack = stack_with_mask(np.zeros((256, 256)), n_channels=2)
    cfg = SamplerConfig(tile_size=128)
    assert extract_positive_tiles(stack, [centered_cluster(128, 128)], cfg) == [(64, 64)]


def test_tile_clamped_at_edge():
    stack = stack_with_mask(np.zeros((256, 256)), n_channels=1)
    cfg = SamplerConfig(tile_size=128)
    assert extract_positive_tiles(stack, [centered_cluster(100, 3)], cfg) == [(36, 0)]
    assert extract_positive_tiles(stack, [centered_cluster(254, 254)], cfg) == [(128, 128)]


def test_tiles_contain_their_clusters():
    rng = np.random.default_rng(3)
    mask = np.zeros((512, 512), dtype=np.int8)
    for _ in range(5):
        r, c = rng.integers(0, 512, size=2)
        mask[r, c] = 1
        # a couple neighbors to give clusters extent
        mask[min(r + rng.integers(0, 5), 511), c] = 1
    stack = stack_with_mask(mask, n_channels=1, seed=3)
    cfg = SamplerConfig(tile_size=128)
    clusters = find_fire_clusters(mask, GEO_1KM, 10.0)
    origins = extract_positive_tiles(stack, clusters, cfg)
    assert len(origins) == len(clusters)
    for (r0, c0), cluster in zip(origins, clusters):
        for (r, c) in cluster.pixels:
            assert r0 <= r < r0 + 128 and c0 <= c < c0 + 128


def test_grid_smaller_than_tile_rejected():
    stack = stack_with_mask(np.zeros((64, 64)), n_channels=1)
    with pytest.raises(ValueError):
        extract_positive_tiles(stack, [centered_cluster(3, 3)],
                               SamplerConfig(tile_size=128))


# --- negative tiles -----------------------------------------------------------------

def test_negative_ratio_exact_and_fire_free():
    mask = np.zeros((300, 300), dtype=np.int8)
    mask[10, 10] = 1
    stack = stack_with_mask(mask, n_channels=1)
    cfg = SamplerConfig(tile_size=64, negative_ratio=2.0)
    negs = sample_negative_tiles(stack, 3, cfg, np.random.default_rng(0))
    assert len(negs) == 6
    for r0, c0 in negs:
        assert (mask[r0:r0 + 64, c0:c0 + 64] != 1).all()


def test_zero_positives_no_negatives():
    stack = stack_with_mask(np.zeros((128, 128)), n_channels=1)
    cfg = SamplerConfig(tile_size=64)
    assert sample_negative_tiles(stack, 0, cfg, np.random.default_rng(0)) == []


def test_saturated_grid_exhausts_cap():
    stack = stack_with_mask(np.ones((64, 64)), n_channels=1)
    cfg = SamplerConfig(tile_size=32, negative_ratio=2.0)
    with pytest.raises(NoFireFreeWindowError,
                       match=f"no fire-free 32x32 window on {D0}"):
        sample_negative_tiles(stack, 1, cfg, np.random.default_rng(0))


def test_single_fire_free_origin_is_found():
    """Fire everywhere but one 32x32 window: 1 of 28,561 origins is free,
    far more draws than an attempt cap of 1000 per negative allows."""
    mask = np.ones((200, 200), dtype=np.int8)
    mask[100:132, 50:82] = 0
    stack = stack_with_mask(mask, n_channels=2)
    cfg = SamplerConfig(tile_size=32, negative_ratio=2.0)
    assert sample_negative_tiles(stack, 1, cfg, np.random.default_rng(0)) == \
        [(100, 50), (100, 50)]


def reference_negative_origins(mask, tile, target, rng):
    """Uncapped rejection: draw (row, col) until `target` windows hold no
    fire pixel, testing each window directly."""
    h, w = mask.shape
    origins = []
    while len(origins) < target:
        r0 = int(rng.integers(0, h - tile + 1))
        c0 = int(rng.integers(0, w - tile + 1))
        if not (mask[r0:r0 + tile, c0:c0 + tile] == 1).any():
            origins.append((r0, c0))
    return origins


@pytest.mark.parametrize("fire", [0.005, 0.02, 0.1, 0.2, 0.4])
def test_negative_origins_match_uncapped_reference(fire):
    compared = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 1])
        h, w = (int(v) for v in rng.integers(8, 40, size=2))
        u = rng.uniform(size=(h, w))
        mask = np.where(u < fire, 1, np.where(u > 0.95, -1, 0)).astype(np.int8)
        tile = int(rng.integers(1, 7))
        stack = stack_with_mask(mask, n_channels=1)
        cfg = SamplerConfig(tile_size=tile, negative_ratio=1.5)
        windows = [mask[r:r + tile, c:c + tile]
                   for r in range(h - tile + 1) for c in range(w - tile + 1)]
        if not any((win != 1).all() for win in windows):
            with pytest.raises(NoFireFreeWindowError):
                sample_negative_tiles(stack, 4, cfg, np.random.default_rng(seed))
            continue
        negs = sample_negative_tiles(stack, 4, cfg, np.random.default_rng(seed))
        assert negs == reference_negative_origins(
            mask, tile, 6, np.random.default_rng(seed))
        compared += 1
    assert compared >= 5


def test_negatives_can_contain_uncertain():
    mask = np.full((96, 96), -1, dtype=np.int8)
    stack = stack_with_mask(mask, n_channels=1)
    cfg = SamplerConfig(tile_size=32, negative_ratio=1.0)
    negs = sample_negative_tiles(stack, 2, cfg, np.random.default_rng(1))
    assert len(negs) == 2


# --- split assignment ----------------------------------------------------------------

def all_days(start, n):
    return [start + datetime.timedelta(days=i) for i in range(n)]


def test_buffer_day_is_last_of_block():
    days = all_days(D0, 28)
    cfg = SamplerConfig()
    split = assign_splits(days, cfg, np.random.default_rng(0))
    for i, d in enumerate(days):
        if i % 7 == 6:
            assert split[d] == "excluded"
        else:
            assert split[d] in ("train", "val", "test")


def test_block_members_share_split():
    days = all_days(D0, 70)
    split = assign_splits(days, SamplerConfig(), np.random.default_rng(1))
    for b in range(10):
        block = [split[days[b * 7 + k]] for k in range(6)]
        assert len(set(block)) == 1


def test_split_ratio_within_3_sigma():
    days = all_days(D0, 400 * 7)
    split = assign_splits(days, SamplerConfig(), np.random.default_rng(7))
    block_split = [split[days[b * 7]] for b in range(400)]
    counts = {s: block_split.count(s) for s in ("train", "val", "test")}
    assert sum(counts.values()) == 400
    for name, p in (("train", 6 / 8), ("val", 1 / 8), ("test", 1 / 8)):
        sigma = np.sqrt(400 * p * (1 - p))
        assert abs(counts[name] - 400 * p) <= 3 * sigma, (name, counts)


def test_no_adjacent_days_across_splits():
    days = all_days(D0, 35 * 7)
    split = assign_splits(days, SamplerConfig(), np.random.default_rng(3))
    for a, b in zip(days, days[1:]):
        if split[a] != "excluded" and split[b] != "excluded":
            assert split[a] == split[b]


# --- aggregation -----------------------------------------------------------------------

def test_aggregate_all_zero():
    planes = [np.zeros((4, 4), dtype=np.int8)] * 7
    np.testing.assert_array_equal(aggregate_masks(planes), 0)


def test_aggregate_or_semantics():
    planes = [np.zeros((4, 4), dtype=np.int8) for _ in range(7)]
    planes[3][2, 1] = 1
    out = aggregate_masks(planes)
    assert out[2, 1] == 1
    assert out.sum() == 1


def test_aggregate_uncertain_precedence():
    history = [0, -1, 0, 0, 0, 0, 0]
    planes = [np.full((1, 1), v, dtype=np.int8) for v in history]
    assert aggregate_masks(planes)[0, 0] == -1


def test_aggregate_precedence_exhaustive_3pow7():
    # fire beats uncertain beats clear, over every single-pixel history
    for code in range(3 ** 7):
        digits = []
        x = code
        for _ in range(7):
            digits.append(x % 3 - 1)  # -1, 0, 1
            x //= 3
        planes = [np.full((1, 1), v, dtype=np.int8) for v in digits]
        got = int(aggregate_masks(planes)[0, 0])
        if 1 in digits:
            assert got == 1
        elif -1 in digits:
            assert got == -1
        else:
            assert got == 0


@settings(max_examples=1000, deadline=None)
@given(history=st.lists(st.sampled_from([-1, 0, 1]), min_size=7, max_size=7),
       dup=st.integers(0, 6), seed=st.integers(0, 2**31))
def test_aggregate_order_invariant_and_idempotent(history, dup, seed):
    planes = [np.full((2, 2), v, dtype=np.int8) for v in history]
    base = aggregate_masks(planes)
    perm = list(np.random.default_rng(seed).permutation(7))
    np.testing.assert_array_equal(base, aggregate_masks([planes[i] for i in perm]))
    np.testing.assert_array_equal(base, aggregate_masks(planes + [planes[dup]]))


def test_aggregate_shape_mismatch():
    with pytest.raises(ValueError):
        aggregate_masks([np.zeros((2, 2)), np.zeros((3, 3))])


# --- dataset building ---------------------------------------------------------------------

def scene_series(n_days, h=160, w=160, max_fires=3, seed=0):
    """Sparse compact fire blobs, so fire-free windows always exist."""
    stacks = []
    for i in range(n_days):
        rng = np.random.default_rng([seed, i])
        mask = np.zeros((h, w), dtype=np.int8)
        for _ in range(int(rng.integers(0, max_fires + 1))):
            r, c = rng.integers(4, h - 4), rng.integers(4, w - 4)
            for _ in range(int(rng.integers(1, 6))):
                dr, dc = rng.integers(-2, 3, size=2)
                mask[r + dr, c + dc] = 1
        stacks.append(stack_with_mask(mask, n_channels=3, seed=seed + i,
                                      date=D0 + datetime.timedelta(days=i)))
    return stacks


def small_cfg(**kw):
    defaults = dict(tile_size=32, negative_ratio=2.0, rng_seed=0)
    defaults.update(kw)
    return SamplerConfig(**defaults)


def test_daily_candidate_days():
    stacks = scene_series(10)
    cfg = small_cfg()
    samples, _ = build_dataset(stacks, cfg, "daily")
    feature_dates = {s.date for s in samples}
    # label days run from day 2 to day 10, minus excluded ones
    split = assign_splits([s.date for s in stacks], cfg,
                          np.random.default_rng([cfg.rng_seed, 1]))
    allowed = {d - datetime.timedelta(days=1)
               for d in split if split[d] != "excluded" and d > stacks[0].date}
    assert feature_dates <= allowed


def test_aggregated_needs_full_future_window():
    stacks = scene_series(10)
    samples, _ = build_dataset(stacks, small_cfg(), "aggregated")
    last_ok = stacks[10 - 8].date  # t+7 must exist
    for s in samples:
        assert s.date <= last_ok


def test_sequence_sample_shape_and_dates():
    stacks = scene_series(16)
    samples, _ = build_dataset(stacks, small_cfg(), "sequence")
    assert samples, "expected at least one sequence sample"
    for s in samples:
        assert s.features.shape == (7, 3, 32, 32)
        # the 7 frames end on the sample's date, and all 7 lie in the series
        assert s.date - datetime.timedelta(days=6) >= stacks[0].date


def test_daily_is_aggregated_over_one_day():
    stacks = scene_series(12, seed=3)
    daily, _ = build_dataset(stacks, small_cfg(), "daily")
    one_day, _ = build_dataset(stacks, small_cfg(aggregation_window=1), "aggregated")
    assert daily and len(daily) == len(one_day)
    for a, b in zip(daily, one_day):
        assert (a.date, a.origin, a.split, a.kind) == (b.date, b.origin, b.split, b.kind)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.label, b.label)


def test_samples_are_views(tmp_path):
    stacks = scene_series(16, seed=7)
    samples, _ = build_dataset(stacks, small_cfg(), "sequence")
    assert samples
    scene = samples[0].features.base
    assert scene.shape == (16, 3, 160, 160)
    for s in samples:
        assert s.features.base is scene
        assert not s.label.flags.owndata
    p = tmp_path / "s.wfds"
    write_dataset(samples, "sequence", p)
    for s in read_dataset(p)[0]:
        assert not s.features.flags.owndata and not s.features.flags.writeable
        assert not s.label.flags.owndata and not s.label.flags.writeable


def test_negative_to_positive_ratio_per_day():
    stacks = scene_series(12, seed=4)
    samples, _ = build_dataset(stacks, small_cfg(), "daily")
    by_date = {}
    for s in samples:
        pos, neg = by_date.get(s.date, (0, 0))
        if s.kind == "positive":
            by_date[s.date] = (pos + 1, neg)
        else:
            by_date[s.date] = (pos, neg + 1)
    assert by_date, "no samples generated"
    for date, (pos, neg) in by_date.items():
        assert neg == 2 * pos


def test_splits_follow_label_date_block():
    stacks = scene_series(21, seed=5)
    cfg = small_cfg()
    samples, _ = build_dataset(stacks, cfg, "daily")
    split = assign_splits([s.date for s in stacks], cfg,
                          np.random.default_rng([cfg.rng_seed, 1]))
    for s in samples:
        label_date = s.date + datetime.timedelta(days=1)
        assert s.split == split[label_date]


@pytest.mark.parametrize("task", ["daily", "aggregated", "sequence"])
def test_build_normalizes_with_train_split_stats(task):
    stacks = scene_series(16, seed=7)
    cfg = small_cfg()
    samples, stats = build_dataset(stacks, cfg, task)
    assert samples
    split = assign_splits([s.date for s in stacks], cfg,
                          np.random.default_rng([cfg.rng_seed, sampler._SPLIT_STREAM]))
    expected = raster.compute_stats([s for s in stacks if split[s.date] == "train"])
    assert stats.channel_names == expected.channel_names
    np.testing.assert_array_equal(stats.mean, expected.mean)
    np.testing.assert_array_equal(stats.std, expected.std)


@pytest.mark.parametrize("task", ["daily", "aggregated", "sequence"])
def test_build_cuts_each_sample_at_its_origin(task):
    """Every sample is its origin's window: features of the z-scored frames
    ending on its date, the label of its label days; positives sit on the
    label plane's cluster centroids, in cluster order, and negatives hold
    no fire."""
    stacks = scene_series(16, seed=7)
    cfg = small_cfg()
    samples, stats = build_dataset(stacks, cfg, task)
    assert {s.kind for s in samples} == {"positive", "negative"}
    ahead = 1 if task == "daily" else cfg.aggregation_window
    by_date = {s.date: s for s in stacks}
    scaled = {s.date: raster.normalize(s, stats).channels for s in stacks}
    positives = {}
    for s in samples:
        frames = s.features.shape[0] if task == "sequence" else 1
        days = [s.date - datetime.timedelta(days=k) for k in range(frames - 1, -1, -1)]
        features = np.stack([scaled[d] for d in days])
        if task != "sequence":
            features = features[0]
        label = aggregate_masks([by_date[s.date + datetime.timedelta(days=k)].fire_mask
                                 for k in range(1, ahead + 1)])
        r0, c0 = s.origin
        np.testing.assert_array_equal(s.features, features[..., r0:r0 + 32, c0:c0 + 32])
        np.testing.assert_array_equal(s.label, label[r0:r0 + 32, c0:c0 + 32])
        if s.kind == "negative":
            assert (s.label != 1).all()
        else:
            positives.setdefault(s.date, (label, []))[1].append(s.origin)
    assert positives
    for label, origins in positives.values():
        clusters = find_fire_clusters(label, GEO_1KM, cfg.cluster_merge_distance)
        centres = [(math.floor(r + 0.5), math.floor(c + 0.5))
                   for r, c in (cl.centroid() for cl in clusters)]
        assert origins == [(min(max(r - 16, 0), 160 - 32), min(max(c - 16, 0), 160 - 32))
                           for r, c in centres]


def test_build_rejects_series_without_train_day():
    # at rng_seed 0 the first block is drawn test
    with pytest.raises(ValueError, match="^no stacks fall in the train split; need more days$"):
        build_dataset(scene_series(5), small_cfg(), "daily")


def test_build_rejects_gapped_dates():
    stacks = scene_series(5)
    stacks.pop(2)
    with pytest.raises(ValueError):
        build_dataset(stacks, small_cfg(), "daily")


def test_build_rejects_mixed_grids():
    # day 6 closes a block, so its own label day is excluded and only its
    # features would carry the broadcast row
    stacks = scene_series(16, seed=7)
    stacks[6] = replace(stacks[6], channels=stacks[6].channels[:, :1],
                        fire_mask=stacks[6].fire_mask[:1])
    with pytest.raises(ValueError, match="^stacks must share one channel count and grid$"):
        build_dataset(stacks, small_cfg(), "daily")


def test_config_rejects_empty_label_window():
    for window in (0, -2):
        with pytest.raises(ValueError, match="aggregation_window"):
            small_cfg(aggregation_window=window)


def test_build_rejects_unknown_task():
    with pytest.raises(ValueError):
        build_dataset(scene_series(3), small_cfg(), "weekly")


def test_dataset_determinism_and_round_trip(tmp_path):
    stacks = scene_series(10, seed=6)
    samples1, _ = build_dataset(stacks, small_cfg(), "daily")
    samples2, _ = build_dataset(stacks, small_cfg(), "daily")
    p1, p2 = tmp_path / "a.wfds", tmp_path / "b.wfds"
    write_dataset(samples1, "daily", p1)
    write_dataset(samples2, "daily", p2)
    assert p1.read_bytes() == p2.read_bytes()

    loaded, task = read_dataset(p1)
    assert task == "daily"
    assert len(loaded) == len(samples1)
    for a, b in zip(loaded, samples1):
        assert a.date == b.date and a.origin == b.origin
        assert a.split == b.split and a.kind == b.kind
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.label, b.label)


def test_sequence_round_trip(tmp_path):
    stacks = scene_series(16, seed=7)
    samples, _ = build_dataset(stacks, small_cfg(), "sequence")
    p = tmp_path / "s.wfds"
    write_dataset(samples, "sequence", p)
    loaded, task = read_dataset(p)
    assert task == "sequence"
    for a, b in zip(loaded, samples):
        assert a.date == b.date
        np.testing.assert_array_equal(a.features, b.features)


def test_last_frame_views_the_final_frame(tmp_path):
    built, _ = build_dataset(scene_series(16, seed=7), small_cfg(), "sequence")
    p = tmp_path / "s.wfds"
    write_dataset(built, "sequence", p)
    for samples in (built, read_dataset(p)[0]):
        views = last_frame(samples)
        assert len(views) == len(samples)
        for v, s in zip(views, samples):
            assert isinstance(v, Sample)
            assert v.features.shape == s.features.shape[1:]
            assert np.shares_memory(v.features, s.features[-1])
            np.testing.assert_array_equal(v.features, s.features[-1])
            assert v.label is s.label
            assert (v.date, v.origin, v.split, v.kind) == \
                (s.date, s.origin, s.split, s.kind)


def test_split_subsets_partition():
    stacks = scene_series(15, seed=8)
    samples, _ = build_dataset(stacks, small_cfg(), "daily")
    subsets = split_subsets(samples)
    assert sum(len(v) for v in subsets.values()) == len(samples)


def test_wfds_rejects_garbage(tmp_path):
    p = tmp_path / "x.wfds"
    p.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(ValueError):
        read_dataset(p)

    # the kind, task and split bytes of the first sample header, out of range
    tile = Sample(features=np.zeros((2, 4, 4), np.float32),
                  label=np.zeros((4, 4), np.int8), date=D0, origin=(0, 0),
                  split="val", kind="positive")
    write_dataset([tile], "daily", p)
    good = p.read_bytes()
    for offset, field, code in ((13, "kind", 7), (14, "task", 5), (15, "split", 9)):
        bad = bytearray(good)
        bad[offset] = code
        p.write_bytes(bytes(bad))
        with pytest.raises(ValueError) as exc:
            read_dataset(p)
        assert str(exc.value) == f"{p}: unknown {field} code {code}"


def _tile(kind="positive", c=2, s=4):
    return Sample(features=np.zeros((c, s, s), np.float32),
                  label=np.zeros((s, s), np.int8), date=D0, origin=(0, 0),
                  split="train", kind=kind)


def test_wfds_rejects_samples_that_disagree_on_the_task(tmp_path):
    p = tmp_path / "mixed.wfds"
    write_dataset([_tile(), _tile("negative")], "daily", p)
    raw = bytearray(p.read_bytes())
    # file header, first sample (header, 2x4x4 float32 features, 4x4 labels),
    # then the second sample's kind byte and its task byte
    second_task = 13 + (24 + 2 * 4 * 4 * 4 + 4 * 4) + 1
    assert raw[second_task] == 0
    raw[second_task] = 1
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="sample 1 has task 'aggregated'"):
        read_dataset(p)


def test_wfds_rejects_bad_labels_and_time_steps(tmp_path):
    p = tmp_path / "bad.wfds"
    bad_label = _tile()
    bad_label.label[2, 3] = 7
    two_step_daily = Sample(
        features=np.zeros((2, 2, 4, 4), np.float32), label=np.zeros((4, 4), np.int8),
        date=D0, origin=(0, 0),
        split="train", kind="positive")
    no_step_sequence = replace(two_step_daily, features=np.zeros((0, 2, 4, 4), np.float32))
    # the header holds the last frame's date; the first frame's must exist too
    before_year_one = replace(two_step_daily, date=datetime.date(1, 1, 1))
    for samples, task, message in (
            ([bad_label], "daily", r"sample 0 has a label outside \{-1, 0, 1\}"),
            ([_tile(), two_step_daily], "aggregated", "sample 1 of task 'aggregated' has T = 2"),
            ([no_step_sequence], "sequence", "sample 0 of task 'sequence' has T = 0"),
            ([before_year_one], "sequence", "day -719163 is out of range")):
        write_dataset(samples, task, p)
        with pytest.raises(FormatError, match=message):
            read_dataset(p)


def test_wfds_rejects_samples_that_disagree_on_their_shape(tmp_path):
    p = tmp_path / "shape.wfds"
    seq = Sample(features=np.zeros((2, 2, 4, 4), np.float32), label=np.zeros((4, 4), np.int8),
                 date=D0, origin=(0, 0), split="train", kind="positive")
    for samples, task, message in (
            ([_tile(), _tile(c=3)], "daily", r"sample 1 has \(T, C, S\) = \(1, 3, 4\), "
                                             r"earlier samples \(1, 2, 4\)"),
            ([_tile(), _tile(s=5)], "daily", r"sample 1 has \(T, C, S\) = \(1, 2, 5\)"),
            ([seq, replace(seq, features=np.zeros((3, 2, 4, 4), np.float32))], "sequence",
             r"sample 1 has \(T, C, S\) = \(3, 2, 4\), earlier samples \(2, 2, 4\)"),
            ([_tile(c=0)], "daily", "sample 0 has C = 0, S = 4"),
            ([_tile(s=0)], "aggregated", "sample 0 has C = 2, S = 0")):
        write_dataset(samples, task, p)
        with pytest.raises(FormatError, match=message):
            read_dataset(p)

