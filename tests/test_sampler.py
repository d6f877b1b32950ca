import datetime
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firecast import sampler
from firecast.raster import CHANNELS, GeoTransform, RasterStack
from firecast.sampler import (
    FireCluster,
    SamplerConfig,
    SamplingExhaustedError,
    TileSample,
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
    return FireCluster(frozenset({(r, c)}), D0)


def test_tile_centered_on_centroid():
    stack = stack_with_mask(np.zeros((256, 256)), n_channels=2)
    cfg = SamplerConfig(tile_size=128)
    tiles = extract_positive_tiles(stack, [centered_cluster(128, 128)], cfg)
    assert len(tiles) == 1
    assert tiles[0].origin == (64, 64)
    assert tiles[0].features.shape == (2, 128, 128)


def test_tile_clamped_at_edge():
    stack = stack_with_mask(np.zeros((256, 256)), n_channels=1)
    cfg = SamplerConfig(tile_size=128)
    tiles = extract_positive_tiles(stack, [centered_cluster(100, 3)], cfg)
    assert tiles[0].origin[1] == 0
    tiles = extract_positive_tiles(stack, [centered_cluster(254, 254)], cfg)
    assert tiles[0].origin == (128, 128)


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
    tiles = extract_positive_tiles(stack, clusters, cfg)
    assert len(tiles) == len(clusters)
    for tile, cluster in zip(tiles, clusters):
        r0, c0 = tile.origin
        for (r, c) in cluster.pixels:
            assert r0 <= r < r0 + 128 and c0 <= c < c0 + 128
        # label window copied from the mask
        np.testing.assert_array_equal(tile.label, mask[r0:r0 + 128, c0:c0 + 128])


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
    for s in negs:
        assert (s.label != 1).all()
        assert s.kind == "negative"


def test_zero_positives_no_negatives():
    stack = stack_with_mask(np.zeros((128, 128)), n_channels=1)
    cfg = SamplerConfig(tile_size=64)
    assert sample_negative_tiles(stack, 0, cfg, np.random.default_rng(0)) == []


def test_saturated_grid_exhausts_cap():
    stack = stack_with_mask(np.ones((64, 64)), n_channels=1)
    cfg = SamplerConfig(tile_size=32, negative_ratio=2.0)
    with pytest.raises(SamplingExhaustedError) as exc:
        sample_negative_tiles(stack, 1, cfg, np.random.default_rng(0))
    assert exc.value.achieved == 0
    assert exc.value.target == 2


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
    samples = build_dataset(stacks, cfg, "daily")
    feature_dates = {s.date for s in samples}
    # label days run from day 2 to day 10, minus excluded ones
    split = assign_splits([s.date for s in stacks], cfg,
                          np.random.default_rng([cfg.rng_seed, 1]))
    allowed = {d - datetime.timedelta(days=1)
               for d in split if split[d] != "excluded" and d > stacks[0].date}
    assert feature_dates <= allowed


def test_aggregated_needs_full_future_window():
    stacks = scene_series(10)
    samples = build_dataset(stacks, small_cfg(), "aggregated")
    last_ok = stacks[10 - 8].date  # t+7 must exist
    for s in samples:
        assert s.date <= last_ok


def test_sequence_sample_shape_and_dates():
    stacks = scene_series(16)
    samples = build_dataset(stacks, small_cfg(), "sequence")
    assert samples, "expected at least one sequence sample"
    for s in samples:
        assert s.features.shape == (7, 3, 32, 32)
        assert len(s.dates) == 7
        for a, b in zip(s.dates, s.dates[1:]):
            assert (b - a).days == 1
        # features end the day before the label window starts
        assert s.date == s.dates[-1]


def test_negative_to_positive_ratio_per_day():
    stacks = scene_series(12, seed=4)
    samples = build_dataset(stacks, small_cfg(), "daily")
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
    samples = build_dataset(stacks, cfg, "daily")
    split = assign_splits([s.date for s in stacks], cfg,
                          np.random.default_rng([cfg.rng_seed, 1]))
    for s in samples:
        label_date = s.date + datetime.timedelta(days=1)
        assert s.split == split[label_date]


def test_build_rejects_gapped_dates():
    stacks = scene_series(5)
    stacks.pop(2)
    with pytest.raises(ValueError):
        build_dataset(stacks, small_cfg(), "daily")


def test_build_rejects_unknown_task():
    with pytest.raises(ValueError):
        build_dataset(scene_series(3), small_cfg(), "weekly")


def test_dataset_determinism_and_round_trip(tmp_path):
    stacks = scene_series(10, seed=6)
    samples1 = build_dataset(stacks, small_cfg(), "daily")
    samples2 = build_dataset(stacks, small_cfg(), "daily")
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
    samples = build_dataset(stacks, small_cfg(), "sequence")
    p = tmp_path / "s.wfds"
    write_dataset(samples, "sequence", p)
    loaded, task = read_dataset(p)
    assert task == "sequence"
    for a, b in zip(loaded, samples):
        assert a.dates == b.dates
        np.testing.assert_array_equal(a.features, b.features)


def test_last_frame_views_the_final_frame(tmp_path):
    built = build_dataset(scene_series(16, seed=7), small_cfg(), "sequence")
    p = tmp_path / "s.wfds"
    write_dataset(built, "sequence", p)
    for samples in (built, read_dataset(p)[0]):
        views = last_frame(samples)
        assert len(views) == len(samples)
        for v, s in zip(views, samples):
            assert isinstance(v, TileSample)
            assert v.features.shape == s.features.shape[1:]
            assert np.shares_memory(v.features, s.features[-1])
            np.testing.assert_array_equal(v.features, s.features[-1])
            assert v.label is s.label
            assert (v.date, v.origin, v.split, v.kind) == \
                (s.date, s.origin, s.split, s.kind)


def test_split_subsets_partition():
    stacks = scene_series(15, seed=8)
    samples = build_dataset(stacks, small_cfg(), "daily")
    subsets = split_subsets(samples)
    assert sum(len(v) for v in subsets.values()) == len(samples)


def test_wfds_rejects_garbage(tmp_path):
    p = tmp_path / "x.wfds"
    p.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(ValueError):
        read_dataset(p)

    # the kind, task and split bytes of the first sample header, out of range
    tile = TileSample(features=np.zeros((2, 4, 4), np.float32),
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
