import datetime
import struct

import numpy as np
import pytest

from firecast.binio import FormatError, MagicError, TruncatedError, VersionError
from firecast.raster import (
    CHANNELS,
    ChannelStats,
    DimensionError,
    GeoTransform,
    RasterStack,
    box_sums,
    compute_stats,
    normalize,
    read_stack,
    write_stack,
)


def make_stack(h=16, w=16, n_channels=10, seed=0, date=datetime.date(2020, 7, 1)):
    rng = np.random.default_rng(seed)
    names = CHANNELS[:n_channels]
    channels = rng.normal(size=(n_channels, h, w)).astype(np.float32)
    mask = rng.choice([-1, 0, 1], size=(h, w), p=[0.05, 0.9, 0.05]).astype(np.int8)
    return RasterStack(date, names, channels, mask, GeoTransform(-120.0, 40.0, 1000.0))


# --- independent byte-layout oracle -----------------------------------------
# Written straight from the documented layout with struct, sharing no code
# with firecast.raster.

def oracle_write(stack, path):
    buf = struct.pack("<4sBIIH", b"WFRS", 1, stack.height, stack.width,
                      len(stack.channel_names))
    for name in stack.channel_names:
        raw = name.encode("utf-8")
        buf += struct.pack("<B", len(raw)) + raw
    for i in range(len(stack.channel_names)):
        for r in range(stack.height):
            for c in range(stack.width):
                buf += struct.pack("<f", float(stack.channels[i, r, c]))
    for r in range(stack.height):
        for c in range(stack.width):
            buf += struct.pack("<b", int(stack.fire_mask[r, c]))
    days = (stack.date - datetime.date(1970, 1, 1)).days
    buf += struct.pack("<qddd", days, stack.geo.origin_x, stack.geo.origin_y,
                       stack.geo.pixel_size)
    path.write_bytes(buf)


def oracle_read(path):
    data = path.read_bytes()
    magic, version, h, w, nc = struct.unpack_from("<4sBIIH", data, 0)
    assert magic == b"WFRS" and version == 1
    pos = 15
    names = []
    for _ in range(nc):
        (n,) = struct.unpack_from("<B", data, pos)
        names.append(data[pos + 1:pos + 1 + n].decode("utf-8"))
        pos += 1 + n
    channels = np.zeros((nc, h, w), dtype=np.float32)
    for i in range(nc):
        for r in range(h):
            for c in range(w):
                (channels[i, r, c],) = struct.unpack_from("<f", data, pos)
                pos += 4
    mask = np.zeros((h, w), dtype=np.int8)
    for r in range(h):
        for c in range(w):
            (mask[r, c],) = struct.unpack_from("<b", data, pos)
            pos += 1
    days, ox, oy, ps = struct.unpack_from("<qddd", data, pos)
    return names, channels, mask, days, (ox, oy, ps)


def test_round_trip_identity(tmp_path):
    s = make_stack()
    p = tmp_path / "a.wfrs"
    write_stack(s, p)
    assert read_stack(p) == s


def test_round_trip_is_bit_exact(tmp_path):
    s = make_stack(seed=3)
    p = tmp_path / "a.wfrs"
    write_stack(s, p)
    t = read_stack(p)
    assert t.channels.tobytes() == s.channels.tobytes()
    assert t.fire_mask.tobytes() == s.fire_mask.tobytes()


def test_write_is_deterministic(tmp_path):
    s = make_stack(seed=5)
    p1, p2 = tmp_path / "a.wfrs", tmp_path / "b.wfrs"
    write_stack(s, p1)
    write_stack(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_oracle_writer_round_trip(tmp_path):
    # 2x2 stack with a known float pattern, written by the independent
    # byte-layout script, must parse to identical planes.
    channels = np.array([[[0.5, -1.25], [3.0, 1e-3]],
                         [[2.0, 4.5], [-8.0, 0.0]]], dtype=np.float32)
    mask = np.array([[1, 0], [-1, 0]], dtype=np.int8)
    s = RasterStack(datetime.date(2019, 1, 2), ("elevation", "drought"),
                    channels, mask, GeoTransform(1.0, 2.0, 500.0))
    p = tmp_path / "oracle.wfrs"
    oracle_write(s, p)
    t = read_stack(p)
    assert t == s

    # and the oracle parses library output

    q = tmp_path / "lib.wfrs"
    write_stack(s, q)
    names, ch, m, days, geo = oracle_read(q)
    assert names == ["elevation", "drought"]
    assert np.array_equal(ch, channels)
    assert np.array_equal(m, mask)
    assert days == (datetime.date(2019, 1, 2) - datetime.date(1970, 1, 1)).days
    assert geo == (1.0, 2.0, 500.0)


def test_file_size_matches_layout(tmp_path):
    s = make_stack(h=128, w=128, n_channels=10)
    p = tmp_path / "a.wfrs"
    write_stack(s, p)
    names_bytes = sum(1 + len(n.encode()) for n in s.channel_names)
    expected = 15 + names_bytes + 10 * 128 * 128 * 4 + 128 * 128 + 8 + 24
    assert p.stat().st_size == expected


def test_empty_channel_stack(tmp_path):
    mask = np.zeros((4, 4), dtype=np.int8)
    s = RasterStack(datetime.date(2020, 1, 1), (), np.zeros((0, 4, 4), np.float32),
                    mask, GeoTransform(0, 0, 1000.0))
    p = tmp_path / "m.wfrs"
    write_stack(s, p)
    t = read_stack(p)
    assert t.channel_names == ()
    assert t == s


def test_wrong_magic(tmp_path):
    p = tmp_path / "bad.wfrs"
    p.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(MagicError):
        read_stack(p)


def test_unknown_version(tmp_path):
    s = make_stack(h=2, w=2, n_channels=1)
    p = tmp_path / "v.wfrs"
    write_stack(s, p)
    raw = bytearray(p.read_bytes())
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        read_stack(p)


def test_truncated_payload(tmp_path):
    s = make_stack(h=8, w=8, n_channels=2)
    p = tmp_path / "t.wfrs"
    write_stack(s, p)
    p.write_bytes(p.read_bytes()[:-40])
    with pytest.raises(TruncatedError):
        read_stack(p)


@pytest.mark.parametrize("field", ["origin_x", "origin_y", "pixel_size"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_bad_geo_trailer_is_a_format_error(tmp_path, field, value):
    s = make_stack(h=2, w=3, n_channels=1)
    p = tmp_path / "g.wfrs"
    write_stack(s, p)
    raw = bytearray(p.read_bytes())
    # the trailer's last 24 bytes: origin_x, origin_y, pixel_size as <f8
    offset = len(raw) - 24 + 8 * ("origin_x", "origin_y", "pixel_size").index(field)
    struct.pack_into("<d", raw, offset, value)
    p.write_bytes(bytes(raw))
    if field != "pixel_size" and np.isfinite(value):
        assert getattr(read_stack(p).geo, field) == value
        return
    with pytest.raises(FormatError, match=field.split("_")[0]):
        read_stack(p)


def test_box_sums_match_slice_sums():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        plane = rng.integers(-3, 4, size=(h, w))
        r0 = rng.integers(0, h + 1, size=int(rng.integers(1, 5)))
        r1 = np.minimum(r0 + rng.integers(0, h + 1, size=len(r0)), h)
        c0 = rng.integers(0, w + 1, size=int(rng.integers(1, 5)))
        c1 = np.minimum(c0 + rng.integers(0, w + 1, size=len(c0)), w)
        out = box_sums(plane, (r0, r1), (c0, c1))
        expect = [[plane[a:b, c:d].sum() for c, d in zip(c0, c1)] for a, b in zip(r0, r1)]
        np.testing.assert_array_equal(out, expect)
        assert box_sums(plane == 1, (r0, r1), (c0, c1)).dtype.kind == "i"


def test_dimension_overflow(tmp_path):
    p = tmp_path / "d.wfrs"
    p.write_bytes(struct.pack("<4sBIIH", b"WFRS", 1, 2**30, 2**30, 4))
    with pytest.raises(DimensionError):
        read_stack(p)
    p.write_bytes(struct.pack("<4sBIIH", b"WFRS", 1, 0, 16, 1))
    with pytest.raises(DimensionError):
        read_stack(p)


# --- normalization -----------------------------------------------------------

def test_normalize_self_stats_gives_zero_mean_unit_std():
    s = make_stack(h=32, w=32, seed=2)
    stats = compute_stats([s])
    n = normalize(s, stats)
    for i in range(len(CHANNELS)):
        assert abs(float(n.channels[i].mean())) < 1e-6
        assert abs(float(n.channels[i].std()) - 1.0) < 1e-5
    assert np.array_equal(n.fire_mask, s.fire_mask)


def test_stats_match_the_pooled_reduction_to_the_byte():
    # stats.json bytes depend on the summation order: reducing one channel
    # at a time must give the rows of the pooled [C, P] float64 reduction
    stacks = [make_stack(h=24 + 8 * i, w=40, seed=i) for i in range(5)]
    for i, s in enumerate(stacks):
        s.channels[:] = s.channels * (10.0 ** i) + 50.0 * i
    pooled = np.concatenate([s.channels.reshape(len(CHANNELS), -1) for s in stacks],
                            axis=1).astype(np.float64)
    stats = compute_stats(stacks)
    assert stats.mean.tobytes() == pooled.mean(axis=1).tobytes()
    assert stats.std.tobytes() == pooled.std(axis=1).tobytes()


def test_normalize_constant_channel_guard():
    channels = np.stack([np.full((4, 4), 7.0, np.float32),
                         np.zeros((4, 4), np.float32)])
    s = RasterStack(datetime.date(2020, 1, 1), ("elevation", "drought"), channels,
                    np.zeros((4, 4), np.int8), GeoTransform(0, 0, 1000.0))
    stats = compute_stats([s])
    assert stats.std[0] == 0.0
    n = normalize(s, stats)
    assert np.all(np.isfinite(n.channels))
    np.testing.assert_allclose(n.channels[0], 0.0)


def test_normalize_known_shift():
    # channel values 1, 2, 3 -> mean 2; stats built with std forced to 1
    channels = np.array([[[1.0, 2.0, 3.0]]], dtype=np.float32)
    s = RasterStack(datetime.date(2020, 1, 1), ("elevation",), channels,
                    np.zeros((1, 3), np.int8), GeoTransform(0, 0, 1000.0))
    stats = ChannelStats(("elevation",), np.array([2.0]), np.array([1.0]))
    n = normalize(s, stats)
    np.testing.assert_allclose(n.channels[0], [[-1.0, 0.0, 1.0]], atol=1e-7)


def test_normalize_channel_mismatch():
    s = make_stack(n_channels=2)
    stats = ChannelStats(("elevation",), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        normalize(s, stats)


def test_denormalize_recovers_original():
    s = make_stack(h=24, w=24, seed=9)
    stats = compute_stats([s])
    n = normalize(s, stats)
    denom = np.maximum(stats.std, 1e-8)
    back = n.channels.astype(np.float64) * denom[:, None, None] + stats.mean[:, None, None]
    rel = np.abs(back - s.channels) / np.maximum(np.abs(s.channels), 1e-3)
    assert rel.max() < 1e-5


def test_mask_values_validated():
    with pytest.raises(ValueError):
        RasterStack(datetime.date(2020, 1, 1), (), np.zeros((0, 2, 2), np.float32),
                    np.array([[2, 0], [0, 0]], np.int8), GeoTransform(0, 0, 1000.0))


@pytest.mark.parametrize("mask", [np.array([[257, 0]], np.int64),
                                  np.array([[0.7, 0.0]]),
                                  np.array([[255, 0]], np.uint8)])
def test_mask_values_checked_before_the_int8_cast(mask):
    # as int8 these read 1, 0 and -1: valid codes made out of invalid values
    with pytest.raises(ValueError, match=r"fire_mask values must be in \{-1, 0, 1\}"):
        RasterStack(datetime.date(2020, 1, 1), (), np.zeros((0, 1, 2), np.float32),
                    mask, GeoTransform(0, 0, 1000.0))
