"""The shared binary reader, driven through all three container formats."""

import datetime

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from firecast import nn
from firecast.binio import FormatError, MagicError, TruncatedError, VersionError
from firecast.raster import CHANNELS, GeoTransform, RasterStack, read_stack, write_stack
from firecast.sampler import SPLITS, Sample, read_dataset, write_dataset


def _date(rng):
    return datetime.date(2000, 1, 1) + datetime.timedelta(days=int(rng.integers(0, 9000)))


def _wfrs(rng, path):
    h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    n = int(rng.integers(0, 3))
    stack = RasterStack(_date(rng), CHANNELS[:n],
                        rng.normal(size=(n, h, w)).astype(np.float32),
                        rng.integers(-1, 2, size=(h, w)).astype(np.int8),
                        GeoTransform(float(rng.normal()), float(rng.normal()), 500.0))
    write_stack(stack, path)
    return lambda: read_stack(path) == stack


def _wfds(rng, path):
    task = ("daily", "aggregated", "sequence")[int(rng.integers(0, 3))]
    t, c, s = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
    samples = []
    for _ in range(int(rng.integers(0, 3))):
        meta = dict(label=rng.integers(-1, 2, size=(s, s)).astype(np.int8),
                    origin=tuple(int(v) for v in rng.integers(0, 50, size=2)),
                    split=SPLITS[int(rng.integers(0, 3))],
                    kind=("negative", "positive")[int(rng.integers(0, 2))])
        date = _date(rng)
        shape = (t, c, s, s) if task == "sequence" else (c, s, s)
        samples.append(Sample(features=rng.normal(size=shape).astype(np.float32),
                              date=date, **meta))
    write_dataset(samples, task, path)

    def round_trip():
        loaded, loaded_task = read_dataset(path)
        return ((loaded_task == task or not samples) and len(loaded) == len(samples)
                and all(a.date == b.date and a.origin == b.origin and a.split == b.split
                        and a.kind == b.kind and np.array_equal(a.features, b.features)
                        and np.array_equal(a.label, b.label)
                        for a, b in zip(loaded, samples)))
    return round_trip


def _wfck(rng, path):
    params = {}
    for i in range(int(rng.integers(0, 4))):
        shape = tuple(int(v) for v in rng.integers(0, 3, size=int(rng.integers(0, 4))))
        params[f"layer{i}.w"] = rng.normal(size=shape)
    nn.save_checkpoint(params, path)

    def round_trip():
        loaded = nn.load_checkpoint(path)
        return set(loaded) == set(params) and all(
            loaded[k].shape == v.shape and loaded[k].tobytes() == v.tobytes()
            for k, v in params.items())
    return round_trip


# format -> (writes a valid file from rng, returns a round-trip check; reader)
FORMATS = {
    "wfrs": (_wfrs, read_stack),
    "wfds": (_wfds, read_dataset),
    "wfck": (_wfck, nn.load_checkpoint),
}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from(sorted(FORMATS)), seed=st.integers(0, 2**32 - 1),
       padding=st.binary(min_size=1, max_size=16), xor=st.integers(1, 255))
def test_cut_padded_and_flipped_files(tmp_path, fmt, seed, padding, xor):
    """Every proper prefix and every padded copy of a valid file raises
    TruncatedError; any one-byte flip reads back or raises a ValueError."""
    assert issubclass(TruncatedError, FormatError) and issubclass(FormatError, ValueError)
    make, read = FORMATS[fmt]
    path = tmp_path / f"f.{fmt}"
    assert make(np.random.default_rng(seed), path)()
    good = path.read_bytes()

    for n in range(len(good)):
        path.write_bytes(good[:n])
        with pytest.raises(TruncatedError):
            read(path)
    path.write_bytes(good + padding)
    with pytest.raises(TruncatedError):
        read(path)

    for pos in range(len(good)):
        bad = bytearray(good)
        bad[pos] ^= xor
        path.write_bytes(bytes(bad))
        if pos < 5:
            with pytest.raises(MagicError if pos < 4 else VersionError):
                read(path)
            continue
        try:
            read(path)
        except ValueError:
            pass


def _spoil_name(path, name):
    """Overwrite the first byte of `name` in the file with 0xff, which no
    UTF-8 text holds; returns the name's offset."""
    data = bytearray(path.read_bytes())
    pos = data.index(name.encode("utf-8"))
    data[pos] = 0xFF
    path.write_bytes(bytes(data))
    return pos


def test_wfrs_channel_name_not_utf8(tmp_path):
    path = tmp_path / "s.wfrs"
    write_stack(RasterStack(datetime.date(2018, 6, 1), CHANNELS[:1],
                            np.zeros((1, 2, 2), np.float32), np.zeros((2, 2), np.int8),
                            GeoTransform(0.0, 0.0, 500.0)), path)
    pos = _spoil_name(path, CHANNELS[0])
    with pytest.raises(FormatError) as exc:
        read_stack(path)
    assert str(exc.value) == (f"{path}: {len(CHANNELS[0])} bytes at offset {pos} "
                              "are not UTF-8 text")


def test_wfck_parameter_name_not_utf8(tmp_path):
    path = tmp_path / "c.wfck"
    nn.save_checkpoint({"enc0.w": np.zeros(3)}, path)
    pos = _spoil_name(path, "enc0.w")
    with pytest.raises(FormatError) as exc:
        nn.load_checkpoint(path)
    assert str(exc.value) == f"{path}: 6 bytes at offset {pos} are not UTF-8 text"
