"""Acceptance suite: one test per criterion, one PASS line each.

The two learning criteria (5 and 6) train real models on synthetic scenes
and dominate the runtime; everything else is oracle comparisons and
property checks. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import datetime
import math
import struct
import time
from collections import deque

import numpy as np
import pytest

from firecast import nn
from firecast.metrics import evaluate, roc_auc, summarize
from firecast.models import ARCHS, ModelConfig, ResidualBlock, build
from firecast.sampler import (
    SamplerConfig,
    _SPLIT_STREAM,
    assign_splits,
    aggregate_masks,
    build_dataset,
    find_fire_clusters,
    last_frame,
    split_subsets,
)
from firecast.synth import SynthConfig, fire_logit, gen_scenes
from firecast.training import TrainConfig, train, weighted_bce

from gradcheck import check_grads
from test_metrics import auc_pair_oracle
from test_raster import make_stack, oracle_read
from test_sampler import GEO_1KM, bfs_cluster_oracle
from test_training import scalar_bce_oracle


def ok(criterion, detail):
    print(f"\nPASS criterion-{criterion}: {detail}")


# the synthetic configuration used by the learning criteria: sharp logits
# over long-range fields keep fires in a few compact blobs, so fire-free
# negative windows stay plentiful and cluster counts stay desk-scale
LEARN_WEIGHTS = tuple(2.5 * w for w in SynthConfig().fire_logit_weights)


def build_splits(grid, days, seed, tile, task, bias):
    scfg = SynthConfig(grid=grid, days=days, rng_seed=seed, smoothing_radius=12,
                       fire_logit_weights=LEARN_WEIGHTS, fire_bias=bias)
    stacks = gen_scenes(scfg)
    samples, _ = build_dataset(stacks, SamplerConfig(tile_size=tile, rng_seed=seed), task)
    subsets = split_subsets(samples)
    return stacks, scfg, subsets


# --- criterion 1: gradient suite ----------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    n_seeds = 20

    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)

        x = nn.Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
        k = nn.Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = nn.Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.tanh(nn.conv2d(x, k, b))), [x, k, b])

        p = nn.Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.mul(nn.max_pool2(p), nn.max_pool2(p))), [p])
        u = nn.Tensor(rng.uniform(-1, 1, (1, 2, 3, 3)), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.sigmoid(nn.upsample2(u))), [u])

        a = nn.Tensor(rng.uniform(-1, 1, (2, 3, 2, 2)), requires_grad=True)
        c2 = nn.Tensor(rng.uniform(-1, 1, (2, 3, 2, 2)), requires_grad=True)

        def act_loss():
            cat = nn.concat_channels([nn.relu(a), nn.sigmoid(c2)])
            return nn.tsum(nn.mul(cat, nn.tanh(cat)))

        check_grads(act_loss, [a, c2])

        w = nn.ConvLSTMWeights(2, 2, rng)
        xs = nn.Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
        hs = nn.Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
        cs = nn.Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)

        def lstm_loss():
            h2, c3 = nn.conv_lstm_step(xs, hs, cs, w)
            return nn.tsum(nn.add(h2, c3))

        check_grads(lstm_loss, [xs, hs, cs] + list(w.named_params("w").values()))

        block = ResidualBlock(2, 3, rng)
        xb = nn.Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.tanh(block(xb))),
                    [xb] + list(block.named_params("rb").values()))

        z = nn.Tensor(rng.uniform(-1, 1, (1, 1, 4, 4)), requires_grad=True)
        y = rng.choice([-1, 0, 1], size=(1, 4, 4), p=[0.2, 0.5, 0.3])
        if np.all(y == -1):
            y[0, 0, 0] = 1
        check_grads(lambda: weighted_bce(z, y, 3.0), [z])

    coord_rng = np.random.default_rng(12345)
    for seed in range(n_seeds):
        for arch in ARCHS:
            cfg = ModelConfig(arch, (4, 8), tile=16)
            model = build(cfg, np.random.default_rng(seed), dtype=np.float64)
            shape = (1, 2, 10, 16, 16) if cfg.is_sequence else (1, 10, 16, 16)
            xa = np.random.default_rng(seed + 500).uniform(-1, 1, shape)
            check_grads(lambda: nn.tmean(nn.tanh(model.forward(xa))),
                        list(model.params.values()), max_coords=2, rng=coord_rng)

    elapsed = time.time() - t0
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s, budget 120s"
    ok(1, f"all ops + 4 architectures, {n_seeds} seeds, rel err < 1e-4 "
          f"({elapsed:.0f}s)")


# --- criterion 2: metric oracles ----------------------------------------------------


def test_criterion_2_metric_oracles():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(0, 1, 200), 2)
        labels = (rng.uniform(0, 1, 200) < 0.3).astype(int)
        if labels.sum() in (0, 200):
            labels[0], labels[1] = 1, 0
        worst = max(worst, abs(roc_auc(scores, labels)
                               - auc_pair_oracle(scores, labels)))
    assert worst < 1e-12

    r = summarize(np.array([0.9, 0.9, 0.9, 0.1, 0.1]), np.array([1, 1, 0, 1, 0]))
    assert (r.counts.tp, r.counts.fp, r.counts.tn, r.counts.fn) == (2, 1, 1, 1)
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == pytest.approx(2 / 3)
    assert r.iou == pytest.approx(0.5)

    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = 120
        scores = rng.uniform(size=n)
        labels = (rng.uniform(size=n) < 0.4).astype(int)
        labels[:2] = [0, 1]
        base = summarize(scores, labels)
        extra = rng.integers(1, 50)
        mixed_scores = np.concatenate([scores, rng.uniform(size=extra)])
        mixed_labels = np.concatenate([labels, -np.ones(extra, dtype=int)])
        perm = rng.permutation(mixed_scores.size)
        injected = summarize(mixed_scores[perm], mixed_labels[perm])
        assert injected.auc == pytest.approx(base.auc, abs=1e-14)
        assert injected.counts == base.counts
        assert (injected.precision, injected.recall, injected.iou,
                injected.mean_iou) == (base.precision, base.recall, base.iou,
                                       base.mean_iou)
    ok(2, "AUC == pair counting (100x200 px, 1e-12); counts match enumeration; "
          "uncertain injection is a no-op (100 cases)")


# --- criterion 3: sampler oracles ---------------------------------------------------


def test_criterion_3_sampler_oracles():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        mask = (rng.uniform(size=(64, 64)) < 0.02).astype(np.int8)
        got = {c.pixels for c in find_fire_clusters(mask, GEO_1KM, 10.0)}
        assert got == bfs_cluster_oracle(mask, 10.0)

    _, _, subsets = build_splits((96, 96), 35, seed=1, tile=32, task="daily",
                                 bias=-25.0)
    per_day = {}
    for split in subsets.values():
        for s in split:
            pos, neg = per_day.get(s.date, (0, 0))
            per_day[s.date] = (pos + (s.kind == "positive"),
                               neg + (s.kind == "negative"))
    assert per_day, "no samples generated"
    for pos, neg in per_day.values():
        assert neg == 2 * pos

    days = [datetime.date(2015, 1, 1) + datetime.timedelta(days=i)
            for i in range(400 * 7)]
    cfg = SamplerConfig()
    split_map = assign_splits(days, cfg, np.random.default_rng([cfg.rng_seed,
                                                                _SPLIT_STREAM]))
    block_splits = [split_map[days[b * 7]] for b in range(400)]
    for name, p_expect in (("train", 0.75), ("val", 0.125), ("test", 0.125)):
        count = block_splits.count(name)
        sigma = math.sqrt(400 * p_expect * (1 - p_expect))
        assert abs(count - 400 * p_expect) <= 3 * sigma, (name, count)

    for a, b in zip(days, days[1:]):
        sa, sb = split_map[a], split_map[b]
        if sa != "excluded" and sb != "excluded":
            assert sa == sb
    ok(3, "clustering == BFS oracle (100 masks); negatives exactly 2:1; "
          "6:1:1 within 3 sigma over 400 blocks; zero cross-split adjacency")


# --- criterion 4: aggregation semantics ---------------------------------------------


def test_criterion_4_aggregation_semantics():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        history = rng.choice([-1, 0, 1], size=7)
        planes = [np.full((2, 2), v, dtype=np.int8) for v in history]
        base = aggregate_masks(planes)
        perm = rng.permutation(7)
        np.testing.assert_array_equal(base,
                                      aggregate_masks([planes[i] for i in perm]))
        dup = int(rng.integers(0, 7))
        np.testing.assert_array_equal(base, aggregate_masks(planes + [planes[dup]]))

    for code in range(3 ** 7):
        digits = []
        x = code
        for _ in range(7):
            digits.append(x % 3 - 1)
            x //= 3
        got = int(aggregate_masks(
            [np.full((1, 1), v, dtype=np.int8) for v in digits])[0, 0])
        expected = 1 if 1 in digits else (-1 if -1 in digits else 0)
        assert got == expected
    ok(4, "order-invariant + idempotent (1000 histories); "
          "fire > uncertain > clear over all 3^7 histories")


# --- criterion 7: loss-weight identity ----------------------------------------------


def test_criterion_7_loss_weight_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-4, 4, size=60)
        y = (rng.uniform(size=60) < 0.4).astype(int)
        ours = weighted_bce(nn.Tensor(z), y, w_pos=1.0).item()
        worst = max(worst, abs(ours - scalar_bce_oracle(z, y)))
    assert worst < 1e-10

    loss = weighted_bce(nn.Tensor([0.0, 0.0]), np.array([1, 0]), w_pos=3.0)
    assert loss.item() == 2 * math.log(2)
    ok(7, f"w=1 matches scalar BCE within {worst:.1e} (100 vectors); "
          f"worked value 2*ln2 exact")


# --- criterion 8: pipeline reproducibility ------------------------------------------


def test_criterion_8_reproducibility(tmp_path):
    from firecast.cli import main as cli_main

    cfg_text = """
[run]
task = daily
out = {out}

[sampler]
tile_size = 16
rng_seed = 1

[model]
arch = ae
filter_scheme = 4, 8

[train]
epochs = 3
batch_size = 32
learning_rate = 0.001
rng_seed = 1

[synth]
grid = 96, 96
days = 70
smoothing_radius = 12
fire_logit_weights = {weights}
fire_bias = -25
rng_seed = 1
"""
    weights = ", ".join(repr(w) for w in LEARN_WEIGHTS)
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(cfg_text.format(out=out, weights=weights))
        for verb in ("synth", "build-dataset", "train", "eval"):
            assert cli_main([verb, "--config", str(cfg_path)]) == 0, verb
        outs.append(out)

    a, b = outs
    compared = []
    for rel in (["scenes"], ):
        for pa in sorted((a / rel[0]).glob("*.wfrs")):
            assert pa.read_bytes() == (b / rel[0] / pa.name).read_bytes()
            compared.append(pa.name)
    for name in ("daily_train.wfds", "daily_val.wfds", "daily_test.wfds",
                 "checkpoint.wfck", "report.csv", "metrics.csv", "stats.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        compared.append(name)
    ok(8, f"two identical pipeline runs byte-identical across "
          f"{len(compared)} artifacts")


# --- criterion 9: format conformance ------------------------------------------------


def independent_wfds_read(path):
    """Struct-only WFDS parser written from the documented byte layout."""
    data = path.read_bytes()
    magic, version, count = struct.unpack_from("<4sBQ", data, 0)
    assert magic == b"WFDS" and version == 1
    pos = 13
    out = []
    for _ in range(count):
        kind, task, split, days, orow, ocol, t_steps, ch, tile = \
            struct.unpack_from("<BBBqIIBHH", data, pos)
        pos += 24
        feats = np.frombuffer(data, "<f4", t_steps * ch * tile * tile, pos)
        pos += feats.size * 4
        label = np.frombuffer(data, np.int8, tile * tile, pos)
        pos += tile * tile
        out.append((kind, task, split, days, (orow, ocol), t_steps, ch, tile,
                    feats.copy(), label.copy()))
    assert pos == len(data)
    return out


def independent_wfck_read(path):
    """Struct-only WFCK parser written from the documented byte layout."""
    data = path.read_bytes()
    magic, version, count = struct.unpack_from("<4sBI", data, 0)
    assert magic == b"WFCK" and version == 1
    pos = 9
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + nlen].decode()
        pos += nlen
        (rank,) = struct.unpack_from("<B", data, pos)
        pos += 1
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        out[name] = np.frombuffer(data, "<f8", n, pos).reshape(dims).copy()
        pos += 8 * n
    assert pos == len(data)
    return out


def test_criterion_9_format_conformance(tmp_path):
    from firecast.raster import read_stack, write_stack
    from firecast.sampler import read_dataset, write_dataset

    stack = make_stack(h=24, w=24, seed=11)
    sp = tmp_path / "s.wfrs"
    write_stack(stack, sp)
    again = read_stack(sp)
    assert again == stack
    assert again.channels.tobytes() == stack.channels.tobytes()
    names, ch, mask, days, geo = oracle_read(sp)
    assert tuple(names) == stack.channel_names
    assert np.array_equal(ch, stack.channels)
    assert np.array_equal(mask, stack.fire_mask)

    _, _, subsets = build_splits((96, 96), 21, seed=1, tile=16, task="daily",
                                 bias=-25.0)
    samples = subsets["train"]
    assert samples
    dp = tmp_path / "d.wfds"
    write_dataset(samples, "daily", dp)
    loaded, task = read_dataset(dp)
    assert task == "daily"
    for a, b in zip(loaded, samples):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.label, b.label)
    raw = independent_wfds_read(dp)
    assert len(raw) == len(samples)
    for rec, s in zip(raw, samples):
        assert rec[3] == (s.date - datetime.date(1970, 1, 1)).days
        assert np.array_equal(rec[8].reshape(s.features.shape),
                              s.features.astype("<f4"))
        assert np.array_equal(rec[9].reshape(s.label.shape), s.label)

    model = build(ModelConfig("unet", (4, 8), tile=16), np.random.default_rng(0),
                  dtype=np.float64)
    cp = tmp_path / "c.wfck"
    nn.save_checkpoint(model.params, cp)
    ours = nn.load_checkpoint(cp)
    theirs = independent_wfck_read(cp)
    assert set(theirs) == set(ours) == set(model.params)
    for name, t in model.params.items():
        assert ours[name].tobytes() == t.data.tobytes()
        assert theirs[name].tobytes() == t.data.tobytes()
    ok(9, "WFRS/WFDS/WFCK round trips bit-exact; independent struct parsers "
          "agree on every field")


# --- criterion 5: end-to-end learning, daily task -----------------------------------


def test_criterion_5_daily_learning():
    t0 = time.time()
    stacks, scfg, subsets = build_splits((192, 192), 90, seed=0, tile=32,
                                         task="daily", bias=-25.0)
    assert subsets["train"] and subsets["val"] and subsets["test"]

    tcfg = TrainConfig(epochs=8, batch_size=64, learning_rate=1e-3,
                       positive_weight=3.0, rng_seed=0)
    results = {}
    for arch in ("autoencoder", "unet"):
        model = build(ModelConfig(arch, (8, 16, 32), tile=32),
                      np.random.default_rng([0, 3]))
        report = train(model, subsets["train"], subsets["val"], tcfg)
        model.load_params(report.best_params)
        results[arch] = evaluate(model, subsets["test"]).auc

    # score the same held-out pixels with the generating logit of each
    # sample's label day: the rule that drew the labels is the ceiling
    date_index = {s.date: i for i, s in enumerate(stacks)}
    scores, labels = [], []
    for s in subsets["test"]:
        label_stack = stacks[date_index[s.date] + 1]
        r0, c0 = s.origin
        logit = fire_logit(label_stack.channels, scfg)[r0:r0 + 32, c0:c0 + 32]
        scores.append(logit.ravel())
        labels.append(s.label.ravel())
    scores = np.concatenate(scores)
    labels = np.concatenate(labels)
    keep = labels != -1
    ceiling = roc_auc(scores[keep], (labels[keep] == 1).astype(int))

    elapsed = time.time() - t0
    ae, un = results["autoencoder"], results["unet"]
    assert ae >= 0.80, f"autoencoder test AUC {ae:.4f} < 0.80"
    assert un >= ae - 0.05, f"unet {un:.4f} more than 0.05 below autoencoder {ae:.4f}"
    assert ae <= ceiling + 0.02, f"autoencoder {ae:.4f} beats ceiling {ceiling:.4f}"
    assert un <= ceiling + 0.02, f"unet {un:.4f} beats ceiling {ceiling:.4f}"
    assert elapsed <= 900, f"took {elapsed:.0f}s, budget 900s"
    ok(5, f"AE {ae:.3f} / U-Net {un:.3f} vs ceiling {ceiling:.3f} "
          f"within 8 epochs ({elapsed / 60:.1f} min)")


# --- criterion 6: sequence vs static, aggregated task -------------------------------


def test_criterion_6_sequence_vs_static():
    t0 = time.time()
    # first four seeds whose weekly block draw populates all three splits
    # (chosen by that structural rule alone; 3 and 4 leave val empty)
    seeds = (0, 1, 2, 5)
    wins = 0
    details = []
    for seed in seeds:
        _, _, subsets = build_splits((96, 96), 84, seed=seed, tile=16,
                                     task="sequence", bias=-27.0)
        tcfg = TrainConfig(epochs=8, batch_size=32, learning_rate=1e-3,
                           positive_weight=3.0, rng_seed=seed)

        lstm = build(ModelConfig("ae_lstm", (8, 16), tile=16),
                     np.random.default_rng([seed, 3]))
        rep = train(lstm, subsets["train"], subsets["val"], tcfg)
        lstm.load_params(rep.best_params)
        auc_lstm = evaluate(lstm, subsets["test"]).auc

        static = build(ModelConfig("autoencoder", (8, 16), tile=16),
                       np.random.default_rng([seed, 3]))
        rep = train(static, last_frame(subsets["train"]), last_frame(subsets["val"]),
                    tcfg)
        static.load_params(rep.best_params)
        auc_static = evaluate(static, last_frame(subsets["test"])).auc

        wins += auc_lstm >= auc_static
        details.append(f"seed {seed}: {auc_lstm:.3f} vs {auc_static:.3f}")

    assert wins >= 3, f"LSTM won only {wins}/4: {'; '.join(details)}"
    ok(6, f"ae_lstm >= static AE in {wins}/4 seeds "
          f"({'; '.join(details)}; {(time.time() - t0) / 60:.1f} min)")
