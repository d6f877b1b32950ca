import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firecast import metrics, nn
from firecast.models import ModelConfig, build
from firecast.sampler import Sample
from firecast.metrics import Counts, UndefinedAUCError, confusion, roc_auc, summarize


def auc_pair_oracle(scores, labels):
    """Brute-force O(n^2) count of correctly ordered pos/neg pairs, ties 1/2."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def midranks_loop(values):
    """Run-by-run midranks in a Python loop: the reference for _midranks."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="mergesort")
    s = values[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=40),
    st.lists(st.integers(0, 3).map(float), max_size=60),  # heavy ties
    st.builds(lambda v, n: [v] * n, st.floats(-1, 1), st.integers(0, 30))))
def test_midranks_equal_the_loop_reference(values):
    got = metrics._midranks(values)
    expect = midranks_loop(values)
    assert got.shape == expect.shape == (len(values),)
    assert np.array_equal(got, expect)


def test_perfect_ranking():
    assert roc_auc([0.9, 0.1], [1, 0]) == 1.0


def test_all_tied_scores_give_half():
    assert roc_auc([0.3] * 10, [1, 0, 1, 0, 0, 0, 1, 0, 0, 1]) == pytest.approx(0.5)


def test_single_class_rejected():
    with pytest.raises(UndefinedAUCError):
        roc_auc([0.1, 0.9], [1, 1])
    with pytest.raises(UndefinedAUCError):
        roc_auc([0.1, 0.9], [0, 0])


def test_nan_scores_rejected():
    with pytest.raises(ValueError, match="1 of 4 scores are NaN"):
        roc_auc([0.1, math.nan, 0.3, 0.7], [0, 1, 0, 1])


def test_evaluate_rejects_a_nan_feature_pixel():
    """A NaN input pixel turns its tile's probabilities NaN; evaluate must
    say so rather than rank them into an AUC."""
    rng = np.random.default_rng(0)
    model = build(ModelConfig("autoencoder", (4,), in_channels=3, tile=8), rng)
    samples = [Sample(features=rng.standard_normal((3, 8, 8)).astype(np.float32),
                      label=(np.arange(64).reshape(8, 8) % 2).astype(np.int8),
                      date=datetime.date(2020, 1, 1), origin=(0, 0), split="test",
                      kind="positive")
               for _ in range(6)]
    samples[2].features[1, 3, 4] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="scores are NaN"):
        metrics.evaluate(model, samples)


def test_auc_matches_pair_oracle_100_cases():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 200
        # quantized scores force plenty of ties
        scores = np.round(rng.uniform(0, 1, n), 2)
        labels = (rng.uniform(0, 1, n) < 0.3).astype(int)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 1, 0
        assert abs(roc_auc(scores, labels) - auc_pair_oracle(scores, labels)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([math.exp, math.atan,
                                                   lambda v: 3 * v + 1]))
def test_auc_invariant_under_increasing_transform(seed, transform):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=60)
    labels = (rng.uniform(size=60) < 0.4).astype(int)
    labels[:2] = [0, 1]
    mapped = np.array([transform(s) for s in scores])
    assert roc_auc(mapped, labels) == pytest.approx(roc_auc(scores, labels), abs=1e-12)


def test_auc_negation_complements_without_ties():
    rng = np.random.default_rng(5)
    scores = rng.permutation(100) / 100.0  # all distinct
    labels = (rng.uniform(size=100) < 0.5).astype(int)
    labels[:2] = [0, 1]
    assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0)


# --- confusion counts -----------------------------------------------------------

def test_perfect_scores_zero_errors():
    labels = np.array([1, 0, 1, 0, 0])
    c = confusion(labels.astype(float), labels)
    assert c.fp == 0 and c.fn == 0
    assert c.tp == 2 and c.tn == 3


def test_threshold_zero_predicts_everything_positive():
    c = confusion([0.2, 0.8, 0.5], [0, 1, 0], threshold=0.0)
    assert c.tn == 0 and c.fn == 0
    assert c.tp == 1 and c.fp == 2


def test_fixed_ten_pixel_enumeration():
    scores = [0.9, 0.8, 0.7, 0.6, 0.55, 0.45, 0.4, 0.3, 0.2, 0.1]
    labels = [1, 0, 1, 1, 0, 1, 0, 0, 1, 0]
    # by hand at threshold 0.5: preds are the first five
    c = confusion(scores, labels)
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 2, 3, 2)


def test_threshold_is_inclusive():
    c = confusion([0.5], [1])
    assert c.tp == 1


# --- pooled summaries -----------------------------------------------------------

def test_perfect_predictions_all_ones():
    labels = np.array([1, 1, 0, 0, 0, 1])
    r = summarize(labels.astype(float), labels)
    assert r.precision == 1.0 and r.recall == 1.0 and r.iou == 1.0
    assert r.auc == 1.0
    assert not r.degenerate


def test_disjoint_predictions_zero_iou():
    scores = np.array([0.9, 0.9, 0.1, 0.1])
    labels = np.array([0, 0, 1, 1])
    r = summarize(scores, labels)
    assert r.iou == 0.0
    assert r.auc == 0.0


def test_formula_substitution():
    # TP=2, FP=1, FN=1 -> iou 0.5, precision 2/3, recall 2/3
    scores = np.array([0.9, 0.9, 0.9, 0.1, 0.1])
    labels = np.array([1, 1, 0, 1, 0])
    r = summarize(scores, labels)
    assert r.iou == pytest.approx(0.5)
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == pytest.approx(2 / 3)


def test_iou_bounded_by_precision_and_recall():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tp, fp, tn, fn = rng.integers(0, 20, size=4)
        if tp + fp + fn == 0 or tp + fp == 0 or tp + fn == 0:
            continue
        iou = tp / (tp + fp + fn)
        assert iou <= tp / (tp + fp) + 1e-12
        assert iou <= tp / (tp + fn) + 1e-12


def test_uncertain_pixels_never_change_metrics():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 80
        scores = rng.uniform(size=n)
        labels = (rng.uniform(size=n) < 0.35).astype(int)
        labels[:2] = [0, 1]
        base = summarize(scores, labels)
        extra = rng.integers(1, 40)
        inj_scores = np.concatenate([scores, rng.uniform(size=extra)])
        inj_labels = np.concatenate([labels, -np.ones(extra, dtype=int)])
        perm = rng.permutation(inj_scores.size)
        r = summarize(inj_scores[perm], inj_labels[perm])
        assert r.auc == pytest.approx(base.auc, abs=1e-14)
        assert r.counts == base.counts
        assert r.iou == base.iou and r.mean_iou == base.mean_iou
        assert r.n_valid == base.n_valid


def test_degenerate_ratios_flagged_zero():
    # nothing predicted positive, nothing labeled... tp+fp = 0
    r = summarize(np.array([0.1, 0.2, 0.3]), np.array([0, 0, 1]))
    assert r.precision == 0.0
    assert r.degenerate


def test_counts_sum_to_n_valid():
    rng = np.random.default_rng(9)
    scores = rng.uniform(size=50)
    labels = rng.choice([-1, 0, 1], size=50, p=[0.2, 0.5, 0.3])
    labels[:2] = [0, 1]
    r = summarize(scores, labels)
    assert r.counts.total == r.n_valid == int((labels != -1).sum())


def test_pgm_output(tmp_path):
    plane = np.array([[0.0, 0.5], [1.0, 0.25]])
    p = tmp_path / "x.pgm"
    metrics.write_pgm(plane, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert raw[-4:] == bytes([0, 128, 255, 64])


def test_eval_csv(tmp_path):
    r = summarize(np.array([0.9, 0.1]), np.array([1, 0]))
    path = tmp_path / "m.csv"
    metrics.write_eval_csv(r, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("auc,precision")
    assert lines[1].split(",")[0] == "1.0"


@pytest.mark.parametrize("arch, frames", [("unet", ()), ("ae_lstm", (3,))])
def test_batched_maps_equal_per_tile_forward(tmp_path, arch, frames):
    # 40 tiles span two of predict_pixels' batches of 32
    rng = np.random.default_rng(0)
    model = build(ModelConfig(arch, (4, 8), in_channels=3, tile=16), rng)
    samples = [Sample(features=rng.standard_normal(frames + (3, 16, 16)).astype(np.float32),
                      label=rng.integers(-1, 2, size=(16, 16)).astype(np.int8),
                      date=datetime.date(2020, 1, 1), origin=(0, 0), split="test", kind="positive")
               for _ in range(40)]
    written = metrics.write_probability_maps(model, samples, tmp_path / "maps")
    assert len(written) == len(samples)
    with nn.no_grad():
        for s, (prob_path, label_path) in zip(samples, written):
            logits = model.forward(s.features[None].astype(np.float64)).data[0, 0]
            metrics.write_pgm(nn.stable_sigmoid(logits), tmp_path / "prob.pgm")
            metrics.write_pgm(s.label, tmp_path / "label.pgm")
            assert prob_path.read_bytes() == (tmp_path / "prob.pgm").read_bytes()
            assert label_path.read_bytes() == (tmp_path / "label.pgm").read_bytes()


def test_no_maps_for_no_samples(tmp_path):
    model = build(ModelConfig("autoencoder", (4,), in_channels=3, tile=8),
                  np.random.default_rng(0))
    assert metrics.write_probability_maps(model, [], tmp_path / "maps") == []


def test_non_finite_probabilities_write_no_map(tmp_path):
    """One NaN feature pixel makes its tile's probabilities NaN; the tile is
    named and no map of any tile is written."""
    rng = np.random.default_rng(0)
    model = build(ModelConfig("autoencoder", (4,), in_channels=3, tile=8), rng)
    samples = [Sample(features=rng.standard_normal((3, 8, 8)).astype(np.float32),
                      label=np.zeros((8, 8), np.int8), date=datetime.date(2020, 1, 1 + i),
                      origin=(8 * i, 0), split="test", kind="negative")
               for i in range(3)]
    samples[1].features[2, 4, 4] = np.nan
    maps = tmp_path / "maps"
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"^tile 1 \(date 2020-01-02, origin \(8, 0\)\) has non-finite"):
        metrics.write_probability_maps(model, samples, maps)
    assert not list(maps.glob("*"))
