import math
import weakref

import numpy as np
import pytest

from firecast import nn, training
from firecast.models import ARCHS, ModelConfig, build
from firecast.training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    train,
    weighted_bce,
)

from gradcheck import check_grads


def scalar_bce_oracle(logits, labels, w=1.0):
    """Element-at-a-time BCE in plain python math, ignoring -1 labels."""
    total = 0.0
    count = 0
    for z, y in zip(logits, labels):
        if y == -1:
            continue
        count += 1
        p = 1.0 / (1.0 + math.exp(-z))
        total += -w * math.log(p) if y == 1 else -math.log(1.0 - p)
    return total / count if count else 0.0


# --- weighted BCE ---------------------------------------------------------------

def test_weight_one_equals_plain_bce():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 50
        z = rng.uniform(-4, 4, size=n)
        y = (rng.uniform(size=n) < 0.4).astype(int)
        loss = weighted_bce(nn.Tensor(z), y, w_pos=1.0)
        assert abs(loss.item() - scalar_bce_oracle(z, y)) < 1e-10


def test_weighted_matches_weighted_oracle():
    rng = np.random.default_rng(7)
    z = rng.uniform(-3, 3, size=40)
    y = rng.choice([-1, 0, 1], size=40, p=[0.2, 0.5, 0.3])
    loss = weighted_bce(nn.Tensor(z), y, w_pos=3.0)
    assert abs(loss.item() - scalar_bce_oracle(z, y, w=3.0)) < 1e-10


def test_worked_value_two_ln_two():
    loss = weighted_bce(nn.Tensor([0.0, 0.0]), np.array([1, 0]), w_pos=3.0)
    assert loss.item() == pytest.approx(2 * math.log(2), rel=1e-15)


def test_all_ignored_gives_zero_loss_and_grads():
    z = nn.Tensor(np.random.default_rng(0).normal(size=(2, 1, 4, 4)),
                  requires_grad=True)
    loss = weighted_bce(z, -np.ones((2, 4, 4), dtype=int), w_pos=3.0)
    assert loss.item() == 0.0
    nn.backward(loss)
    np.testing.assert_allclose(z.grad, 0.0)


def test_loss_nonnegative():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=3, size=30)
        y = rng.choice([-1, 0, 1], size=30)
        if np.all(y == -1):
            continue
        assert weighted_bce(nn.Tensor(z), y, 3.0).item() >= 0.0


def test_bce_shape_mismatch():
    with pytest.raises(nn.ShapeError):
        weighted_bce(nn.Tensor(np.zeros((2, 1, 4, 4))), np.zeros((2, 3, 3)), 1.0)


def test_bce_gradient_with_ignores():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = nn.Tensor(rng.uniform(-1, 1, size=(1, 1, 4, 4)), requires_grad=True)
        y = rng.choice([-1, 0, 1], size=(1, 4, 4), p=[0.25, 0.5, 0.25])
        if np.all(y == -1):
            y[0, 0, 0] = 1
        check_grads(lambda: weighted_bce(z, y, 3.0), [z])


def test_bce_gradient_through_conv():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(2, 2, 4, 4))
    k = nn.Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)), requires_grad=True)
    b = nn.Tensor(np.zeros(1), requires_grad=True)
    y = rng.choice([-1, 0, 1], size=(2, 4, 4))

    def loss():
        return weighted_bce(nn.conv2d(nn.Tensor(x), k, b), y, 2.5)

    check_grads(loss, [k, b])


# --- Adam ------------------------------------------------------------------------

def make_params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return {f"p{i}": nn.Tensor(rng.normal(size=s), requires_grad=True)
            for i, s in enumerate(shapes)}


def test_zero_gradient_leaves_params():
    params = make_params([(3, 3), (4,)])
    before = {k: t.data.copy() for k, t in params.items()}
    state = OptimizerState(params)
    cfg = TrainConfig(epochs=1, learning_rate=0.1)
    for _ in range(5):
        adam_step(params, {k: np.zeros_like(t.data) for k, t in params.items()},
                  state, cfg)
    for k, t in params.items():
        np.testing.assert_array_equal(t.data, before[k])
    assert state.step == 5


def test_first_step_magnitude_is_learning_rate():
    params = make_params([(6,)], seed=1)
    state = OptimizerState(params)
    cfg = TrainConfig(epochs=1, learning_rate=3e-3)
    before = params["p0"].data.copy()
    g = np.full(6, 0.37)
    adam_step(params, {"p0": g}, state, cfg)
    update = before - params["p0"].data
    np.testing.assert_allclose(np.abs(update), cfg.learning_rate, atol=1e-6 * cfg.learning_rate * 10)
    assert np.all(np.sign(update) == np.sign(g))


def test_adam_missing_gradient():
    params = make_params([(2,)])
    state = OptimizerState(params)
    with pytest.raises(ValueError):
        adam_step(params, {"p0": None}, state, TrainConfig(epochs=1))


def test_adam_bias_correction_against_reference():
    # hand-rolled reference recursion, kept separate from the implementation
    rng = np.random.default_rng(2)
    params = make_params([(5,)], seed=3)
    state = OptimizerState(params)
    cfg = TrainConfig(epochs=1, learning_rate=0.01)
    ref = params["p0"].data.copy()
    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 8):
        g = rng.normal(size=5)
        adam_step(params, {"p0": g}, state, cfg)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.999 ** t)
        ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)
    np.testing.assert_allclose(params["p0"].data, ref, atol=1e-14)


# --- training loop ----------------------------------------------------------------

class FakeSample:
    def __init__(self, features, label):
        self.features = features
        self.label = label


def toy_dataset(n, seed, tile=8):
    """Fire iff channel 0 is positive; trivially learnable."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        f = rng.normal(size=(3, tile, tile)).astype(np.float32)
        label = (f[0] > 0).astype(np.int8)
        out.append(FakeSample(f, label))
    return out


def toy_model(seed=0):
    return build(ModelConfig("autoencoder", (4,), in_channels=3, tile=8),
                 np.random.default_rng(seed))


def test_step_count_matches_ceil(monkeypatch):
    calls = []
    real_step = training.adam_step
    monkeypatch.setattr(training, "adam_step",
                        lambda *args: calls.append(1) or real_step(*args))
    # 10 samples at batch 4 -> ceil(10 / 4) = 3 steps per epoch
    for epochs, steps in [(1, 3), (2, 6)]:
        calls.clear()
        cfg = TrainConfig(epochs=epochs, batch_size=4, learning_rate=1e-3, rng_seed=0)
        report = train(toy_model(), toy_dataset(10, seed=1), toy_dataset(4, seed=2), cfg)
        assert len(report.history) == epochs
        assert len(calls) == steps


def test_best_checkpoint_is_argmax_of_val_auc():
    model = toy_model(seed=4)
    data = toy_dataset(12, seed=5)
    val = toy_dataset(6, seed=6)
    cfg = TrainConfig(epochs=4, batch_size=6, learning_rate=5e-3, rng_seed=1)
    report = train(model, data, val, cfg)
    aucs = [r.val_auc for r in report.history]
    assert report.best_epoch == int(np.argmax(aucs)) + 1
    assert report.best_val_auc == max(aucs)
    flagged = [r.epoch for r in report.history if r.is_best]
    assert report.best_epoch == flagged[-1]


def test_each_batch_graph_is_freed_before_the_next_forward():
    """A batch's logits, and so the graph and interior gradients behind
    them, must be gone before the next batch builds its graph."""
    model = toy_model(seed=13)
    forward = model.forward
    graphs = []

    def tracked(x):
        assert [ref for ref in graphs if ref() is not None] == []
        out = forward(x)
        if out._parents:  # a training batch, not a no_grad validation pass
            graphs.append(weakref.ref(out.data))
        return out

    model.forward = tracked
    train(model, toy_dataset(12, seed=14), toy_dataset(4, seed=15),
          TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, rng_seed=0))
    assert len(graphs) == 6


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        model = toy_model(seed=7)
        report = train(model, toy_dataset(8, seed=8), toy_dataset(4, seed=9),
                       TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3,
                                   rng_seed=3))
        runs.append((report.best_params, [r.train_loss for r in report.history]))
    assert runs[0][1] == runs[1][1]
    for k in runs[0][0]:
        assert runs[0][0][k].tobytes() == runs[1][0][k].tobytes()


def test_loss_decreases_on_learnable_data():
    wins = 0
    for seed in range(10):
        model = build(ModelConfig("autoencoder", (4,), in_channels=3, tile=8),
                      np.random.default_rng(seed))
        report = train(model, toy_dataset(24, seed=100 + seed),
                       toy_dataset(8, seed=200 + seed),
                       TrainConfig(epochs=5, batch_size=8, learning_rate=3e-3,
                                   positive_weight=1.0, rng_seed=seed))
        losses = [r.train_loss for r in report.history]
        if all(b < a for a, b in zip(losses, losses[1:])):
            wins += 1
    assert wins >= 9


def test_non_finite_loss_names_epoch_and_batch(monkeypatch):
    """A head bias turned NaN after the second Adam step makes the third
    batch's loss NaN; train stops there, before adam_step spreads NaN
    into every other parameter."""
    model = toy_model(seed=16)
    real_step = training.adam_step
    steps = []

    def step(params, *args):
        real_step(params, *args)
        steps.append(1)
        if len(steps) == 2:
            params["head.b"].data = np.full_like(params["head.b"].data, np.nan)

    monkeypatch.setattr(training, "adam_step", step)
    # the suite turns numpy's invalid-value warning into an error; a CLI
    # run only prints it, so silence it and let train's own check fire
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="^non-finite training loss at epoch 1, batch 3$"):
        train(model, toy_dataset(16, seed=17), toy_dataset(4, seed=18),
              TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, rng_seed=0))
    assert len(steps) == 2
    for name, p in model.params.items():
        assert name == "head.b" or np.isfinite(p.data).all(), name


def test_nan_input_pixel_stops_training_at_its_batch():
    """One NaN feature pixel must reach the loss: train names the epoch and
    the batch that holds the sample, and no Adam step has seen it."""
    data = toy_dataset(16, seed=19)
    bad = 9
    data[bad].features[1, 3, 5] = np.nan
    # train draws its first epoch's order from the seed before anything else
    position = int(np.flatnonzero(np.random.default_rng(0).permutation(16) == bad)[0])
    batch = position // 4 + 1
    model = toy_model(seed=20)
    # the suite turns numpy's invalid-value warning into an error; a CLI
    # run only prints it, so silence it and let train's own check fire
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=f"^non-finite training loss at epoch 1, batch {batch}$"):
        train(model, data, toy_dataset(4, seed=21),
              TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3, rng_seed=0))
    for name, p in model.params.items():
        assert np.isfinite(p.data).all(), name


def test_empty_dataset_rejected():
    model = toy_model()
    with pytest.raises(ValueError):
        train(model, [], toy_dataset(2, 0), TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(model, toy_dataset(2, 0), [], TrainConfig(epochs=1))


def test_report_csv_round_trip(tmp_path):
    model = toy_model(seed=10)
    report = train(model, toy_dataset(6, seed=11), toy_dataset(4, seed=12),
                   TrainConfig(epochs=2, batch_size=3, learning_rate=1e-3,
                               rng_seed=5))
    p = tmp_path / "report.csv"
    report.write_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_auc,is_best"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"


def tape(loss):
    """Every tensor the loss was computed from, the loss included."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def recording(rule, dtypes):
    """rule, wrapped to append the dtype of each gradient it is handed to
    dtypes."""

    def back(g):
        dtypes.append(g.dtype)
        rule(g)

    return back


@pytest.mark.parametrize("arch", ARCHS)
def test_float32_training_step_stays_float32(arch):
    # a float64 input and float64 state anywhere on the tape would widen
    # everything after it; only the loss value itself is float64
    cfg = ModelConfig(arch, (4, 8), tile=16)
    model = build(cfg, np.random.default_rng(0))
    params = model.params
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 10, 16, 16) if cfg.is_sequence else (2, 10, 16, 16))
    y = rng.choice([-1, 0, 1], size=(2, 16, 16))
    logits = model.forward(x)
    assert logits.data.dtype == np.float32
    loss = weighted_bce(logits, y, 3.0)
    assert loss.data.dtype == np.float64
    nodes = [t for t in tape(loss) if t is not loss]
    assert len(nodes) > len(params)
    # backward releases each interior node's gradient once its rule has
    # run, so record the dtype of the gradient each rule is handed
    dtypes = []
    for t in nodes:
        if t._backward is not None:
            t._backward = recording(t._backward, dtypes)
    nn.backward(loss)
    assert dtypes
    for dtype in dtypes:
        assert dtype == np.float32
    for t in nodes:
        assert t.data.dtype == np.float32
        assert t.grad is None or t.grad.dtype == np.float32
    state = OptimizerState(params)
    adam_step(params, {k: p.grad for k, p in params.items()}, state, TrainConfig())
    for name, p in params.items():
        assert p.grad.dtype == p.data.dtype == np.float32, name
        assert state.m[name].dtype == state.v[name].dtype == np.float32, name
