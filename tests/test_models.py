import numpy as np
import pytest

from firecast import nn
from firecast.models import (
    ARCHS,
    Model,
    ModelConfig,
    ResidualBlock,
    build,
    expected_param_count,
)

from gradcheck import check_grads


def test_config_rejects_bad_tile():
    with pytest.raises(ValueError):
        ModelConfig("autoencoder", (8, 16, 32), tile=12)
    with pytest.raises(ValueError):
        ModelConfig("autoencoder", ())
    with pytest.raises(ValueError):
        ModelConfig("resnet", (8,))


# --- residual block -----------------------------------------------------------

def test_block_zero_convs_is_relu_when_channels_match():
    rng = np.random.default_rng(0)
    block = ResidualBlock(4, 4, rng)
    block.conv1.kernel.data[:] = 0.0
    block.conv2.kernel.data[:] = 0.0
    assert block.proj is None
    x = nn.Tensor(rng.normal(size=(2, 4, 8, 8)))
    out = block(x)
    np.testing.assert_allclose(out.data, np.maximum(x.data, 0.0))


def test_block_projects_when_channels_differ():
    block = ResidualBlock(3, 6, np.random.default_rng(1))
    assert block.proj is not None
    out = block(nn.Tensor(np.random.default_rng(2).normal(size=(1, 3, 4, 4))))
    assert out.shape == (1, 6, 4, 4)


def test_block_gradients():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        block = ResidualBlock(2, 3, rng)
        x = nn.Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)

        def loss():
            return nn.tsum(nn.tanh(block(x)))

        check_grads(loss, [x] + list(block.named_params("b").values()))


# --- shape contracts -----------------------------------------------------------

def test_autoencoder_shape_contract():
    cfg = ModelConfig("autoencoder", (8, 16), tile=32)
    model = build(cfg, np.random.default_rng(0))
    out = model.forward(np.zeros((2, 10, 32, 32)))
    assert out.shape == (2, 1, 32, 32)


def test_unet_lstm_shape_contract():
    cfg = ModelConfig("unet_lstm", (8, 16), tile=32)
    model = build(cfg, np.random.default_rng(0))
    out = model.forward(np.zeros((2, 7, 10, 32, 32)))
    assert out.shape == (2, 1, 32, 32)


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("scheme", [(4,), (4, 8), (4, 8, 8)])
def test_output_matches_input_spatial_shape(arch, scheme):
    cfg = ModelConfig(arch, scheme, tile=16)
    model = build(cfg, np.random.default_rng(1))
    shape = (1, 3, 10, 16, 16) if cfg.is_sequence else (1, 10, 16, 16)
    out = model.forward(np.random.default_rng(2).normal(size=shape))
    assert out.shape == (1, 1, 16, 16)
    assert np.all(np.isfinite(out.data))


def test_sequence_arch_rejects_4d_input():
    model = build(ModelConfig("ae_lstm", (4,), tile=8), np.random.default_rng(0))
    with pytest.raises(nn.ShapeError):
        model.forward(np.zeros((1, 10, 8, 8)))
    model2 = build(ModelConfig("unet", (4,), tile=8), np.random.default_rng(0))
    with pytest.raises(nn.ShapeError):
        model2.forward(np.zeros((1, 2, 10, 8, 8)))


def test_no_cross_batch_coupling():
    cfg = ModelConfig("unet", (4, 8), tile=16)
    model = build(cfg, np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=(1, 10, 16, 16))
    batch = np.concatenate([x, x], axis=0)
    out = model.forward(batch).data
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_constant_sequence_smoke():
    cfg = ModelConfig("ae_lstm", (4, 8), tile=16)
    model = build(cfg, np.random.default_rng(5))
    frame = np.random.default_rng(6).normal(size=(2, 1, 10, 16, 16))
    seq = np.repeat(frame, 5, axis=1)
    out = model.forward(seq)
    assert out.shape == (2, 1, 16, 16)
    assert np.all(np.isfinite(out.data))


# --- initial conditioning ----------------------------------------------------------

# (archs, filter scheme, tile, frames) of acceptance criteria 1, 5 and 6
INIT_SHAPES = {
    "criterion1": (ARCHS, (4, 8), 16, 2),
    "criterion5": (("autoencoder", "unet"), (8, 16, 32), 32, None),
    "criterion6": (("ae_lstm", "autoencoder"), (8, 16), 16, 7),
}


def init_cases(archs, scheme, tile, frames):
    """Seeds 0-19: a freshly built model and criterion 1's uniform(-1, 1) input."""
    for seed in range(20):
        for arch in archs:
            cfg = ModelConfig(arch, scheme, tile=tile)
            model = build(cfg, np.random.default_rng(seed))
            shape = (1, frames, 10, tile, tile) if cfg.is_sequence else (1, 10, tile, tile)
            x = np.random.default_rng(seed + 500).uniform(-1, 1, shape)
            yield seed, arch, model, x


@pytest.mark.parametrize("shapes", sorted(INIT_SHAPES))
def test_initial_logits_are_not_saturated(shapes):
    # past |z| = 6 the sigmoid's slope is below 1 % of its slope at 0
    # (sigma'(6) / sigma'(0) = 0.0099): the logit counts as saturated
    worst = {}
    for seed, arch, model, x in init_cases(*INIT_SHAPES[shapes]):
        worst[seed, arch] = float(np.abs(model.forward(x).data).max())
    (seed, arch), top = max(worst.items(), key=lambda kv: kv[1])
    assert top < 6.0, f"seed {seed} {arch}: initial |logit| {top:.1f} >= 6"


def test_no_relu_input_sits_on_its_kink_at_init(monkeypatch):
    # a ReLU input of exactly 0.0 puts a kink on the point where
    # finite differences probe the gradient (acceptance criterion 1)
    relu = nn.relu
    zeros = []

    def counting_relu(x):
        zeros.append(int(np.count_nonzero(x.data == 0.0)))
        return relu(x)

    monkeypatch.setattr(nn, "relu", counting_relu)
    for seed, arch, model, x in init_cases(*INIT_SHAPES["criterion1"]):
        zeros.clear()
        model.forward(x)
        assert zeros and sum(zeros) == 0, \
            f"seed {seed} {arch}: {sum(zeros)} ReLU inputs are exactly 0.0"


# --- parameter bookkeeping ------------------------------------------------------

@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("scheme", [(4, 8), (8, 16, 32), (4, 4)])
def test_param_count_closed_form(arch, scheme):
    cfg = ModelConfig(arch, scheme, tile=32)
    model = build(cfg, np.random.default_rng(0))
    actual = sum(t.data.size for t in model.params.values())
    assert actual == expected_param_count(cfg)


@pytest.mark.parametrize("arch, scheme, count", [
    ("ae_lstm", (8, 16), 30057), ("unet_lstm", (4, 8), 8637)])
def test_lstm_keeps_its_per_gate_storage(arch, scheme, count):
    """conv_lstm_step fuses the gate convs in compute only: the LSTM still
    stores, names and checkpoints one kernel and one bias per gate."""
    cfg = ModelConfig(arch, scheme, tile=16)
    model = build(cfg, np.random.default_rng(0))
    lstm = {name: t.shape for name, t in model.params.items() if name.startswith("lstm.")}
    hidden, cin = cfg.hidden, scheme[-1] + cfg.hidden
    assert lstm == {f"lstm.{kind}{gate}": shape
                    for gate in "ifog"
                    for kind, shape in (("w", (hidden, cin, 3, 3)), ("b", (hidden,)))}
    assert expected_param_count(cfg) == count


def test_unet_has_more_params_than_autoencoder():
    ae = expected_param_count(ModelConfig("autoencoder", (8, 16), tile=32))
    un = expected_param_count(ModelConfig("unet", (8, 16), tile=32))
    assert un > ae


def test_build_deterministic_given_seed():
    cfg = ModelConfig("unet", (4, 8), tile=16)
    m1 = build(cfg, np.random.default_rng(7))
    m2 = build(cfg, np.random.default_rng(7))
    for name, t in m1.params.items():
        np.testing.assert_array_equal(t.data, m2.params[name].data)
    x = np.random.default_rng(8).normal(size=(1, 10, 16, 16))
    np.testing.assert_array_equal(m1.forward(x).data, m2.forward(x).data)


def test_load_params_round_trip(tmp_path):
    cfg = ModelConfig("ae_lstm", (4, 8), tile=16)
    model = build(cfg, np.random.default_rng(9))
    path = tmp_path / "m.wfck"
    nn.save_checkpoint(model.params, path)
    other = build(cfg, np.random.default_rng(123))
    other.load_params(nn.load_checkpoint(path))
    x = np.random.default_rng(10).normal(size=(1, 2, 10, 16, 16))
    np.testing.assert_array_equal(model.forward(x).data, other.forward(x).data)


def test_float64_build_casts_to_the_float32_model():
    cfg = ModelConfig("unet_lstm", (4, 8), tile=16)
    wide = build(cfg, np.random.default_rng(4), dtype=np.float64)
    narrow = build(cfg, np.random.default_rng(4))
    assert list(wide.params) == list(narrow.params)
    for name, t in narrow.params.items():
        assert t.data.dtype == np.float32
        assert wide.params[name].data.dtype == np.float64
        assert t.data.tobytes() == wide.params[name].data.astype(np.float32).tobytes()


def test_float32_params_survive_a_checkpoint_bit_exactly(tmp_path):
    cfg = ModelConfig("unet_lstm", (4, 8), tile=16)
    model = build(cfg, np.random.default_rng(9))
    path = tmp_path / "m.wfck"
    nn.save_checkpoint(model.params, path)
    other = build(cfg, np.random.default_rng(123))
    other.load_params(nn.load_checkpoint(path))
    for name, t in model.params.items():
        got = other.params[name].data
        assert got.dtype == np.float32
        assert got.tobytes() == t.data.tobytes()


def test_load_params_rejects_mismatch():
    model = build(ModelConfig("autoencoder", (4,), tile=8), np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.load_params({"nope.w": np.zeros(3)})


# --- unet folds back to autoencoder ----------------------------------------------

def graft_autoencoder_into_unet(ae: Model, un: Model):
    """Copy AE weights into the U-Net and cancel every skip contribution.

    Decoder inputs are ordered [upsampled, skip]; zeroing the kernel slices
    that read the skip channels (and making 1x1 projections reproduce the
    AE shortcut on the upsampled slice) must make the nets identical.
    """
    for eb_ae, eb_un in zip(ae.enc, un.enc):
        for conv_ae, conv_un in (
                (eb_ae.conv1, eb_un.conv1), (eb_ae.conv2, eb_un.conv2),
                (eb_ae.proj, eb_un.proj)):
            if conv_ae is not None:
                conv_un.kernel.data[:] = conv_ae.kernel.data
                conv_un.bias.data[:] = conv_ae.bias.data
    for db_ae, db_un in zip(ae.dec, un.dec):
        up_ch = db_ae.conv1.kernel.shape[1]  # channels arriving from below
        db_un.conv1.kernel.data[:] = 0.0
        db_un.conv1.kernel.data[:, :up_ch] = db_ae.conv1.kernel.data
        db_un.conv1.bias.data[:] = db_ae.conv1.bias.data
        db_un.conv2.kernel.data[:] = db_ae.conv2.kernel.data
        db_un.conv2.bias.data[:] = db_ae.conv2.bias.data
        db_un.proj.kernel.data[:] = 0.0
        if db_ae.proj is not None:
            db_un.proj.kernel.data[:, :up_ch] = db_ae.proj.kernel.data
            db_un.proj.bias.data[:] = db_ae.proj.bias.data
        else:
            filters = db_un.proj.kernel.shape[0]
            db_un.proj.kernel.data[:, :up_ch, 0, 0] = np.eye(filters)
            db_un.proj.bias.data[:] = 0.0
    un.head.kernel.data[:] = ae.head.kernel.data
    un.head.bias.data[:] = ae.head.bias.data


def test_unet_with_zeroed_skips_equals_autoencoder():
    rng = np.random.default_rng(11)
    ae = build(ModelConfig("autoencoder", (4, 8), tile=16), np.random.default_rng(1))
    un = build(ModelConfig("unet", (4, 8), tile=16), np.random.default_rng(2))
    graft_autoencoder_into_unet(ae, un)
    x = rng.normal(size=(2, 10, 16, 16))
    np.testing.assert_array_equal(un.forward(x).data, ae.forward(x).data)


# --- gradients through full architectures -----------------------------------------

@pytest.mark.parametrize("arch", ARCHS)
def test_full_architecture_gradients(arch):
    # exhaustive coordinates are checked in the acceptance suite across 20
    # seeds; here a quick 2-seed subsampled pass
    for seed in range(2):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(arch, (4, 8), tile=16)
        model = build(cfg, rng, dtype=np.float64)
        shape = (1, 2, 10, 16, 16) if cfg.is_sequence else (1, 10, 16, 16)
        x = rng.uniform(-1, 1, size=shape)

        def loss():
            return nn.tmean(nn.tanh(model.forward(x)))

        check_grads(loss, list(model.params.values()), max_coords=4,
                    rng=np.random.default_rng(seed + 100))
