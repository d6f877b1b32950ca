import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firecast import nn
from firecast.nn import Tensor

from gradcheck import check_grads, numeric_grad, rel_err


def conv_oracle(x, k, b, stride):
    """Direct 6-loop reference convolution with same zero padding."""
    n_, c_, h_, w_ = x.shape
    f_, _, kk, _ = k.shape
    pad = (kk - 1) // 2
    ho = (h_ + 2 * pad - kk) // stride + 1
    wo = (w_ + 2 * pad - kk) // stride + 1
    out = np.zeros((n_, f_, ho, wo))
    for n in range(n_):
        for f in range(f_):
            for oi in range(ho):
                for oj in range(wo):
                    acc = b[f]
                    for c in range(c_):
                        for ki in range(kk):
                            for kj in range(kk):
                                ii = oi * stride + ki - pad
                                jj = oj * stride + kj - pad
                                if 0 <= ii < h_ and 0 <= jj < w_:
                                    acc += x[n, c, ii, jj] * k[f, c, ki, kj]
                    out[n, f, oi, oj] = acc
    return out


# --- conv2d ------------------------------------------------------------------

def test_conv_all_ones_overlap_counts():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = nn.conv2d(x, k, b).data[0, 0]
    expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
    np.testing.assert_allclose(out, expected)


def test_conv_identity_1x1():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 5, 5)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    np.testing.assert_allclose(nn.conv2d(x, k, b).data, x.data)


def test_conv_matches_loop_oracle_stride2():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 3, 8, 8))
    k = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    out = nn.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2).data
    assert out.shape == (2, 4, 4, 4)
    assert np.abs(out - conv_oracle(x, k, b, 2)).max() < 1e-12


def test_conv_matches_loop_oracle_stride1():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(1, 2, 6, 5))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = nn.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=1).data
    assert np.abs(out - conv_oracle(x, k, b, 1)).max() < 1e-12


def test_conv_linearity():
    rng = np.random.default_rng(1)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)))
    b = Tensor(np.zeros(3))
    x = rng.normal(size=(1, 2, 6, 6))
    y = rng.normal(size=(1, 2, 6, 6))
    a, bb = 1.7, -0.4
    lhs = nn.conv2d(Tensor(a * x + bb * y), k, b).data
    rhs = a * nn.conv2d(Tensor(x), k, b).data + bb * nn.conv2d(Tensor(y), k, b).data
    assert np.abs(lhs - rhs).max() < 1e-10


def test_conv_shape_errors():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(nn.ShapeError):
        nn.conv2d(x, Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))
    with pytest.raises(nn.ShapeError):
        nn.conv2d(x, Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros(2)))
    with pytest.raises(nn.ShapeError):
        nn.conv2d(x, Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros(1)), stride=3)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_grads(stride):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=3), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.tanh(nn.conv2d(x, k, b, stride))), [x, k, b])


# --- pooling / upsampling ----------------------------------------------------

def test_max_pool_single_window():
    out = nn.max_pool2(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert out.data.reshape(()) == 4.0


def test_max_pool_tie_routes_to_first_row_major():
    x = Tensor(np.full((1, 1, 4, 4), 2.5), requires_grad=True)
    out = nn.max_pool2(x)
    np.testing.assert_allclose(out.data, 2.5)
    nn.backward(nn.tsum(out))
    expected = np.zeros((4, 4))
    expected[::2, ::2] = 1.0
    np.testing.assert_allclose(x.grad[0, 0], expected)


def test_max_pool_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 1, 8, 8))
    out = nn.max_pool2(Tensor(x)).data
    for i in range(4):
        for j in range(4):
            assert out[0, 0, i, j] == x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()


def test_max_pool_odd_dims_rejected():
    with pytest.raises(nn.ShapeError):
        nn.max_pool2(Tensor(np.zeros((1, 1, 3, 4))))


def test_max_pool_grads():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, size=(2, 2, 4, 4)), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.mul(nn.max_pool2(x), nn.max_pool2(x))), [x])


def test_upsample_replicates():
    out = nn.upsample2(Tensor([[[[1.0]]]]))
    np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 2)))


def test_pool_inverts_upsample():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 4))
    back = nn.max_pool2(nn.upsample2(Tensor(x)))
    np.testing.assert_allclose(back.data, x)


def test_upsample_preserves_sum_x4():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 2, 3, 3))
    assert nn.upsample2(Tensor(x)).data.sum() == pytest.approx(4 * x.sum())


def test_upsample_grads():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, size=(1, 2, 3, 3)), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.sigmoid(nn.upsample2(x))), [x])


# --- elementwise ---------------------------------------------------------

def test_activation_values():
    assert nn.relu(Tensor([-1.0])).data[0] == 0.0
    assert nn.relu(Tensor([2.0])).data[0] == 2.0
    assert nn.sigmoid(Tensor([0.0])).data[0] == 0.5
    assert nn.tanh(Tensor([0.0])).data[0] == 0.0


def test_stable_sigmoid_extreme_logits():
    z = np.linspace(-60.0, 60.0, 2401)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ends = nn.stable_sigmoid(np.array([-1000.0, 0.0, 40.0, 1000.0]))
        tiny = nn.stable_sigmoid(np.array([-40.0]))[0]
        below, above = nn.stable_sigmoid(-z), nn.stable_sigmoid(z)
    assert ends.tolist() == [0.0, 0.5, 1.0, 1.0]
    assert 0.0 < tiny < 1e-17
    assert np.abs(below - (1.0 - above)).max() <= 1e-15


def test_concat_channel_arithmetic():
    a = Tensor(np.zeros((2, 3, 4, 4)))
    b = Tensor(np.ones((2, 5, 4, 4)))
    out = nn.concat_channels([a, b])
    assert out.shape == (2, 8, 4, 4)
    np.testing.assert_allclose(out.data[:, :3], 0.0)
    np.testing.assert_allclose(out.data[:, 3:], 1.0)


def test_concat_shape_mismatch():
    with pytest.raises(nn.ShapeError):
        nn.concat_channels([Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 5, 4)))])


def test_add_mul_require_equal_shapes():
    with pytest.raises(nn.ShapeError):
        nn.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
    with pytest.raises(nn.ShapeError):
        nn.mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_elementwise_grads():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.uniform(-1, 1, size=(2, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(2, 2, 2, 2)), requires_grad=True)

        def loss():
            cat = nn.concat_channels([nn.sigmoid(a), nn.tanh(b)])
            return nn.tsum(nn.mul(cat, cat))

        check_grads(loss, [a, b])


# --- convolutional LSTM -----------------------------------------------------

def zero_weights(in_ch, hidden):
    w = nn.ConvLSTMWeights(in_ch, hidden, np.random.default_rng(0))
    for gate in w.GATES:
        w.kernels[gate].data[:] = 0.0
        w.biases[gate].data[:] = 0.0
    return w


def test_lstm_zero_weights_saturation():
    w = zero_weights(2, 3)
    x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 4, 4)))
    h = Tensor(np.zeros((1, 3, 4, 4)))
    c = Tensor(np.zeros((1, 3, 4, 4)))
    h2, c2 = nn.conv_lstm_step(x, h, c, w)
    np.testing.assert_allclose(c2.data, 0.0)
    np.testing.assert_allclose(h2.data, 0.0)


def test_lstm_forget_gate_keeps_cell():
    w = zero_weights(2, 3)
    w.biases["f"].data[:] = 50.0
    w.biases["i"].data[:] = -50.0
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(1, 2, 4, 4)))
    h = Tensor(rng.normal(size=(1, 3, 4, 4)))
    c = Tensor(rng.normal(size=(1, 3, 4, 4)))
    _, c2 = nn.conv_lstm_step(x, h, c, w)
    np.testing.assert_allclose(c2.data, c.data, atol=1e-12)


def test_lstm_shape_mismatch():
    w = zero_weights(2, 3)
    with pytest.raises(nn.ShapeError):
        nn.conv_lstm_step(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))),
                          Tensor(np.zeros((1, 3, 2, 2))), w)


def test_lstm_step_grads():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = nn.ConvLSTMWeights(2, 2, rng)
        x = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)
        h = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)

        def loss():
            h2, c2 = nn.conv_lstm_step(x, h, c, w)
            return nn.tsum(nn.add(h2, c2))

        tensors = [x, h, c] + list(w.named_params("lstm").values())
        check_grads(loss, tensors)


# --- backward machinery -------------------------------------------------------

def test_backward_sum_gives_ones():
    w = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
    nn.backward(nn.tsum(w))
    np.testing.assert_allclose(w.grad, np.ones((3, 4)))


def test_backward_sum_of_squares():
    w = Tensor(np.random.default_rng(2).normal(size=(5,)), requires_grad=True)
    nn.backward(nn.tsum(nn.mul(w, w)))
    np.testing.assert_allclose(w.grad, 2 * w.data)


def test_backward_nonscalar_rejected():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(nn.ShapeError):
        nn.backward(nn.mul(w, w))


def test_reuse_doubles_gradient():
    w = Tensor(np.random.default_rng(3).normal(size=(4,)), requires_grad=True)
    nn.backward(nn.tsum(nn.add(w, w)))
    np.testing.assert_allclose(w.grad, 2 * np.ones(4))
    once = Tensor(w.data.copy(), requires_grad=True)
    nn.backward(nn.tsum(once))
    np.testing.assert_allclose(w.grad, 2 * once.grad)


def test_composite_conv_relu_pool_grads():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=2), requires_grad=True)

        def loss():
            return nn.tsum(nn.max_pool2(nn.relu(nn.conv2d(x, k, b))))

        check_grads(loss, [x, k, b])


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with nn.no_grad():
        y = nn.mul(x, x)
    assert y._parents == ()
    assert y._backward is None


def test_mean_grad():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    nn.backward(nn.tmean(x))
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))


def test_slice_time_grads():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(-1, 1, size=(2, 3, 1, 2, 2)), requires_grad=True)

    def loss():
        return nn.tsum(nn.mul(nn.slice_time(x, 1), nn.slice_time(x, 1)))

    check_grads(loss, [x])


# --- shape algebra properties -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2), c=st.integers(1, 3), f=st.integers(1, 3),
       h=st.sampled_from([4, 6, 8]), k=st.sampled_from([1, 3]),
       stride=st.sampled_from([1, 2]))
def test_conv_output_shape_formula(n, c, f, h, k, stride):
    x = Tensor(np.zeros((n, c, h, h)))
    out = nn.conv2d(x, Tensor(np.zeros((f, c, k, k))), Tensor(np.zeros(f)), stride)
    pad = (k - 1) // 2
    expect = (h + 2 * pad - k) // stride + 1
    assert out.shape == (n, f, expect, expect)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), c=st.integers(1, 4), h=st.sampled_from([2, 4, 6]))
def test_pool_upsample_shape_formulas(n, c, h):
    x = Tensor(np.zeros((n, c, h, h)))
    assert nn.max_pool2(x).shape == (n, c, h // 2, h // 2)
    assert nn.upsample2(x).shape == (n, c, 2 * h, 2 * h)


# --- checkpoints ---------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "enc0.conv1.w": Tensor(rng.normal(size=(4, 2, 3, 3))),
        "enc0.conv1.b": Tensor(rng.normal(size=4)),
        "head.w": Tensor(rng.normal(size=(1, 4, 1, 1))),
    }
    p = tmp_path / "model.wfck"
    nn.save_checkpoint(params, p)
    loaded = nn.load_checkpoint(p)
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].tobytes() == params[name].data.tobytes()


def test_checkpoint_deterministic_bytes(tmp_path):
    params = {"a.w": Tensor(np.arange(4.0)), "b.w": Tensor(np.ones((2, 2)))}
    p1, p2 = tmp_path / "a.wfck", tmp_path / "b.wfck"
    nn.save_checkpoint(params, p1)
    nn.save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "x.wfck"
    p.write_bytes(b"NOTACKPT")
    with pytest.raises(ValueError):
        nn.load_checkpoint(p)
