import hashlib
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firecast import nn
from firecast.binio import FormatError
from firecast.models import ARCHS, ModelConfig, build
from firecast.nn import Tensor
from firecast.training import weighted_bce

from gradcheck import check_grads, numeric_grad, rel_err


def conv_oracle(x, k, b):
    """Direct 6-loop reference convolution with same zero padding."""
    n_, c_, h_, w_ = x.shape
    f_, _, kk, _ = k.shape
    pad = (kk - 1) // 2
    ho = h_ + 2 * pad - kk + 1
    wo = w_ + 2 * pad - kk + 1
    out = np.zeros((n_, f_, ho, wo))
    for n in range(n_):
        for f in range(f_):
            for oi in range(ho):
                for oj in range(wo):
                    acc = b[f]
                    for c in range(c_):
                        for ki in range(kk):
                            for kj in range(kk):
                                ii = oi + ki - pad
                                jj = oj + kj - pad
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


def test_conv_matches_loop_oracle_stride1():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(1, 2, 6, 5))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = nn.conv2d(Tensor(x), Tensor(k), Tensor(b)).data
    assert np.abs(out - conv_oracle(x, k, b)).max() < 1e-12


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
        nn.conv2d(x, Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros(1)))


def col2im_input_grad(g, kernel, x_shape):
    """Input gradient of conv2d by scattering each patch's gradient back
    into the padded input, k*k slice-adds (the reference for conv2d's
    transposed-conv backward)."""
    n, c, h, w = x_shape
    f, _, k, _ = kernel.shape
    pad = (k - 1) // 2
    _, _, ho, wo = g.shape
    dcols = np.einsum("fcij,nfyx->ncijyx", kernel, g)
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki:ki + ho, kj:kj + wo] += dcols[:, :, ki, kj]
    return dxp[:, :, pad:pad + h, pad:pad + w]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), c=st.integers(1, 4), f=st.integers(1, 4),
       h=st.integers(1, 9), w=st.integers(1, 9), k=st.sampled_from([1, 3, 5]),
       seed=st.integers(0, 2**32 - 1))
def test_conv_input_grad_is_the_adjoint(n, c, f, h, w, k, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, c, h, w)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(f, c, k, k)))
    b = Tensor(rng.normal(size=f))
    y = nn.conv2d(x, kernel, b)
    g = rng.normal(size=y.shape)
    nn.backward(nn.tsum(nn.mul(y, Tensor(g))))
    # <A x, g> == <x, A^T g> for the linear part A of the conv
    ax = (y.data - b.data[:, None, None]) * g
    xat = x.data * x.grad
    scale = np.abs(ax).sum() + np.abs(xat).sum()
    assert abs(ax.sum() - xat.sum()) <= 1e-10 * scale
    ref = col2im_input_grad(g, kernel.data, x.shape)
    assert np.abs(x.grad - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)


def test_conv_grads():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, size=(1, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=3), requires_grad=True)
        check_grads(lambda: nn.tsum(nn.tanh(nn.conv2d(x, k, b))), [x, k, b])


def conv_param_grads_ref(x, g, k):
    """Kernel and bias gradients of conv2d as one einsum over the windows of
    the zero-padded input (the reference for conv2d's tap-by-tap GEMMs)."""
    pad = (k - 1) // 2
    # k extra zero rows and columns keep the window view defined when the
    # output is empty; no output window reaches them
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad + k), (pad, pad + k)))
    _, _, ho, wo = g.shape
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, :ho, :wo]
    return np.einsum("nfyx,ncyxij->fcij", g, win), g.sum(axis=(0, 2, 3))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 4), f=st.integers(1, 4),
       h=st.integers(1, 9), w=st.integers(1, 9), k=st.sampled_from([1, 3, 5]),
       seed=st.integers(0, 2**32 - 1))
def test_conv_kernel_and_bias_grads_match_einsum(n, c, f, h, w, k, seed):
    rng = np.random.default_rng(seed)
    x64 = rng.normal(size=(n, c, h, w))
    k64 = rng.normal(size=(f, c, k, k))
    b64 = rng.normal(size=f)
    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-4)):
        x = Tensor(x64.astype(dtype), requires_grad=True)
        kernel = Tensor(k64.astype(dtype), requires_grad=True)
        b = Tensor(b64.astype(dtype), requires_grad=True)
        y = nn.conv2d(x, kernel, b)
        g = rng.normal(size=y.shape).astype(dtype)
        nn.backward(nn.tsum(nn.mul(y, Tensor(g))))
        assert {t.dtype for t in (y.data, x.grad, kernel.grad, b.grad)} == {np.dtype(dtype)}
        assert x.grad.shape == x.shape and kernel.grad.shape == kernel.shape
        dk, db = conv_param_grads_ref(x64, g.astype(np.float64), k)
        scale = max(np.abs(dk).max(initial=0.0), np.abs(db).max(initial=0.0), 1.0)
        assert np.abs(kernel.grad - dk).max(initial=0.0) <= tol * scale
        assert np.abs(b.grad - db).max(initial=0.0) <= tol * scale


def test_conv_keeps_no_patch_matrix_on_the_tape():
    """After the forward, what conv2d keeps for backward is about one padded
    copy of x, not a [N, C*k*k, Ho*Wo] patch matrix (9x x for a 3x3)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, 16, 32, 32)).astype(np.float32), requires_grad=True)
    kernel = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(16, np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        y = nn.conv2d(x, kernel, b)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y._backward is not None
    assert held < 3 * x.data.nbytes + y.data.nbytes


@pytest.mark.parametrize("c, f", [(16, 16), (8, 24)])
def test_conv_backward_builds_no_patch_matrix(c, f):
    """conv2d's backward peaks at a few padded copies of x and g, not at a
    [N, F*k*k, H*W] patch matrix of g (9x g for a 3x3)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(8, c, 32, 32)).astype(np.float32), requires_grad=True)
    kernel = Tensor(rng.normal(size=(f, c, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(f, np.float32), requires_grad=True)
    y = nn.conv2d(x, kernel, b)
    g = rng.normal(size=y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        y._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape
    assert peak < 3 * (x.data.nbytes + g.nbytes)


def conv_result_bytes(x64, k64, b64, g64, dtype):
    """Output, input-, kernel- and bias-gradient bytes of one conv2d."""
    x = Tensor(x64.astype(dtype), requires_grad=True)
    kernel = Tensor(k64.astype(dtype), requires_grad=True)
    b = Tensor(b64.astype(dtype), requires_grad=True)
    y = nn.conv2d(x, kernel, b)
    nn.backward(nn.tsum(nn.mul(y, Tensor(g64.astype(dtype)))))
    return [t.tobytes() for t in (y.data, x.grad, kernel.grad, b.grad)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_chunks_give_the_bytes_of_one_chunk(monkeypatch, dtype, k):
    """One sample per chunk, and three chunks of 3, 3 and 1 samples, give
    the bytes of the whole batch in one chunk. A 1x1 conv pads nothing and
    runs whole at any budget."""
    rng = np.random.default_rng(k)
    n, c, f, h, w = 7, 5, 6, 9, 11
    args = (rng.normal(size=(n, c, h, w)), rng.normal(size=(f, c, k, k)),
            rng.normal(size=f), rng.normal(size=(n, f, h, w)))
    padded = n * c * nn._padded_len(h, w, k) * np.dtype(dtype).itemsize
    monkeypatch.setattr(nn, "CONV_CHUNK_BYTES", 2 * padded)
    whole = conv_result_bytes(*args, dtype)
    uneven = padded // 3 + 1
    if k > 1:
        monkeypatch.setattr(nn, "CONV_CHUNK_BYTES", uneven)
        assert nn._chunks(n, padded) == [(0, 3), (3, 6), (6, 7)]
    for budget in (1, uneven):
        monkeypatch.setattr(nn, "CONV_CHUNK_BYTES", budget)
        assert conv_result_bytes(*args, dtype) == whole


def test_chunked_model_step_gives_the_same_bytes(monkeypatch):
    """The sha256 of the logits and every parameter gradient of each
    architecture does not depend on how conv2d cuts the batch."""
    def digest(arch):
        cfg = ModelConfig(arch, (4, 8), tile=16)
        model = build(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3, 10, 16, 16) if cfg.is_sequence else (5, 10, 16, 16))
        logits = model.forward(x)
        nn.backward(weighted_bce(logits, rng.choice([-1, 0, 1], size=(5, 16, 16)), 3.0))
        h = hashlib.sha256(logits.data.tobytes())
        for name in sorted(model.params):
            h.update(model.params[name].grad.tobytes())
        return h.hexdigest()

    for arch in ARCHS:
        monkeypatch.setattr(nn, "CONV_CHUNK_BYTES", 1 << 40)
        whole = digest(arch)
        for budget in (1, 20_000):
            monkeypatch.setattr(nn, "CONV_CHUNK_BYTES", budget)
            assert digest(arch) == whole, (arch, budget)


def test_conv_keeps_no_padded_copy_on_the_tape():
    """After the forward of a conv whose padded input is over the chunk
    budget, what it holds is about y: no whole-batch padded copy of x."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(16, 16, 32, 32)).astype(np.float32), requires_grad=True)
    kernel = Tensor(rng.normal(size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(16, np.float32), requires_grad=True)
    padded = x.data.size // (32 * 32) * nn._padded_len(32, 32, 3) * x.data.itemsize
    assert padded > 2 * nn.CONV_CHUNK_BYTES
    tracemalloc.start()
    try:
        y = nn.conv2d(x, kernel, b)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y._backward is not None
    assert held < y.data.nbytes + nn.CONV_CHUNK_BYTES


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


def pool_reference(x):
    """max_pool2 as argmax over each window's 4 values, in row-major
    window order, then take_along_axis / put_along_axis."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    arg = win.argmax(axis=-1)  # first occurrence on ties
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def back(g):
        dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=g.dtype)
        np.put_along_axis(dwin, arg[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return dx.reshape(n, c, h, w)

    return out, back


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.sampled_from([2, 4, 6, 8, 10, 12]),
       w=st.sampled_from([2, 4, 6, 8, 10, 12]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_max_pool_matches_argmax_reference(n, c, h, w, dtype, seed):
    """Dense ties and signed zeros: values from {-1, -0, 0, 1}; the
    gradient, some of it -0, must be the reference's bit for bit."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), size=(n, c, h, w)),
               requires_grad=True)
    out = nn.max_pool2(x)
    ref_out, ref_back = pool_reference(x.data)
    np.testing.assert_array_equal(out.data, ref_out)  # -0 == 0
    g = rng.normal(size=out.shape).astype(dtype)
    g[rng.random(g.shape) < 0.2] = -0.0
    out._backward(g)
    assert out.data.dtype == x.grad.dtype == dtype
    assert x.grad.tobytes() == ref_back(g).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_upsample_backward_matches_block_sum(dtype):
    rng = np.random.default_rng(8)
    n, c, h, w = 3, 4, 5, 6
    x = Tensor(np.zeros((n, c, h, w), dtype=dtype), requires_grad=True)
    y = nn.upsample2(x)

    def reference(g):
        return g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))

    g = rng.integers(-50, 51, size=y.shape).astype(dtype)
    y._backward(g)
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, reference(g))
    x.grad = None
    g = rng.normal(size=y.shape).astype(dtype)
    y._backward(g)
    assert x.grad.dtype == dtype
    # summation order only: the error is relative to the sum of |terms|
    scale = reference(np.abs(g))
    assert (np.abs(x.grad - reference(g)) <= 1e-6 * scale).all()


def test_relu_propagates_nan_and_gates_gradient_on_positive():
    x = Tensor(np.array([np.nan, -2.0, -0.0, 0.0, 3.0], dtype=np.float32),
               requires_grad=True)
    y = nn.relu(x)
    assert np.isnan(y.data[0])
    np.testing.assert_array_equal(y.data[1:], [0.0, 0.0, 0.0, 3.0])
    assert y.data.dtype == np.float32
    g = np.array([1.5, 2.5, 3.5, 4.5, 5.5], dtype=np.float32)
    y._backward(g)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 5.5])


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


def masked_sigmoid(z, dtype):
    """The logistic function split by sign with boolean masks, each half
    fancy-indexed (the reference for stable_sigmoid's np.where form)."""
    out = np.empty_like(z, dtype=dtype)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("src,dst", [(np.float32, np.float32), (np.float32, np.float64),
                                     (np.float64, np.float64)])
def test_stable_sigmoid_matches_the_masked_formula_bytewise(src, dst):
    tiny = np.finfo(src).tiny
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny / 4, -tiny / 4, tiny, -tiny,
               1e-30, -1e-30, 88.0, -88.0, 104.0, -104.0, 750.0, -750.0]
    z = np.concatenate([np.array(special), np.random.default_rng(0).normal(0, 12, 4000)])
    z = z.astype(src)
    got = nn.stable_sigmoid(z, dst)
    assert got.dtype == np.dtype(dst)
    assert got.tobytes() == masked_sigmoid(z, dst).tobytes()


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


def unflushed_step(x, h, c, w):
    """conv_lstm_step's arithmetic from the same ops, with no flush."""
    xh = nn.concat_channels([x, h])
    z = {gate: nn.conv2d(xh, w.kernels[gate], w.biases[gate]) for gate in w.GATES}
    c2 = nn.add(nn.mul(nn.sigmoid(z["f"]), c), nn.mul(nn.sigmoid(z["i"]), nn.tanh(z["g"])))
    return nn.mul(nn.sigmoid(z["o"]), nn.tanh(c2)), c2


def test_fused_step_matches_per_gate_convs():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = nn.ConvLSTMWeights(3, 4, rng)
        for t in w.biases.values():
            t.data[:] = rng.normal(size=t.shape)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        tensors = [x, h, c] + list(w.named_params("lstm").values())
        results = []
        for step in (nn.conv_lstm_step, unflushed_step):
            for t in tensors:
                t.grad = None
            h2, c2 = step(x, h, c, w)
            nn.backward(nn.tsum(nn.add(nn.mul(h2, h2), c2)))
            results.append([h2.data, c2.data] + [t.grad for t in tensors])
        for got, ref in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_split_channels_inverts_concat_channels():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 1, 2, 2)), requires_grad=True)
    pieces = nn.split_channels(nn.concat_channels([a, b]), [3, 1])
    for piece, t in zip(pieces, (a, b)):
        np.testing.assert_array_equal(piece.data, t.data)

    def loss():  # pieces that straddle the concatenated inputs
        p, q, r = nn.split_channels(nn.concat_channels([a, b]), [1, 2, 1])
        return nn.tsum(nn.concat_channels([nn.tanh(p), nn.sigmoid(q), nn.mul(r, r)]))

    check_grads(loss, [a, b])
    with pytest.raises(nn.ShapeError):
        nn.split_channels(a, [2, 2])


def test_concat_axis0_grads():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    np.testing.assert_array_equal(nn.concat([a, b]).data, np.concatenate([a.data, b.data]))
    check_grads(lambda: nn.tsum(nn.tanh(nn.concat([a, b, a]))), [a, b])


def subnormal(v):
    return (v != 0) & (np.abs(v) < np.finfo(v.dtype).tiny)


def tiny_state(dtype):
    """Weights that keep the cell (forget gate 1, candidate 0) and a state
    of which every other value is 1e-40: subnormal in float32, normal in
    float64."""
    rng = np.random.default_rng(3)
    w = nn.ConvLSTMWeights(2, 3, rng)
    w.biases["f"].data[:] = 50.0
    w.kernels["g"].data[:] = 0.0
    for t in w.named_params("lstm").values():
        t.data = t.data.astype(dtype)
    x = Tensor(rng.normal(size=(2, 2, 4, 4)).astype(dtype))
    state = []
    for _ in range(2):
        v = rng.normal(size=(2, 3, 4, 4))
        v.ravel()[::2] = 1e-40
        state.append(Tensor(v.astype(dtype)))
    return x, state[0], state[1], w


def test_lstm_flushes_subnormal_float32_state():
    x, h, c, w = tiny_state(np.float32)
    assert subnormal(h.data).any() and subnormal(c.data).any()
    ref_h, ref_c = unflushed_step(x, h, c, w)
    assert subnormal(ref_c.data).any()  # the cell keeps them without the flush
    h2, c2 = nn.conv_lstm_step(x, h, c, w)
    for got, ref in ((h2, ref_h), (c2, ref_c)):
        assert got.data.dtype == np.float32
        assert not subnormal(got.data).any()
        np.testing.assert_array_equal(got.data, np.where(subnormal(ref.data), 0, ref.data))


def test_lstm_flush_leaves_float64_values_alone():
    x, h, c, w = tiny_state(np.float64)
    ref_h, ref_c = unflushed_step(x, h, c, w)
    assert (np.abs(ref_c.data) < np.finfo(np.float32).tiny).any()
    h2, c2 = nn.conv_lstm_step(x, h, c, w)
    np.testing.assert_array_equal(h2.data, ref_h.data)
    np.testing.assert_array_equal(c2.data, ref_c.data)


def flush_grad(g):
    """The gradient flush_subnormal hands back for an upstream gradient g,
    at a normal forward value."""
    x = Tensor(np.ones_like(g), requires_grad=True)
    nn.backward(nn.tsum(nn.mul(nn.flush_subnormal(x), Tensor(g))))
    return x.grad


def test_flush_subnormal_flushes_float32_gradients():
    g = np.array([1e-40, -1e-40, 0.0, 1e-37, -2.5, 3.0], np.float32)
    assert subnormal(g)[:2].all() and not subnormal(g)[2:].any()
    got = flush_grad(g)
    assert got.dtype == np.float32
    assert got.tobytes() == np.where(subnormal(g), 0, g).tobytes()
    normal = np.array([1e-37, -2.5, 3.0], np.float32)
    assert flush_grad(normal).tobytes() == normal.tobytes()


def test_flush_subnormal_leaves_float64_gradients_alone():
    g = np.array([1e-40, -1e-40, 0.0, -2.5], np.float64)
    assert flush_grad(g).tobytes() == g.tobytes()


def test_flush_subnormal_passes_no_gradient_through_a_flushed_value():
    x = Tensor(np.array([1e-40, 1.0], np.float32), requires_grad=True)
    y = nn.flush_subnormal(x)
    np.testing.assert_array_equal(y.data, [0.0, 1.0])
    nn.backward(nn.tsum(y))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


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


def test_backward_releases_interior_nodes():
    """backward drops each interior node's gradient, rule and parents once
    the rule has run, so an activation is freed before the loss is; the
    leaves keep their gradients."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    k1 = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    k2 = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    b1 = Tensor(np.zeros(4), requires_grad=True)
    b2 = Tensor(np.zeros(2), requires_grad=True)
    hidden = nn.relu(nn.conv2d(x, k1, b1))
    activation = weakref.ref(hidden.data)
    loss = nn.tsum(nn.conv2d(hidden, k2, b2))
    del hidden
    assert activation() is not None
    nn.backward(loss)
    assert activation() is None
    assert loss.grad is None and loss._backward is None and loss._parents == ()
    for leaf in (x, k1, k2, b1, b2):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    np.testing.assert_array_equal(b2.grad, [72.0, 72.0])


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
       h=st.sampled_from([4, 6, 8]), k=st.sampled_from([1, 3]))
def test_conv_output_shape_formula(n, c, f, h, k):
    x = Tensor(np.zeros((n, c, h, h)))
    out = nn.conv2d(x, Tensor(np.zeros((f, c, k, k))), Tensor(np.zeros(f)))
    pad = (k - 1) // 2
    expect = h + 2 * pad - k + 1
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


def test_checkpoint_keeps_rank_zero(tmp_path):
    p = tmp_path / "s.wfck"
    nn.save_checkpoint({"s": np.float64(2.0), "t": Tensor(np.array(-1.5))}, p)
    loaded = nn.load_checkpoint(p)
    assert loaded["s"].shape == () and loaded["s"] == 2.0
    assert loaded["t"].shape == () and loaded["t"] == -1.5


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


def test_checkpoint_rejects_a_repeated_name(tmp_path):
    def param(name, value):
        raw = name.encode()
        return struct.pack("<H", len(raw)) + raw + struct.pack("<BId", 1, 1, value)

    p = tmp_path / "dup.wfck"
    body = param("a", 1.0) + param("b", 2.0)
    p.write_bytes(struct.pack("<4sBI", b"WFCK", 1, 2) + body)
    assert {k: v.tolist() for k, v in nn.load_checkpoint(p).items()} == \
        {"a": [1.0], "b": [2.0]}
    p.write_bytes(struct.pack("<4sBI", b"WFCK", 1, 3) + body + param("a", 3.0))
    with pytest.raises(FormatError, match="parameter 'a' appears twice"):
        nn.load_checkpoint(p)
