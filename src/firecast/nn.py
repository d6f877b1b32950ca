"""Dense float64 tensors with reverse-mode autodiff, and the conv/pool/LSTM
operator set the segmentation models are built from.

Every op records its parents and a backward rule on the output tensor; the
recorded graph is the gradient tape. backward() linearizes the graph
reaching the loss into topological order and replays it once in reverse,
accumulating gradients additively, so using a tensor twice doubles its
gradient contribution.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _tracked(*tensors):
    return _grad_enabled and any(t.requires_grad or t._parents for t in tensors)


def _make(data, parents, backward):
    out = Tensor(data)
    if _tracked(*parents):
        out._parents = parents
        out._backward = backward
    return out


def _accumulate(t, g):
    if t._backward is None and not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    order = []  # parents before children
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):  # scalar
        s = float(b)

        def back_s(g):
            _accumulate(a, g * s)

        return _make(a.data * s, (a,), back_s)
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")

    def back(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), back)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def back(g):
        _accumulate(x, g * mask)

    return _make(np.where(mask, x.data, 0.0), (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    y = stable_sigmoid(x.data)

    def back(g):
        _accumulate(x, g * y * (1.0 - y))

    return _make(y, (x,), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(g):
        _accumulate(x, g * (1.0 - y * y))

    return _make(y, (x,), back)


def concat_channels(tensors) -> Tensor:
    """Concatenate [N,C,H,W] tensors along the channel axis."""
    tensors = list(tensors)
    base = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != 4 or (t.shape[0],) + t.shape[2:] != (base[0],) + base[2:]:
            raise ShapeError(f"concat_channels: {t.shape} vs {base}")
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, g[:, lo:hi])

    return _make(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), back)


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar."""

    def back(g):
        _accumulate(x, np.full(x.shape, float(g)))

    return _make(x.data.sum(), (x,), back)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size

    def back(g):
        _accumulate(x, np.full(x.shape, float(g) / n))

    return _make(x.data.mean(), (x,), back)


def slice_time(x: Tensor, t: int) -> Tensor:
    """Select frame t of a [N,T,...] tensor."""

    def back(g):
        full = np.zeros(x.shape)
        full[:, t] = g
        _accumulate(x, full)

    return _make(x.data[:, t], (x,), back)


def stable_sigmoid(z):
    """Elementwise logistic function on an ndarray, with no overflow: exp
    only ever sees non-positive arguments."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

def _im2col(xp, k, stride, ho, wo):
    """[N,C,Hp,Wp] padded input -> [N, C*k*k, ho*wo] patch tensor.

    The (c, ki, kj) packing order matches kernel.reshape(F, C*k*k), and the
    trailing ho*wo axis keeps the result GEMM-ready without a transpose.
    """
    n, c = xp.shape[:2]
    if k == 1 and stride == 1:
        return xp.reshape(n, c, ho * wo)
    patches = np.empty((n, c, k, k, ho, wo), dtype=xp.dtype)
    for ki in range(k):
        for kj in range(k):
            patches[:, :, ki, kj] = xp[:, :, ki:ki + stride * ho:stride,
                                       kj:kj + stride * wo:stride]
    return patches.reshape(n, c * k * k, ho * wo)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Cross-correlation with 'same' zero padding of (k-1)//2 plus bias.

    x [N,C,H,W], kernel [F,C,k,k], bias [F] -> [N,F,H/stride,W/stride].
    """
    if stride not in (1, 2):
        raise ShapeError(f"conv2d: stride must be 1 or 2, got {stride}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d: x must be [N,C,H,W] and kernel [F,C,k,k]")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if kh != kw or ck != c:
        raise ShapeError(f"conv2d: kernel {kernel.shape} incompatible with input {x.shape}")
    if bias.shape != (f,):
        raise ShapeError(f"conv2d: bias {bias.shape} must be ({f},)")
    k = kh
    pad = (k - 1) // 2
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1

    if pad:
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    else:
        xp = x.data
    cols = _im2col(xp, k, stride, ho, wo)  # [n, ckk, howo]
    wmat = kernel.data.reshape(f, c * k * k)
    out = (wmat[None] @ cols).reshape(n, f, ho, wo)
    out += bias.data[None, :, None, None]

    def back(g):
        gmat = g.reshape(n, f, ho * wo)
        _accumulate(bias, gmat.sum(axis=(0, 2)))
        # batched GEMMs; BLAS consumes the transposed views directly
        _accumulate(kernel,
                    np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0)
                    .reshape(kernel.shape))
        if x._backward is None and not x.requires_grad:
            return
        dcols = np.matmul(wmat.T[None], gmat)
        dpatch = dcols.reshape(n, c, k, k, ho, wo)
        dxp = np.zeros_like(xp)
        for ki in range(k):
            for kj in range(k):
                dxp[:, :, ki:ki + stride * ho:stride,
                    kj:kj + stride * wo:stride] += dpatch[:, :, ki, kj]
        _accumulate(x, dxp[:, :, pad:pad + h, pad:pad + w] if pad else dxp)

    return _make(out, (x, kernel, bias), back)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping max; ties route the gradient to the first
    occurrence in row-major window order."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2: H and W must be even, got {h}x{w}")
    win = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    arg = win.argmax(axis=-1)  # first occurrence on ties
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def back(g):
        dwin = np.zeros((n, c, h // 2, w // 2, 4))
        np.put_along_axis(dwin, arg[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        _accumulate(x, dx.reshape(n, c, h, w))

    return _make(out, (x,), back)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x replication; backward sums each 2x2 child block."""
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def back(g):
        _accumulate(x, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return _make(out, (x,), back)


class ConvLSTMWeights:
    """Four 3x3 gate convolutions (i, f, o, g) over the concatenated [x; h]."""

    GATES = ("i", "f", "o", "g")

    def __init__(self, in_channels, hidden, rng, k=3):
        fan_in = (in_channels + hidden) * k * k
        self.kernels = {}
        self.biases = {}
        for gate in self.GATES:
            self.kernels[gate] = Tensor(
                he_uniform(rng, (hidden, in_channels + hidden, k, k), fan_in),
                requires_grad=True)
            self.biases[gate] = Tensor(np.zeros(hidden), requires_grad=True)

    def named_params(self, prefix):
        out = {}
        for gate in self.GATES:
            out[f"{prefix}.w{gate}"] = self.kernels[gate]
            out[f"{prefix}.b{gate}"] = self.biases[gate]
        return out


def conv_lstm_step(x: Tensor, h: Tensor, c: Tensor,
                   weights: ConvLSTMWeights) -> tuple[Tensor, Tensor]:
    """One convolutional LSTM update.

    i, f, o gates are sigmoids and g a tanh of 3x3 convolutions over
    [x; h]; c' = f*c + i*g and h' = o*tanh(c').
    """
    if x.shape[0] != h.shape[0] or x.shape[2:] != h.shape[2:] or h.shape != c.shape:
        raise ShapeError(f"conv_lstm_step: x {x.shape}, h {h.shape}, c {c.shape}")
    xh = concat_channels([x, h])
    i = sigmoid(conv2d(xh, weights.kernels["i"], weights.biases["i"]))
    f = sigmoid(conv2d(xh, weights.kernels["f"], weights.biases["f"]))
    o = sigmoid(conv2d(xh, weights.kernels["o"], weights.biases["o"]))
    g = tanh(conv2d(xh, weights.kernels["g"], weights.biases["g"]))
    c_next = add(mul(f, c), mul(i, g))
    h_next = mul(o, tanh(c_next))
    return h_next, c_next


def he_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# WFCK parameter checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"WFCK"
CKPT_VERSION = 1


def save_checkpoint(params: dict, path) -> None:
    """params: name -> Tensor (or ndarray); written in sorted name order."""
    names = sorted(params)
    parts = [struct.pack("<4sBI", CKPT_MAGIC, CKPT_VERSION, len(names))]
    for name in names:
        value = params[name]
        arr = np.ascontiguousarray(
            value.data if isinstance(value, Tensor) else value, dtype="<f8")
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_checkpoint(path) -> dict:
    """Returns name -> float64 ndarray."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 9 or data[:4] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a WFCK checkpoint")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    pos = 9
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + nlen].decode("utf-8")
        pos += nlen
        (rank,) = struct.unpack_from("<B", data, pos)
        pos += 1
        dims = struct.unpack_from(f"<{rank}I", data, pos)
        pos += 4 * rank
        size = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(data, dtype="<f8", count=size, offset=pos).reshape(dims)
        pos += 8 * size
        out[name] = arr.astype(np.float64)
    return out
