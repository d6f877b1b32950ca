"""Dense float32 or float64 tensors with reverse-mode autodiff, and the
conv/pool/LSTM operator set the segmentation models are built from.

A tensor keeps float32 and float64 data as given and casts anything else to
float64; every op computes in its operands' dtype, and every buffer an op
allocates (padding, pooling and slicing gradients, reductions) takes that
dtype too, so a float32 graph stays float32 forward and backward. The
models train and infer in float32; the gradient checks run in float64.

Every op records its parents and a backward rule on the output tensor; the
recorded graph is the gradient tape. backward() linearizes the graph
reaching the loss into topological order and replays it once in reverse,
accumulating gradients additively, so using a tensor twice doubles its
gradient contribution. It releases the tape as it walks it: once an
interior node's rule has run, the node drops its gradient, its rule (with
the arrays the rule saved) and its parents, so each activation is freed as
soon as nothing later needs it. Only the leaves (requires_grad) keep their
gradients, and a graph can be walked once.

WFCK parameter checkpoints (save_checkpoint, load_checkpoint) are
little-endian, with no padding:

    bytes 0-3   magic b"WFCK"
    byte  4     version (u8, 1)
    bytes 5-8   parameter count (u32)
    then per parameter, in sorted name order, each name once:
      name length (u16), UTF-8 name bytes, rank (u8), rank x dim (u32),
      prod(dims) "<f8" values, row-major (one value at rank 0)

Checkpoints stay "<f8" whatever the parameter dtype: float32 values widen
to float64 exactly, so a float32 model round-trips bit for bit.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .binio import FormatError, Reader


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


_grad_enabled = True
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


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
        data = np.asarray(data)
        if data.dtype not in _FLOATS:
            data = data.astype(np.float64)
        self.data = data
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
    """Populate .grad for every requires_grad tensor reachable from loss,
    releasing the tape as it goes: once an interior node's rule has run,
    the node drops its gradient, its rule (and with it the arrays the rule
    saved) and its parents. Leaves keep their gradients."""
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
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._backward = None
        node._parents = ()


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")

    def back(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), back)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), which lets NaN through; the gradient passes where x > 0."""

    def back(g):
        _accumulate(x, g * (x.data > 0))

    return _make(np.maximum(x.data, 0), (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    y = stable_sigmoid(x.data, x.data.dtype)

    def back(g):
        _accumulate(x, g * y * (1.0 - y))

    return _make(y, (x,), back)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(g):
        _accumulate(x, g * (1.0 - y * y))

    return _make(y, (x,), back)


def concat(tensors, axis=0) -> Tensor:
    """Concatenate tensors along one axis; backward hands each its slice of g."""
    tensors = list(tensors)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    lead = (slice(None),) * axis

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, g[lead + (slice(lo, hi),)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), back)


def concat_channels(tensors) -> Tensor:
    """Concatenate [N,C,H,W] tensors along the channel axis."""
    tensors = list(tensors)
    base = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != 4 or (t.shape[0],) + t.shape[2:] != (base[0],) + base[2:]:
            raise ShapeError(f"concat_channels: {t.shape} vs {base}")
    return concat(tensors, axis=1)


def _take(x: Tensor, key) -> Tensor:
    """x.data[key] as a view; backward places g into zeros of x's shape."""

    def back(g):
        full = np.zeros(x.shape, dtype=x.data.dtype)
        full[key] = g
        _accumulate(x, full)

    return _make(x.data[key], (x,), back)


def split_channels(x: Tensor, sizes) -> list[Tensor]:
    """The inverse of concat_channels: [N,sum(sizes),H,W] -> one view per
    size."""
    if x.data.ndim != 4 or sum(sizes) != x.shape[1]:
        raise ShapeError(f"split_channels: {x.shape} into {list(sizes)}")
    offsets = np.cumsum([0] + list(sizes))
    return [_take(x, (slice(None), slice(lo, hi)))
            for lo, hi in zip(offsets[:-1], offsets[1:])]


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar."""

    def back(g):
        _accumulate(x, np.full(x.shape, g, dtype=x.data.dtype))

    return _make(x.data.sum(), (x,), back)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size

    def back(g):
        _accumulate(x, np.full(x.shape, g / n, dtype=x.data.dtype))

    return _make(x.data.mean(), (x,), back)


def slice_time(x: Tensor, t: int) -> Tensor:
    """Select frame t of a [N,T,...] tensor."""
    return _take(x, (slice(None), t))


def stable_sigmoid(z, dtype=np.float64):
    """Elementwise logistic function on an ndarray, with no overflow: exp
    only ever sees non-positive arguments. It computes in z's dtype and
    stores into an array of the given dtype."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1 / (1 + e), e / (1 + e)).astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

# Padded source bytes per conv2d chunk. A batch whose zero-padded input is
# larger runs in ceil(bytes / CONV_CHUNK_BYTES) chunks, so that each chunk's
# padded buffers stay in a core's L2 cache.
CONV_CHUNK_BYTES = 512 * 1024


def _chunks(n, nbytes):
    """(lo, hi) ranges that cut a batch of n samples, whose padded source
    takes nbytes, into chunks of ceil(n / count) samples, where count =
    ceil(nbytes / CONV_CHUNK_BYTES) and at most n; the last chunk is
    shorter when they do not divide."""
    count = max(1, min(n, -(-nbytes // CONV_CHUNK_BYTES)))
    size = max(1, -(-n // count))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _padded_len(h, w, k):
    """The length of one padded map for _taps: H + k - 1 rows of pitch
    Wp = W + k - 1, and a k - 1 tail that leaves room for the last tap."""
    return (h + k - 1) * (w + k - 1) + k - 1


def _pad_buffer(n, c, h, w, k, dtype):
    """A zero buffer [n, c, _padded_len] for _taps; None for k = 1, which
    pads nothing."""
    if k == 1:
        return None
    return np.zeros((n, c, _padded_len(h, w, k)), dtype=dtype)


def _taps(src, k, buf):
    """Tap views [k, k, N, C, H*Wp] of src [N,C,H,W] zero-padded by
    (k-1)//2 into the first N maps of buf (_pad_buffer). views[ki, kj] is
    the window that tap (ki, kj) of a stride-1 'same' correlation reads for
    every output row. Only the interior of buf is written, so its zero
    border can be reused from chunk to chunk. With nothing to pad (k = 1),
    the views read src's own memory through a reshape."""
    n, c, h, w = src.shape
    pad = (k - 1) // 2
    wp = w + k - 1
    if k == 1:
        buf = src.reshape(n, c, h * w)
    else:
        buf = buf[:n]
        maps = buf[:, :, :(h + k - 1) * wp].reshape(n, c, h + k - 1, wp)
        maps[:, :, pad:pad + h, pad:pad + w] = src
    sn, sc, sl = buf.strides
    return as_strided(buf, (k, k, n, c, h * wp), (wp * sl, sl, sn, sc, sl),
                      writeable=False)


def _scratch(size, f, h, w, k, dtype):
    """_correlate's accumulator and product scratch [2, size, F, H*Wp];
    None for k = 1."""
    if k == 1:
        return None
    return np.empty((2, size, f, h * (w + k - 1)), dtype=dtype)


def _correlate(views, wtaps, out, scratch):
    """out [N,F,H,W] = the sum over taps of wtaps[ki, kj] @ views[ki, kj]
    (wtaps [k,k,F,C], views [k,k,N,C,H*Wp]), the junk columns dropped: one
    batched GEMM per tap, accumulated in place in scratch (_scratch). A
    1x1 correlation is one batched GEMM straight into out."""
    n, f, h, w = out.shape
    if scratch is None:
        np.matmul(wtaps[0, 0], views[0, 0], out=out.reshape(n, f, h * w))
        return
    acc, prod = scratch[0, :n], scratch[1, :n]
    np.matmul(wtaps[0, 0], views[0, 0], out=acc)
    for t in list(np.ndindex(wtaps.shape[:2]))[1:]:
        acc += np.matmul(wtaps[t], views[t], out=prod)
    out[...] = acc.reshape(n, f, h, -1)[:, :, :, :w]


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Stride-1 cross-correlation with 'same' zero padding of (k-1)//2 plus
    bias, for odd k.

    x [N,C,H,W], kernel [F,C,k,k], bias [F] -> [N,F,H,W].

    All three products build no patch matrix and share one tap layout, the
    accumulating kn2row formulation (Anderson et al., arXiv 1709.03395):
    the source is zero-padded by (k-1)//2 into a buffer of maps with row
    pitch Wp = W + k - 1, and each of the k*k taps is one batched GEMM of
    the kernel's [F, C] slice with a strided view of that buffer (_taps),
    accumulated into [N, F, H*Wp] (_correlate). The k - 1 columns past each
    output row are junk and are dropped.

    - Forward: the taps of x; a 1x1 conv reads x's own memory.
    - Input gradient: the taps of g, correlated with the kernel flipped
      and its F, C axes swapped (the transposed conv, arXiv 1603.07285,
      which at stride 1 and odd k is the forward's own correlation).
    - Kernel gradient: one GEMM per tap of x's tap views with g's centre
      tap view, which is g at pitch Wp with zeros in the junk columns.

    Every product runs over chunks of the batch (_chunks), as many as the
    padded x takes CONV_CHUNK_BYTES, so that each chunk's buffers stay in
    cache. A batch under that budget stays whole, as does a 1x1 conv,
    which pads nothing: cutting it costs more in GEMM calls than the cache
    gives back. Each chunk is padded into one scratch buffer reused from
    chunk to chunk, and the tape keeps no padded copy: backward pads x
    again, chunk by chunk. Each sample's GEMMs are independent, and the
    kernel gradient keeps its sum over the batch in sample order by
    carrying the running sum into the next chunk's, so the bytes do not
    depend on the chunking.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError("conv2d: x must be [N,C,H,W] and kernel [F,C,k,k]")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if kh != kw or kh % 2 == 0 or ck != c:
        raise ShapeError(f"conv2d: kernel {kernel.shape} must be an odd k x k "
                         f"over the {c} channels of input {x.shape}")
    if bias.shape != (f,):
        raise ShapeError(f"conv2d: bias {bias.shape} must be ({f},)")
    k = kh
    pad = (k - 1) // 2
    chunks = _chunks(n, n * c * _padded_len(h, w, k) * x.data.itemsize if k > 1 else 0)
    size = chunks[0][1] if chunks else 0  # samples in the largest chunk

    wtaps = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1))  # [k, k, F, C]
    out = np.empty((n, f, h, w), dtype=np.result_type(x.data, kernel.data))
    xbuf = _pad_buffer(size, c, h, w, k, x.data.dtype)
    scratch = _scratch(size, f, h, w, k, out.dtype)
    for lo, hi in chunks:
        _correlate(_taps(x.data[lo:hi], k, xbuf), wtaps, out[lo:hi], scratch)
    out += bias.data[:, None, None]

    def back(g):
        _accumulate(bias, g.reshape(n, f, h * w).sum(axis=(0, 2)))
        want_dx = x._backward is not None or x.requires_grad
        # each tap's [F, C] products, one per sample of the chunk; slot 0
        # carries the tap's sum over the earlier chunks
        parts = np.empty((size + 1, f, c), dtype=np.result_type(g, x.data))
        sums = np.zeros((k, k, f, c), dtype=parts.dtype)
        xbuf = _pad_buffer(size, c, h, w, k, x.data.dtype)
        gbuf = _pad_buffer(size, f, h, w, k, g.dtype)
        if want_dx:
            wflip = np.ascontiguousarray(kernel.data[:, :, ::-1, ::-1].transpose(2, 3, 1, 0))
            dx = np.empty(x.shape, dtype=np.result_type(g, kernel.data))
            scratch = _scratch(size, c, h, w, k, dx.dtype)
        for lo, hi in chunks:
            gviews = _taps(g[lo:hi], k, gbuf)
            xviews = _taps(x.data[lo:hi], k, xbuf)
            gz = gviews[pad, pad]  # g at pitch Wp, zeros in the junk columns
            start = 0 if lo else 1
            for t in np.ndindex(k, k):
                # batched GEMMs; BLAS consumes the transposed view directly
                np.matmul(gz, xviews[t].transpose(0, 2, 1), out=parts[1:1 + hi - lo])
                parts[0] = sums[t]
                sums[t] = parts[start:1 + hi - lo].sum(axis=0)
            if want_dx:
                _correlate(gviews, wflip, dx[lo:hi], scratch)
        _accumulate(kernel, np.ascontiguousarray(sums.transpose(2, 3, 0, 1), dtype=g.dtype))
        if want_dx:
            _accumulate(x, dx)

    return _make(out, (x, kernel, bias), back)


def _quadrants(a):
    """The four stride-2 views a[:, :, i::2, j::2] of a [N,C,H,W] array, in
    row-major window order: quadrant (i, j) holds pixel (i, j) of every
    2x2 window."""
    return [a[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def max_pool2(x: Tensor) -> Tensor:
    """2x2 non-overlapping max, the elementwise max of x's four quadrants.

    Backward visits the quadrants in row-major window order and hands each
    window's gradient to the first quadrant equal to the max; a running
    `taken` mask keeps later ties out, so ties go to the first occurrence.
    The gradient is copied bit for bit, as an AND of g's bits with the mask
    widened to all ones, and +0 fills the rest of each window (g * mask
    would leave -0 there for negative g, and NaN for infinite g)."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2: H and W must be even, got {h}x{w}")
    q0, q1, q2, q3 = _quadrants(x.data)
    out = np.maximum(q0, q1)
    np.maximum(out, q2, out=out)
    np.maximum(out, q3, out=out)

    def back(g):
        bits = np.dtype(f"u{g.itemsize}")
        dx = np.empty(x.shape, dtype=g.dtype)
        taken = np.zeros(out.shape, dtype=bool)
        for q, dq in zip(_quadrants(x.data), _quadrants(dx)):
            hit = q == out
            np.greater(hit, taken, out=hit)  # hit and not taken
            taken |= hit
            keep = np.negative(hit, dtype=bits)  # True -> all bits set
            np.bitwise_and(g.view(bits), keep, out=dq.view(bits))
        _accumulate(x, dx)

    return _make(out, (x,), back)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x replication; backward sums g's four quadrants,
    each 2x2 child block's sum."""
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def back(g):
        q0, q1, q2, q3 = _quadrants(g)
        _accumulate(x, (q0 + q1) + (q2 + q3))

    return _make(out, (x,), back)


class ConvLSTMWeights:
    """The (i, f, o, g) gate convolutions over the concatenated [x; h], held
    as four 3x3 kernels [hidden, in+hidden, 3, 3] and four biases
    [hidden]; conv_lstm_step concatenates them in GATES order."""

    GATES = ("i", "f", "o", "g")

    def __init__(self, in_channels, hidden, rng):
        fan_in = (in_channels + hidden) * 9
        self.kernels = {}
        self.biases = {}
        for gate in self.GATES:
            self.kernels[gate] = Tensor(
                he_uniform(rng, (hidden, in_channels + hidden, 3, 3), fan_in),
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
    """One convolutional LSTM update (Shi et al., arXiv 1506.04214).

    One 3x3 convolution over [x; h], with the four gate kernels and biases
    concatenated into a [4*hidden, in+hidden, 3, 3] kernel and a
    [4*hidden] bias, gives the i, f, o, g preactivations as consecutive
    channel blocks; i, f, o are their sigmoids and g a tanh, and
    c' = f*c + i*g, h' = o*tanh(c').

    The preactivations, c' and h' pass through flush_subnormal: a forget
    gate near 0 decays c into subnormals step after step, saturated gates
    shrink the gradients into subnormals, and subnormal operands slow the
    gate conv's GEMMs several times over in float32.
    """
    if x.shape[0] != h.shape[0] or x.shape[2:] != h.shape[2:] or h.shape != c.shape:
        raise ShapeError(f"conv_lstm_step: x {x.shape}, h {h.shape}, c {c.shape}")
    kernel = concat([weights.kernels[gate] for gate in weights.GATES])
    bias = concat([weights.biases[gate] for gate in weights.GATES])
    z = flush_subnormal(conv2d(concat_channels([x, h]), kernel, bias))
    zi, zf, zo, zg = split_channels(z, [h.shape[1]] * 4)
    i, f, o, g = sigmoid(zi), sigmoid(zf), sigmoid(zo), tanh(zg)
    c_next = flush_subnormal(add(mul(f, c), mul(i, g)))
    h_next = flush_subnormal(mul(o, tanh(c_next)))
    return h_next, c_next


def _subnormal(v):
    """Mask of v's subnormal values, 0 < |v| < finfo(dtype).tiny."""
    sub = np.abs(v) < np.finfo(v.dtype).tiny
    sub &= v != 0
    return sub


def flush_subnormal(x: Tensor) -> Tensor:
    """x with its subnormal values set to zero, the flush-to-zero mode of
    FPUs done in software, in both directions: forward flushes subnormal
    values, backward flushes subnormal gradients (and passes none through
    a flushed value). Arrays with nothing to flush pass through as they are.
    """
    sub = _subnormal(x.data)

    def back(g):
        drop = _subnormal(g)
        drop |= sub
        _accumulate(x, np.where(drop, 0, g) if drop.any() else g)

    return _make(np.where(sub, 0, x.data) if sub.any() else x.data, (x,), back)


def he_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# WFCK parameter checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"WFCK"
CKPT_VERSION = 1
_COUNT = struct.Struct("<I")
_NAME_LEN = struct.Struct("<H")


def save_checkpoint(params: dict, path) -> None:
    """params: name -> Tensor (or ndarray); written in sorted name order."""
    names = sorted(params)
    parts = [struct.pack("<4sBI", CKPT_MAGIC, CKPT_VERSION, len(names))]
    for name in names:
        value = params[name]
        # asarray keeps rank 0; tobytes writes row-major whatever the strides
        arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f8")
        raw = name.encode("utf-8")
        parts.append(_NAME_LEN.pack(len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_checkpoint(path) -> dict:
    """Returns name -> float64 ndarray."""
    r = Reader(path, CKPT_MAGIC, CKPT_VERSION)
    (count,) = r.unpack(_COUNT)
    out = {}
    for _ in range(count):
        name = r.text(r.unpack(_NAME_LEN)[0])
        if name in out:
            raise FormatError(f"{path}: parameter {name!r} appears twice")
        rank = r.take(1)[0]
        dims = r.unpack(struct.Struct(f"<{rank}I"))
        out[name] = r.array("<f8", dims).astype(np.float64)
    r.done()
    return out
