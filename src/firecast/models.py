"""The four segmentation architectures: their registry and their builder.

ARCH_SPECS is the only table of architectures. It maps each canonical name
(as ModelConfig and checkpoints store it) to its `--model` spelling and two
traits: is_sequence, the model reads [T,C,H,W] frames through a ConvLSTM
instead of one [C,H,W] image, and is_unet, its decoder concatenates encoder
skips. Config parsing and the CLI's `--model` choices and task check read
it; resolve_arch maps either spelling to the canonical name.

All four share the same residual encoder/decoder skeleton parameterized by
a per-level filter scheme. The autoencoder pools after one residual block
per level and mirrors the scheme on the way up; the U-Net additionally
concatenates each encoder level's (pre-pool) features onto the matching
decoder level, ordered [upsampled, skip] along channels. The LSTM variants
run the encoder on every frame of a sequence, roll a convolutional LSTM
over the bottleneck maps, and decode the final hidden state; the U-Net
LSTM takes its skip features from the last frame. The LSTM stores one
kernel and one bias per gate (lstm.w{i,f,o,g}, lstm.b{i,f,o,g}), and
nn.conv_lstm_step concatenates them to run the four gates as one conv.

Initialization follows Fixup (Zhang et al., arXiv 1901.09321) so that a
freshly built model starts well conditioned, with initial logits of O(1)
rather than saturated. Every kernel is drawn He-uniform from rng in
construction order and only scaled afterwards, so the draws and the
parameter names are those of plain He-uniform init:
- each residual branch's second conv kernel is scaled by L^-1/2, where L
  is the model's number of residual blocks (Fixup's L^(-1/(2m-2)) for
  m = 2 layers per branch), so the residual stack does not grow the
  activations block after block;
- the head kernel is scaled by HEAD_SCALE. Fixup zeroes the output layer,
  but a zero head would zero every upstream gradient at init;
- each block's first conv bias starts at CONV1_BIAS, a small positive
  bias so that ReLUs start active and no ReLU input sits exactly on its
  kink where a receptive field is all zero (zero padding, dead inputs).
  All other biases start at zero, so a block whose kernels are zeroed is
  exactly relu(x).

The compute dtype is the parameters' dtype: build draws and scales every
value in float64, then casts each parameter once to its dtype argument
(float32 by default, float64 for gradient checks). forward casts its input
to that dtype, and load_params narrows checkpoint values to it, exactly for
checkpoints written from float32 parameters (WFCK stores float64).

Parameter counts per architecture (conv k,cin,cout costs cout*(cin*k*k+1);
a residual block cin->f costs conv3(cin,f) + conv3(f,f) and, when cin != f,
conv1(cin,f); the LSTM adds four conv3((cin+hidden),hidden)):
see expected_param_count, which tests pin against the built models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import Tensor

HEAD_SCALE = 0.1  # multiplies the He-uniform head kernel
CONV1_BIAS = 0.01  # initial bias of each residual block's first conv


@dataclass(frozen=True)
class ArchSpec:
    cli_name: str  # the `--model` spelling
    is_sequence: bool  # reads a frame sequence through a ConvLSTM
    is_unet: bool  # decoder levels concatenate encoder skips


ARCH_SPECS = {
    "autoencoder": ArchSpec("ae", is_sequence=False, is_unet=False),
    "unet": ArchSpec("unet", is_sequence=False, is_unet=True),
    "ae_lstm": ArchSpec("ae-lstm", is_sequence=True, is_unet=False),
    "unet_lstm": ArchSpec("unet-lstm", is_sequence=True, is_unet=True),
}
ARCHS = tuple(ARCH_SPECS)
CLI_NAMES = tuple(spec.cli_name for spec in ARCH_SPECS.values())
_SPELLINGS = {spelling: name for name, spec in ARCH_SPECS.items()
              for spelling in (name, spec.cli_name)}


def resolve_arch(spelling: str) -> str:
    """The canonical name for an architecture's name or CLI spelling."""
    if spelling not in _SPELLINGS:
        raise ValueError(f"model must be one of {sorted(_SPELLINGS)}")
    return _SPELLINGS[spelling]


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    filter_scheme: tuple[int, ...] = (64, 128, 256, 256)
    in_channels: int = 10
    tile: int = 128
    lstm_hidden: int | None = None  # defaults to the bottleneck channel count

    def __post_init__(self):
        object.__setattr__(self, "filter_scheme", tuple(self.filter_scheme))
        if self.arch not in ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}")
        if not self.filter_scheme:
            raise ValueError("filter_scheme must be nonempty")
        if self.tile % (1 << len(self.filter_scheme)):
            raise ValueError(
                f"tile {self.tile} not divisible by 2^{len(self.filter_scheme)} levels")

    @property
    def is_sequence(self):
        return ARCH_SPECS[self.arch].is_sequence

    @property
    def is_unet(self):
        return ARCH_SPECS[self.arch].is_unet

    @property
    def hidden(self):
        return self.lstm_hidden or self.filter_scheme[-1]


class Conv:
    def __init__(self, in_ch, out_ch, k, rng):
        self.kernel = Tensor(nn.he_uniform(rng, (out_ch, in_ch, k, k), in_ch * k * k),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True)

    def __call__(self, x):
        return nn.conv2d(x, self.kernel, self.bias)

    def named_params(self, prefix):
        return {f"{prefix}.w": self.kernel, f"{prefix}.b": self.bias}


class ResidualBlock:
    """conv3x3 -> relu -> conv3x3, added to a shortcut, then relu.

    The shortcut is the identity when channel counts already match and a
    1x1 projection otherwise.
    """

    def __init__(self, in_ch, filters, rng):
        self.conv1 = Conv(in_ch, filters, 3, rng)
        self.conv1.bias.data[:] = CONV1_BIAS
        self.conv2 = Conv(filters, filters, 3, rng)
        self.proj = Conv(in_ch, filters, 1, rng) if in_ch != filters else None

    def __call__(self, x):
        body = self.conv2(nn.relu(self.conv1(x)))
        skip = self.proj(x) if self.proj is not None else x
        return nn.relu(nn.add(body, skip))

    def named_params(self, prefix):
        out = {}
        out.update(self.conv1.named_params(f"{prefix}.conv1"))
        out.update(self.conv2.named_params(f"{prefix}.conv2"))
        if self.proj is not None:
            out.update(self.proj.named_params(f"{prefix}.proj"))
        return out


class Model:
    def __init__(self, config: ModelConfig, rng):
        self.config = config
        scheme = config.filter_scheme
        levels = len(scheme)

        self.enc = []
        ch = config.in_channels
        for f in scheme:
            self.enc.append(ResidualBlock(ch, f, rng))
            ch = f

        bottleneck = ch
        if config.is_sequence:
            self.lstm = nn.ConvLSTMWeights(bottleneck, config.hidden, rng)
            ch = config.hidden
        else:
            self.lstm = None

        self.dec = []
        for j in range(levels):
            out_f = scheme[levels - 1 - j]
            skip_ch = scheme[levels - 1 - j] if config.is_unet else 0
            self.dec.append(ResidualBlock(ch + skip_ch, out_f, rng))
            ch = out_f
        self.head = Conv(ch, 1, 1, rng)

        branch_scale = (len(self.enc) + len(self.dec)) ** -0.5
        for block in self.enc + self.dec:
            block.conv2.kernel.data *= branch_scale
        self.head.kernel.data *= HEAD_SCALE

    @property
    def params(self) -> dict[str, Tensor]:
        out = {}
        for i, b in enumerate(self.enc):
            out.update(b.named_params(f"enc{i}"))
        if self.lstm is not None:
            out.update(self.lstm.named_params("lstm"))
        for i, b in enumerate(self.dec):
            out.update(b.named_params(f"dec{i}"))
        out.update(self.head.named_params("head"))
        return out

    def load_params(self, values: dict[str, np.ndarray]):
        params = self.params
        if set(values) != set(params):
            missing = set(params) ^ set(values)
            raise ValueError(f"parameter names do not match model: {sorted(missing)}")
        for name, arr in values.items():
            t = params[name]
            if t.data.shape != arr.shape:
                raise ValueError(f"{name}: shape {arr.shape} != {t.data.shape}")
            t.data = np.asarray(arr, dtype=t.data.dtype)

    @property
    def dtype(self):
        """The compute dtype, which is the parameters' dtype."""
        return self.head.kernel.data.dtype

    def _encode(self, x):
        skips = []
        for block in self.enc:
            x = block(x)
            skips.append(x)
            x = nn.max_pool2(x)
        return x, skips

    def _decode(self, x, skips):
        for j, block in enumerate(self.dec):
            x = nn.upsample2(x)
            if self.config.is_unet:
                x = nn.concat_channels([x, skips[len(skips) - 1 - j]])
            x = block(x)
        return self.head(x)

    def forward(self, x) -> Tensor:
        """Input [N,C,H,W] (image archs) or [N,T,C,H,W] (sequence archs);
        returns per-pixel fire logits [N,1,H,W]. An array input is cast to
        the parameter dtype; a Tensor input is used as given."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if self.config.is_sequence:
            if x.data.ndim != 5:
                raise nn.ShapeError(f"{self.config.arch} expects [N,T,C,H,W], got {x.shape}")
            n, t = x.shape[:2]
            hb = x.shape[3] >> len(self.enc)
            wb = x.shape[4] >> len(self.enc)
            h = Tensor(np.zeros((n, self.config.hidden, hb, wb), dtype=x.data.dtype))
            c = Tensor(np.zeros((n, self.config.hidden, hb, wb), dtype=x.data.dtype))
            skips = None
            for step in range(t):
                frame = nn.slice_time(x, step)
                z, skips = self._encode(frame)
                h, c = nn.conv_lstm_step(z, h, c, self.lstm)
            return self._decode(h, skips)
        if x.data.ndim != 4:
            raise nn.ShapeError(f"{self.config.arch} expects [N,C,H,W], got {x.shape}")
        z, skips = self._encode(x)
        return self._decode(z, skips)

    def __call__(self, x):
        return self.forward(x)


def build(config: ModelConfig, rng, dtype=np.float32) -> Model:
    """Construct a model with Fixup-scaled He-uniform weights drawn from rng.

    Kernels are drawn He-uniform in construction order; each residual
    block's conv2 kernel is then scaled by L^-1/2 (L residual blocks), the
    head kernel by HEAD_SCALE, and each block's conv1 bias starts at
    CONV1_BIAS. All other biases start at zero. See the module docstring.
    The float64 values are then cast once to dtype, the compute dtype.
    """
    model = Model(config, rng)
    for t in model.params.values():
        t.data = t.data.astype(dtype)
    return model


def expected_param_count(config: ModelConfig) -> int:
    """Closed-form parameter count; the documented contract for each arch."""

    def conv(k, cin, cout):
        return cout * (cin * k * k + 1)

    def block(cin, f):
        n = conv(3, cin, f) + conv(3, f, f)
        if cin != f:
            n += conv(1, cin, f)
        return n

    scheme = config.filter_scheme
    levels = len(scheme)
    total = 0
    ch = config.in_channels
    for f in scheme:
        total += block(ch, f)
        ch = f
    if config.is_sequence:
        total += 4 * conv(3, ch + config.hidden, config.hidden)
        ch = config.hidden
    for j in range(levels):
        out_f = scheme[levels - 1 - j]
        skip = scheme[levels - 1 - j] if config.is_unet else 0
        total += block(ch + skip, out_f)
        ch = out_f
    return total + conv(1, ch, 1)
