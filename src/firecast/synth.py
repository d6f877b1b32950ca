"""Seeded synthetic scenes: spatially correlated channel fields and fire
masks drawn from a known per-pixel logistic rule, so end-to-end learning
runs have a ground-truth score to compare against.

Channels are unit-variance box-smoothed noise fields. Elevation is frozen
for the whole run; the other nine are AR(1) day-to-day with persistence
DAILY_RHO, which keeps variance at one while giving sequence models a
temporal signal. The fire mask is an independent Bernoulli draw per pixel
with probability sigmoid(sum_c w_c * channel_c + bias), then a fixed
fraction of pixels is overwritten with the uncertain label.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .nn import stable_sigmoid
from .raster import CHANNELS, GeoTransform, RasterStack, box_sums

DAILY_RHO = 0.7
START_DATE = datetime.date(2020, 1, 1)

# weights favor hot/dry conditions (temp_max, drought, erc) and are damped
# by moisture (humidity, precipitation); zero for wind direction
DEFAULT_WEIGHTS = (0.6, 2.0, 0.8, -1.2, -1.6, 0.0, 0.8, 0.7, 2.2, 1.5)
DEFAULT_BIAS = -12.0

# rng sub-streams
_ELEVATION = 10
_FIELD = 20
_FIRE = 30
_UNCERTAIN = 40


@dataclass(frozen=True)
class SynthConfig:
    grid: tuple[int, int] = (96, 96)
    days: int = 90
    smoothing_radius: int = 12
    fire_logit_weights: tuple[float, ...] = DEFAULT_WEIGHTS
    fire_bias: float = DEFAULT_BIAS
    uncertain_fraction: float = 0.02
    rng_seed: int = 0

    def __post_init__(self):
        if len(self.fire_logit_weights) != len(CHANNELS):
            raise ValueError(f"need {len(CHANNELS)} channel weights")
        if not 0 <= self.uncertain_fraction < 1:
            raise ValueError("uncertain_fraction must be in [0, 1)")
        if self.smoothing_radius < 0:
            raise ValueError("smoothing_radius must be >= 0")
        if len(self.grid) != 2:
            raise ValueError("grid needs 2 entries, height and width")
        if self.days <= 0 or min(self.grid) <= 0:
            raise ValueError("grid and days must be positive")


def _box_mean(plane, radius):
    """Mean over (2r+1)^2 windows clamped to the grid."""
    h, w = plane.shape
    r0 = np.clip(np.arange(h) - radius, 0, h)
    r1 = np.clip(np.arange(h) + radius + 1, 0, h)
    c0 = np.clip(np.arange(w) - radius, 0, w)
    c1 = np.clip(np.arange(w) + radius + 1, 0, w)
    area = (r1 - r0)[:, None] * (c1 - c0)[None, :]
    return box_sums(plane, (r0, r1), (c0, c1)) / area


def gen_field(shape, smoothing_radius, rng) -> np.ndarray:
    """Box-smoothed white noise, re-standardized to mean 0, variance 1."""
    noise = rng.standard_normal(shape)
    smooth = _box_mean(noise, smoothing_radius) if smoothing_radius > 0 else noise
    smooth = smooth - smooth.mean()
    std = smooth.std()
    return smooth / std if std > 0 else smooth


def fire_logit(channels, cfg: SynthConfig) -> np.ndarray:
    """The generating per-pixel logit for a [10, H, W] channel block."""
    w = np.asarray(cfg.fire_logit_weights, dtype=np.float64)
    return (w[:, None, None] * np.asarray(channels, dtype=np.float64)).sum(axis=0) \
        + cfg.fire_bias


def gen_scenes(cfg: SynthConfig) -> list[RasterStack]:
    """Generate cfg.days consecutive stacks at 1 km pixel size."""
    h, w = cfg.grid
    geo = GeoTransform(0.0, 0.0, 1000.0)
    seed = cfg.rng_seed
    elevation = gen_field((h, w), cfg.smoothing_radius,
                          np.random.default_rng([seed, _ELEVATION]))
    evolving = np.zeros((len(CHANNELS) - 1, h, w))
    innovation_scale = np.sqrt(1.0 - DAILY_RHO ** 2)

    stacks = []
    for day in range(cfg.days):
        for j in range(len(CHANNELS) - 1):
            fresh = gen_field((h, w), cfg.smoothing_radius,
                              np.random.default_rng([seed, _FIELD, day, j]))
            if day == 0:
                evolving[j] = fresh
            else:
                evolving[j] = DAILY_RHO * evolving[j] + innovation_scale * fresh
        channels = np.concatenate([elevation[None], evolving])
        prob = stable_sigmoid(fire_logit(channels, cfg))
        fire_rng = np.random.default_rng([seed, _FIRE, day])
        mask = (fire_rng.uniform(size=(h, w)) < prob).astype(np.int8)
        if cfg.uncertain_fraction > 0:
            unc_rng = np.random.default_rng([seed, _UNCERTAIN, day])
            unc = unc_rng.uniform(size=(h, w)) < cfg.uncertain_fraction
            mask[unc] = -1
        stacks.append(RasterStack(
            date=START_DATE + datetime.timedelta(days=day),
            channel_names=CHANNELS,
            channels=channels.astype(np.float32),
            fire_mask=mask,
            geo=geo,
        ))
    return stacks
