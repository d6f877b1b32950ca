"""Wildfire likelihood estimation at desk scale: raster stacks, tile
sampling, segmentation models on a reverse-mode autodiff core, weighted
training, and pixel metrics."""

from .models import ModelConfig, build
from .raster import ChannelStats, GeoTransform, RasterStack, read_stack, write_stack
from .sampler import Sample, SamplerConfig, build_dataset
from .synth import SynthConfig, gen_scenes
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ChannelStats",
    "GeoTransform",
    "ModelConfig",
    "RasterStack",
    "Sample",
    "SamplerConfig",
    "SynthConfig",
    "TrainConfig",
    "build",
    "build_dataset",
    "gen_scenes",
    "read_stack",
    "train",
    "write_stack",
]
