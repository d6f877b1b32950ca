"""Run configuration: a sectioned key=value file validated against a
schema, with WF_-prefixed environment overrides.

Example:

    [run]
    task = daily
    out = runs/demo

    [sampler]
    tile_size = 32

    [model]
    filter_scheme = 8, 16, 32

    [train]
    epochs = 20
    learning_rate = 0.001

    [sweep]
    train.positive_weight = 1, 3

Environment variables override file values as WF_<SECTION>_<KEY>, e.g.
WF_TRAIN_EPOCHS=5. Unknown sections or keys are rejected. [model] arch
takes an architecture's name or its CLI spelling, as listed in
models.ARCH_SPECS.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace

from .models import ModelConfig, resolve_arch
from .sampler import TASKS, SamplerConfig
from .synth import SynthConfig
from .training import TrainConfig

ENV_PREFIX = "WF_"


class ConfigError(ValueError):
    """Schema violation in a run configuration."""


def _parse_str(raw):
    return raw.strip()


def _parse_task(raw):
    value = raw.strip()
    if value not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {value!r}")
    return value


def _parse_arch(raw):
    return resolve_arch(raw.strip().lower())


def _parse_ints(raw):
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _parse_floats(raw):
    return tuple(float(v.strip()) for v in raw.split(",") if v.strip())


_SCHEMA = {
    "run": {
        "task": _parse_task,
        "out": _parse_str,
        "stacks": _parse_str,
        "data": _parse_str,
        "checkpoint": _parse_str,
        "threshold": float,
        "max_maps": int,
    },
    "sampler": {
        "tile_size": int,
        "cluster_merge_distance": float,
        "negative_ratio": float,
        "split_ratio": _parse_floats,
        "aggregation_window": int,
        "rng_seed": int,
    },
    "model": {
        "arch": _parse_arch,
        "filter_scheme": _parse_ints,
        "lstm_hidden": int,
        "init_seed": int,
    },
    "train": {
        "epochs": int,
        "batch_size": int,
        "learning_rate": float,
        "positive_weight": float,
        "rng_seed": int,
    },
    "synth": {
        "grid": _parse_ints,
        "days": int,
        "smoothing_radius": int,
        "fire_logit_weights": _parse_floats,
        "fire_bias": float,
        "uncertain_fraction": float,
        "rng_seed": int,
    },
}

_RUN_DEFAULTS = {
    "task": "daily",
    "out": "out",
    "stacks": None,
    "data": None,
    "checkpoint": None,
    "threshold": 0.5,
    "max_maps": 16,
    "arch": "autoencoder",
    "filter_scheme": (64, 128, 256, 256),
    "lstm_hidden": None,
    "init_seed": 0,
}


@dataclass
class RunConfig:
    run: dict = field(default_factory=dict)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    sweep: dict = field(default_factory=dict)  # dotted key -> list of raw values

    @property
    def task(self):
        return self.run["task"]

    @property
    def arch(self):
        return self.run["arch"]

    def model_config(self, tile, in_channels=10) -> ModelConfig:
        return ModelConfig(
            arch=self.run["arch"],
            filter_scheme=self.run["filter_scheme"],
            in_channels=in_channels,
            tile=tile,
            lstm_hidden=self.run["lstm_hidden"],
        )

    def override_seed(self, seed: int):
        """CLI --seed: one seed drives sampling, init, training, and synth."""
        self.sampler = replace(self.sampler, rng_seed=seed)
        self.train = replace(self.train, rng_seed=seed)
        self.synth = replace(self.synth, rng_seed=seed)
        self.run["init_seed"] = seed


def _validated_sections(parser: configparser.ConfigParser):
    values = {}
    for section in parser.sections():
        if section == "sweep":
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[(section, key)] = _SCHEMA[section][key](raw)
            except ValueError as e:
                raise ConfigError(f"bad value for [{section}] {key}: {e}") from e
    return values


def _apply_env(values, env):
    for section, keys in _SCHEMA.items():
        for key in keys:
            name = f"{ENV_PREFIX}{section.upper()}_{key.upper()}"
            if name in env:
                try:
                    values[(section, key)] = keys[key](env[name])
                except ValueError as e:
                    raise ConfigError(f"bad value for env {name}: {e}") from e
    return values


def load_config(path=None, env=None) -> RunConfig:
    """Parse, validate, and assemble a RunConfig. path=None uses defaults
    (plus environment overrides), for verbs driven entirely by flags."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    sweep = {}
    if path is not None:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        with open(path) as f:
            parser.read_file(f)
        if parser.has_section("sweep"):
            for key, raw in parser["sweep"].items():
                section, _, subkey = key.partition(".")
                if section not in _SCHEMA or subkey not in _SCHEMA[section]:
                    raise ConfigError(f"unknown sweep key {key!r}")
                sweep[key] = [v.strip() for v in raw.split(",") if v.strip()]

    values = _validated_sections(parser)
    values = _apply_env(values, os.environ if env is None else env)

    run = dict(_RUN_DEFAULTS)
    for (section, key), v in values.items():
        if section in ("run", "model"):
            run[key] = v

    def section_kwargs(name):
        return {key: v for (s, key), v in values.items() if s == name}

    try:
        cfg = RunConfig(
            run=run,
            sampler=SamplerConfig(**section_kwargs("sampler")),
            train=TrainConfig(**section_kwargs("train")),
            synth=SynthConfig(**section_kwargs("synth")),
            sweep=sweep,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return cfg


def apply_sweep_point(cfg: RunConfig, point: dict) -> RunConfig:
    """Return a copy of cfg with dotted sweep keys set to parsed values."""
    out = RunConfig(run=dict(cfg.run), sampler=cfg.sampler, train=cfg.train,
                    synth=cfg.synth, sweep={})
    for dotted, raw in point.items():
        section, _, key = dotted.partition(".")
        parsed = _SCHEMA[section][key](raw)
        if section == "train":
            out.train = replace(out.train, **{key: parsed})
        elif section == "sampler":
            out.sampler = replace(out.sampler, **{key: parsed})
        elif section == "synth":
            out.synth = replace(out.synth, **{key: parsed})
        else:
            out.run[key] = parsed
    return out
