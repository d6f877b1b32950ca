"""Run configuration: a sectioned key=value file validated against a
schema, with WF_-prefixed environment overrides, CLI flags and a [sweep]
grid.

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

Each setting comes from the last layer that gives it: file < environment
as WF_<SECTION>_<KEY> (e.g. WF_TRAIN_EPOCHS=5) < CLI flags (--seed N sets
all four seeds) < sweep point. All layers parse through one schema, and
an error names its source. Unknown sections or keys are rejected. [model]
arch takes an architecture's name or its CLI spelling, as listed in
models.ARCH_SPECS. Float settings must be finite. Each section becomes its
record at load ([sampler] a SamplerConfig, [model] a ModelConfig, ...),
whose checks reject a bad value there, so a bad [model] size exits 2
before any data is read; [model] init_seed alone stays in RunConfig.run.
train takes the model's tile and channel count from the data. [sweep]
takes model.* and train.* keys, the only sections train reads, but no
list-valued key (model.filter_scheme), since its values are split on
commas; every point is checked at load, before any trains.
"""

from __future__ import annotations

import configparser
import itertools
import math
import os
from dataclasses import dataclass, field

from .models import ModelConfig, resolve_arch
from .sampler import TASKS, SamplerConfig
from .synth import SynthConfig
from .training import TrainConfig

ENV_PREFIX = "WF_"

# each CLI flag and the settings it sets
FLAG_KEYS = {
    "--task": (("run", "task"),),
    "--model": (("model", "arch"),),
    "--out": (("run", "out"),),
    "--threshold": (("run", "threshold"),),
    "--seed": (("sampler", "rng_seed"), ("model", "init_seed"),
               ("train", "rng_seed"), ("synth", "rng_seed")),
}

# the sections the train verb reads, so the only ones a sweep can vary
_SWEEP_SECTIONS = ("model", "train")


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


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw.strip()!r}")
    return value


def _parse_count(raw):
    value = int(raw)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _parse_ints(raw):
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _parse_floats(raw):
    return tuple(_parse_float(v) for v in raw.split(",") if v.strip())


# parsers of comma-separated lists, whose values a [sweep] list cannot hold
_LIST_PARSERS = (_parse_ints, _parse_floats)


_SCHEMA = {
    "run": {
        "task": _parse_task,
        "out": _parse_str,
        "stacks": _parse_str,
        "data": _parse_str,
        "checkpoint": _parse_str,
        "threshold": _parse_float,
        "max_maps": _parse_count,
    },
    "sampler": {
        "tile_size": int,
        "cluster_merge_distance": _parse_float,
        "negative_ratio": _parse_float,
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
        "learning_rate": _parse_float,
        "positive_weight": _parse_float,
        "rng_seed": int,
    },
    "synth": {
        "grid": _parse_ints,
        "days": int,
        "smoothing_radius": int,
        "fire_logit_weights": _parse_floats,
        "fire_bias": _parse_float,
        "uncertain_fraction": _parse_float,
        "rng_seed": int,
    },
}

# every key RunConfig.run holds; each other setting goes to its section's record
_RUN_DEFAULTS = {
    "task": "daily",
    "out": "out",
    "stacks": None,
    "data": None,
    "checkpoint": None,
    "threshold": 0.5,
    "max_maps": 16,
    "init_seed": 0,  # [model], but not part of the ModelConfig a checkpoint records
}


@dataclass
class RunConfig:
    run: dict = field(default_factory=dict)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    sweep: list = field(default_factory=list)  # (raw point, RunConfig) per grid point

    @property
    def task(self):
        return self.run["task"]


def _read_file(path):
    """The file's sections as section -> {key: raw text}."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as f:
            parser.read_file(f)
        return {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as e:
        raise ConfigError(f"malformed config file: {e}") from e


def _layers(path, env, flags):
    """Each setting's (source label, raw text), later layers overriding
    earlier ones, and the [sweep] grid's axes: per key, in sorted order, a
    (setting, (label, raw text)) for each listed value."""
    sections = _read_file(path) if path is not None else {}
    sweep = []
    for dotted, text in sorted(sections.pop("sweep", {}).items()):
        section, _, key = dotted.partition(".")
        if key not in _SCHEMA.get(section, ()):
            raise ConfigError(f"unknown sweep key {dotted!r}")
        if section not in _SWEEP_SECTIONS:
            raise ConfigError(f"sweep key {dotted!r} is outside [model] and [train], "
                              "the only sections train reads")
        if _SCHEMA[section][key] in _LIST_PARSERS:
            raise ConfigError(f"sweep key {dotted!r} takes a list, and a [sweep] "
                              "list cannot hold lists")
        sweep.append([((section, key), (f"[sweep] {dotted}", v.strip()))
                      for v in text.split(",") if v.strip()])
    raw = {}
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in items.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[(section, key)] = (f"[{section}] {key}", text)
    for section, keys in _SCHEMA.items():
        for key in keys:
            name = f"{ENV_PREFIX}{section.upper()}_{key.upper()}"
            if name in env:
                raw[(section, key)] = (f"env {name}", env[name])
    for flag, text in flags.items():
        for setting in FLAG_KEYS[flag]:
            raw[setting] = (flag, text)
    return raw, sweep


def _parsed(raw):
    """Each setting's value, parsed from its raw text through _SCHEMA."""
    values = {}
    for (section, key), (label, text) in raw.items():
        try:
            values[(section, key)] = _SCHEMA[section][key](text)
        except ValueError as e:
            raise ConfigError(f"bad value for {label}: {e}") from e
    return values


def _assemble(values, where="") -> RunConfig:
    """The RunConfig for parsed settings over the defaults."""
    run = dict(_RUN_DEFAULTS)
    kwargs = {"sampler": {}, "model": {}, "train": {}, "synth": {}}
    for (section, key), value in values.items():
        if key in run:
            run[key] = value
        else:
            kwargs[section][key] = value
    try:
        return RunConfig(run=run, sampler=SamplerConfig(**kwargs["sampler"]),
                         model=ModelConfig(**kwargs["model"]),
                         train=TrainConfig(**kwargs["train"]),
                         synth=SynthConfig(**kwargs["synth"]))
    except ValueError as e:
        raise ConfigError(f"{where}{e}") from e


def load_config(path=None, env=None, flags=None) -> RunConfig:
    """Parse, validate, and assemble a RunConfig and each of its sweep
    points. path=None uses defaults (plus environment and flags), for verbs
    driven entirely by flags; flags maps a FLAG_KEYS flag to its raw text."""
    raw, sweep = _layers(path, os.environ if env is None else env, flags or {})
    values = _parsed(raw)
    cfg = _assemble(values)
    for combo in itertools.product(*sweep) if sweep else ():
        point = {".".join(setting): text for setting, (_, text) in combo}
        cfg.sweep.append((point, _assemble(values | _parsed(dict(combo)),
                                           f"sweep point {point}: ")))
    return cfg
