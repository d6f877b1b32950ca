"""Command-line pipeline: synth, build-dataset, train, eval, predict, sweep.

Verbs communicate only through files (WFRS scene stacks, WFDS datasets,
WFCK checkpoints, CSV reports, PGM maps), so each stage can be rerun and
tested in isolation. Every verb is deterministic given its config and
seed. Exit codes: 0 success, 2 config error, 3 missing input file,
4 task/architecture mismatch, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import metrics, nn, raster, sampler, synth, training
from .binio import FormatError
from .config import FLAG_KEYS, ConfigError, RunConfig, load_config
from .models import ARCH_SPECS, CLI_NAMES, ModelConfig, build
from .sampler import SPLITS, TASKS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_MISMATCH = 4

_INIT_STREAM = 3


class TaskArchMismatch(Exception):
    """Sequence tasks need LSTM models and image tasks need image models."""


def _check_task_arch(task, arch):
    wants_sequence = task == "sequence"
    if ARCH_SPECS[arch].is_sequence != wants_sequence:
        kind = "an LSTM" if wants_sequence else "an image"
        raise TaskArchMismatch(f"task {task!r} needs {kind} model, got {arch!r}")


def _scenes_dir(cfg, out):
    return Path(cfg.run["stacks"]) if cfg.run["stacks"] else out / "scenes"


def _data_dir(cfg, out):
    return Path(cfg.run["data"]) if cfg.run["data"] else out


def _load_stacks(scenes_dir):
    paths = sorted(Path(scenes_dir).glob("*.wfrs"))
    if not paths:
        raise FileNotFoundError(f"no .wfrs files in {scenes_dir}")
    return [raster.read_stack(p) for p in paths]


def _dataset_path(data_dir, task, split):
    return Path(data_dir) / f"{task}_{split}.wfds"


def _read_split(data_dir, task, split):
    path = _dataset_path(data_dir, task, split)
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    samples, file_task = sampler.read_dataset(path)
    if not samples:
        raise ValueError(f"dataset {path} holds no samples")
    if file_task != task:
        raise TaskArchMismatch(f"{path} holds task {file_task!r}, expected {task!r}")
    return samples


def _model_from_checkpoint(path):
    path = Path(path)
    sidecar = path.with_suffix(".json")
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    if not sidecar.exists():
        raise FileNotFoundError(f"checkpoint sidecar not found: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
        cfg = ModelConfig(**{f.name: meta[f.name] for f in dataclasses.fields(ModelConfig)})
    except KeyError as e:
        raise FormatError(f"{sidecar}: missing field {e}") from e
    except (TypeError, ValueError) as e:  # not JSON, or a value ModelConfig rejects
        raise FormatError(f"{sidecar}: {e}") from e
    model = build(cfg, np.random.default_rng(0))
    params = nn.load_checkpoint(path)
    try:
        model.load_params(params)
    except ValueError as e:
        raise FormatError(f"{path} does not fit {sidecar}: {e}") from e
    return model


def _load_test(cfg: RunConfig, out: Path):
    """The test split and the checkpoint's model, checked against the task."""
    test_data = _read_split(_data_dir(cfg, out), cfg.task, "test")
    ckpt = Path(cfg.run["checkpoint"]) if cfg.run["checkpoint"] else out / "checkpoint.wfck"
    model = _model_from_checkpoint(ckpt)
    _check_task_arch(cfg.task, model.config.arch)
    return test_data, model


def cmd_synth(cfg: RunConfig, out: Path) -> int:
    scenes = synth.gen_scenes(cfg.synth)
    scenes_dir = _scenes_dir(cfg, out)
    scenes_dir.mkdir(parents=True, exist_ok=True)
    for stack in scenes:
        raster.write_stack(stack, scenes_dir / f"{stack.date.isoformat()}.wfrs")
    print(f"synth: wrote {len(scenes)} stacks of {cfg.synth.grid[0]}x"
          f"{cfg.synth.grid[1]} to {scenes_dir}")
    return EXIT_OK


def cmd_build_dataset(cfg: RunConfig, out: Path) -> int:
    stacks = _load_stacks(_scenes_dir(cfg, out))
    samples, stats = sampler.build_dataset(stacks, cfg.sampler, cfg.task)
    del stacks  # the samples view build_dataset's own arrays, not these
    subsets = sampler.split_subsets(samples)
    out.mkdir(parents=True, exist_ok=True)
    counts = {}
    for split in SPLITS:
        path = _dataset_path(out, cfg.task, split)
        sampler.write_dataset(subsets[split], cfg.task, path)
        counts[split] = len(subsets[split])
    stats_payload = {
        "channels": list(stats.channel_names),
        "mean": [float(v) for v in stats.mean],
        "std": [float(v) for v in stats.std],
    }
    (out / "stats.json").write_text(json.dumps(stats_payload, sort_keys=True,
                                               indent=1) + "\n")
    print(f"build-dataset[{cfg.task}]: " +
          ", ".join(f"{s}={counts[s]}" for s in SPLITS))
    return EXIT_OK


def _model_config(cfg: RunConfig, train_data) -> ModelConfig:
    first = train_data[0].features
    mcfg = dataclasses.replace(cfg.model, tile=int(first.shape[-1]),
                               in_channels=int(first.shape[-3]))
    _check_task_arch(cfg.task, mcfg.arch)
    return mcfg


def _train(cfg: RunConfig, mcfg: ModelConfig, train_data, val_data):
    model = build(mcfg, np.random.default_rng([cfg.run["init_seed"], _INIT_STREAM]))
    return training.train(model, train_data, val_data, cfg.train)


def cmd_train(cfg: RunConfig, out: Path) -> int:
    data_dir = _data_dir(cfg, out)
    train_data = _read_split(data_dir, cfg.task, "train")
    val_data = _read_split(data_dir, cfg.task, "val")
    mcfg = _model_config(cfg, train_data)
    report = _train(cfg, mcfg, train_data, val_data)

    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.wfck"
    nn.save_checkpoint(report.best_params, ckpt)
    sidecar = dataclasses.asdict(mcfg) | {"task": cfg.task}
    ckpt.with_suffix(".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
    report.write_csv(out / "report.csv")
    print(f"train[{cfg.task}/{mcfg.arch}]: best val AUC "
          f"{report.best_val_auc:.4f} at epoch {report.best_epoch}; "
          f"checkpoint -> {ckpt}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, out: Path) -> int:
    test_data, model = _load_test(cfg, out)
    result = metrics.evaluate(model, test_data, threshold=cfg.run["threshold"])
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_eval_csv(result, out / "metrics.csv")
    print(f"eval[{cfg.task}]: auc={result.auc:.4f} precision={result.precision:.4f} "
          f"recall={result.recall:.4f} iou={result.iou:.4f} "
          f"mean_iou={result.mean_iou:.4f} n_valid={result.n_valid}")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, out: Path) -> int:
    test_data, model = _load_test(cfg, out)
    maps_dir = out / "maps"
    written = metrics.write_probability_maps(
        model, test_data[:cfg.run["max_maps"]], maps_dir)
    print(f"predict[{cfg.task}]: wrote {len(written)} map pairs to {maps_dir}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep verb needs a [sweep] section with value lists")
    data_dir = _data_dir(cfg, out)
    train_data = _read_split(data_dir, cfg.task, "train")
    val_data = _read_split(data_dir, cfg.task, "val")

    # every point's model is checked against the data before any trains
    mcfgs = [_model_config(point_cfg, train_data) for _, point_cfg in cfg.sweep]
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for (point, point_cfg), mcfg in zip(cfg.sweep, mcfgs):
        report = _train(point_cfg, mcfg, train_data, val_data)
        rows.append(list(point.values()) + [repr(report.best_val_auc), report.best_epoch])
        print("sweep: " + ", ".join(f"{k}={v}" for k, v in point.items())
              + f" -> val AUC {report.best_val_auc:.4f}")
    with open(out / "sweep.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(cfg.sweep[0][0]) + ["best_val_auc", "best_epoch"])
        writer.writerows(rows)
    print(f"sweep: {len(rows)} rows -> {out / 'sweep.csv'}")
    return EXIT_OK


_VERBS = {
    "synth": cmd_synth,
    "build-dataset": cmd_build_dataset,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "sweep": cmd_sweep,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="firecast",
        description="wildfire likelihood pipeline: synthetic scenes, tiling, "
                    "segmentation training, and evaluation")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in _VERBS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", default=None,
                       help="override every rng seed in the config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--task", default=None, choices=TASKS)
        p.add_argument("--model", default=None, choices=CLI_NAMES)
        p.add_argument("--threshold", default=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    flags = {flag: value for flag in FLAG_KEYS
             if (value := getattr(args, flag[2:])) is not None}
    try:
        cfg = load_config(args.config, flags=flags)
        out = Path(cfg.run["out"])
        return _VERBS[args.verb](cfg, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"missing file: {e}", file=sys.stderr)
        return EXIT_MISSING
    except TaskArchMismatch as e:
        print(f"task/model mismatch: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as e:  # noqa: BLE001 - single CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
