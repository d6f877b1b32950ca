import json
import os
from pathlib import Path

import numpy as np
import pytest

from firecast import cli
from firecast.cli import (
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_MISMATCH,
    EXIT_MISSING,
    EXIT_OK,
    TaskArchMismatch,
    _check_task_arch,
    main,
)
from firecast.config import ConfigError, load_config
from firecast.sampler import write_dataset


SMALL_CONFIG = """
[run]
task = daily
out = {out}

[sampler]
tile_size = 16
rng_seed = 1

[model]
arch = ae
filter_scheme = 4, 8

[train]
epochs = 2
batch_size = 16
learning_rate = 0.003
rng_seed = 1

[synth]
grid = 96, 96
days = 70
fire_bias = -6.5
rng_seed = 1
"""


def write_config(tmp_path, text=None, out=None):
    out = out or (tmp_path / "run")
    path = tmp_path / "run.cfg"
    path.write_text((text or SMALL_CONFIG).format(out=out))
    return path, Path(out)


# --- config parsing ---------------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    path, out = write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.task == "daily"
    assert cfg.sampler.tile_size == 16
    assert cfg.run["filter_scheme"] == (4, 8)
    assert cfg.train.epochs == 2
    assert cfg.synth.grid == (96, 96)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochz = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[training]\nepochs = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochs = soon\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_env_override(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = load_config(path, env={"WF_TRAIN_EPOCHS": "7"})
    assert cfg.train.epochs == 7


def test_env_override_bad_value(tmp_path):
    path, _ = write_config(tmp_path)
    with pytest.raises(ConfigError):
        load_config(path, env={"WF_TRAIN_EPOCHS": "many"})


# every spelling `arch =` accepts, with the architecture it names
ARCH_SPELLINGS = [
    ("ae", "autoencoder"),
    ("autoencoder", "autoencoder"),
    ("unet", "unet"),
    ("ae-lstm", "ae_lstm"),
    ("ae_lstm", "ae_lstm"),
    ("unet-lstm", "unet_lstm"),
    ("unet_lstm", "unet_lstm"),
]
MODEL_FLAG_SPELLINGS = ("ae", "unet", "ae-lstm", "unet-lstm")


@pytest.mark.parametrize("spelling, arch", ARCH_SPELLINGS)
def test_arch_spellings_resolve(tmp_path, monkeypatch, spelling, arch):
    other = "unet" if arch == "autoencoder" else "autoencoder"
    named = tmp_path / "named.cfg"
    named.write_text(SMALL_CONFIG.format(out=tmp_path / "run")
                     .replace("arch = ae\n", f"arch = {spelling}\n"))
    assert load_config(named).arch == arch

    base = tmp_path / "other.cfg"
    base.write_text(SMALL_CONFIG.format(out=tmp_path / "run")
                    .replace("arch = ae\n", f"arch = {other}\n"))
    assert load_config(base).arch == other
    assert load_config(base, env={"WF_MODEL_ARCH": spelling}).arch == arch

    if spelling in MODEL_FLAG_SPELLINGS:
        seen = []
        monkeypatch.setitem(cli._VERBS, "train",
                            lambda cfg, out: seen.append(cfg.arch) or EXIT_OK)
        assert run_cli("train", "--config", base, "--model", spelling) == EXIT_OK
        assert seen == [arch]


def test_task_arch_check_grid():
    matching = {("daily", "autoencoder"), ("daily", "unet"),
                ("aggregated", "autoencoder"), ("aggregated", "unet"),
                ("sequence", "ae_lstm"), ("sequence", "unet_lstm")}
    passed = raised = 0
    for task in ("daily", "aggregated", "sequence"):
        for arch in ("autoencoder", "unet", "ae_lstm", "unet_lstm"):
            if (task, arch) in matching:
                _check_task_arch(task, arch)
                passed += 1
            else:
                with pytest.raises(TaskArchMismatch):
                    _check_task_arch(task, arch)
                raised += 1
    assert (passed, raised) == (6, 6)


def test_seed_override_propagates(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = load_config(path)
    cfg.override_seed(99)
    assert cfg.sampler.rng_seed == 99
    assert cfg.train.rng_seed == 99
    assert cfg.synth.rng_seed == 99
    assert cfg.run["init_seed"] == 99


# --- verbs -------------------------------------------------------------------------

def run_cli(*args):
    return main([str(a) for a in args])


def test_missing_config_file_exit_code(tmp_path):
    assert run_cli("synth", "--config", tmp_path / "nope.cfg") == EXIT_MISSING


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\ntask = yearly\n")
    assert run_cli("synth", "--config", bad) == EXIT_CONFIG


def test_pipeline_smoke(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert run_cli("synth", "--config", path) == EXIT_OK
    scenes = sorted((out / "scenes").glob("*.wfrs"))
    assert len(scenes) == 70

    assert run_cli("build-dataset", "--config", path) == EXIT_OK
    for split in ("train", "val", "test"):
        assert (out / f"daily_{split}.wfds").exists()
    stats = json.loads((out / "stats.json").read_text())
    assert len(stats["mean"]) == 10

    assert run_cli("train", "--config", path) == EXIT_OK
    assert (out / "checkpoint.wfck").exists()
    assert (out / "checkpoint.json").exists()
    report = (out / "report.csv").read_text().strip().splitlines()
    assert len(report) == 3  # header + 2 epochs

    assert run_cli("eval", "--config", path) == EXIT_OK
    metrics_lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert metrics_lines[0].startswith("auc,")

    assert run_cli("predict", "--config", path) == EXIT_OK
    maps = sorted((out / "maps").glob("*.pgm"))
    assert maps and len(maps) % 2 == 0

    capsys.readouterr()


def test_task_arch_mismatch_exit_code(tmp_path):
    path, out = write_config(tmp_path)
    run_cli("synth", "--config", path)
    run_cli("build-dataset", "--config", path)
    assert run_cli("train", "--config", path, "--model", "ae-lstm") == EXIT_MISMATCH


def test_eval_missing_checkpoint(tmp_path):
    path, out = write_config(tmp_path)
    run_cli("synth", "--config", path)
    run_cli("build-dataset", "--config", path)
    assert run_cli("eval", "--config", path) == EXIT_MISSING


@pytest.mark.parametrize("verb", ["eval", "predict"])
def test_empty_test_split_rejected(tmp_path, capsys, verb):
    path, out = write_config(tmp_path)
    out.mkdir()
    empty = out / "daily_test.wfds"
    write_dataset([], "daily", empty)
    capsys.readouterr()
    assert run_cli(verb, "--config", path) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: dataset {empty} holds no samples\n"


def test_sweep_writes_one_row_per_combination(tmp_path):
    text = SMALL_CONFIG + "\n[sweep]\ntrain.positive_weight = 1, 3\n"
    path, out = write_config(tmp_path, text=text)
    run_cli("synth", "--config", path)
    run_cli("build-dataset", "--config", path)
    assert run_cli("sweep", "--config", path) == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "train.positive_weight,best_val_auc,best_epoch"
    assert len(lines) == 3


def test_sweep_without_section_is_config_error(tmp_path):
    path, out = write_config(tmp_path)
    run_cli("synth", "--config", path)
    run_cli("build-dataset", "--config", path)
    assert run_cli("sweep", "--config", path) == EXIT_CONFIG


def test_verbs_do_not_mutate_inputs(tmp_path):
    path, out = write_config(tmp_path)
    run_cli("synth", "--config", path)
    scene_bytes = {p.name: p.read_bytes() for p in (out / "scenes").glob("*.wfrs")}
    run_cli("build-dataset", "--config", path)
    ds_bytes = (out / "daily_train.wfds").read_bytes()
    run_cli("train", "--config", path)
    run_cli("eval", "--config", path)
    for p in (out / "scenes").glob("*.wfrs"):
        assert p.read_bytes() == scene_bytes[p.name]
    assert (out / "daily_train.wfds").read_bytes() == ds_bytes
