import dataclasses
import datetime
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from firecast import cli, config, nn, raster, sampler
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
from firecast.models import ModelConfig, build
from firecast.sampler import Sample, write_dataset

from test_sampler import scene_series

ROOT = Path(__file__).resolve().parents[1]


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
    assert cfg.run.task == "daily"
    assert cfg.sampler.tile_size == 16
    assert cfg.model.filter_scheme == (4, 8)
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


# config files that must be rejected as config errors
BAD_CONFIGS = [
    "[train]\nepochs = soon\n",
    "[run]\ntask = yearly\n",
    "[train]\nepochs = 3\n\n[train]\nbatch_size = 4\n",  # duplicate section
    "[train]\nepochs = 3\nepochs = 4\n",  # duplicate key
    "epochs = 3\n",  # no section header
    "[sampler]\nsplit_ratio = 6, 1\n",
    "[synth]\ngrid = 96, 96, 96\n",
    # non-finite floats and a negative map count
    "[synth]\nfire_bias = nan\n",
    "[train]\nlearning_rate = nan\n",
    "[run]\nthreshold = nan\n",
    "[sampler]\ncluster_merge_distance = nan\n",
    "[sampler]\nnegative_ratio = inf\n",
    "[sampler]\nsplit_ratio = 6, -inf, 1\n",
    "[run]\nmax_maps = -1\n",
    "[sweep]\nmodel.filter_scheme = 8, 16\n",
    # model sizes that are not positive, or no levels at all
    "[model]\nlstm_hidden = 0\n",
    "[model]\nfilter_scheme = 0, 8\n",
    "[model]\nfilter_scheme = ,\n",
]


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    for text in BAD_CONFIGS:
        path.write_text(text)
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
    assert load_config(named).model.arch == arch

    base = tmp_path / "other.cfg"
    base.write_text(SMALL_CONFIG.format(out=tmp_path / "run")
                    .replace("arch = ae\n", f"arch = {other}\n"))
    assert load_config(base).model.arch == other
    assert load_config(base, env={"WF_MODEL_ARCH": spelling}).model.arch == arch

    if spelling in MODEL_FLAG_SPELLINGS:
        seen = []
        monkeypatch.setitem(cli._VERBS, "train",
                            lambda cfg, out: seen.append(cfg.model.arch) or EXIT_OK)
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


def test_seed_override_propagates(tmp_path, monkeypatch):
    path, _ = write_config(tmp_path)
    seen = []
    monkeypatch.setitem(cli._VERBS, "train", lambda cfg, out: seen.append(cfg) or EXIT_OK)
    assert run_cli("train", "--config", path, "--seed", 99) == EXIT_OK
    [cfg] = seen
    assert cfg.sampler.rng_seed == 99
    assert cfg.train.rng_seed == 99
    assert cfg.synth.rng_seed == 99
    assert cfg.run.init_seed == 99


def test_layers_override_in_order(tmp_path):
    """file < environment < flags < sweep point"""
    path, _ = write_config(tmp_path, text=SMALL_CONFIG + "\n[sweep]\ntrain.epochs = 4\n")
    env = {"WF_TRAIN_EPOCHS": "3", "WF_TRAIN_RNG_SEED": "7", "WF_RUN_THRESHOLD": "0.2"}
    cfg = load_config(path, env=env, flags={"--seed": "5", "--threshold": "0.3"})
    assert (cfg.train.epochs, cfg.train.rng_seed, cfg.run.threshold) == (3, 5, 0.3)
    [(point, point_cfg)] = cfg.sweep
    assert point == {"train.epochs": "4"}
    assert (point_cfg.train.epochs, point_cfg.train.rng_seed) == (4, 5)
    assert point_cfg.run.threshold == 0.3


def test_bad_values_name_their_source(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochs = soon\n")
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("[sweep]\ntrain.epochs = 1, soon\n")
    record_sweep = tmp_path / "record_sweep.cfg"
    record_sweep.write_text("[sweep]\nmodel.lstm_hidden = 4, -1\n")
    for kwargs, label in [({"path": path}, "[train] epochs"),
                          ({"env": {"WF_TRAIN_EPOCHS": "soon"}}, "env WF_TRAIN_EPOCHS"),
                          ({"flags": {"--threshold": "high"}}, "--threshold"),
                          ({"env": {"WF_SYNTH_FIRE_BIAS": "nan"}}, "env WF_SYNTH_FIRE_BIAS"),
                          ({"flags": {"--threshold": "inf"}}, "--threshold"),
                          ({"env": {"WF_RUN_MAX_MAPS": "-1"}}, "env WF_RUN_MAX_MAPS"),
                          ({"path": sweep}, "[sweep] train.epochs"),
                          # values that parse but that their section's record rejects
                          ({"env": {"WF_MODEL_LSTM_HIDDEN": "0"}}, "env WF_MODEL_LSTM_HIDDEN"),
                          ({"env": {"WF_SAMPLER_TILE_SIZE": "0"}}, "env WF_SAMPLER_TILE_SIZE"),
                          ({"env": {"WF_SYNTH_FIRE_LOGIT_WEIGHTS": "1,2"}},
                           "env WF_SYNTH_FIRE_LOGIT_WEIGHTS"),
                          ({"path": record_sweep}, "[sweep] model.lstm_hidden")]:
        with pytest.raises(ConfigError, match=f"^bad value for {re.escape(label)}: "):
            load_config(**({"env": {}} | kwargs))
    sweep.write_text("[sweep]\nmodel.filter_scheme = 8, 16\n")
    with pytest.raises(ConfigError, match="^sweep key 'model.filter_scheme' takes a list"):
        load_config(sweep, env={})


def test_schema_keys_set_their_records_fields():
    """Each key sets a field of its section's record, [model] init_seed
    alone going to RunSettings, and an empty config gives every record's
    defaults."""
    routed = []
    for section, keys in config._SCHEMA.items():
        for key in keys:
            home = config._ROUTED.get((section, key), section)
            assert key in {f.name for f in dataclasses.fields(config._RECORDS[home])}
            if home != section:
                routed.append((section, key, home))
    assert routed == [("model", "init_seed", "run")]
    cfg = load_config(env={})
    assert set(config._RECORDS) == {f.name for f in dataclasses.fields(cfg)} - {"sweep"}
    for home, record in config._RECORDS.items():
        assert getattr(cfg, home) == record()
    assert cfg.sweep == []


def test_shipped_configs_load(tmp_path):
    """README's example config and demo 06's heredoc load as written."""
    readme = (ROOT / "README.md").read_text()
    [ini] = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.cfg"
    path.write_text(ini)
    cfg = load_config(path, env={})
    assert (cfg.model.arch, cfg.synth.grid) == ("unet", (192, 192))

    demo = (ROOT / "demos" / "06_pipeline_cli.sh").read_text()
    [heredoc] = re.findall(r"<<EOF\n(.*?)^EOF$", demo, re.S | re.M)
    path.write_text(heredoc.replace("$RUN", str(tmp_path / "run")))
    cfg = load_config(path, env={})
    assert cfg.run.out == str(tmp_path / "run")
    assert [point for point, _ in cfg.sweep] == [{"train.positive_weight": "1"},
                                                 {"train.positive_weight": "3"}]


# --- verbs -------------------------------------------------------------------------

def run_cli(*args):
    return main([str(a) for a in args])


def test_missing_config_file_exit_code(tmp_path):
    assert run_cli("synth", "--config", tmp_path / "nope.cfg") == EXIT_MISSING


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    for text in BAD_CONFIGS:
        bad.write_text(text)
        assert run_cli("synth", "--config", bad) == EXIT_CONFIG, text


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


def test_default_chain_runs_without_config(tmp_path, monkeypatch, capsys):
    for name in [k for k in os.environ if k.startswith("WF_")]:
        monkeypatch.delenv(name)
    monkeypatch.chdir(tmp_path)
    assert run_cli("synth") == EXIT_OK
    assert run_cli("build-dataset") == EXIT_OK
    out = tmp_path / "out"
    assert len(list((out / "scenes").glob("*.wfrs"))) == 90
    for split in sampler.SPLITS:
        samples, task = sampler.read_dataset(out / f"daily_{split}.wfds")
        assert task == "daily" and samples
        assert samples[0].features.shape == (10, 32, 32)
    capsys.readouterr()


def test_build_dataset_without_train_day_exit_code(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    # five days, one block, drawn test at sampler seed 0
    for stack in scene_series(5):
        raster.write_stack(stack, scenes / f"{stack.date.isoformat()}.wfrs")
    path = tmp_path / "run.cfg"
    path.write_text(f"[run]\nout = {tmp_path / 'run'}\nstacks = {scenes}\n\n"
                    "[sampler]\nrng_seed = 0\n")
    capsys.readouterr()
    assert run_cli("build-dataset", "--config", path) == EXIT_ERROR
    assert capsys.readouterr().err == \
        "error: no stacks fall in the train split; need more days\n"
    assert not (tmp_path / "run").exists()


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


def test_broken_checkpoint_names_its_file(tmp_path, capsys):
    """A sidecar that is not JSON, lacks a field or holds a value
    ModelConfig rejects, and parameters that do not fit the sidecar's
    model, each exit 1 with an error naming the file at fault."""
    path, out = write_config(tmp_path)
    out.mkdir()
    rng = np.random.default_rng(0)
    label = np.zeros((16, 16), np.int8)
    label[:8] = 1
    write_dataset([Sample(rng.standard_normal((10, 16, 16)).astype(np.float32), label,
                          datetime.date(2020, 1, 1), (0, 0), "test", "positive")],
                  "daily", out / "daily_test.wfds")
    mcfg = ModelConfig("autoencoder", (4, 8), tile=16)
    ckpt = out / "checkpoint.wfck"
    nn.save_checkpoint({name: t.data for name, t in build(mcfg, rng).params.items()}, ckpt)
    sidecar = ckpt.with_suffix(".json")
    good = dataclasses.asdict(mcfg) | {"task": "daily"}
    sidecar.write_text(json.dumps(good))
    assert run_cli("eval", "--config", path) == EXIT_OK
    no_tile = {k: v for k, v in good.items() if k != "tile"}
    for text, named in [("{not json", [str(sidecar)]),
                        (json.dumps(no_tile), [str(sidecar), "'tile'"]),
                        (json.dumps(good | {"lstm_hidden": 0}), [str(sidecar), "lstm_hidden"]),
                        (json.dumps(good | {"tile": 10}), [str(sidecar), "tile 10"]),
                        (json.dumps(good | {"filter_scheme": [4]}), [str(ckpt)])]:
        sidecar.write_text(text)
        capsys.readouterr()
        assert run_cli("eval", "--config", path) == EXIT_ERROR, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(n in err for n in named), err


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


def test_bad_sweep_rejected_before_training(tmp_path, capsys):
    """A bad point value, or a key from a section train does not read, is
    a config error, and a point's model that does not fit the task a
    mismatch, before the first point trains."""
    path, out = write_config(tmp_path)
    run_cli("synth", "--config", path)
    run_cli("build-dataset", "--config", path)
    for sweep, code in [("train.epochs = 1, 0", EXIT_CONFIG),
                        ("train.epochs = 1, soon", EXIT_CONFIG),
                        ("sampler.tile_size = 16, 32", EXIT_CONFIG),
                        ("run.task = daily, sequence", EXIT_CONFIG),
                        ("model.filter_scheme = 8, 16", EXIT_CONFIG),
                        ("model.lstm_hidden = 4, -1", EXIT_CONFIG),
                        ("model.arch = unet, ae-lstm", EXIT_MISMATCH)]:
        write_config(tmp_path, text=SMALL_CONFIG + f"\n[sweep]\n{sweep}\n")
        capsys.readouterr()
        assert run_cli("sweep", "--config", path) == code, sweep
        assert "sweep:" not in capsys.readouterr().out
        assert not (out / "sweep.csv").exists()


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
