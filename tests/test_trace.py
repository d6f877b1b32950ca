"""The benchmark's traced pass (perfbench/tracer.py) wraps firecast's
functions by name, so renaming one breaks `perfbench/run.py --trace 1`.
This runs the tracer on a tiny sequence build and train so that such a
rename fails here first."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from firecast.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

CONFIG = """
[run]
task = sequence
out = {out}

[sampler]
tile_size = 16
rng_seed = 0

[model]
arch = ae_lstm
filter_scheme = 4, 8

[train]
epochs = 1
batch_size = 16

[synth]
grid = 48, 48
days = 35
rng_seed = 0
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sequence_build_and_train(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "run"))
    assert main(["synth", "--config", str(cfg)]) == EXIT_OK
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    traces = []
    for verb in ("build-dataset", "train"):
        spans = tmp_path / f"{verb}.json"
        done = subprocess.run(
            [sys.executable, str(TRACER), str(spans), verb, "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        traces.append((verb, json.loads(spans.read_text()), 0.0))

    layers = _load_tracer().per_layer(traces)
    for name in ("sampler.find_fire_clusters_s", "sampler.clusters",
                 "sampler.extract_positive_tiles_s", "sampler.sample_negative_tiles_s",
                 "sampler.aggregate_masks_s", "sampler.write_dataset_s",
                 "sampler.read_dataset_s", "nn.conv2d.bwd_s", "nn.conv_lstm_step.calls",
                 "models.enc0.fwd_s", "models.lstm.fwd_s", "models.head.fwd_s",
                 "training.weighted_bce.bwd_s", "training.steps", "training.validation_s",
                 "nn.save_checkpoint_s"):
        assert layers[name] > 0, name
