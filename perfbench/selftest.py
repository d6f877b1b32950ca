"""Fast self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists the workloads and metrics run.py reports,
runs a tiny size of each workload once through synth, the four pipeline
verbs and every output check, and one round and traced pass of the
sequence workload through the per-layer summary. It then damages copies
of the outputs and shows that the checks catch each fault: one label byte
flipped in a WFDS file, a changed `auc` in metrics.csv, and a checkpoint
trained with every gradient zeroed. Exits 0 when all of this holds.
"""

import csv
import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

import run  # sets the BLAS pin before numpy loads

import numpy as np

import checks
import tracer
from workloads import WORKLOADS, config_text

TINY = {"days": 28, "max_maps": 4}
SEED = 0


def flip_label_byte(path: Path):
    """Change the first label byte of the first sample of a WFDS file."""
    data = bytearray(path.read_bytes())
    head, sample = checks._WFDS_HEADER.size, checks._WFDS_SAMPLE.size
    frames, channels, tile = checks._WFDS_SAMPLE.unpack_from(data, head)[6:]
    offset = head + sample + 4 * frames * channels * tile * tile
    data[offset] = 0 if data[offset] == 1 else 1
    path.write_bytes(bytes(data))


def change_auc(path: Path):
    rows = checks.read_csv(path)
    rows[0]["auc"] = repr(float(rows[0]["auc"]) + 1e-6)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def train_with_zero_gradients(wl, out: Path, scenes: Path):
    """Rerun the train verb in this process on the datasets in `out`, with
    every gradient zeroed before each Adam step; the checkpoint lands in
    `out`."""
    from firecast import cli, training

    cfg = out / "zero-gradients.cfg"
    cfg.write_text(config_text(wl, SEED, out, scenes))
    step = training.adam_step
    training.adam_step = lambda params, grads, state, tcfg: step(
        params, {k: np.zeros_like(g) for k, g in grads.items()}, state, tcfg)
    try:
        cli.main(["train", "--config", str(cfg)])
    finally:
        training.adam_step = step


def main() -> int:
    if not (run.SRC / "firecast" / "cli.py").is_file():
        print(f"error: firecast sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    results = []

    def expect(name, cond, detail=""):
        results.append(cond)
        print(f"{'PASS' if cond else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    def one_pass(wl, work):
        shutil.rmtree(work, ignore_errors=True)
        runner = run.Runner(wl, work, SEED, time.monotonic() + run.RUN_BUDGET_S)
        runs = [runner.verb(verb) for verb in ("synth",) + run.PIPELINE]
        return runner, runs

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {key: [(m["name"], m["unit"]) for m in bench[key]]
              for key in ("end_to_end", "per_layer")}
    expect("BENCHMARK.json lists the metrics run.py prints",
           listed == {"end_to_end": list(run.END_TO_END), "per_layer": list(tracer.PER_LAYER)}
           and [w["name"] for w in bench["workloads"]] == list(WORKLOADS))

    for name, full in WORKLOADS.items():
        wl = dataclasses.replace(full, **TINY)
        runner, runs = one_pass(wl, run.RUNS / "selftest" / name)
        failures, _ = checks.check_run(runner.out, runner.scenes, wl, SEED)
        verbs_ok = all(r.ok for r in runs)
        expect(f"{name} verbs and checks", verbs_ok and not failures,
               "; ".join(failures) or ("" if verbs_ok else f"verbs failed, see {runner.log}"))
        if failures or not verbs_ok:
            continue

        damaged = runner.work / "damaged"
        for fault, damage, word in (
                ("label byte flipped", lambda d: flip_label_byte(d / f"{wl.task}_train.wfds"),
                 "label"),
                ("auc changed", lambda d: change_auc(d / "metrics.csv"), "auc"),
                ("gradients zeroed",
                 lambda d: train_with_zero_gradients(wl, d, runner.scenes), "did not learn")):
            shutil.rmtree(damaged, ignore_errors=True)
            shutil.copytree(runner.out, damaged)
            damage(damaged)
            failures, _ = checks.check_run(damaged, runner.scenes, wl, SEED)
            expect(f"{name} catches {fault}", any(word in f for f in failures),
                   "; ".join(failures) or "no check failed")

    wl = dataclasses.replace(WORKLOADS["sequence-lstm"], **TINY)
    runner, runs = one_pass(wl, run.RUNS / "selftest" / "traced")
    runs += run.run_round(runner)
    traced, layers = run.traced_pass(runner, runs)
    watched = ("nn.conv_lstm_step.calls", "models.lstm.fwd_s", "nn.conv2d.bwd_gflop",
               "models.enc2.fwd_s")
    expect("traced pass", bool(all(r.ok for r in runs + traced) and layers
                               and all(layers[k] > 0 for k in watched[:3])
                               and layers["models.enc2.fwd_s"] == 0),
           ", ".join(f"{k}={layers.get(k, 0):.3g}" for k in watched))
    print(f"{sum(results)} of {len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
