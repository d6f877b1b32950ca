"""Pipeline benchmark: the firecast CLI verbs run end to end, as a user runs them.

    python3 perfbench/run.py --workload daily-unet --seed 0 --seconds 45 --trace 0

Run from the repository root; firecast is imported from ./src. Every verb
is its own process, started after the previous one exits (a closed loop
with one caller), with BLAS pinned to one thread. A run:

1. set-up: runs `synth` three times;
2. rounds, at least one and then more while they fit in `--seconds`: each
   round runs `build-dataset`, `eval` and `predict` seven times, `train`
   twice and `synth` once more, interleaved with a reference process of
   fixed work (ROUND, reference.py);
3. checks the outputs (checks.py), and that every repeat of a verb wrote
   the same bytes.

`--seed` sets model init and training order; the data are the workload's
(workloads.py), so every repeat does the same work. Each verb's time is its
median over the run, scaled to the machine speed REFERENCE_S stands for.
With `--trace 1` the round is followed by one traced pass (synth and the
four verbs once each, under tracer.py), and the run reports the per-layer
metrics, unscaled, and the traced pipeline_s and its tracing overhead,
scaled, instead of the end-to-end metrics.

The last line of standard output is one JSON object: correct, attempted
and failed verb counts, and the metrics with their units.
"""

import os

# one BLAS thread for every verb and for the checks' forward passes; numpy
# reads these when it is first imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import EPOCHS, WORKLOADS, Workload, config_text  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

PIPELINE = ("build-dataset", "train", "eval", "predict")
SETUP_REPEATS = 3
# A verb process of about a second varies by a tenth to a fifth in time on
# a shared machine, and the machine's speed drifts by a fifth over minutes,
# moving every verb together. So a round repeats the verbs and interleaves
# them with a reference process (reference.py) of fixed work; each verb's
# median time is scaled by REFERENCE_S / the reference's median time.
CYCLE = ("eval", "predict", "reference", "build-dataset")
ROUND = (("reference", "build-dataset", "train") + CYCLE * 6
         + ("eval", "predict", "reference", "train", "synth"))
REFERENCE_S = 0.3  # a fixed unit: the README gives the reference's measured times
# the traced pass: synth and the four verbs once each, interleaved with the
# reference so that its times scale as the round's do
TRACED_ROUND = ("reference", "synth", "reference", "build-dataset", "reference", "train",
                "reference", "eval", "predict", "reference")
RUN_BUDGET_S = 170  # no round starts that would end later; a verb still
                    # running at this point is killed and counts as failed

END_TO_END = (
    ("setup_s", "s"), ("build_samples_per_s", "samples/s"),
    ("train_samples_per_s", "samples/s"), ("eval_pixels_per_s", "px/s"),
    ("predict_maps_per_s", "maps/s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
)


@dataclass
class VerbRun:
    verb: str
    wall_s: float
    rss_mb: float
    ok: bool
    digest: str = ""  # of the files the verb wrote


class Runner:
    """Runs verbs one after another into one work directory and counts
    attempts and failures."""

    def __init__(self, wl: Workload, work: Path, seed: int, deadline: float):
        self.wl = wl
        self.work = work
        self.out = work / "out"
        self.scenes = work / "scenes"
        self.cfg = work / "run.cfg"
        self.log = work / "verbs.log"
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WF_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        work.mkdir(parents=True, exist_ok=True)
        self.cfg.write_text(config_text(wl, seed, self.out, self.scenes))

    def verb(self, verb, spans: Path | None = None) -> VerbRun:
        """Run one firecast verb, or the reference process (not a verb, so
        not counted as attempted)."""
        if verb == "reference":
            cmd = [sys.executable, str(HERE / "reference.py")]
        elif spans is None:
            cmd = [sys.executable, "-m", "firecast.cli", verb, "--config", str(self.cfg)]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), verb,
                   "--config", str(self.cfg)]
        self.attempted += verb != "reference"
        with open(self.log, "a") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        self.failed += not ok and verb != "reference"
        return VerbRun(verb, wall, usage.ru_maxrss / 1024.0, ok,
                       self.digest(verb) if ok else "")

    def digest(self, verb) -> str:
        """Hash of what the verb writes, to compare repeats byte for byte."""
        task = self.wl.task
        files = {
            "reference": [],
            "synth": sorted(self.scenes.glob("*.wfrs")),
            "build-dataset": [self.out / f"{task}_{sp}.wfds" for sp in checks.SPLITS]
            + [self.out / "stats.json"],
            "train": [self.out / "checkpoint.wfck", self.out / "report.csv"],
            "eval": [self.out / "metrics.csv"],
            "predict": sorted((self.out / "maps").glob("*.pgm")),
        }[verb]
        h = hashlib.sha256()
        for path in files:
            h.update(path.name.encode())
            h.update(path.read_bytes() if path.exists() else b"missing")
        return h.hexdigest()


def run_round(runner: Runner, spans_dir: Path | None = None) -> list[VerbRun]:
    """The verbs of ROUND in order, or traced those of TRACED_ROUND."""
    if spans_dir is None:
        runs = [runner.verb(verb) for verb in ROUND]
    else:
        runs = [runner.verb(verb, spans_dir / f"{verb}.json") for verb in TRACED_ROUND]
    print(("traced: " if spans_dir else "") + ", ".join(
        f"{verb} {' '.join(f'{r.wall_s:.3f}' for r in runs if r.verb == verb)} s"
        for verb in ("reference", "synth") + PIPELINE if any(r.verb == verb for r in runs)))
    return runs


def median_wall(runs: list[VerbRun], verb: str) -> float:
    return statistics.median(r.wall_s for r in runs if r.verb == verb)


def scale_of(runs: list[VerbRun]) -> float:
    """The factor that scales these runs' times to the speed REFERENCE_S
    stands for."""
    return REFERENCE_S / median_wall(runs, "reference")


def end_to_end(runner: Runner, setup: list[VerbRun], runs: list[VerbRun]) -> dict:
    wl, out = runner.wl, runner.out
    n = {sp: checks.wfds_count(out / f"{wl.task}_{sp}.wfds") for sp in checks.SPLITS}
    (row,) = checks.read_csv(out / "metrics.csv")
    maps = len(list((out / "maps").glob("prob_*.pgm")))
    scale = scale_of(runs)
    wall = {verb: scale * median_wall(runs, verb) for verb in PIPELINE}
    print(f"reference {median_wall(runs, 'reference'):.3f} s median: times scaled "
          f"by {scale:.4f}")
    return {
        "setup_s": scale * median_wall(setup + runs, "synth"),
        "build_samples_per_s": sum(n.values()) / wall["build-dataset"],
        "train_samples_per_s": EPOCHS * n["train"] / wall["train"],
        "eval_pixels_per_s": int(row["n_valid"]) / wall["eval"],
        "predict_maps_per_s": maps / wall["predict"],
        "pipeline_s": sum(wall.values()),
        "peak_rss_mb": max(r.rss_mb for r in runs if r.verb in PIPELINE),
    }


def traced_pass(runner: Runner, untraced: list[VerbRun]) -> tuple[list[VerbRun], dict]:
    """synth and the four verbs once each under tracer.py; per-layer metrics.

    The tracing overhead is the traced pipeline_s minus the untraced one,
    both scaled by their own reference runs. It is one traced pass against
    the medians of several untraced ones, so the log prints next to it the
    untraced verbs' interquartile ranges: an overhead within their sum is
    within the noise of one pass.
    """
    spans_dir = runner.work / "spans"
    spans_dir.mkdir(exist_ok=True)
    runs = run_round(runner, spans_dir)
    if not all(r.ok for r in runs):
        return runs, {}
    layers = tracer.per_layer(
        (r.verb, json.loads((spans_dir / f"{r.verb}.json").read_text()), r.wall_s)
        for r in runs if r.verb != "reference")
    u_scale, t_scale = scale_of(untraced), scale_of(runs)
    base = u_scale * sum(median_wall(untraced, verb) for verb in PIPELINE)
    noise = 0.0
    for verb in PIPELINE:
        q1, _, q3 = statistics.quantiles([r.wall_s for r in untraced if r.verb == verb], n=4)
        noise += u_scale * (q3 - q1)
    layers["trace.pipeline_s"] = t_scale * sum(r.wall_s for r in runs if r.verb in PIPELINE)
    layers["trace.overhead_s"] = layers["trace.pipeline_s"] - base
    layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / base
    print(f"tracing overhead {layers['trace.overhead_s']:.3f} s on an untraced pipeline_s "
          f"of {base:.3f} s (scaled); the untraced verbs' interquartile ranges add up "
          f"to {noise:.3f} s")
    return runs, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run stops the verb it is waiting on (Runner.verb)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "firecast" / "cli.py").is_file():
        print(f"error: firecast sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t_start = time.monotonic()

    wl = WORKLOADS[args.workload]
    work = RUNS / wl.name
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(wl, work, args.seed, t_start + RUN_BUDGET_S)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, blas_threads {BLAS_THREADS} "
          f"(OPENBLAS/OMP/MKL_NUM_THREADS), python {platform.python_version()}, "
          f"numpy {numpy.__version__}")

    setup = [runner.verb("synth") for _ in range(SETUP_REPEATS)]
    print("setup: synth " + " ".join(f"{r.wall_s:.3f}" for r in setup) + " s")
    runs = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - t_start
        if runs and (elapsed + last > args.seconds or elapsed + last > RUN_BUDGET_S):
            break
        t0 = time.monotonic()
        runs += run_round(runner)
        last = time.monotonic() - t0
    traced, layers = traced_pass(runner, runs) if args.trace else ([], {})

    done = setup + runs + traced
    failures = []
    if not all(r.ok for r in done):
        failures.append(f"{runner.failed} of {runner.attempted} verbs failed, "
                        f"see {runner.log}")
    else:
        failures += [f"repeats of {verb} wrote different bytes" for verb in ("synth",) + PIPELINE
                     if len({r.digest for r in done if r.verb == verb}) > 1]
        check_failures, facts = checks.check_run(runner.out, runner.scenes, wl, args.seed)
        failures += check_failures
        (row,) = checks.read_csv(runner.out / "metrics.csv")
        print(f"test_auc {float(row['auc']):.4f} (not gated); generating-rule AUC "
              f"on the same pixels {facts.get('ceiling_auc') or float('nan'):.4f}")
        if facts.get("train_bce"):
            start, end, floor = facts["train_bce"]
            print(f"weighted BCE on the train split: initial model {start:.4f}, checkpoint "
                  f"{end:.4f}, best constant {floor:.4f} (gap closed "
                  f"{(start - end) / (start - floor):.3f})")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    ok = not failures
    if args.trace:
        values, units = layers, tracer.PER_LAYER
    else:
        values = end_to_end(runner, setup, runs) if ok else {}
        units = END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"verbs attempted {runner.attempted}, failed {runner.failed}, "
          f"checks passed {ok}, wall {time.monotonic() - t_start:.1f} s")
    print(json.dumps({"correct": ok, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
