"""Traced runs: one firecast CLI verb with spans around firecast's public
functions, recorded from outside the package.

    python3 perfbench/tracer.py SPANS.json VERB --config RUN.cfg

`install` replaces module attributes such as `firecast.nn.conv2d`,
`firecast.sampler.find_fire_clusters` and `firecast.metrics.roc_auc` with
timing wrappers. firecast looks these names up at call time, so calls made
inside the package (the gate convs of `conv_lstm_step`, the helpers
`training.train` calls) are caught too. An op's backward time comes from
wrapping the backward rule of the tensor it returns. Model layer names
(`enc0`, `lstm`, `dec1`, `head`, ...) come from the prefixes of
`Model.params`. Spans carry a name, start, end and parent; they stay in
memory and are written out when the verb returns.

`per_layer` turns the traces of one traced pass into the per-layer
metrics: `<span>_s` is the total time of a span, `<span>.self_s` that
time minus the time of its child spans, and counters are summed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("enc0", "enc1", "enc2", "lstm", "dec0", "dec1", "dec2", "head")
VERBS = ("synth", "build-dataset", "train", "eval", "predict")

# per-layer metrics and their units, in the order they are reported
PER_LAYER = (
    [("synth.gen_scenes_s", "s"), ("raster.write_stack_s", "s"),
     ("raster.read_stack_s", "s"), ("raster.compute_stats_s", "s"),
     ("raster.normalize_s", "s"),
     ("sampler.find_fire_clusters_s", "s"), ("sampler.fire_pixels", "count"),
     ("sampler.clusters", "count"), ("sampler.extract_positive_tiles_s", "s"),
     ("sampler.sample_negative_tiles_s", "s"), ("sampler.aggregate_masks_s", "s"),
     ("sampler.build_dataset.self_s", "s"), ("sampler.write_dataset_s", "s"),
     ("sampler.wfds_mb", "MB"), ("sampler.read_dataset_s", "s"),
     ("nn.conv2d.fwd_s", "s"), ("nn.conv2d.bwd_s", "s"), ("nn.conv2d.calls", "count"),
     ("nn.conv2d.fwd_gflop", "GFLOP-computed"), ("nn.conv2d.bwd_gflop", "GFLOP-computed"),
     ("nn.conv_lstm_step.fwd_s", "s"), ("nn.conv_lstm_step.calls", "count"),
     ("nn.max_pool2.fwd_s", "s"), ("nn.max_pool2.bwd_s", "s"),
     ("nn.upsample2.fwd_s", "s"), ("nn.upsample2.bwd_s", "s"),
     ("nn.concat_channels.fwd_s", "s"), ("nn.backward.self_s", "s"),
     ("nn.save_checkpoint_s", "s"), ("nn.load_checkpoint_s", "s")]
    + [(f"models.{layer}.fwd_s", "s") for layer in LAYERS]
    + [("training.collate_s", "s"), ("training.weighted_bce.fwd_s", "s"),
       ("training.weighted_bce.bwd_s", "s"), ("training.adam_step_s", "s"),
       ("training.steps", "count"), ("training.validation_s", "s"),
       ("metrics.predict_pixels_s", "s"), ("metrics.roc_auc_s", "s"),
       ("metrics.auc_pixels", "count"), ("metrics.summarize_s", "s"),
       ("metrics.write_probability_maps_s", "s"), ("metrics.maps_written", "count")]
    + [(f"cli.{verb}.self_s", "s") for verb in VERBS]
    + [("trace.pipeline_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
)

# nn ops whose forward and backward get spans; the ones not reported still
# need spans so that nn.backward.self_s holds only tape ordering and replay
_OPS = ("conv2d", "max_pool2", "upsample2", "concat_channels", "add", "mul",
        "relu", "sigmoid", "tanh", "slice_time", "tsum", "tmean")
# calls made by validation inside training.train
_VALIDATION = ("metrics.predict_pixels", "metrics.roc_auc")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = [-1]
        self.counts = defaultdict(float)
        self._param_names = {}  # id(parameter tensor) -> its Model.params name
        self._models = set()

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1]])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def timed(self, name, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr with a wrapper that records a span, then calls
        after(result, *args, **kwargs) outside the span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.timed(name, fn, *args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        setattr(owner, attr, traced)

    def wrap_backward(self, tensor, name, before=None):
        rule = tensor._backward
        if rule is None:
            return

        def traced(g):
            if before is not None:
                before()
            self.timed(name, rule, g)

        tensor._backward = traced

    def layer(self, tensor, suffix):
        """The model layer a module belongs to, given one of its parameters
        and that parameter's name inside the module; None when the module
        sits inside a layer rather than being one."""
        name = self._param_names.get(id(tensor), "")
        prefix = name[:-len(suffix)] if name.endswith(suffix) else ""
        return prefix if prefix and "." not in prefix else None

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def install(tracer: Tracer) -> None:
    """Wrap firecast's public functions; call before the verb runs."""
    from firecast import metrics, models, nn, raster, sampler, synth, training

    counts = tracer.counts

    def count(key, amount=1):
        counts[key] += amount

    for owner, names in ((synth, ("gen_scenes",)),
                         (raster, ("read_stack", "write_stack", "compute_stats",
                                   "normalize")),
                         (sampler, ("build_dataset", "assign_splits",
                                    "extract_positive_tiles", "sample_negative_tiles",
                                    "aggregate_masks", "split_subsets",
                                    "read_dataset")),
                         (nn, ("backward", "save_checkpoint", "load_checkpoint")),
                         (training, ("train",)),
                         (metrics, ("evaluate", "predict_pixels", "summarize",
                                    "write_eval_csv"))):
        for attr in names:
            tracer.wrap(owner, attr, f"{owner.__name__.split('.')[-1]}.{attr}")

    def clusters_after(out, mask, *args, **kwargs):
        count("sampler.fire_pixels", int((mask == 1).sum()))
        count("sampler.clusters", len(out))

    tracer.wrap(sampler, "find_fire_clusters", "sampler.find_fire_clusters", clusters_after)
    tracer.wrap(sampler, "write_dataset", "sampler.write_dataset",
                lambda out, samples, task, path: count("sampler.wfds_mb",
                                                       os.path.getsize(path) / 1e6))
    tracer.wrap(metrics, "roc_auc", "metrics.roc_auc",
                lambda out, scores, labels: count("metrics.auc_pixels", len(scores)))
    tracer.wrap(metrics, "write_probability_maps", "metrics.write_probability_maps",
                lambda out, *args, **kwargs: count("metrics.maps_written", len(out)))
    tracer.wrap(training, "_collate", "training.collate")
    tracer.wrap(training, "adam_step", "training.adam_step",
                lambda *args: count("training.steps"))
    tracer.wrap(training, "weighted_bce", "training.weighted_bce.fwd",
                lambda out, *args: tracer.wrap_backward(out, "training.weighted_bce.bwd"))

    for op in _OPS:
        if op != "conv2d":
            tracer.wrap(nn, op, f"nn.{op}.fwd",
                        lambda out, *args, _bwd=f"nn.{op}.bwd": tracer.wrap_backward(out, _bwd))

    def conv_after(out, x, kernel, bias, stride=1):
        n, f, ho, wo = out.shape
        gflop = 2e-9 * n * f * kernel.data[0].size * ho * wo
        count("nn.conv2d.calls")
        count("nn.conv2d.fwd_gflop", gflop)

        def count_backward():
            # the kernel gradient always; the input gradient only for inputs
            # on the tape, as conv2d's backward rule decides
            on_tape = x._backward is not None or x.requires_grad
            count("nn.conv2d.bwd_gflop", gflop * (2 if on_tape else 1))

        tracer.wrap_backward(out, "nn.conv2d.bwd", count_backward)

    tracer.wrap(nn, "conv2d", "nn.conv2d.fwd", conv_after)

    # model layers: a span per top-level block, the head conv and the LSTM
    forward = models.Model.forward

    def model_forward(model, x):
        if id(model) not in tracer._models:
            tracer._models.add(id(model))
            tracer._param_names.update((id(t), n) for n, t in model.params.items())
        return forward(model, x)

    models.Model.forward = model_forward

    def layer_span(cls, param_of, suffix):
        call = cls.__call__

        def traced(module, *args, **kwargs):
            layer = tracer.layer(param_of(module), suffix)
            if layer is None:
                return call(module, *args, **kwargs)
            return tracer.timed(f"models.{layer}.fwd", call, module, *args, **kwargs)

        cls.__call__ = traced

    layer_span(models.ResidualBlock, lambda b: b.conv1.kernel, ".conv1.w")
    layer_span(models.Conv, lambda c: c.kernel, ".w")

    step = nn.conv_lstm_step

    def conv_lstm_step(x, h, c, weights):
        # the LSTM layer's span, with the op's span inside it
        count("nn.conv_lstm_step.calls")
        layer = tracer.layer(weights.kernels["i"], ".wi")
        return tracer.timed(f"models.{layer}.fwd", tracer.timed,
                            "nn.conv_lstm_step.fwd", step, x, h, c, weights)

    nn.conv_lstm_step = conv_lstm_step


def per_layer(traces) -> dict[str, float]:
    """Per-layer metrics of one traced pass from (verb, trace, wall s) triples.

    The trace.* entries are left for the caller, which knows the untraced
    pipeline time.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(float)
    for verb, trace, wall in traces:
        spans = trace["spans"]
        children = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent in spans:
            total[name] += end - start
            if parent < 0:
                top += end - start
            else:
                children[parent] += end - start
                if name in _VALIDATION and spans[parent][0] == "training.train":
                    total["training.validation"] += end - start
        for (name, start, end, _), child in zip(spans, children):
            self_time[name] += end - start - child
        self_time[f"cli.{verb}"] += wall - top
        for key, value in trace["counts"].items():
            counts[key] += value
    out = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name.endswith(".self_s"):
            out[name] = self_time[name[:-len(".self_s")]]
        elif name.endswith("_s"):
            out[name] = total[name[:-len("_s")]]
        else:
            out[name] = counts[name]
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from firecast import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
