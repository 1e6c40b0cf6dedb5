"""Span tracer for the traced benchmark run, and the layer table it fills.

The tracer wraps public ``mapnav`` functions from outside the package: each
one is replaced in every module namespace that binds it (``raycast`` lives in
``mapnav.worldsim.agent`` and is bound again in ``mapnav.worldsim`` and
``mapnav.train_eval.dataset``, for example). Autodiff ops are traced twice:
the op call is a forward span, and the backward closure it registers on the
tape is wrapped so the backward pass gets its own span, tagged with the model
block that was active when the closure was created. Spans stay in memory and
are written out once, after the run.

A layer's self time is its span minus its direct child spans. Model blocks
report inclusive time, because their work is the numerics ops inside them.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
from dataclasses import dataclass
from time import perf_counter

# Autodiff ops with their own per-layer metrics; every other public op in
# mapnav.numerics.ops is summed into numerics.other_ops.
HEAVY_OPS = ("conv2d", "matmul", "bilinear_resize")
NOT_OPS = ("glorot_uniform", "zeros_param", "ones_param")
MODEL_BLOCKS = ("instr", "enc_o", "attn_o", "g_o", "g_s", "enc_s", "attn_s", "f")

MODEL_FWD = ("train", "eval")
ROLLOUT = ("eval",)


@dataclass(frozen=True)
class Probe:
    """One traced function: span name, where it is defined, and the workloads
    whose traced run must call it. ``kind`` picks the wrapper: ``span``,
    ``block`` (spans ``model.<block>``, the block named by the ``prefix``
    argument, one of ``blocks``) or ``factory`` (the returned callable is
    traced instead)."""
    span: str
    module: str
    attr: str
    workloads: tuple
    kind: str = "span"
    blocks: tuple = ()


PROBES = (
    Probe("numerics.tape.backward", "mapnav.numerics.tensor", "Tensor.backward", ("train",)),
    Probe("numerics.adam", "mapnav.numerics.optim", "adam_step", ("train",)),
    Probe("model", "mapnav.language.encoder", "encode_instruction", MODEL_FWD, "block",
          ("instr",)),
    Probe("model", "mapnav.model.cm2", "apply_map_encoder", MODEL_FWD, "block",
          ("enc_o", "enc_s")),
    Probe("model", "mapnav.model.attention", "cross_modal_attend", MODEL_FWD, "block",
          ("attn_o", "attn_s")),
    Probe("model", "mapnav.model.unet", "apply_unet", MODEL_FWD, "block", ("g_o", "g_s", "f")),
    Probe("model.predict", "mapnav.train_eval.evaluate", "make_predictor", ("eval",), "factory"),
    Probe("controller.plan_local", "mapnav.controller", "plan_local", ROLLOUT),
    Probe("controller.decode", "mapnav.controller", "decode_waypoints", ROLLOUT),
    Probe("controller.select_goal", "mapnav.controller", "select_short_term_goal", ROLLOUT),
    Probe("worldsim.raycast", "mapnav.worldsim.agent", "raycast", ROLLOUT + ("gen-data",)),
    Probe("worldsim.step_agent", "mapnav.worldsim.agent", "step_agent", ROLLOUT),
    Probe("worldsim.generate_floorplan", "mapnav.worldsim.floorplan", "generate_floorplan",
          ("gen-data",)),
    Probe("worldsim.generate_episode", "mapnav.worldsim.episodes", "generate_episode",
          ("gen-data",)),
    Probe("mapping.ground_project", "mapnav.mapping", "ground_project",
          ROLLOUT + ("gen-data",)),
    Probe("mapping.update_global", "mapnav.mapping", "update_global", ROLLOUT + ("gen-data",)),
    Probe("mapping.crop", "mapnav.mapping", "crop_ego_occupancy", ("eval", "gen-data")),
    Probe("mapping.crop", "mapnav.mapping", "crop_ego_semantic", ("gen-data",)),
    Probe("language.generate_instruction", "mapnav.language.grammar", "generate_instruction",
          ("gen-data",)),
    Probe("language.tokenize", "mapnav.language.tokenizer", "tokenize", ("gen-data",)),
    Probe("train_eval.assemble_batch", "mapnav.train_eval.training", "assemble_batch",
          ("train",)),
    Probe("train_eval.episode_metrics", "mapnav.train_eval.metrics", "episode_metrics",
          ROLLOUT),
    Probe("train_eval.build_records", "mapnav.train_eval.dataset", "build_episode_records",
          ("gen-data",)),
    Probe("train_eval.save_records", "mapnav.train_eval.dataset", "save_records", ("gen-data",)),
    Probe("train_eval.load_records", "mapnav.train_eval.dataset", "load_records", ("gen-data",)),
)


def _root(obj):
    """The function under any stack of ``functools.wraps`` wrappers."""
    for _ in range(16):
        inner = getattr(obj, "__wrapped__", None)
        if inner is None:
            break
        obj = inner
    return obj


def import_all_mapnav():
    """Import every ``mapnav`` module, so that every binding can be patched."""
    import mapnav
    for info in pkgutil.walk_packages(mapnav.__path__, "mapnav."):
        importlib.import_module(info.name)


class Patches:
    """Replaces a function in every loaded ``mapnav`` module that binds it,
    and puts the originals back on :meth:`undo`."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, attr: str, make_wrapper) -> int:
        """Wrap ``module.attr`` (``Class.method`` for a method) everywhere it
        is bound; returns the number of bindings replaced."""
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            targets = [(getattr(owner, cls_name), attr)]
        else:
            fn = _root(getattr(owner, attr))
            targets = [(mod, key) for name, mod in list(sys.modules.items())
                       if mod is not None and (name == "mapnav" or name.startswith("mapnav."))
                       for key, value in list(vars(mod).items())
                       if callable(value) and _root(value) is fn]
        for target, key in targets:
            current = getattr(target, key)
            self._undo.append((target, key, current))
            setattr(target, key, make_wrapper(current))
        return len(targets)

    def undo(self):
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()


class Tracer:
    """Records spans ``[name, start, end, parent index, block tag]`` while
    :attr:`active`; counters hold what is not a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = collections.Counter()
        self.active = False
        self._stack: list[int] = []
        self._blocks: list[str] = []
        self.op_names: list[str] = []
        self._patches = Patches()

    # -- wrappers ---------------------------------------------------------
    def _open(self, name, tag=None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)
        return traced

    def block_wrapper(self, default_block, fn):
        tracer = self
        signature = inspect.signature(_root(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            prefix = signature.bind(*args, **kwargs).arguments.get("prefix")
            block = prefix.rstrip(".") if prefix else default_block
            tracer._blocks.append(block)
            rec = tracer._open("model." + block)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                tracer._blocks.pop()
        return traced

    def factory_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span_wrapper(name, fn(*args, **kwargs))
        return traced

    def make_op_wrapper(self, make_op):
        """Wraps each tape node's backward closure in a span named after the
        op that made it (the innermost open span), tagged with the active
        model block."""
        tracer = self

        @functools.wraps(make_op)
        def traced(data, parents, backward_factory):
            if not tracer.active:
                return make_op(data, parents, backward_factory)
            op = tracer.spans[tracer._stack[-1]][0] if tracer._stack else "numerics.untraced"
            block = tracer._blocks[-1] if tracer._blocks else None

            def factory(out):
                closure = backward_factory(out)
                tracer.counts["numerics.tape.nodes"] += 1

                def backward():
                    if not tracer.active:
                        return closure()
                    rec = tracer._open(op + ".bwd", block)
                    try:
                        return closure()
                    finally:
                        tracer._close(rec)
                return backward
            return make_op(data, parents, factory)
        return traced

    def conv_wrapper(self, fn):
        """conv2d span plus its flop and byte counts, computed from shapes."""
        traced_call = self.span_wrapper("numerics.conv2d", fn)
        tracer = self

        @functools.wraps(fn)
        def traced(x, w, b=None, *args, **kwargs):
            out = traced_call(x, w, b, *args, **kwargs)
            if tracer.active:
                co, ci, kh, kw = w.shape
                batch = x.shape[0] if x.ndim == 4 else 1
                flop = 2.0 * batch * co * out.shape[-2] * out.shape[-1] * ci * kh * kw
                moved = 8.0 * (x.size + w.size + out.size)
                if out.requires_grad:   # backward: dx and dw from the output grad
                    flop *= 3.0
                    moved += 8.0 * (out.size + 2 * x.size + 2 * w.size)
                tracer.counts["numerics.conv2d.flop"] += flop
                tracer.counts["numerics.conv2d.bytes"] += moved
            return out
        return traced

    def generate_episode_wrapper(self, fn):
        """Counts attempts and episodes made, for ``useful_frac``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.active:
                tracer.counts["worldsim.generate_episode.attempts"] += 1
            episode = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts["worldsim.generate_episode.made"] += 1
            return episode
        return traced

    def save_records_wrapper(self, fn):
        """Counts the bytes of every record file written."""
        tracer = self

        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if tracer.active:
                tracer.counts["train_eval.record_bytes"] += os.path.getsize(path)
            return result
        return traced

    # -- install ----------------------------------------------------------
    def install(self):
        """Wrap every autodiff op and every probe (inactive until
        :attr:`active` is set)."""
        import_all_mapnav()
        from mapnav.numerics import ops
        wrap = self._patches.wrap
        wrap("mapnav.numerics.tensor", "make_op", self.make_op_wrapper)
        for name, fn in vars(ops).items():
            if (not inspect.isfunction(fn) or fn.__module__ != ops.__name__
                    or name.startswith("_") or name in NOT_OPS):
                continue
            self.op_names.append(name)
            if name == "conv2d":
                wrap(ops.__name__, name, self.conv_wrapper)
            else:
                wrap(ops.__name__, name, functools.partial(self.span_wrapper, "numerics." + name))
        extra = {"generate_episode": self.generate_episode_wrapper,
                 "save_records": self.save_records_wrapper}
        for probe in PROBES:
            if probe.attr in extra:
                wrap(probe.module, probe.attr, extra[probe.attr])
            if probe.kind == "block":
                make = functools.partial(self.block_wrapper, probe.blocks[0])
            else:
                make = functools.partial({"span": self.span_wrapper,
                                          "factory": self.factory_wrapper}[probe.kind], probe.span)
            if wrap(probe.module, probe.attr, make) == 0:
                raise RuntimeError(f"{probe.module}.{probe.attr} is bound nowhere")

    def uninstall(self):
        self._patches.undo()
        self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Run code (an output check) without recording spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results ----------------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Span name -> calls, inclusive and self seconds. Backward spans are
        counted again under ``model.<block>.bwd``."""
        below = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                below[parent] += t1 - t0
        agg = collections.defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for (name, t0, t1, _, block), child in zip(self.spans, below):
            for key in ([name] if block is None else [name, f"model.{block}.bwd"]):
                a = agg[key]
                a["calls"] += 1
                a["incl"] += t1 - t0
                a["self"] += t1 - t0 - child
        return agg

    def uncalled(self, agg: dict, workload: str) -> list[str]:
        """Traced functions that the layer table maps to ``workload`` but
        that its traced run never called."""
        def calls(name):
            return agg[name]["calls"] if name in agg else 0

        missing = []
        for op in HEAVY_OPS:
            if workload in MODEL_FWD and not calls("numerics." + op):
                missing.append("numerics." + op)
        other = [op for op in self.op_names if op not in HEAVY_OPS]
        if workload in MODEL_FWD and not any(calls("numerics." + op) for op in other):
            missing.append("numerics.other_ops")
        for probe in PROBES:
            if workload not in probe.workloads:
                continue
            names = [f"model.{b}" for b in probe.blocks] or [probe.span]
            missing += [n for n in names if not calls(n)]
        return sorted(set(missing))

    def metrics(self, agg: dict, n_ops: int) -> dict[str, float]:
        """Per-layer metrics per workload op: self ms, calls and computed
        work."""
        counts = self.counts

        def get(name, field="self"):
            return agg[name][field] if name in agg else 0.0

        def ms(name, field="self"):
            return 1000.0 * get(name, field) / n_ops

        other = [op for op in self.op_names if op not in HEAVY_OPS]
        m = {}
        for op in HEAVY_OPS:
            m[f"numerics.{op}.fwd_ms"] = ms(f"numerics.{op}")
            m[f"numerics.{op}.bwd_ms"] = ms(f"numerics.{op}.bwd")
        m["numerics.conv2d.calls"] = get("numerics.conv2d", "calls") / n_ops
        m["numerics.conv2d.gflop"] = counts["numerics.conv2d.flop"] / 1e9 / n_ops
        m["numerics.conv2d.gbytes"] = counts["numerics.conv2d.bytes"] / 1e9 / n_ops
        m["numerics.matmul.calls"] = get("numerics.matmul", "calls") / n_ops
        m["numerics.other_ops.fwd_ms"] = sum(ms("numerics." + op) for op in other)
        m["numerics.other_ops.bwd_ms"] = sum(ms(f"numerics.{op}.bwd") for op in other)
        m["numerics.tape.nodes"] = counts["numerics.tape.nodes"] / n_ops
        m["numerics.tape.backward_self_ms"] = ms("numerics.tape.backward")
        m["numerics.adam.ms"] = ms("numerics.adam")
        for block in MODEL_BLOCKS:
            m[f"model.{block}.fwd_ms"] = ms(f"model.{block}", "incl")
            m[f"model.{block}.bwd_ms"] = ms(f"model.{block}.bwd", "incl")
        m["model.predict.ms"] = ms("model.predict", "incl")
        m["controller.plan_local.ms"] = ms("controller.plan_local")
        m["controller.plan_local.calls"] = get("controller.plan_local", "calls") / n_ops
        m["controller.decode.ms"] = ms("controller.decode")
        m["controller.select_goal.ms"] = ms("controller.select_goal")
        m["worldsim.raycast.ms"] = ms("worldsim.raycast")
        m["worldsim.raycast.calls"] = get("worldsim.raycast", "calls") / n_ops
        for name in ("step_agent", "generate_floorplan", "generate_episode"):
            m[f"worldsim.{name}.ms"] = ms(f"worldsim.{name}")
        attempts = counts["worldsim.generate_episode.attempts"]
        m["worldsim.generate_episode.useful_frac"] = (
            counts["worldsim.generate_episode.made"] / attempts if attempts else 0.0)
        for name in ("ground_project", "update_global", "crop"):
            m[f"mapping.{name}.ms"] = ms(f"mapping.{name}")
        for name in ("generate_instruction", "tokenize"):
            m[f"language.{name}.ms"] = ms(f"language.{name}")
        for name in ("assemble_batch", "episode_metrics", "build_records", "save_records",
                     "load_records"):
            m[f"train_eval.{name}.ms"] = ms(f"train_eval.{name}")
        m["train_eval.record_mb"] = counts["train_eval.record_bytes"] / 1e6 / n_ops
        return m

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
