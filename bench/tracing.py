"""Span tracing around ebmkit's public functions, from outside the package.

``Tracer.install`` replaces every public module-level function of the
traced modules (plus the two per-epoch telemetry helpers that
``trainer.train`` calls) with a wrapper that records a span: name, start,
end and parent. Calls inside ebmkit go through module attributes, so
nested calls are caught too; nothing under ``src/`` is edited.

Spans stay in memory in flat arrays and are written out once, at the
end. ``per_layer`` turns them into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("autodiff", "nn", "energy", "sampler", "losses", "metrics", "attacks",
           "data", "trainer", "cli")
TELEMETRY = ("_accuracy", "_mean_egm")          # trainer's per-epoch probes
NOT_PRIMITIVES = {"record", "backward", "grad_l2norm_of_grad"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._originals: list = []
        self.counters: dict[str, float] = {}
        self.tape_steps: dict[str, list] = {}     # mode -> [(nodes, bytes)]
        self.chains = [0, 0]                      # training chains run, survived

    # -- recording -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def call(self, nid: int, fn, args, kwargs):
        idx = self._open(nid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def traced(self, name: str, fn, *args):
        """Run ``fn`` as a root span (one benchmark operation) with every
        wrapper installed; the checks that follow run untraced."""
        self.install()
        try:
            return self.call(self._intern(name), fn, args, {})
        finally:
            self.uninstall()

    def _wrapper(self, label: str, fn, after=None):
        nid = self._intern(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(nid, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        import importlib
        for short in MODULES:
            module = importlib.import_module(f"ebmkit.{short}")
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (short == "trainer" and attr in TELEMETRY):
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._special(short, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _special(self, short: str, attr: str, fn):
        label = f"{short}.{attr}"
        if label == "autodiff.backward":
            plain = self._intern("autodiff.backward")
            graph = self._intern("autodiff.backward_graph")

            @functools.wraps(fn)
            def backward(tape, output, wrt, create_graph=False):
                return self.call(graph if create_graph else plain, fn,
                                 (tape, output, wrt, create_graph), {})
            return backward
        if label == "losses.loss_graph":
            return self._wrapper(label, fn, self._after_loss_graph)
        if label == "sampler.sgld_chain":
            return self._wrapper(label, fn, self._after_sgld_chain)
        if label == "attacks.pgd":
            return self._wrapper(label, fn, self._after_pgd)
        return self._wrapper(label, fn)

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after_loss_graph(self, args, kwargs, graph):
        mode = args[0].mode.value
        nodes = graph.tape.nodes
        held = sum(node.value.nbytes for node in nodes)
        self.tape_steps.setdefault(mode, []).append((len(nodes), held))

    def _after_sgld_chain(self, args, kwargs, result):
        x0, config = args[2], args[3]
        self._count("sampler.chain_steps", x0.shape[0] * config.n_steps)
        loss_graph = self._ids["losses.loss_graph"]
        if any(self.name[i] == loss_graph for i in self._stack[1:]):
            self.chains[0] += x0.shape[0]
            self.chains[1] += int((~result.report.diverged_mask).sum())

    def _after_pgd(self, args, kwargs, x_hat):
        x, config = args[2], args[4]
        if config.epsilon > 0:
            self._count("attacks.pgd.ex_steps", x.shape[0] * config.n_steps)

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        return name, parent, dur, dur - child

    def save(self, path) -> None:
        np.savez(str(path), names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start, np.float64),
                 end=np.frombuffer(self.end, np.float64))


def per_layer(tracer: Tracer, memory_mb: dict, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced round."""
    from ebmkit import autodiff
    name, parent, dur, self_t = tracer.arrays()
    ids = tracer._ids

    def total(label, which):
        # inclusive sums are safe: none of the timed functions calls itself
        nid = ids.get(label)
        if nid is None:
            return 0.0
        mask = name == nid
        return float((dur if which == "s" else self_t)[mask].sum())

    def calls(label):
        nid = ids.get(label)
        return int((name == nid).sum()) if nid is not None else 0

    primitives = [f"autodiff.{op}" for op in autodiff.__all__
                  if inspect.isfunction(getattr(autodiff, op, None)) and op not in NOT_PRIMITIVES]
    out = {"autodiff.ops.calls": (sum(calls(p) for p in primitives), "count")}
    for mode in ("ce", "ngebm", "jem"):
        steps = tracer.tape_steps.get(mode, [])
        nodes = float(np.mean([s[0] for s in steps])) if steps else 0.0
        held = float(np.mean([s[1] for s in steps])) / 1e6 if steps else 0.0
        out[f"autodiff.tape_nodes_per_step.{mode}"] = (nodes, "count")
        out[f"autodiff.tape_mb_per_step.{mode}"] = (held, "MB")
    timed = [
        ("autodiff.backward", "self_s"), ("autodiff.backward_graph", "self_s"),
        ("nn.forward", "self_s"), ("losses.loss_graph", "self_s"),
        ("autodiff.conv2d", "s"), ("autodiff.take", "self_s"),
        ("autodiff.scatter_add", "self_s"), ("autodiff.matmul", "self_s"),
        ("sampler.sgld_chain", "s"), ("sampler.buffer_draw", "s"),
        ("sampler.buffer_push", "s"), ("energy.energy_grad_input", "s"),
        ("nn.adam_step", "self_s"), ("trainer.evaluate", "s"), ("metrics.auroc", "s"),
        ("metrics.score_dataset", "self_s"), ("metrics.ece", "s"), ("attacks.pgd", "s"),
        ("data.read_cifar_binary", "s"), ("trainer.checkpoint_save", "s"),
        ("trainer.checkpoint_load", "s"),
    ]
    for label, which in timed:
        out[f"{label}.{which}"] = (total(label, which), "s")
    out["trainer.epoch_telemetry.s"] = (total("trainer._accuracy", "s")
                                        + total("trainer._mean_egm", "s"), "s")
    out["sampler.chain_steps"] = (tracer.counters.get("sampler.chain_steps", 0), "count")
    run, survived = tracer.chains
    out["sampler.chains_survived_ratio"] = (survived / run if run else 0.0, "ratio")
    out["attacks.pgd.ex_steps"] = (tracer.counters.get("attacks.pgd.ex_steps", 0), "count")
    out["data.read_cifar_binary.calls"] = (calls("data.read_cifar_binary"), "count")
    for command, mb in memory_mb.items():
        out[f"mem.{command}.peak_mb"] = (mb, "MB")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def layer_shares(tracer: Tracer) -> dict:
    """For each root span (one phase), the share of its wall time that each
    module spends in self time; ``bench`` is time outside any ebmkit call."""
    name, parent, dur, self_t = tracer.arrays()
    root = np.empty(len(name), dtype=np.int64)
    for i in range(len(name)):
        root[i] = i if parent[i] < 0 else root[parent[i]]
    layer_of = np.array(["bench" if n.startswith("phase.") else n.split(".")[0]
                         for n in tracer.names])
    phase_of = np.array([n.split(".", 1)[1] if n.startswith("phase.") else "" for n in tracer.names])
    shares: dict = {}
    for r in np.nonzero(parent < 0)[0]:
        phase = phase_of[name[r]]
        members = root == r
        entry = shares.setdefault(phase, {"wall_s": 0.0, "self_s": {}})
        entry["wall_s"] += float(dur[r])
        for layer in np.unique(layer_of[name[members]]):
            mask = members & (layer_of[name] == layer)
            entry["self_s"][layer] = entry["self_s"].get(layer, 0.0) + float(self_t[mask].sum())
    for entry in shares.values():
        entry["share"] = {k: v / entry["wall_s"] for k, v in sorted(entry["self_s"].items())}
        del entry["self_s"]
    return shares


def to_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
