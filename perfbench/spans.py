"""Spans recorded from outside the package, by wrapping its public functions.

Every public function of a layer module is replaced, in each corrkit module
that binds it, by a wrapper that records one span (name, start, end, parent
span, command id); public methods of the layer's classes are wrapped on the
class.  The wrappers are installed only for traced passes and removed after
them, so untraced passes run the unmodified package.  Spans stay in memory
and are written as JSON lines when the run ends.

A span's self time is its duration minus the durations of its direct
children; children never overlap, because the package runs on one thread.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "corrkit"
LAYERS = ("cli", "instance", "report", "dilation", "endo", "prodsys", "hilbmod", "algebra")

# The per-layer figures a traced run prints, whether or not the workload
# reaches the function (then they read 0).
NAMED = [f"{layer}.self_s" for layer in LAYERS] + [
    f"hilbmod.internal_tensor.{k}"
    for k in ("calls", "self_s", "repeat_calls", "pre_dim_sum", "kept_ratio")
] + [
    "hilbmod.tensor_pre_gram.self_s",
    "hilbmod.associator.calls", "hilbmod.associator.self_s", "hilbmod.associator.repeat_calls",
    "hilbmod.adjointable_basis.calls", "hilbmod.adjointable_basis.self_s",
    "hilbmod.adjointable_basis.repeat_calls",
    "hilbmod.amplify.calls", "hilbmod.amplify.self_s",
    "hilbmod.tensor_lift.calls", "hilbmod.tensor_lift.self_s",
    "hilbmod.validate_module.self_s",
    "prodsys.ProductSystem.init.self_s", "prodsys.ProductSystem.u.calls",
    "prodsys.ProductSystem.u.self_s", "prodsys.ProductSystem.assoc.calls",
    "prodsys.ProductSystem.coherence_report.self_s",
    "prodsys.find_central_unital_unit.self_s", "prodsys.check_unit.self_s",
    "endo.associated_correspondence.self_s", "endo.u_unitary.self_s",
    "endo.validate_endomorphism.self_s", "endo.find_intertwining_isometry.self_s",
    "endo.Endomorphism.apply.calls", "endo.Endomorphism.apply.self_s",
    "dilation.verify_main.self_s", "dilation.build_w.self_s",
    "dilation.build_action_stages.self_s", "dilation.left_limit.self_s",
    "dilation.weak_dilation_check.self_s", "dilation.compare_unit_limits.self_s",
    "dilation.spatiality_report.self_s",
    "instance.parse_instance.self_s", "instance.emit_instance.self_s",
    "instance.Instance.make_endo.calls", "instance.Instance.make_endo.self_s",
    "report.VerificationReport.add.calls", "report.VerificationReport.to_machine.self_s",
    "cli.main.calls",
    "trace.overhead_s",
]

# Functions whose calls are compared by operand identity within a command.
REPEAT_TRACKED = ("hilbmod.internal_tensor", "hilbmod.associator", "hilbmod.adjointable_basis")
_SCALARS = (int, float, complex, str, bool, type(None))


def _targets():
    """(owner, attribute, span name, original) for every wrapped callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((None, name, f"{layer}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not inspect.isfunction(fn):
                        continue
                    if attr == "__init__" and "__dataclass_fields__" not in vars(obj):
                        out.append((obj, attr, f"{layer}.{name}.init", fn))
                    elif not attr.startswith("_"):
                        out.append((obj, attr, f"{layer}.{name}.{attr}", fn))
    return out


def _operand_ids(args, kwargs) -> tuple:
    flat = []
    for value in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        items = value if isinstance(value, (tuple, list)) else (value,)
        flat.extend(id(x) for x in items if not isinstance(x, _SCALARS))
    return tuple(flat)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []   # [id, name, start_ns, end_ns, parent, command, extra]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.command = None
        self._seen: dict[str, set] = defaultdict(set)
        self._held: list = []
        self.repeats: list[int] = []  # span ids of repeated calls

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m is not None]
        for owner, attr, name, fn in _targets():
            wrapper = self._wrap(fn, name)
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                if vars(mod).get(attr) is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def begin_command(self, command_id) -> None:
        self.command = command_id
        self._seen.clear()
        self._held.clear()

    def end_command(self) -> None:
        self.command = None
        self._seen.clear()
        self._held.clear()

    def _wrap(self, fn, name):
        tracked = name in REPEAT_TRACKED
        tensor = name == "hilbmod.internal_tensor"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            if tracked:
                # holding the operands keeps their ids unique within the command
                self._held.append((args, kwargs))
                key = _operand_ids(args, kwargs)
                if key in self._seen[name]:
                    self.repeats.append(sid)
                self._seen[name].add(key)
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = [sid, name, start, end, parent, self.command, None]
            if tensor:
                self.spans[sid][6] = {"pre_dim": args[0].dim * args[1].dim,
                                      "kept_dim": result[0].dim}
            return result

        return wrapper

    # -- output -----------------------------------------------------------------

    def write_jsonl(self, path, origin_ns: int) -> None:
        repeats = set(self.repeats)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, command, extra in self.spans:
                rec = {"id": sid, "name": name, "start_s": (start - origin_ns) / 1e9,
                       "end_s": (end - origin_ns) / 1e9, "parent": parent,
                       "command": command, "repeat": sid in repeats}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")

    def metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer figures over the spans ``first..last-1`` (one pass)."""
        spans = self.spans[first:last]
        child_ns = defaultdict(int)
        for _, _, start, end, parent, _, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        layer_ns = defaultdict(int)
        pre_dim = kept_dim = 0
        for sid, name, start, end, _, _, extra in spans:
            own = end - start - child_ns[sid]
            calls[name] += 1
            self_ns[name] += own
            layer_ns[name.split(".", 1)[0]] += own
            if extra:
                pre_dim += extra["pre_dim"]
                kept_dim += extra["kept_dim"]
        repeats = defaultdict(int)
        for sid in self.repeats:
            if first <= sid < last:
                repeats[self.spans[sid][1]] += 1
        out = {f"{layer}.self_s": layer_ns[layer] / 1e9 for layer in LAYERS}
        for name in set(calls) | set(REPEAT_TRACKED):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name in REPEAT_TRACKED:
            out[f"{name}.repeat_calls"] = repeats[name]
        out["hilbmod.internal_tensor.pre_dim_sum"] = pre_dim
        out["hilbmod.internal_tensor.kept_ratio"] = kept_dim / pre_dim if pre_dim else 0.0
        return out
