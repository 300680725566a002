"""Span tracing of diagprod from outside the package.

``Tracer.install`` replaces each binding of the functions listed in ``LAYERS``
that one diagprod module imports from another, and the package re-exports the
benchmark calls, with a wrapper.  Calls inside the defining module stay
unwrapped (``_invert_theta`` evaluating ``theta_of_alpha`` is inversion work),
except for the names in ``SELF_BINDINGS``.  The wrappers record one span per
call: layer, start, end, parent span and op id.  A call into the layer of the
innermost open span is part of that span and is not counted again.

Spans stay in memory; aggregates cover every span, and the first
``MAX_SPANS`` records are kept to be written when the run ends.  Only the
traced run installs the wrappers.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


# layer -> (functions as "module.name", work amount recorded per call)
LAYERS = {
    "matrices.haar_batch": (
        ["matrices._haar_unitary_batch", "matrices._haar_special_unitary_batch",
         "matrices._haar_special_orthogonal_batch"],
        ("matrices", lambda args, out: int(args[2])),
    ),
    "matrices.haar_single": (["matrices.haar_special_unitary"], None),
    "matrices.diag_product": (["matrices.diag_product"], None),
    "matrices.unitarity_check": (["matrices.is_special_unitary"], None),
    "boundary.invert_vector": (
        ["boundary._radius_many"],
        ("points", lambda args, out: _size(args[1])),
    ),
    "boundary.invert_scalar": (["boundary.alpha_of_theta", "boundary.radius_of_theta"], None),
    "boundary.curve_eval": (
        ["boundary.gamma", "boundary.theta_of_alpha", "boundary.big_gamma",
         "boundary.jacobian_big_gamma"],
        ("points", lambda args, out: _size(*args[1:])),
    ),
    "region.polar_batch": (
        ["region._classify_su_many"],
        ("points", lambda args, out: _size(args[1])),
    ),
    "region.winding_batch": (
        ["region._winding_codes_many"],
        ("points", lambda args, out: _size(args[1])),
    ),
    "region.polar_scalar": (["region.su_region_contains"], None),
    "region.winding_scalar": (["region.su_region_contains_winding"], None),
    "constructors.homotopy_product": (
        ["constructors.homotopy_diag_product"],
        ("points", lambda args, out: _size(args[1], args[2])),
    ),
    "constructors.recognize": (["constructors.recognize_extremal"], None),
    "constructors.build": (
        ["constructors.build_extremal", "constructors.build_homotopy_matrix",
         "constructors.build_u_z", "constructors.build_u_theta"],
        None,
    ),
    "verify.monte_carlo": (["verify.monte_carlo_containment"], None),
    "verify.disk_so": (["verify.verify_unit_disk", "verify.verify_so_interval"], None),
    "verify.preimage": (["verify.preimage"], None),
    "verify.constrained_max": (["verify.constrained_max_numeric"], None),
    "cli.command": (["cli.main"], None),
    "cli.render": (["cli.OutputRecord.render"], ("bytes", lambda args, out: len(out))),
    "cli.emit": (["cli._emit"], ("bytes", lambda args, out: len(args[0]))),
}

MAX_SPANS = 50_000

# wrapped in the defining module too: the benchmark calls these through it,
# or (``_emit``) the CLI reaches its file write only from inside the module
SELF_BINDINGS = {"region._classify_su_many", "region._winding_codes_many", "cli.main", "cli._emit"}


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        count = len(self.names)
        self.active = False
        self.stack: list[list] = []  # open spans: [layer, start, child time, id]
        self.calls = [0] * count
        self.amount = [0] * count
        self.self_s = [0.0] * count
        self.errors = [Counter() for _ in range(count)]
        self.inclusive = defaultdict(float)  # (layer, op kind) -> seconds
        self.kind_calls = Counter()  # (layer, op kind) -> calls
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = -1
        self.op_kind = ""

    def begin_op(self, kind: str) -> None:
        self.op_id += 1
        self.op_kind = kind

    def _close(self, frame, end: float, amount: int) -> None:
        self.stack.pop()
        layer, start, child, span_id = frame
        duration = end - start
        self.calls[layer] += 1
        self.amount[layer] += amount
        self.self_s[layer] += duration - child
        self.inclusive[layer, self.op_kind] += duration
        self.kind_calls[layer, self.op_kind] += 1
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, layer, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def _wrap(self, layer: int, fn, amount):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            frame = [layer, 0.0, 0.0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(frame, perf_counter(), 0)
                tracer.errors[layer][type(exc).__name__] += 1
                raise
            end = perf_counter()
            tracer._close(frame, end, amount(args, out) if amount else 0)
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding of the LAYERS functions in the loaded diagprod."""
        modules = [m for name, m in sys.modules.items()
                   if name == "diagprod" or name.startswith("diagprod.")]
        for layer, (targets, amount) in enumerate(LAYERS.values()):
            amount_fn = amount[1] if amount else None
            for target in targets:
                module_name, _, attr = target.partition(".")
                owner = sys.modules[f"diagprod.{module_name}"]
                if "." in attr:  # a method: patch the class attribute
                    cls_name, _, attr = attr.partition(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, self._wrap(layer, getattr(cls, attr), amount_fn))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, amount_fn)
                for module in modules:
                    if module is owner and target not in SELF_BINDINGS:
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer calls, self seconds and work amounts per workload cycle,
        by metric name."""
        out = {}
        for i, (name, (_, amount)) in enumerate(zip(self.names, LAYERS.values())):
            out[f"{name}.calls"] = (self.calls[i] / cycles, "count/cycle")
            out[f"{name}.self_s"] = (self.self_s[i] / cycles, "s/cycle")
            if amount:
                unit = "bytes/cycle" if amount[0] == "bytes" else "count/cycle"
                out[f"{name}.{amount[0]}"] = (self.amount[i] / cycles, unit)
        return out

    def errors_of(self, layer: str, exc_name: str) -> int:
        return self.errors[self.names.index(layer)][exc_name]

    def calls_of(self, layer: str) -> int:
        return self.calls[self.names.index(layer)]

    def by_kind(self, layer: str, kind_prefix: str) -> tuple[float, int]:
        """Inclusive seconds and calls of a layer inside ops of one kind."""
        i = self.names.index(layer)
        seconds = sum(v for (j, k), v in self.inclusive.items()
                      if j == i and k.startswith(kind_prefix))
        calls = sum(v for (j, k), v in self.kind_calls.items()
                    if j == i and k.startswith(kind_prefix))
        return seconds, calls

    def span_records(self) -> list[dict]:
        return [
            {"id": s[0], "name": self.names[s[1]], "start": s[2], "end": s[3],
             "parent": s[4], "op": s[5]}
            for s in self.spans
        ]
