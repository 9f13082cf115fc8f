"""In-process call tracer for the benchmark's traced runs.

The tracer replaces every module and class binding of a traced
function with a wrapper and puts the original back on ``uninstall``.
Each wrapped call pushes a frame; on return its duration is added to
the parent frame's child time, so a function's self time is its
duration minus the part its traced callees cover.  Hot operations
(ball arithmetic, primality, interval evaluation) keep only aggregate
counters; entry points also record a span (name, start, end, parent
span) in memory, written out when the run ends.

Nothing under ``src/`` knows about the tracer: it wraps the public and
kernel functions from outside, in the benchmark process only.
"""

from __future__ import annotations

import sys
from time import perf_counter

from mpmath import mp

# Traced heightlab names.  A name is "module.function",
# "module.Class.method", or "module.Class" with a method list, whose
# calls are counted together as the class's ball operations.
SPANS = (
    "cmlab.cm_record",
    "cmlab.j_height",
    "cmlab.faltings_height_cm",
    "cmlab.theta_height_estimate",
    "cmlab.reduced_forms",
    "cmlab.records_to_csv",
    "cmlab.hilbert_class_poly",
    "cmlab._j_at",
    "heights.mahler_height",
    "numcore.poly_roots",
    "numcore._dk_roots",
    "radicals.projective_northcott_experiment",
    "radicals._census_atoms",
    "radicals.lemma_chain_check",
    "towers.build_tower",
    "towers.certify_level",
)
COUNTERS = (
    "numcore._ulp_slop",
    "numcore.is_prime",
    "numcore.factorint",
    "numcore.smith_normal_form",
    "heights.LogCombination.__init__",
    "heights.LogCombination.interval",
    "heights.LogCombination.sign",
    "radicals.compositum_degree",
    "radicals._interval_value",
    "radicals.weighted_projective_height",
    "radicals._height_below",
    "towers._interval_sign_weighted",
    "towers._interval_sign_vs_bound",
    "cmlab._eisenstein_e4",
    "cmlab._eta_product",
    "cmlab._theta_nulls",
)
BALL_OPS = {
    "cmlab.CDisc": ("__add__", "__neg__", "__mul__", "__truediv__", "exp", "abs_bounds", "log_abs"),
    "numcore.BigFloat": (
        "__add__", "__neg__", "__mul__", "__truediv__", "abs_bounds", "log_abs", "sqrt_pos",
    ),
}
# Precision-escalation loops: each pass calls the kernel once, so the
# passes beyond the first are direct kernel calls minus one.
KERNELS = {
    "heights.LogCombination.sign": "heights.LogCombination.interval",
    "radicals._height_below": "heights.LogCombination.interval",
    "towers._interval_sign_weighted": "heights.LogCombination.interval",
    "towers._interval_sign_vs_bound": "heights.LogCombination.interval",
    "cmlab.hilbert_class_poly": "cmlab._j_at",
}
# Largest working precision seen per call, from the call's arguments.
OBSERVED = {
    "heights.LogCombination.interval": lambda args: args[1],
    "cmlab._j_at": lambda args: mp.dps,
}


class Tracer:
    """Frames, counters and spans of one traced run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.kernel_calls: dict[str, list[int]] = {}
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False):
        """A traced stand-in for ``fn``, counted under ``name``."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        kernel = KERNELS.get(name)
        if kernel is not None:
            self.kernel_calls.setdefault(name, [])
        observe = OBSERVED.get(name)
        calls, self_s, maxima = self.calls, self.self_s, self.maxima
        kernel_calls, spans, stack = self.kernel_calls, self.spans, self._stack

        def traced(*args, **kwargs):
            if observe is not None:
                v = observe(args)
                if v > maxima.get(name, 0):
                    maxima[name] = v
            parent = stack[-1] if stack else None
            # frame: name, child seconds, direct kernel calls, span index, kernel
            frame = [name, 0.0, 0, -1, kernel]
            if span:
                frame[3] = len(spans)
                spans.append([name, 0.0, 0.0, self._open_span()])
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    if parent[4] == name:
                        parent[2] += 1
                if kernel is not None:
                    kernel_calls[name].append(frame[2])
                if span:
                    spans[frame[3]][1] = t0
                    spans[frame[3]][2] = t0 + dt

        traced.__wrapped__ = fn
        return traced

    def _open_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, owners, orig, new) -> None:
        """Point every binding of ``orig`` in the owners at ``new``."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    self._replace(owner, attr, new)

    def install(self, package: str = "heightlab") -> None:
        """Trace every name in SPANS, COUNTERS and BALL_OPS."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]

        def owner(path: str):
            mod, *rest = path.split(".")
            obj = sys.modules[f"{package}.{mod}"]
            for part in rest[:-1]:
                obj = getattr(obj, part)
            return obj, rest[-1]

        for name in SPANS + COUNTERS:
            obj, attr = owner(name)
            orig = obj.__dict__[attr]
            owners = [obj] if isinstance(obj, type) else modules
            self._rebind(owners, orig, self.wrap(name, orig, span=name in SPANS))
        for name, methods in BALL_OPS.items():
            cls, _ = owner(name + ".method")
            for meth in methods:
                orig = cls.__dict__[meth]
                self._rebind([cls], orig, self.wrap(name, orig))
        self._observe_dk_precision(sys.modules[f"{package}.numcore"])

    def _observe_dk_precision(self, numcore) -> None:
        """Record the working precision ``_dk_roots`` escalates to: its
        ``workdps`` blocks open while its own frame is innermost."""
        orig = numcore.workdps
        stack, maxima = self._stack, self.maxima

        def workdps(n, *args, **kwargs):
            if stack and stack[-1][0] == "numcore._dk_roots" and n > maxima.get("numcore._dk_roots", 0):
                maxima["numcore._dk_roots"] = n
            return orig(n, *args, **kwargs)

        self._replace(numcore, "workdps", workdps)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def escalations(self, name: str) -> int:
        return sum(max(0, n - 1) for n in self.kernel_calls.get(name, ()))

    def layer_metrics(self, class_number_total: int) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (all but the
        tracing overhead, which needs the untraced run as well)."""
        c, s, mx = self.calls, self.self_s, self.maxima
        out: dict[str, float] = {}
        for name in (
            "numcore._ulp_slop", "numcore.is_prime", "numcore.factorint",
            "numcore.smith_normal_form", "numcore._dk_roots", "radicals._interval_value",
            "radicals._census_atoms", "radicals.weighted_projective_height",
            "heights.LogCombination.interval", "cmlab._eisenstein_e4",
            "cmlab._eta_product", "cmlab._theta_nulls", "cmlab._j_at",
        ):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
        for name in ("cmlab.CDisc", "numcore.BigFloat"):
            out[f"{name}.ops"] = c[name]
            out[f"{name}.self_s"] = s[name]
        for name in (
            "heights.mahler_height", "towers.build_tower", "radicals.compositum_degree",
            "radicals.lemma_chain_check", "towers.certify_level", "cmlab.j_height",
            "cmlab.faltings_height_cm", "cmlab.theta_height_estimate",
            "cmlab.reduced_forms", "cmlab.records_to_csv",
        ):
            out[f"{name}.self_s"] = s[name]
        for name in (
            "heights.LogCombination.sign", "radicals._height_below",
            "towers._interval_sign_weighted", "towers._interval_sign_vs_bound",
        ):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.escalations"] = self.escalations(name)
        out["numcore._dk_roots.max_digits"] = mx.get("numcore._dk_roots", 0)
        out["heights.LogCombination.interval.max_dps"] = mx.get("heights.LogCombination.interval", 0)
        out["cmlab._j_at.max_dps"] = mx.get("cmlab._j_at", 0)
        out["heights.LogCombination.new"] = c["heights.LogCombination.__init__"]
        j_in_hcp = sum(self.kernel_calls.get("cmlab.hilbert_class_poly", ()))
        out["cmlab.hilbert_class_poly.rounds"] = (
            j_in_hcp / class_number_total if class_number_total else 0
        )
        return out

    def dump(self) -> dict:
        """Everything recorded, as plain data."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "maxima": self.maxima,
            "escalations": {k: self.escalations(k) for k in self.kernel_calls},
            "spans": self.spans,
        }
