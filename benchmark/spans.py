"""Span recorder that wraps the program's layer boundaries from outside.

The program looks its collaborators up as module globals at call time
(``harness.simulate_imu_stream``, ``_kernels.eh2_step_kernel``, ...), so a
wrapper installed in every ``eh2marg`` module namespace that holds the
original object sees every call.  Nothing under ``src/`` is edited.  Spans
(name, start, end, parent) stay in memory until the run ends.
"""

import sys
from time import perf_counter_ns

import numpy as np

#: Layer boundaries that are wrapped in a traced run: (module, attribute).
#: An attribute written ``Class.method`` wraps a method or classmethod.
TARGETS = (
    ("eh2marg.cli", "main"),
    ("eh2marg.harness", "run_experiment"),
    ("eh2marg.harness", "generate_trajectory"),
    ("eh2marg.harness", "compute_metrics"),
    ("eh2marg.harness", "_write_trial_csv"),
    ("eh2marg.sensors", "simulate_imu_stream"),
    ("eh2marg.sensors", "ImuStream.sample"),
    ("eh2marg.kinematics", "dcm_batch"),
    ("eh2marg.linearization", "nominal_model"),
    ("eh2marg.synthesis", "synthesize_gain"),
    ("eh2marg.synthesis", "verify_lmi"),
    ("eh2marg.synthesis", "solve_care"),
    ("eh2marg.synthesis", "solve_lyapunov"),
    ("eh2marg.filters", "eh2_step"),
    ("eh2marg.filters", "ekf_step"),
    ("eh2marg.filters", "initialize_from_first_sample"),
    ("eh2marg.dynamics", "EulerState.from_vector"),
    ("eh2marg._kernels", "eh2_step_kernel"),
    ("eh2marg._kernels", "ekf_step_kernel"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('eh2marg.').lstrip('_')}.{attr}"


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = np.zeros(0, dtype=np.int64)
        self.end = np.zeros(0, dtype=np.int64)
        self.parent = np.zeros(0, dtype=np.int64)
        self.found: dict[str, bool] = {}
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                rec[1] = t0
                stack.pop()

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else owner.__dict__.get(leaf)
            self.found[name] = raw is not None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(owner, leaf, classmethod(self._wrap(name, raw.__func__)))
            elif owner_name:
                self._set(owner, leaf, self._wrap(name, raw))
            else:
                wrapped = self._wrap(name, raw)
                # Rebind every module-level alias made by ``from x import f``.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "eh2marg" and leaf in vars(mod):
                        if vars(mod)[leaf] is raw:
                            self._set(mod, leaf, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        spans = self._spans
        self.names = [s[0] for s in spans]
        self.start = np.array([s[1] for s in spans], dtype=np.int64)
        self.end = np.array([s[2] for s in spans], dtype=np.int64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)

    def layer_stats(self, reps: int) -> dict[str, dict[str, float]]:
        """Per span name, per repetition: calls, total and self seconds, p50.

        ``wrapper_us_p50`` is the median of each call's duration minus its
        ``kernels`` children, for spans that have any.
        """
        names = np.array(self.names, dtype=object)
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child_sum = np.zeros_like(dur)
        np.add.at(child_sum, self.parent[has_parent], dur[has_parent])
        kernel_child = np.zeros_like(dur)
        is_kernel = np.array([n.startswith("kernels.") for n in self.names], dtype=bool)
        sel = has_parent & is_kernel
        np.add.at(kernel_child, self.parent[sel], dur[sel])
        out: dict[str, dict[str, float]] = {}
        for name in sorted(set(self.names)):
            idx = names == name
            d = dur[idx]
            row = {
                "calls": len(d) // reps,
                "s": float(d.sum()) * 1e-9 / reps,
                "self_s": float((d - child_sum[idx]).sum()) * 1e-9 / reps,
                "us_p50": float(np.median(d)) * 1e-3,
            }
            k = kernel_child[idx]
            if k.any():
                row["wrapper_us_p50"] = float(np.median(d - k)) * 1e-3
            out[name] = row
        return out
