"""Out-of-program span recorder for the traced benchmark run.

``Recorder.install`` replaces every public function of the sparsewalk
layers at every binding a caller can reach it through: the defining
module's attribute, names imported into other modules (``gibbs.apply_P``,
``spectral.g_level_crossings`` ...), the package re-exports, and entries of
module-level dicts.  Each call then records one span: name, start, end,
parent span, the exception it raised, and counts taken from its arguments
and return value.  Spans stay in memory until the run writes them out.

The wrappers exist only between ``install`` and ``uninstall``; an untraced
run never creates them, so tracing costs it nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

PACKAGE = "sparsewalk"
LAYERS = (
    "lattice",
    "resolvent",
    "potential",
    "birman_schwinger",
    "spectral",
    "gibbs",
    "acceptance",
    "cli",
)
#: modules whose bindings are rewritten; config belongs to the cli layer
BINDING_MODULES = ("", ".config") + tuple("." + m for m in LAYERS)

POTENTIAL_BUILDERS = (
    "potential.make_potential",
    "potential.zero_potential",
    "potential.single_delta",
    "potential.dense_level",
    "potential.build_geometric_sparse",
)
CLI_KINDS = ("validate", "green", "bs", "spectrum", "essential", "decay", "gibbs", "doob", "fk")


def _metric(name: str, unit: str, better: str) -> dict:
    return {"name": name, "unit": unit, "better": better}


def _timed(*names: str) -> list[dict]:
    return [_metric(f"{n}.s", "s", "lower") for n in names]


def _calls(name: str) -> dict:
    return _metric(f"{name}.calls", "count", "lower")


#: every per-layer metric of the traced run, in report order
PER_LAYER = (
    _timed("lattice.validate_kernel")
    + [_calls("lattice.validate_kernel")]
    + [
        _metric("lattice.char_on_grid.points_built", "count", "lower"),
        _metric("lattice.char_on_grid.hit_ratio", "ratio", "higher"),
    ]
    + _timed("lattice.apply_P")
    + [_calls("lattice.apply_P")]
    + _timed("resolvent.green_table")
    + [
        _calls("resolvent.green_table"),
        _metric("resolvent.green_table.displacements", "count", "lower"),
        _metric("resolvent.green_table.grid_points", "count", "lower"),
    ]
    + _timed("resolvent.g_level_crossings")
    + [_calls("resolvent.g_level_crossings"), _metric("resolvent.g_level_crossings.roots", "count", "higher")]
    + _timed("resolvent.g_lambda_quadrature", "resolvent.green_kernel", "resolvent.g_lambda_series")
    + _timed("potential.build", "potential.sparseness_profile")
    + _timed("birman_schwinger.assemble_bs")
    + [
        _calls("birman_schwinger.assemble_bs"),
        _metric("birman_schwinger.assemble_bs.support_sites", "count", "lower"),
    ]
    + _timed("birman_schwinger.neumann_invertibility", "birman_schwinger.resolvent_via_bs")
    + [_metric("birman_schwinger.resolvent_via_bs.bytes", "B", "lower")]
    + _timed("birman_schwinger.bs_crossing_scan")
    + [_metric("birman_schwinger.bs_crossing_scan.assemblies", "count", "lower")]
    + _timed("spectral.truncated_operator")
    + [_metric("spectral.truncated_operator.bytes", "B", "lower")]
    + _timed(
        "spectral.eigensolve_top",
        "spectral.perron_pair",
        "spectral.gap_projection_test",
        "spectral.essential_spectrum_predictor",
        "spectral.spectral_report",
        "spectral.truncated_spectrum_distance_1d",
    )
    + [_calls("spectral.truncated_spectrum_distance_1d")]
    + _timed("gibbs.doob_kernel")
    + [_metric("gibbs.doob_kernel.bytes", "B", "lower")]
    + _timed("gibbs.simulate_chain")
    + [_metric("gibbs.simulate_chain.steps_per_s", "1/s", "higher")]
    + _timed("gibbs.fk_monte_carlo")
    + [_metric("gibbs.fk_monte_carlo.samples_per_s", "1/s", "higher")]
    + _timed("gibbs.fk_semigroup", "gibbs.partition_growth", "gibbs.convergence_rate")
    + _timed(*(f"acceptance.criterion_{i:02d}" for i in range(1, 15)))
    + _timed(*(f"cli.{kind}" for kind in CLI_KINDS))
    + [_metric("cli.artifact_bytes", "B", "lower")]
    + [_metric(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [_metric("trace.overhead_s", "s", "lower"), _metric("trace.spans", "count", "lower")]
)


def _nbytes(obj) -> int:
    """Summed nbytes of the array fields of a result object."""
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values() if isinstance(v, np.ndarray))


def _roots(crossings) -> int:
    return (crossings.above is not None) + len(crossings.below)


def _grid_points(args) -> int:
    pts, dim = args["pts_per_axis"], args["kernel"].dimension
    return len(args["displacements"]) * sum((m * pts) ** dim for m in (1, 2, 4))


#: counts taken from (bound arguments, return value), per span name
COUNTERS = {
    "resolvent.green_table": lambda a, out: {
        "displacements": len(a["displacements"]),
        "grid_points": _grid_points(a),
    },
    "resolvent.g_level_crossings": lambda a, out: {"roots": _roots(out)},
    "birman_schwinger.assemble_bs": lambda a, out: {"support_sites": len(out.support_sites)},
    "birman_schwinger.resolvent_via_bs": lambda a, out: {"bytes": out[0].nbytes},
    "spectral.truncated_operator": lambda a, out: {"bytes": _nbytes(out)},
    "gibbs.doob_kernel": lambda a, out: {"bytes": _nbytes(out)},
    "gibbs.simulate_chain": lambda a, out: {"steps": a["steps"]},
    "gibbs.fk_monte_carlo": lambda a, out: {"samples": a["samples"]},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "counts", "phase")

    def __init__(self, name: str, parent: int, phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = self.end = 0.0
        self.error = None
        self.counts = None


class Recorder:
    """In-memory span recorder; ``phase`` tags spans as set-up or iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._restore: list = []
        self._char_on_grid = None

    # -- wrapping ---------------------------------------------------------------

    def _name(self, layer: str, fn) -> str:
        name = fn.__name__
        if layer == "acceptance" and name.startswith("criterion_"):
            return f"acceptance.criterion_{int(name.split('_')[1]):02d}"
        return f"{layer}.{name}"

    def _wrap(self, fn, name: str):
        rec = self
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        is_cli = name == "cli.main"
        is_grid = name == "lattice.char_on_grid"
        is_table = name == "resolvent.green_table"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0]}" if argv else name
            bound = None
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if is_table and not isinstance(bound.arguments["displacements"], (list, tuple)):
                    bound.arguments["displacements"] = list(bound.arguments["displacements"])
                args, kwargs = bound.args, bound.kwargs
            span = Span(label, rec._stack[-1] if rec._stack else -1, rec.phase)
            rec.spans.append(span)
            rec._stack.append(len(rec.spans) - 1)
            before = rec._char_on_grid.cache_info() if is_grid else None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = exc
                raise
            finally:
                rec._stack.pop()
            span.end = time.perf_counter()
            if counter is not None:
                span.counts = counter(bound.arguments, out)
            elif is_grid:
                after = rec._char_on_grid.cache_info()
                missed = after.misses - before.misses
                pts, dim = args[1] if len(args) > 1 else kwargs["pts_per_axis"], args[0].dimension
                span.counts = {
                    "hits": after.hits - before.hits,
                    "misses": missed,
                    "points_built": missed * pts**dim,
                }
            elif is_cli and out != 0:
                span.error = f"exit {out}"
            elif name.startswith("acceptance.criterion_") and not out.passed:
                span.error = "criterion failed"
            return out

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("recorder already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue  # experiment runners count as cli self time
                wrappers[id(obj)] = self._wrap(obj, self._name(layer, obj))
                if attr == "char_on_grid":
                    self._char_on_grid = obj
        for suffix in BINDING_MODULES:
            mod = importlib.import_module(PACKAGE + suffix)
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    self._restore.append((namespace, attr, obj))
                    namespace[attr] = wrappers[id(obj)]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._restore.append((obj, key, val))
                            obj[key] = wrappers[id(val)]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            target[key] = original
        self._restore.clear()

    # -- reporting -------------------------------------------------------------

    def _tally(self, phase: str) -> defaultdict:
        """Additive sums over the spans of one phase, keyed like the metrics."""
        child_time = defaultdict(float)
        child_errors = defaultdict(set)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
                if isinstance(s.error, BaseException):
                    child_errors[s.parent].add(id(s.error))
        t = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.phase != phase:
                continue
            t["trace.spans"] += 1
            t[f"{s.name}.s"] += s.end - s.start - child_time[i]
            t[f"{s.name}.inclusive_s"] += s.end - s.start
            t[f"{s.name}.calls"] += 1
            for key, val in (s.counts or {}).items():
                t[f"{s.name}.{key}"] += val
            # an exception counts once, in the span it started from
            if s.error is not None and id(s.error) not in child_errors[i]:
                t[s.name.split(".")[0] + ".errors"] += 1
            parent = self.spans[s.parent] if s.parent >= 0 else None
            if s.name == "birman_schwinger.assemble_bs" and parent is not None \
                    and parent.name == "birman_schwinger.bs_crossing_scan":
                t["birman_schwinger.bs_crossing_scan.assemblies"] += 1
        t["potential.build.s"] = sum(t[f"{b}.s"] for b in POTENTIAL_BUILDERS)
        return t

    def metrics(self, passes: int, overhead_s: float, artifact_bytes: float) -> dict:
        """Per-layer metrics: set-up spans counted once, traced passes averaged."""
        setup, run = self._tally("setup"), self._tally("pass")
        n = max(passes, 1)
        total = defaultdict(float, {k: setup[k] + run[k] / n for k in set(setup) | set(run)})

        def ratio(num: str, den: str) -> float:
            return total[num] / total[den] if total[den] > 0 else 0.0

        lookups = total["lattice.char_on_grid.hits"] + total["lattice.char_on_grid.misses"]
        special = {
            "lattice.char_on_grid.hit_ratio": total["lattice.char_on_grid.hits"] / lookups if lookups else 0.0,
            "gibbs.simulate_chain.steps_per_s": ratio("gibbs.simulate_chain.steps", "gibbs.simulate_chain.inclusive_s"),
            "gibbs.fk_monte_carlo.samples_per_s": ratio(
                "gibbs.fk_monte_carlo.samples", "gibbs.fk_monte_carlo.inclusive_s"
            ),
            "cli.artifact_bytes": artifact_bytes,
            "trace.overhead_s": overhead_s,
        }
        return {
            m["name"]: {"value": float(special.get(m["name"], total[m["name"]])), "unit": m["unit"]}
            for m in PER_LAYER
        }

    def top_self(self, passes: int, count: int = 6) -> list[tuple[str, float]]:
        """Span names with the most self time per traced pass."""
        run = self._tally("pass")
        own = {k[:-2]: v / max(passes, 1) for k, v in run.items() if k.endswith(".s") and k != "potential.build.s"}
        return sorted(own.items(), key=lambda kv: -kv[1])[:count]

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "phase": s.phase,
                "error": None if s.error is None else (s.error if isinstance(s.error, str) else type(s.error).__name__),
                "counts": s.counts,
            }
            for s in self.spans
        ]
