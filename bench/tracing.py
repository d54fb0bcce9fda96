"""In-memory span tracing of the plateau package, installed from outside it.

A `Tracer` replaces public functions and methods of the package with timing
wrappers for the duration of a `with tracer.installed():` block and restores
the originals afterwards.  Plateau modules import each other's functions by
name (``from .spanning import relative_coboundary_dominates``), so a wrapper
is installed in every module namespace that holds the original object, that
is, where the caller looks the name up, not only in the defining module.

Two kinds of targets exist:

* span targets record one span per call: name, start, end, parent span,
  instance id, plus the time covered by the call's direct children;
* aggregated targets (functions called 10^4 or more times per instance) only
  count calls and busy time.  Their duration still counts as child time of
  the enclosing span, so self times stay exact.

Spans are kept in memory; `write_jsonl` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    """One traced callable: `module.attr` or `module.Class.attr`."""

    module: str
    attr: str  # "name" or "Class.name"
    metric: str  # metric prefix, e.g. "solver.local_replace"
    aggregate: bool = False
    # maps (args, result) to a count of useful outcomes, e.g. accepted moves
    outcome: Optional[Callable[[tuple, Any], int]] = None


def _accepted(args: tuple, result: Any) -> int:
    return int(result is not args[0])


def _true(args: tuple, result: Any) -> int:
    return int(bool(result))


def _infeasible(args: tuple, result: Any) -> int:
    return int(not result[1])


def _both(module: str, method: str, metric: str, aggregate: bool = False) -> list[Target]:
    return [
        Target(module, f"{cls}.{method}", metric, aggregate)
        for cls in ("Gf2AffineSpace", "GenericAffineSpace")
    ]


PLATEAU_TARGETS: list[Target] = [
    Target("plateau.scenarios", "build_problem", "scenarios.build_problem"),
    Target("plateau.scenarios", "run", "scenarios.run"),
    Target("plateau.density", "DensityField.validate", "density.validate"),
    Target("plateau.diagnostics", "slicing_check", "diagnostics.slicing_check"),
    Target("plateau.diagnostics", "density_profile", "diagnostics.density_profile"),
    Target("plateau.diagnostics", "regularity_constant", "diagnostics.regularity_constant"),
    Target("plateau.diagnostics", "monotonicity_check", "diagnostics.monotonicity_check"),
    Target("plateau.lattice", "build_skeleton", "lattice.build_skeleton"),
    Target("plateau.solver", "cell_weight", "solver.cell_weight", aggregate=True),
    Target("plateau.solver", "solve", "solver.solve"),
    Target("plateau.solver", "greedy_minimize", "solver.greedy_minimize"),
    Target("plateau.solver", "contract_to_witnesses", "solver.contract_to_witnesses"),
    Target("plateau.solver", "local_replace", "solver.local_replace", outcome=_accepted),
    Target(
        "plateau.spanning", "relative_coboundary_dominates",
        "spanning.relative_coboundary_dominates", outcome=_true,
    ),
    Target("plateau.spanning", "spans", "spanning.spans"),
    Target("plateau.witness", "build_witness_system", "witness.build_witness_system"),
    Target("plateau.witness", "WitnessSystem.spans_surface", "witness.spans_surface"),
    *_both("plateau.witness", "member_within", "witness.member_within"),
    *_both("plateau.witness", "constrain_zero", "witness.constrain_zero", aggregate=True),
    *_both("plateau.witness", "copy", "witness.copy"),
    *_both("plateau.witness", "forced_mask", "witness.forced_mask"),
    Target("plateau.cochain", "restriction_image", "cochain.restriction_image"),
    Target("plateau.cochain", "cohomology", "cochain.cohomology"),
    Target("plateau.linalg", "kernel_basis", "linalg.kernel_basis"),
    Target("plateau.linalg", "row_reduce", "linalg.row_reduce"),
    Target("plateau.linalg", "Subspace.from_vectors", "linalg.Subspace.from_vectors", aggregate=True),
    Target("plateau.linalg", "FieldMatrix.from_rows", "linalg.FieldMatrix.from_rows"),
    Target("plateau.oracle", "isoperimetric_scan", "oracle.isoperimetric_scan"),
    Target("plateau.oracle", "build_loop_catalogue", "oracle.build_loop_catalogue"),
    Target("plateau.oracle", "crop_problem", "oracle.crop_problem"),
    Target(
        "plateau.oracle", "packing_lower_bound", "oracle.packing_lower_bound",
        outcome=_infeasible,
    ),
    Target("plateau.linking", "crossed_faces", "linking.crossed_faces"),
]

PLATEAU_MODULES = (
    "plateau", "plateau.lattice", "plateau.linalg", "plateau.cochain",
    "plateau.density", "plateau.spanning", "plateau.linking", "plateau.witness",
    "plateau.solver", "plateau.oracle", "plateau.diagnostics",
    "plateau.scenarios", "plateau.cli",
)

# span record fields
NAME, START, END, PARENT, INSTANCE, CHILD = range(6)


class Tracer:
    """Collects spans and aggregated call counts while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.instance: Any = None
        self.spans: list[list] = []
        self.agg_calls: dict[str, int] = {}
        self.agg_busy: dict[str, float] = {}
        self.outcomes: dict[str, int] = {}
        # open frames: [span index or -1 for an aggregated call, child time]
        self._stack: list[list] = []

    def mark(self, instance) -> None:
        """Tag the spans recorded from now on with this instance id."""
        self.instance = instance

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn: Callable, metric: str, aggregate: bool = False,
             outcome: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        """A timing wrapper around `fn` that records under `metric`."""
        tracer = self
        clock = self.clock
        stack = self._stack
        if aggregate:
            tracer.agg_calls.setdefault(metric, 0)
            tracer.agg_busy.setdefault(metric, 0.0)

            def agg_wrapper(*args, **kwargs):
                frame = [-1, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    tracer.agg_calls[metric] += 1
                    tracer.agg_busy[metric] += dt
                    if stack:
                        stack[-1][1] += dt

            agg_wrapper.__wrapped__ = fn
            return agg_wrapper

        spans = self.spans
        if outcome is not None:
            tracer.outcomes.setdefault(metric, 0)

        def span_wrapper(*args, **kwargs):
            parent = -1
            for frame in reversed(stack):
                if frame[0] >= 0:
                    parent = frame[0]
                    break
            rec = [metric, 0.0, 0.0, parent, tracer.instance, 0.0]
            spans.append(rec)
            frame = [len(spans) - 1, 0.0]
            stack.append(frame)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                rec[CHILD] = frame[1]
                if stack:
                    stack[-1][1] += rec[END] - rec[START]
            if outcome is not None:
                tracer.outcomes[metric] += outcome(args, result)
            return result

        span_wrapper.__wrapped__ = fn
        return span_wrapper

    @contextlib.contextmanager
    def installed(self, targets: list[Target] = PLATEAU_TARGETS,
                  modules: tuple[str, ...] = PLATEAU_MODULES):
        """Install wrappers for `targets` in every module that names them."""
        mods = [importlib.import_module(name) for name in modules]
        undo: list[tuple[object, str, Any]] = []
        try:
            for t in targets:
                owner = importlib.import_module(t.module)
                cls_name, _, attr = t.attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(raw.__func__, t.metric, t.aggregate, t.outcome))
                    else:
                        new = self.wrap(raw, t.metric, t.aggregate, t.outcome)
                    undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                fn = getattr(owner, attr)
                new = self.wrap(fn, t.metric, t.aggregate, t.outcome)
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, name, fn))
                            setattr(mod, name, new)
            yield self
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus time its children cover."""
        return [rec[END] - rec[START] - rec[CHILD] for rec in self.spans]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per metric prefix: calls, inclusive seconds `s` and `self_s`."""
        out: dict[str, dict[str, float]] = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += rec[END] - rec[START]
            row["self_s"] += self_s
        for name, calls in self.agg_calls.items():
            out[name] = {"calls": calls, "s": self.agg_busy[name],
                         "self_s": self.agg_busy[name]}
        for name, count in self.outcomes.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["outcomes"] = count
        return out

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        # the fastest level: a certify trace holds hundreds of thousands of spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT],
                    "instance": rec[INSTANCE], "child_s": rec[CHILD],
                }) + "\n")
            for name, calls in sorted(self.agg_calls.items()):
                fh.write(json.dumps({
                    "aggregate": name, "calls": calls, "busy_s": self.agg_busy[name],
                }) + "\n")
