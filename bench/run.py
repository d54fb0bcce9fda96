#!/usr/bin/env python3
"""Plateau benchmark: one seeded workload per run, one JSON result line.

    python3 bench/run.py --workload {solve,certify,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/` of
that checkout, never from an installed copy.  The run

1. generates the workload's scenario dicts from the seed (`generate.py`);
2. repeats, until the next iteration would end after S seconds: set-up
   (`scenario_from_dict` + `build_problem` per instance), one round over
   the whole instance set, one instance after the other, then further
   set-up passes that are only timed;
3. reports `setup_s` and `run_s` as the sum over instances of each
   instance's median time across iterations, which keeps a burst of host
   noise in one iteration out of the figure;
4. times a fixed pure-Python reference kernel before every instance, on the
   CPU the instance runs on, and reports `run_ref`: `run_s` divided by
   the kernel's median time.  The shared host's speed drifts by up to a
   third over minutes, which moves `run_s` between runs; it moves the
   kernel too, so `run_ref` varies less and is the figure a change is
   judged by;
5. checks every output of the first round (`workloads.py`) and that every
   round reproduced its exact records (hashes, node counts, bounds,
   verdicts).

With `--trace 0` the result carries the end-to-end metrics.  With
`--trace 1` untraced and traced iterations alternate; the result carries the
per-layer metrics of one traced set-up plus round, and the trace's own cost
as `trace.overhead_s` (traced minus untraced `run_s`).  Spans are written
to `.bench_out/` in the checkout.

Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 1 when any output check failed and 2 when
the checkout has no plateau sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# set-up passes per untraced iteration: set-up is short, so more samples
SETUP_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ref": "ref",
    "peak_rss_mb": "MB",
    "surface_weight": "weight",
}

# (prefix, fields): each field becomes one per-layer metric "prefix.field".
LAYER_FIELDS = [
    ("scenarios.build_problem", ("calls", "s")),
    ("density.validate", ("calls", "s")),
    ("diagnostics.slicing_check", ("s",)),
    ("diagnostics.density_profile", ("s",)),
    ("diagnostics.regularity_constant", ("s",)),
    ("diagnostics.monotonicity_check", ("s",)),
    ("lattice.build_skeleton", ("calls", "s")),
    ("solver.cell_weight", ("calls", "s")),
    ("solver.solve", ("calls", "s")),
    ("solver.greedy_minimize", ("calls", "s")),
    ("solver.contract_to_witnesses", ("calls", "s")),
    ("solver.local_replace", ("calls", "self_s", "accept_ratio")),
    ("spanning.relative_coboundary_dominates", ("calls", "s", "true_ratio")),
    ("spanning.spans", ("calls", "s")),
    ("witness.build_witness_system", ("calls", "s")),
    ("witness.spans_surface", ("calls", "s")),
    ("witness.member_within", ("calls", "s")),
    ("witness.constrain_zero", ("calls", "s")),
    ("witness.copy", ("calls", "s")),
    ("witness.forced_mask", ("calls", "s")),
    ("cochain.restriction_image", ("calls", "s")),
    ("cochain.cohomology", ("calls", "s")),
    ("linalg.kernel_basis", ("calls", "s")),
    ("linalg.row_reduce", ("calls", "s")),
    ("linalg.Subspace.from_vectors", ("calls", "s")),
    ("linalg.FieldMatrix.from_rows", ("calls", "s")),
    ("oracle.isoperimetric_scan", ("calls", "s", "self_s")),
    ("oracle.build_loop_catalogue", ("s",)),
    ("oracle.crop_problem", ("s",)),
    ("oracle.packing_lower_bound", ("calls", "s", "infeasible_ratio")),
    ("linking.crossed_faces", ("calls", "s")),
]
FIELD_UNITS = {
    "calls": "count", "s": "s", "self_s": "s",
    "accept_ratio": "ratio", "true_ratio": "ratio", "infeasible_ratio": "ratio",
}
# computed from the oracle's results and the round timings
EXTRA_LAYER_UNITS = {
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.loop_count": "count",
    "oracle.certified_frac": "ratio",
    "oracle.bound_gap": "ratio",
    "trace.ref_s": "s",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{prefix}.{f}": FIELD_UNITS[f] for prefix, fields in LAYER_FIELDS for f in fields
    }
    units.update(EXTRA_LAYER_UNITS)
    return units


def load_plateau() -> None:
    """Import plateau from this checkout's `src/`, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "plateau", "__init__.py")):
        print(f"bench: no plateau sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import plateau

    if os.path.dirname(os.path.dirname(os.path.abspath(plateau.__file__))) != SRC:
        print(f"bench: plateau imported from {plateau.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def oracle_summary(results) -> dict[str, float]:
    """Nodes, loops, certified share and Σ(best − lower) / Σ best."""
    done = [r for r in results if hasattr(r, "nodes")]
    best = sum((r.best_weight for r in done), Fraction(0))
    gap = sum((r.best_weight - r.lower_bound for r in done), Fraction(0))
    return {
        "oracle.nodes": sum(r.nodes for r in done),
        "oracle.loop_count": sum(r.loop_count for r in done),
        "oracle.certified_frac": sum(r.optimal for r in done) / len(done) if done else 0.0,
        "oracle.bound_gap": float(gap / best) if best else 0.0,
    }


def layer_metrics(summary: dict, rounds: int, oracle_stats: dict, ref_s: float,
                  untraced: float, traced: float) -> dict[str, float]:
    """Per-layer metrics of one traced set-up plus round."""
    out: dict[str, float] = {}
    for prefix, fields in LAYER_FIELDS:
        row = summary.get(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            if f.endswith("_ratio"):
                value = row.get("outcomes", 0) / row["calls"] if row["calls"] else 0.0
            else:
                value = row[f] / rounds
            out[f"{prefix}.{f}"] = value
    scan_s = out["oracle.isoperimetric_scan.s"]
    out.update(oracle_stats)
    out["oracle.nodes_per_s"] = oracle_stats["oracle.nodes"] / scan_s if scan_s else 0.0
    out["trace.ref_s"] = ref_s
    out["trace.untraced_run_s"] = untraced
    out["trace.traced_run_s"] = traced
    out["trace.overhead_s"] = traced - untraced
    return out


def reference_kernel() -> int:
    """Fixed pure-Python work, about 10 ms: Fractions, dicts, sets, sorting.

    It stands for the interpreter work plateau does and uses nothing of
    plateau, so no change to the package moves its time; only the host does.
    """
    values, pairs = {}, set()
    for i in range(1, 1500):
        x = Fraction(i, i + 3) + Fraction(i % 13, 4)
        values[(i, i % 7)] = x.numerator % 1000
        pairs.add(frozenset((i % 5, i % 11)))
    return len(pairs) + sorted(values.values())[0]


def pinner(cpus: list[int], offset: int, ref_samples: list[float], clock):
    """Pins a pass to CPU `offset` mod len(cpus) and, before each instance,
    times `reference_kernel` into `ref_samples`.

    The vCPUs of a shared host run at different speeds at the same moment, so
    a run that stayed on one of them by chance would measure the CPU, not the
    code; passes alternate CPUs, so each instance visits every CPU.  Work that
    starts just after a move to another CPU runs slow, so a pass moves once
    and warms the CPU with an untimed kernel before anything is timed.
    """
    def pin(k: int) -> None:
        if k == 0:
            os.sched_setaffinity(0, {cpus[offset % len(cpus)]})
            reference_kernel()
        t0 = clock()
        reference_kernel()
        ref_samples.append(clock() - t0)

    return pin


def timed_setup(dicts, build, clock, mark, pin) -> tuple[list, list[float]]:
    """Build every instance's problem; per-instance seconds."""
    problems, times = [], []
    for k, d in enumerate(dicts):
        pin(k)
        mark("setup:" + d["name"])
        t0 = clock()
        problems.append(build(d))
        times.append(clock() - t0)
    return problems, times


def timed_round(w, state, clock, mark, pin) -> tuple[list, list[float]]:
    """One round over the instance set; per-instance seconds."""
    starts: list[float] = []
    ends: list[float] = []

    def on_instance(name: str) -> None:
        if starts:  # the previous instance has returned
            ends.append(clock())
        pin(len(starts))
        mark(name)
        starts.append(clock())

    results = w.round(state, on_instance)
    ends.append(clock())
    return results, [b - a for a, b in zip(starts, ends)]


def median_sum(samples: list[list[float]]) -> float:
    """Σ over instances of the instance's median time across iterations."""
    return sum(statistics.median(col) for col in zip(*samples))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "certify", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_plateau()
    import tracing
    import workloads

    clock = time.perf_counter
    w = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer(clock) if args.trace else None

    # per iteration: per-instance set-up and round times, untraced or traced
    setup_samples: list[list[float]] = []
    round_samples: list[list[float]] = []
    traced_samples: list[list[float]] = []
    # wall time of whole iterations, untraced (False) and traced (True)
    iteration_s: dict[bool, list[float]] = {False: [], True: []}
    ref_samples: list[float] = []
    first = first_state = records = None
    nondeterministic = []
    cpus = sorted(os.sched_getaffinity(0))
    start = clock()
    while True:
        traced = tracer is not None and len(traced_samples) < len(round_samples)
        t_iter = clock()
        with tracer.installed() if traced else contextlib.nullcontext():
            mark = tracer.mark if traced else workloads.no_mark
            pin = pinner(cpus, len(setup_samples), ref_samples, clock)
            problems, setup_times = timed_setup(w.dicts, workloads.build, clock, mark, pin)
            state = w.prepare(problems)
            pin = pinner(cpus, len(round_samples) + len(traced_samples), ref_samples, clock)
            results, times = timed_round(w, state, clock, mark, pin)
        if traced:
            traced_samples.append(times)
        else:
            round_samples.append(times)
            setup_samples.append(setup_times)
            for _ in range(SETUP_PASSES - 1):
                pin = pinner(cpus, len(setup_samples), ref_samples, clock)
                setup_samples.append(timed_setup(w.dicts, workloads.build, clock, mark, pin)[1])
        iteration_s[traced].append(clock() - t_iter)
        rec = [w.record(r) for r in results]
        if first is None:
            first, first_state, records = results, state, rec
        elif rec != records:
            nondeterministic.append(len(round_samples) + len(traced_samples))
        if tracer is not None and not traced_samples:
            continue
        # a traced iteration takes longer: predict the next from its own kind
        upcoming = tracer is not None and len(traced_samples) < len(round_samples)
        if clock() - start + statistics.median(iteration_s[upcoming]) > args.seconds:
            break

    outcomes = w.check(first_state, first)
    for o in outcomes:
        if nondeterministic:
            o.errors.append(f"rounds {nondeterministic} differ from the first round")
    failed = sum(1 for o in outcomes if o.errors)
    attempted = len(outcomes)

    run_s = median_sum(round_samples)
    ref_s = statistics.median(ref_samples)
    end_to_end = {
        "setup_s": median_sum(setup_samples),
        "run_ref": run_s / ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "surface_weight": float(sum((o.weight for o in outcomes), Fraction(0))),
    }
    oracle_stats = oracle_summary(first)

    print(f"# workload={w.name} seed={args.seed} instances={attempted} "
          f"rounds={len(round_samples)} traced_rounds={len(traced_samples)}")
    print("# round_s " + " ".join(f"{sum(t):.3f}" for t in round_samples)
          + " traced " + " ".join(f"{sum(t):.3f}" for t in traced_samples))
    for o in outcomes:
        print(f"record {o.name} {json.dumps(o.record)}")
        for e in o.errors:
            print(f"FAIL {o.name}: {e}")
    for name, value in end_to_end.items():
        print(f"metric {name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"metric run_s {run_s:.6g} s (reference kernel {ref_s * 1e3:.4g} ms, "
          f"median of {len(ref_samples)})")
    print(f"metric failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    if w.name == "certify":
        for name in ("oracle.certified_frac", "oracle.bound_gap"):
            print(f"metric {name.split('.')[1]} {oracle_stats[name]:.6g} ratio")

    if tracer is not None:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{w.name}-{args.seed}.jsonl.gz"))
        values = layer_metrics(
            tracer.summary(), len(traced_samples), oracle_stats, ref_s,
            run_s, median_sum(traced_samples),
        )
        units = per_layer_units()
    else:
        values, units = end_to_end, END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
