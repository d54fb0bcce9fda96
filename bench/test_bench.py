"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for gen in generate.GENERATORS.values():
        assert generate.canonical_bytes(gen(7)) == generate.canonical_bytes(gen(7))
        assert generate.canonical_bytes(gen(7)) != generate.canonical_bytes(gen(8))


def test_generated_scenarios_parse_and_build():
    from plateau.scenarios import build_problem, scenario_from_dict

    dicts = (
        generate.solve_instances(3) + generate.certify_instances(3)
        + [p["scenario"] for p in generate.verify_instances(3)["problems"]]
    )
    for d in dicts:
        build_problem(scenario_from_dict(d))


class FakeClock:
    """Advances by one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    tracer = tracing.Tracer(FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf", aggregate=True)
    inner = tracer.wrap(lambda: leaf(), "inner")
    outer = tracer.wrap(lambda: (inner(), inner(), leaf()), "outer")
    outer()
    # clock readings: outer 1..12; inner 2..5 (leaf 3..4) and 6..9 (leaf 7..8);
    # leaf 10..11 directly under outer
    spans = {(rec[0], rec[1]): rec for rec in tracer.spans}
    assert set(spans) == {("outer", 1.0), ("inner", 2.0), ("inner", 6.0)}
    assert spans[("outer", 1.0)][2] == 12.0
    self_s = dict(zip(((r[0], r[1]) for r in tracer.spans), tracer.self_times()))
    # outer: 11 s long; children cover 3 + 3 (inner) + 1 (leaf)
    assert self_s[("outer", 1.0)] == 11.0 - 7.0
    # inner: 3 s long; its leaf covers 1 s
    assert self_s[("inner", 2.0)] == 2.0
    assert spans[("inner", 2.0)][tracing.PARENT] == 0
    summary = tracer.summary()
    assert summary["leaf"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert summary["inner"]["calls"] == 2 and summary["inner"]["s"] == 6.0
    assert summary["outer"]["self_s"] == 4.0


def test_round_times_leave_out_the_reference_kernel():
    clock = FakeClock()

    class TwoInstances:
        def round(self, state, mark):
            for name in ("a", "b"):
                mark(name)
                clock()  # the instance's own work: one reading

    def pin(k):  # pinning and the timed kernel: two readings
        clock()
        clock()

    _, times = run.timed_round(TwoInstances(), None, clock, workloads.no_mark, pin)
    # a starts at 3 and returns at 5; b starts at 8 (after its pin) and ends at 10
    assert times == [2.0, 2.0]


def test_wrappers_sit_where_callers_look_names_up():
    import plateau.solver
    import plateau.spanning

    original = plateau.spanning.relative_coboundary_dominates
    tracer = tracing.Tracer()
    with tracer.installed():
        # solver imported the name; its own binding must be the wrapper too
        assert plateau.solver.relative_coboundary_dominates is not original
        assert plateau.solver.relative_coboundary_dominates.__wrapped__ is original
    assert plateau.solver.relative_coboundary_dominates is original
    assert plateau.spanning.relative_coboundary_dominates is original


def test_wrong_verdict_is_counted_as_failed():
    w = workloads.VerifyWorkload(5)
    w.spec["problems"] = w.spec["problems"][:3]  # the three disk problems
    w.spec["skeleta"] = []
    w.dicts = w.dicts[:3]
    state = w.prepare([workloads.build(d) for d in w.dicts])
    results = w.round(state)
    assert not any(o.errors for o in w.check(state, results))
    ref, wit = results[1][2]
    results[1][2] = (ref, not wit)
    outcomes = w.check(state, results)
    assert [bool(o.errors) for o in outcomes] == [False, True, False]


def test_search_stopped_by_time_limit_is_a_failure():
    res = SimpleNamespace(
        nodes=10, best_weight=Fraction(5), lower_bound=Fraction(3), optimal=False
    )
    errors = workloads.certify_errors(res, None, 5000, surface=None)
    assert errors == ["search stopped by time_limit, not by the node budget"]
    res.nodes = 5000
    assert workloads.certify_errors(res, None, 5000, surface=None) == []
    assert workloads.certify_errors(res, Fraction(5), 5000, surface=None) == [
        "shipped scenario not certified"
    ]


def test_benchmark_json_names_match_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
