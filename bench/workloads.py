"""The three benchmark workloads: set-up, one timed round, output checks.

Each workload is a closed loop: one caller, one process, no threads; the next
instance starts when the previous one returns.  A workload object offers

* `dicts`: the generated scenario dicts, each set up by `build` (the part
  reported as `setup_s`);
* `prepare(problems)`: the state a round uses, made from the built problems;
* `round(state, mark)`: the timed work for the whole instance set, returning one
  result per instance (an exception is kept as the result);
* `check(state, results)`: one `Outcome` per instance with its exact
  repeatability record and the list of failed output checks.

Plateau is called through module attributes (`scenarios.run`, not a name
imported from it) so that a `tracing.Tracer` installed around a round sees
every call the benchmark makes.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from plateau import cochain, lattice, oracle, scenarios, solver, spanning, witness
from plateau.linalg import Coeffs

import generate

# Stops every wide-ring search long before `CERTIFY_TIME_LIMIT`, and lets the
# shipped torus (4,047 nodes cold) finish.
CERTIFY_BUDGET = 5000
CERTIFY_TIME_LIMIT = 150.0


@dataclass
class Outcome:
    name: str
    record: Any
    weight: Fraction = Fraction(0)
    errors: list[str] = field(default_factory=list)


def build(d: dict):
    """Set-up of one instance: parse the scenario dict, build its problem."""
    return scenarios.build_problem(scenarios.scenario_from_dict(d))


def no_mark(name: str) -> None:
    pass


def _skeleton_name(sk: dict) -> str:
    return "skeleton-" + "x".join(map(str, sk["dims"]))


def _guard(mark, name: str, fn, *args):
    """Run one instance; an exception becomes its result, to be counted.

    `mark(name)` runs first, so a tracer can tag the instance's spans.
    """
    mark(name)
    try:
        return fn(*args)
    except Exception as exc:  # one failing instance must not end the run
        traceback.print_exc()
        return exc


class SolveWorkload:
    """`scenarios.run` (parse, build, solve, four diagnostics) per instance."""

    name = "solve"

    def __init__(self, seed: int):
        self.dicts = generate.solve_instances(seed)

    def prepare(self, problems):
        return problems

    def round(self, state, mark=no_mark) -> list:
        return [_guard(mark, d["name"], self._one, d) for d in self.dicts]

    @staticmethod
    def record(res):
        return None if isinstance(res, Exception) else res[0]

    @staticmethod
    def _one(d: dict):
        report, X = scenarios.run(scenarios.scenario_from_dict(d))
        return report.determinism_hash, report.solve_report["final_weight"], X

    def check(self, state, results) -> list[Outcome]:
        out = []
        for d, res in zip(self.dicts, results):
            if isinstance(res, Exception):
                out.append(Outcome(d["name"], None, errors=[f"raised {res!r}"]))
                continue
            digest, final_weight, X = res
            o = Outcome(d["name"], digest, Fraction(final_weight))
            if solver.surface_weight(X) != o.weight:
                o.errors.append("reported weight differs from the surface's weight")
            if not spanning.spans(X):
                o.errors.append("solver output does not span")
            try:
                solver.assert_one_minimal(X)
            except AssertionError as exc:
                o.errors.append(f"not 1-minimal: {exc}")
            out.append(o)
        return out


class CertifyWorkload:
    """Cold `oracle.isoperimetric_scan` under a fixed node budget."""

    name = "certify"

    def __init__(self, seed: int):
        self.dicts = generate.certify_instances(seed)
        self.cfg = oracle.OracleConfig(
            budget=CERTIFY_BUDGET, time_limit=CERTIFY_TIME_LIMIT, warm_start=False
        )

    def prepare(self, problems):
        return problems

    def round(self, problems, mark=no_mark) -> list:
        return [
            _guard(mark, d["name"], oracle.isoperimetric_scan, p, self.cfg)
            for d, p in zip(self.dicts, problems)
        ]

    @staticmethod
    def record(res):
        if isinstance(res, Exception):
            return None
        return [res.nodes, str(res.best_weight), str(res.lower_bound), res.optimal]

    def check(self, problems, results) -> list[Outcome]:
        shipped = {f"shipped-{k}": Fraction(v) for k, (_, v) in generate.SHIPPED.items()}
        out = []
        for d, p, res in zip(self.dicts, problems, results):
            if isinstance(res, Exception):
                out.append(Outcome(d["name"], None, errors=[f"raised {res!r}"]))
                continue
            o = Outcome(d["name"], self.record(res), res.best_weight)
            o.errors += certify_errors(
                res, shipped.get(d["name"]), self.cfg.budget,
                lambda: oracle.oracle_surface(p, res),
            )
            out.append(o)
        return out


def certify_errors(res, expected, budget: int, surface) -> list[str]:
    """Output checks of one oracle result; `surface()` lifts its best cells."""
    errors = []
    if res.lower_bound > res.best_weight:
        errors.append("lower bound above the incumbent")
    if expected is not None and res.best_weight != expected:
        errors.append(f"optimum {res.best_weight} differs from the shipped {expected}")
    if expected is not None and not res.optimal:
        errors.append("shipped scenario not certified")
    if res.optimal:
        if res.lower_bound != res.best_weight:
            errors.append("certified with lower bound below the incumbent")
        X = surface()
        if solver.surface_weight(X) != res.best_weight:
            errors.append("certified surface weight differs from best_weight")
        if not spanning.spans(X):
            errors.append("certified surface does not span")
    elif res.nodes < budget:
        errors.append("search stopped by time_limit, not by the node budget")
    return errors


class VerifyWorkload:
    """Spanning verdicts from `spans` and the witness system; H^1 of skeleta."""

    name = "verify"

    def __init__(self, seed: int):
        self.spec = generate.verify_instances(seed)
        self.dicts = [p["scenario"] for p in self.spec["problems"]]

    def surfaces(self, problems) -> list[list[frozenset]]:
        """Seeded subsets of each problem's box m-cells, of fixed sizes."""
        out = []
        for spec, p in zip(self.spec["problems"], problems):
            rng = random.Random(spec["surface_seed"])
            cells = p.box_mcells()
            out.append([
                frozenset(rng.sample(cells, round(keep * len(cells))))
                for keep in spec["keep"]
            ])
        return out

    def prepare(self, problems):
        return problems, self.surfaces(problems)

    def round(self, state, mark=no_mark) -> list:
        problems, surfaces = state
        results = [
            _guard(mark, d["name"], self._verdicts, p, cell_sets)
            for d, p, cell_sets in zip(self.dicts, problems, surfaces)
        ]
        for sk in self.spec["skeleta"]:
            results.append(_guard(mark, _skeleton_name(sk), self._h1, sk))
        return results

    @staticmethod
    def record(res):
        if isinstance(res, Exception):
            return None
        return res if isinstance(res, int) else [ref for ref, _ in res]

    @staticmethod
    def _verdicts(p, cell_sets) -> list[tuple[bool, bool]]:
        system = witness.build_witness_system(p)
        out = []
        for cells in cell_sets:
            # fresh Surface objects: a Surface caches its complex
            reference = spanning.spans(spanning.Surface(p, cells))
            out.append((reference, system.spans_surface(spanning.Surface(p, cells))))
        return out

    @staticmethod
    def _h1(sk: dict) -> int:
        grid = lattice.GridSpec(3, 0, tuple((0, d) for d in sk["dims"]))
        spec = sk["coeffs"]
        coeffs = Coeffs("gf2") if spec == "gf2" else Coeffs("gfp", spec["p"])
        return cochain.cohomology(lattice.build_skeleton(grid, 2), 1, coeffs).dim

    def check(self, state, results) -> list[Outcome]:
        problems, surfaces = state
        out = []
        families: dict[str, list[Outcome]] = {}
        for spec, p, cell_sets, res in zip(self.spec["problems"], problems, surfaces, results):
            name = spec["scenario"]["name"]
            if isinstance(res, Exception):
                out.append(Outcome(name, None, errors=[f"raised {res!r}"]))
                continue
            o = Outcome(name, self.record(res))
            o.errors += verdict_errors(res)
            # every judged surface, spanning or not: which random subsets
            # span varies a lot from seed to seed, their total size does not
            o.weight = sum(
                (solver.surface_weight(spanning.Surface(p, cells)) for cells in cell_sets),
                Fraction(0),
            )
            families.setdefault(spec["family"], []).append(o)
            out.append(o)
        for family, members in families.items():
            seen = {v for o in members for v in o.record}
            if seen != {True, False}:
                for o in members:
                    o.errors.append(f"family {family} lacks a verdict: saw {sorted(seen)}")
        for sk, res in zip(self.spec["skeleta"], results[len(problems):]):
            name = _skeleton_name(sk)
            if isinstance(res, Exception):
                out.append(Outcome(name, None, errors=[f"raised {res!r}"]))
                continue
            o = Outcome(name, res)
            if res != 0:
                o.errors.append(f"H^1 of a box 2-skeleton has dimension {res}")
            out.append(o)
        return out


def verdict_errors(verdicts: list[tuple[bool, bool]]) -> list[str]:
    """Disagreements between the cohomological and the witness verdicts."""
    return [
        f"surface {i}: spans={ref} but witness system says {wit}"
        for i, (ref, wit) in enumerate(verdicts)
        if ref != wit
    ]


WORKLOADS = {w.name: w for w in (SolveWorkload, CertifyWorkload, VerifyWorkload)}
