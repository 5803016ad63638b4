"""What the benchmark tracer in ``perfbench/`` reads of the package.

The tracer wraps ``core.evaluate`` by name and counts a stochastic call
made with three arguments as exact; renaming the function breaks traced
runs, so this pins it until the tracer changes.  It also rebuilds each
exploitability profile from one call per class, which must keep every
field of a class's result.
"""

import sys
from pathlib import Path

from teameq import core, evaluation
from teameq.core import ConstantPolicy, ProductPolicy, UniformPolicy
from teameq.evaluation import Candidate
from teameq.games import SkirmishConfig, example1, grid_skirmish

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_exact_evaluation(monkeypatch):
    # import the tracer without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=2))
    p = ProductPolicy([UniformPolicy(c) for c in g.action_counts[0]])
    tracer = tracing.Tracer().install()
    try:
        core.team_value(g, 1, p, p)
    finally:
        tracer.uninstall()
    assert tracer.counts["core.evaluate.calls_exact"] == 1


def test_tracer_keeps_each_class_gap_and_method(monkeypatch):
    # the tracer runs a multi-class profile one class at a time and
    # rebuilds the report from the classes' results
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    g = example1()
    candidate = Candidate.single(1, ProductPolicy([ConstantPolicy(2, 0)] * 2))
    plain = evaluation.exploitability_profile(g, candidate)
    tracer = tracing.Tracer().install()
    try:
        traced = evaluation.exploitability_profile(g, candidate)
    finally:
        tracer.uninstall()
    spans = [n for n in tracer.names if n.startswith("evaluation.exploitability_profile.")]
    assert len(spans) == len(traced.results) == 5
    assert traced.results == plain.results
    assert [(r.class_name, r.method, r.gap) for r in traced.results] == [
        ("sequential", "coordinate_ascent", None),
        ("joint", "enumeration", 0.0),
        ("synchronized", "kkt", 0.0),
        ("no_correlation", "coordinate_ascent", None),
        ("random", "evaluation", 0.0),
    ]
