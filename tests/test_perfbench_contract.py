"""What the benchmark tracer in ``perfbench/`` reads of the package.

The tracer wraps ``core.evaluate`` by name and classifies each call from
its fourth positional argument's ``mode``; renaming either breaks traced
runs, so this pins both until the tracer changes.
"""

import sys
from pathlib import Path

from teameq import core
from teameq.core import EvalConfig, ProductPolicy, UniformPolicy
from teameq.games import SkirmishConfig, grid_skirmish

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
        core.team_value(g, 1, p, p, EvalConfig())
    finally:
        tracer.uninstall()
    assert tracer.counts["core.evaluate.calls_exact"] == 1
