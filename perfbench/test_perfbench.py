"""Self-tests of the benchmark's statistics and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from stats import percentile, qualified_percentile, self_times  # noqa: E402


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 0.5) == 50.0
    assert percentile(samples, 0.9) == 90.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("n, reported", [(99, False), (100, True), (109, True),
                                         (110, True), (40, False)])
def test_p90_needs_ten_samples_beyond(n, reported):
    samples = [float(v) for v in range(n)]
    value = qualified_percentile(samples, 0.9)
    assert (value is not None) == reported
    if reported:
        assert sum(1 for s in samples if s > value) >= 10


def _span(id, parent, start, end):
    return SimpleNamespace(id=id, parent=parent, start=start, end=end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: counted against span 1 only
        _span(3, 0, 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0),
             _span(2, 0, 4.0, 8.0), _span(3, 0, 2.0, 3.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_counts_calls_made_inside_the_package_and_restores():
    from tabletamp import harness, twin
    from tabletamp.scenarios import build_scenario
    from tracer import Tracer

    original = twin.settle
    jobs = [(build_scenario("tool_pusher"), 0)]
    plain = run.run_pass(harness, jobs, "full", reference=True)
    tracer = Tracer()
    with tracer:
        assert harness.settle is not original  # rebound where it was imported
        traced = run.run_pass(harness, jobs, "full", tracer, reference=True)
    assert harness.settle is original and twin.settle is original
    assert run.check_pass(harness, plain)[0] == run.check_pass(harness, traced)[0]

    assert tracer.counts["twin.settle.calls"] > 0
    assert tracer.calls()["harness.run_episode"] == 1
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["harness.run_episode"]
    assert {s.episode for s in tracer.spans} == {"tool_pusher:0"}
    busy = tracer.busy({"tool_pusher:0": 1.0})
    assert sum(busy.values()) == pytest.approx(roots[0].end - roots[0].start)

    metrics = run.layer_metrics(tracer, plain, traced, run.summarize(traced))
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    assert all(m["unit"] == metrics[m["name"]][1] for m in declared["per_layer"])
