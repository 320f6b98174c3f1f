"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts src/ on the path)
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from spans import SpanRecorder, public_functions, wrapped  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    rec = SpanRecorder()
    root = rec.add("bench.pass", 0, 100)
    a = rec.add("noise.a", 10, 40, root)
    rec.add("gf2.x", 15, 25, a)
    rec.add("gf2.y", 20, 30, a)  # overlaps its sibling: covered once
    rec.add("noise.b", 90, 130, root)  # runs past its parent: clipped
    assert rec.self_times() == pytest.approx(
        [s / 1e9 for s in (100 - 30 - 10, 30 - 15, 10, 10, 40)]
    )
    (summary,) = rec.summarize("bench.pass")
    assert summary.duration == pytest.approx(100e-9)
    assert summary.inclusive["noise.a"] == pytest.approx(30e-9)
    assert summary.self_s["gf2"] == pytest.approx(20e-9)
    assert summary.calls == {"noise": 2, "gf2": 2}


def test_spans_nest_through_recorded_calls():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("bench.setup"):
        rec.call("codes.outer", rec.wrap("gf2.inner", lambda: None))
    assert rec.parents == [-1, 0, 1]
    assert [e - s for s, e in zip(rec.starts, rec.ends)] == [5, 3, 1]


def synthetic_speed() -> HostSpeed:
    """Probes at 0, 100 and 200 ns, each 10 ns long; the middle one ran
    at half the reference speed."""
    speed = HostSpeed()
    speed.starts, speed.ends = [0, 100, 200], [10, 110, 210]
    speed.seconds = [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    return speed


def test_scaled_time_leaves_out_probes_and_divides_by_their_speed():
    speed = synthetic_speed()
    # [50, 150] holds 50 ns of the first gap and 40 ns of the second,
    # both between a probe at the reference speed and one at half of it.
    assert speed.work_s(50, 150) == pytest.approx(90e-9)
    assert speed.scaled_s(50, 150) == pytest.approx(90e-9 / 1.5)
    assert speed.scaled_s(0, 210) == pytest.approx(180e-9 / 1.5)
    assert speed.scaled_s(102, 108) == 0  # inside a probe


def test_summaries_scale_the_span_and_its_children():
    speed = synthetic_speed()
    rec = SpanRecorder()
    root = rec.add("bench.pass", 20, 190)
    rec.add("noise.a", 30, 90, root)
    rec.add("gf2.x", 40, 50, 1)  # a grandchild: not scaled on its own
    (summary,) = rec.summarize("bench.pass", speed)
    assert summary.duration == pytest.approx(160e-9)
    assert summary.scaled == pytest.approx(
        {"bench.pass": 160e-9 / 1.5, "noise.a": 60e-9 / 1.5}
    )
    assert summary.inclusive["noise.a"] == pytest.approx(60e-9)


def test_sampling_probes_while_work_runs_and_stops_the_timer():
    speed = HostSpeed(interval=0.005)
    with speed.sampling():
        deadline = speed.clock() + 60_000_000
        while speed.clock() < deadline:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.seconds) >= 4
    assert speed.starts == sorted(speed.starts)
    assert 0 < speed.work_s(speed.starts[0], speed.ends[-1]) < 0.06


def test_wrapped_restores_the_originals():
    class Target:
        def visible(self):
            return 1

        def _hidden(self):
            return 2

    assert public_functions(Target) == ["visible"]
    rec = SpanRecorder()
    original = Target.visible
    with wrapped(rec, [(Target, "visible", "tableau.visible")]):
        assert Target().visible() == 1
    assert Target.visible is original
    assert rec.names == ["tableau.visible"]


TINY = {
    "paper-mc": dict(code_ids=("18-4-4-pruned",), shots=256),
    "wide-mc": dict(code_ids=("18-4-4-pruned",), shots=64),
    "fault-table": dict(code_ids=("18-4-4-pruned",)),
    "code-design": dict(code_ids=("18-4-4-pruned",), expect_d=4),
}


def tiny(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], **{**TINY[name], **changes})


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_declared_metric(name, trace, capsys):
    result = run.run(tiny(name), seed=3, seconds=0, trace=trace)
    line = json.loads(run.report(result, trace))
    printed = capsys.readouterr().out.splitlines()
    shown = dict(p.split()[::2] for p in printed if not p.startswith("check "))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert {m["name"]: m["unit"] for m in declared}.items() <= shown.items()
    assert all(run.UNITS[n] == u for n, u in shown.items())
    if trace:  # every per-layer metric, in the JSON line or not
        assert {n for n in shown if "." in n} == {n for n in run.UNITS if "." in n}
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_wrong_expected_value_raises_failed_frac():
    result = run.run(tiny("code-design", expect_d=5), seed=3, seconds=0, trace=False)
    assert result["failed"] == 1
    assert result["end_to_end"]["failed_frac"] == pytest.approx(1 / result["attempted"])
    assert not json.loads(run.report(result, False))["correct"]
