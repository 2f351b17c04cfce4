"""Tests of the benchmark itself: seeded workload generation, the
self-time arithmetic of the traced run, and a tiny smoke pass of each
workload that must report no failed operation."""

import filecmp
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._require_program()

import tracing  # noqa: E402
from tracing import SETUP, Span, Tracer, layer_values, self_times  # noqa: E402
from workloads import INPUT_FILES, REPAIR_LONG_COPIES, WORKLOADS, RepairLong  # noqa: E402


@pytest.fixture
def work():
    with run._work_dir() as path:
        yield path


def _setup(cls, seed, path, smoke=True):
    wl = cls(run.ROOT, path, seed, smoke=smoke)
    wl.setup(Tracer(enabled=False))
    return wl


@pytest.mark.parametrize("name", ["case_study", "mining"])
def test_pipeline_workload_inputs_are_seeded(name, work):
    a = _setup(WORKLOADS[name], 7, work / "a")
    b = _setup(WORKLOADS[name], 7, work / "b")
    c = _setup(WORKLOADS[name], 8, work / "c")
    for f in INPUT_FILES:
        assert filecmp.cmp(work / "a" / f, work / "b" / f, shallow=False)
    assert (a.cfg.seed, a.cfg.sample_n, a.cfg.noise) == (b.cfg.seed, b.cfg.sample_n, b.cfg.noise)
    assert (a.cfg.seed, c.cfg.seed) == (7, 8)


def test_repair_long_instances_are_seeded(work):
    def instances(seed, path):
        return [(i.draft.step_ids, i.constraints) for i in _setup(RepairLong, seed, path).instances]

    first = instances(3, work / "a")
    assert first == instances(3, work / "b")
    assert first != instances(4, work / "c")


def test_repair_long_tiles_prefixed_copies(work):
    wl = _setup(RepairLong, 3, work, smoke=False)
    ids = wl.instances[0].draft.step_ids
    n = 30 * REPAIR_LONG_COPIES
    assert len(ids) == n and len(set(ids)) == n
    assert {i.split(".")[0] for i in ids} == {f"c{c}" for c in range(REPAIR_LONG_COPIES)}


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "p"),
        Span(1, "a", 1.0, 4.0, 0, "p"),
        Span(2, "b", 3.0, 6.0, 0, "p"),  # overlaps a: children cover [1, 6]
        Span(3, "a.child", 2.0, 3.0, 1, "p"),
        Span(4, "late", 9.0, 12.0, 0, "p"),  # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_layer_values_take_median_over_passes_and_fall_back_to_setup():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "pipeline.stage.extract", 0.0, 4.0, None, "pass1"),
        Span(1, "rules.extract", 1.0, 2.0, 0, "pass1"),
        Span(2, "rules.extract", 10.0, 13.0, None, "pass3"),
        Span(3, "pipeline.load_config", 0.0, 0.5, None, SETUP),
    ]
    tracer.counters["pass1"]["rules.strong"] = 4
    tracer.counters["pass3"]["rules.strong"] = 6
    values = layer_values(tracer, ["pass1", "pass3"])
    assert values["pipeline.stage.extract_s"] == pytest.approx(2.0)  # stages report whole spans
    assert values["rules.extract_s"] == pytest.approx(2.0)
    assert values["rules.strong"] == 5
    assert values["pipeline.load_config_s"] == pytest.approx(0.5)


def test_patched_restores_the_namespace():
    from procforge import pipeline

    original = pipeline.repair
    tracer = Tracer()
    with tracing.patched(pipeline, tracer, {"repair": ("repair.search", None)}):
        assert pipeline.repair is not original
    assert pipeline.repair is original


@pytest.mark.parametrize("name", ["case_study", "mining", "repair_long"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_pass_has_no_failures(name, trace):
    result = run.run(name, seed=5, seconds=0, trace=trace, smoke=True, probes=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    if trace:
        assert "trace.overhead_frac" in metrics
        searched = metrics["repair.search_s"]["value"]
        assert (searched == 0) == (name == "mining")
    else:
        assert metrics["pass_s"]["value"] > 0


def test_run_leaves_the_tracked_tree_unchanged():
    def status():
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=run.ROOT, capture_output=True, text=True, check=True,
        ).stdout

    if shutil.which("git") is None or not (run.ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    before = status()
    for trace in (False, True):  # set-up probes run only untraced; spans are written only traced
        run.run("case_study", seed=5, seconds=0, trace=trace, smoke=True, probes=1)
    assert status() == before
