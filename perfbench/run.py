"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload case_study --seed 20240 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``;
every file the run writes goes under ``.perfbench/`` and the temp
directories there are removed at exit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer
metrics, and the spans are written to ``.perfbench/trace-<workload>-<seed>.json``.

All load is closed-loop from this one process and thread.  Set-up time
is measured in fresh interpreters (``--setup-probe``), from the first
line of this file to the end of the workload's set-up.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
MIN_PASSES = 2


def _require_program() -> None:
    if not (SRC / "procforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no procforge sources under {SRC}; run from a full checkout")
    if not (ROOT / "benchmark" / "config.toml").is_file():
        sys.exit(f"perfbench: no benchmark inputs under {ROOT / 'benchmark'}")
    sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def _work_dir():
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _setup_probe(workload: str, seed: int) -> float:
    from tracing import Tracer
    from workloads import WORKLOADS

    with _work_dir() as work:
        WORKLOADS[workload](ROOT, work, seed).setup(Tracer(enabled=False))
        return time.perf_counter() - _START


def _setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _tail(values: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    line = f"median {statistics.median(values):.6g} over {len(values)}"
    if len(values) >= 20:
        ordered = sorted(values)
        pct = 100 * (len(values) - 10) // len(values)
        line += f", p{pct} {ordered[len(values) - 11]:.6g}"
    return line


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        probes: int = SETUP_PROBES) -> dict:
    """Set up and measure one workload; returns the result object."""
    from procforge import pipeline
    from tracing import Tracer, layer_values, patched
    from workloads import PIPELINE_WRAPPERS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    off = Tracer(enabled=False)
    on = Tracer() if trace else off
    setup_samples = _setup_seconds(workload, seed, probes) if probes and not trace else []
    passes = []  # (traced, PassResult)
    with _work_dir() as work:
        wl = WORKLOADS[workload](ROOT, work, seed, smoke=smoke)
        with patched(pipeline, on, PIPELINE_WRAPPERS) if trace else contextlib.nullcontext():
            wl.setup(on)
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append((False, wl.run_pass(off)))
            if trace:  # the same work again, traced, to price the tracing
                on.pass_id = f"pass{len(passes)}"
                with patched(pipeline, on, PIPELINE_WRAPPERS):
                    passes.append((True, wl.run_pass(on, repeat=True)))
            step = time.perf_counter() - began
            if len(passes) >= MIN_PASSES and time.perf_counter() - start + step > seconds:
                break

    failures = [f for _, p in passes for f in p.failures]
    for failure in failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    untraced = [p.seconds for traced, p in passes if not traced]
    if trace:
        traced_ids = [f"pass{i}" for i in range(1, len(passes), 2)]
        values = layer_values(on, traced_ids)
        search_s = values.get("repair.search_s", 0.0)
        calls = values.get("repair.calls", 0.0)
        values["repair.moves_per_s"] = values.get("repair.moves_evaluated", 0.0) / search_s if search_s else 0.0
        values["repair.improved_frac"] = values.pop("repair.improved_calls", 0.0) / calls if calls else 0.0
        costs = [p.quality["objective_cost"] for traced, p in passes if traced and "objective_cost" in p.quality]
        values["repair.objective_cost"] = statistics.median(costs) if costs else 0.0
        traced_total = sum(p.seconds for traced, p in passes if traced)
        values["trace.overhead_frac"] = (traced_total - sum(untraced)) / sum(untraced)
        on.write(WORK / f"trace-{workload}-{seed}.json")
        declared = spec["per_layer"]
    else:
        values = {
            "pass_s": statistics.median(untraced),
            "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
        print(f"# pass_s: {_tail(untraced)} passes (min {min(untraced):.6g}, max {max(untraced):.6g}); "
              f"setup_s: {_tail(setup_samples or [0.0])} probes")
    print(
        f"# workload={workload} seed={seed} passes={len(passes)} python={sys.version.split()[0]} "
        f"jsonschema={metadata.version('jsonschema')} nproc={os.cpu_count()}"
    )
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    attempted = sum(len(p.ops) for _, p in passes)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(1 for _, p in passes for why in p.ops.values() if why is not None),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="procforge benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=("case_study", "mining", "repair_long"))
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
