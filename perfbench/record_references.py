"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_references.py [SEED ...]

Run from the repository root on the commit whose answers are the
reference.  For each seed (default: 0-15 and 20240) it records

- ``case_study``: digest of the repaired order, its cost and the raw
  slack, from stages template -> evaluate;
- ``mining``: digest of ``rules.json``;
- ``repair_long``: the repaired cost of the first instances,

and rewrites ``perfbench/references.json``.  A later run fails its check
when it returns a higher cost than the reference; at an equal cost the
order and raw slack must match too.
"""

import json
import sys
from pathlib import Path

import run

run._require_program()

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CASE_STUDY_STAGES,
    REFERENCES,
    CaseStudy,
    Mining,
    RepairLong,
    order_digest,
    sha256_hex,
)

DEFAULT_SEEDS = list(range(16)) + [20240]
REPAIR_LONG_RECORDED = 4


def _run(cls, seed: int, work: Path, passes: int = 1):
    wl = cls(run.ROOT, work, seed)
    wl.references = [] if cls is RepairLong else None
    if cls is CaseStudy:
        wl.stages = CASE_STUDY_STAGES[:-1]  # the tune stage writes nothing checked here
    off = Tracer(enabled=False)
    wl.setup(off)
    results = [wl.run_pass(off) for _ in range(passes)]
    failures = [f for r in results for f in r.failures]
    if failures:
        raise SystemExit(f"{cls.name} seed {seed} failed: {failures}")
    return wl, results


def record(seed: int) -> dict:
    out = {}
    with run._work_dir() as work:
        wl, (result,) = _run(CaseStudy, seed, work / "case_study")
        doc = json.loads(wl.cfg.path("repaired_procedure").read_text("utf-8"))
        out["case_study"] = {
            "order_sha256": order_digest(doc["repair"]["order"]),
            "cost": result.quality["objective_cost"],
            "raw_slack": result.quality["raw_slack"],
        }
        wl, _ = _run(Mining, seed, work / "mining")
        out["mining"] = {"rules_sha256": sha256_hex(wl.cfg.path("rules").read_bytes())}
        _, results = _run(RepairLong, seed, work / "repair_long", REPAIR_LONG_RECORDED)
        out["repair_long"] = [r.quality["objective_cost"] for r in results]
    return out


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    refs = json.loads(REFERENCES.read_text("utf-8"))
    for seed in seeds:
        for workload, value in record(seed).items():
            refs[workload][str(seed)] = value
        print(f"recorded seed {seed}", flush=True)
    for workload in refs:
        refs[workload] = dict(sorted(refs[workload].items(), key=lambda kv: int(kv[0])))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=False) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
