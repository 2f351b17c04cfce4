"""The benchmark's workloads, built from a workload seed on temp copies
of the shipped inputs under ``benchmark/``.

Each workload has a set-up (staging, ``load_config``, instance
generation) and a pass, the unit that is timed and repeated:

- ``case_study``: the shipped config, stages template -> evaluate, then
  tune.  Repair and tune take nearly all of the time.
- ``mining``: the same inventory and oracles at 5000 noisy samples per
  object, stages template -> extract.  Repair never runs.
- ``repair_long``: one ``repair()`` call on a 90-step procedure (three
  tiled copies of the truth procedure, perturbed, with the mined rules
  mapped onto it), warm start only.

Only public entry points are called.  Every stage call and every
``repair()`` call is one operation; an operation fails when it raises or
when a check on its output fails.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from procforge import pipeline
from procforge.perturb import PerturbationSpec, perturb
from procforge.repair import (
    Procedure,
    SearchParams,
    constraints_from_dict,
    derive_seed,
    map_rules_to_constraints,
    objective_cost,
    procedure_from_dict,
    repair,
)
from procforge.rules import rule_set_from_dict
from procforge.sampling import NoiseSpec

from tracing import STAGE_PREFIX, Tracer

DEFAULT_SEED = 20240
INPUT_FILES = ("config.toml", "inventory.json", "oracles.json", "truth_procedure.json")
MINING_STAGES = ("template", "sample", "aggregate", "extract")
CASE_STUDY_STAGES = MINING_STAGES + ("perturb", "map", "repair", "evaluate", "tune")
MINING_SAMPLES = 5000
MINING_NOISE = {"reward_flip_rate": 0.05, "effect_corrupt_rate": 0.02}
REPAIR_LONG_COPIES = 2
REPAIR_LONG_MISORDERINGS_PER_COPY = 20
REPAIR_LONG_INSTANCES = 32
REFERENCES = Path(__file__).resolve().parent / "references.json"


def _count_kind(items, attr: str, value: str) -> int:
    return sum(1 for item in items if getattr(item, attr) == value)


def _observe_rules(tracer: Tracer, rule_set, args) -> None:
    tracer.add("rules.required", _count_kind(rule_set.preconditions, "kind", "required"))
    tracer.add("rules.forbidden", _count_kind(rule_set.preconditions, "kind", "forbidden"))
    tracer.add("rules.strong", _count_kind(rule_set.causal_rules, "strength", "strong"))
    tracer.add("rules.weak", _count_kind(rule_set.causal_rules, "strength", "weak"))


def _observe_repair(tracer: Tracer, result, args) -> None:
    n = len(result.order)
    iterations = result.trace["iterations"]
    tracer.add("repair.calls", 1)
    tracer.add("repair.iterations", iterations)
    tracer.add("repair.moves_evaluated", iterations * n * (n - 1))
    tracer.add("repair.improved_calls", result.cost.total < result.trace["draft_cost"])


def _observe_mapping(tracer: Tracer, mapping, args) -> None:
    tracer.add("repair.constraints", len(mapping.constraints))
    tracer.add("repair.dropped", len(mapping.dropped))


def _observe_evaluate(tracer: Tracer, reports, args) -> None:
    repaired = reports[1]
    tracer.set("metrics.kendall_tau", repaired.kendall_tau)
    tracer.set("metrics.raw_slack", repaired.raw_slack)


def _file_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _observe_write(tracer: Tracer, result, args) -> None:
    path = Path(args[0])
    manifest = path.with_name(path.name + ".manifest.json")
    tracer.add("pipeline.bytes_written", _file_bytes(path) + _file_bytes(manifest))


def _counter(name: str, size):
    return lambda tracer, result, args: tracer.add(name, size(result))


# attribute of procforge.pipeline -> (span name, observer)
PIPELINE_WRAPPERS = {
    "simulate_oracle": ("sampling.simulate", _counter("sampling.samples", lambda b: len(b.samples))),
    "ingest_samples": ("sampling.ingest", _counter("sampling.lines_rejected", lambda r: len(r.rejections))),
    "aggregate": ("world_model.aggregate", _counter("world_model.entries", lambda wm: len(wm.entries))),
    "serialize_world_model": ("world_model.serialize", None),
    "world_model_from_dict": ("world_model.from_dict", None),
    "template_from_dict": ("templates.from_dict", None),
    "build_template": ("templates.build", None),
    "parse_inventory": ("inventory.parse", None),
    "resolve_dynamic_domains": ("inventory.parse", None),
    "extract_rules": ("rules.extract", _observe_rules),
    "perturb": ("perturb.perturb", _counter("perturb.moves", lambda out: len(out[1].moves))),
    "map_rules_to_constraints": ("repair.map", _observe_mapping),
    "repair": ("repair.search", _observe_repair),
    "evaluate": ("metrics.evaluate", _observe_evaluate),
    "sequence_report": ("metrics.evaluate", None),
    "validate_artifact": ("pipeline.validate_artifact", _counter("pipeline.validate_artifact_calls", lambda r: 1)),
    "write_artifact": ("pipeline.write_artifact", _observe_write),
}


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def order_digest(order) -> str:
    return sha256_hex(json.dumps(list(order)).encode())


def load_references() -> dict:
    return json.loads(REFERENCES.read_text("utf-8"))


@dataclass
class PassResult:
    """One timed pass: its wall time and the outcome of each operation."""

    seconds: float = 0.0
    ops: dict[str, str | None] = field(default_factory=dict)  # op -> failure reason or None
    quality: dict[str, float] = field(default_factory=dict)

    def fail(self, op: str, reason: str) -> None:
        if self.ops.get(op) is None:
            self.ops[op] = reason

    @property
    def failures(self) -> list[str]:
        return [f"{op}: {why}" for op, why in self.ops.items() if why is not None]


def stage_inputs(root: Path, workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    for name in INPUT_FILES:
        shutil.copyfile(root / "benchmark" / name, workdir / name)
    return workdir / "config.toml"


def _run_stages(cfg, stages, tracer: Tracer, result: PassResult) -> None:
    """Run stages in order; stop at the first that raises."""
    for stage in stages:
        try:
            with tracer.span(STAGE_PREFIX + stage):
                pipeline.run_stage(stage, cfg)
            result.ops[stage] = None
        except Exception as exc:  # counted as a failed operation
            result.ops[stage] = f"raised {type(exc).__name__}: {exc}"
            return


class _PipelineWorkload:
    """A workload whose pass runs pipeline stages in a staged directory."""

    stages: tuple[str, ...] = ()
    compared: dict[str, str] = {}  # artifact path key -> op that wrote it

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool = False):
        self.root, self.workdir, self.seed, self.smoke = root, workdir, seed, smoke
        self.cfg = None
        self.first_outputs: dict[str, bytes] = {}
        self.references = load_references()[self.name].get(str(seed))

    def setup(self, tracer: Tracer) -> None:
        config = stage_inputs(self.root, self.workdir)
        self.cfg = tracer.wrap("pipeline.load_config", pipeline.load_config)(config, {"seed": self.seed})
        self.adjust_config(self.cfg)

    def adjust_config(self, cfg) -> None:
        pass

    def run_pass(self, tracer: Tracer, repeat: bool = False) -> PassResult:
        """Run the stages on fresh outputs; every pass repeats the same inputs."""
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        result = PassResult()
        start = perf_counter()
        _run_stages(self.cfg, self.stages, tracer, result)
        result.seconds = perf_counter() - start
        if not result.failures:
            self.check(result)
        return result

    def check(self, result: PassResult) -> None:
        for key, op in self.compared.items():
            if op not in self.stages:
                continue
            data = self.cfg.path(key).read_bytes()
            first = self.first_outputs.setdefault(key, data)
            if data != first:
                result.fail(op, f"{self.cfg.path(key).name} differs from the first pass")


class CaseStudy(_PipelineWorkload):
    name = "case_study"
    stages = CASE_STUDY_STAGES
    compared = {
        "rules": "extract",
        "repaired_procedure": "repair",
        "metrics": "evaluate",
        "tuning": "tune",
    }

    def adjust_config(self, cfg) -> None:
        # The draft stays the shipped case study's: drafts perturbed from
        # other seeds differ in difficulty, and moved pass_s by up to 45%
        # between seeds.  The seed still drives sampling and the shuffles
        # of repair and tune.
        cfg.perturbation = replace(cfg.perturbation, seed=derive_seed(DEFAULT_SEED, "perturb"))
        if self.smoke:
            cfg.search = replace(cfg.search, restarts=1)
            cfg.tune_grid = {"lambda_raw": [cfg.weights.lambda_raw]}

    def check(self, result: PassResult) -> None:
        super().check(result)
        cfg = self.cfg
        doc = json.loads(cfg.path("repaired_procedure").read_text("utf-8"))
        draft = procedure_from_dict(json.loads(cfg.path("draft_procedure").read_text("utf-8")))
        constraints, clusters = constraints_from_dict(json.loads(cfg.path("constraints").read_text("utf-8")))
        order = doc["repair"]["order"]
        cost = doc["repair"]["cost"]["total"]

        def recompute(o):
            return objective_cost(o, draft, constraints, clusters, cfg.weights, cfg.raw_penalty).total

        if recompute(order) != cost:
            result.fail("repair", f"reported cost {cost} != recomputed {recompute(order)}")
        draft_cost = recompute(draft.step_ids)
        if cost > draft_cost:
            result.fail("repair", f"repaired cost {cost} > draft cost {draft_cost}")
        raw_slack = json.loads(cfg.path("metrics").read_text("utf-8"))["repaired"]["raw_slack"]
        result.quality.update(objective_cost=cost, raw_slack=raw_slack)
        ref = self.references
        if ref is None or self.smoke:
            return
        if cost > ref["cost"]:
            result.fail("repair", f"cost {cost} > reference {ref['cost']}")
        elif cost == ref["cost"]:
            # an equal cost must come from the same search trajectory
            if order_digest(order) != ref["order_sha256"]:
                result.fail("repair", "repaired order differs from the reference")
            if raw_slack != ref["raw_slack"]:
                result.fail("evaluate", f"raw slack {raw_slack} != reference {ref['raw_slack']}")


class Mining(_PipelineWorkload):
    name = "mining"
    stages = MINING_STAGES
    compared = {"rules": "extract"}

    def adjust_config(self, cfg) -> None:
        cfg.sample_n = 250 if self.smoke else MINING_SAMPLES
        cfg.noise = NoiseSpec(seed=0, **MINING_NOISE)

    def check(self, result: PassResult) -> None:
        super().check(result)
        ref = self.references
        if ref is not None and not self.smoke:
            digest = sha256_hex(self.cfg.path("rules").read_bytes())
            if digest != ref["rules_sha256"]:
                result.fail("extract", "rules.json differs from the reference")


def tile_procedure(truth: Procedure, copies: int) -> Procedure:
    """``copies`` back-to-back copies of ``truth``, step ids prefixed per copy."""
    return Procedure(
        steps=tuple(
            replace(step, id=f"c{c}.{step.id}") for c in range(copies) for step in truth.steps
        )
    )


@dataclass(frozen=True)
class RepairInstance:
    draft: Procedure
    constraints: tuple


class RepairLong:
    """Warm-start-only repair of long perturbed procedures, no file I/O.

    Set-up mines rules at the workload seed (template -> extract) and
    builds the instances; a pass is one ``repair()`` call.
    """

    name = "repair_long"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool = False):
        self.root, self.workdir, self.seed, self.smoke = root, workdir, seed, smoke
        self.instances: list[RepairInstance] = []
        self.next_instance = 0
        self.references = load_references()[self.name].get(str(seed), [])

    def setup(self, tracer: Tracer) -> None:
        config = stage_inputs(self.root, self.workdir)
        cfg = tracer.wrap("pipeline.load_config", pipeline.load_config)(config, {"seed": self.seed})
        ops = PassResult()
        _run_stages(cfg, MINING_STAGES, tracer, ops)
        if ops.failures:
            raise RuntimeError("repair_long set-up failed: " + "; ".join(ops.failures))
        rules = list(rule_set_from_dict(json.loads(cfg.path("rules").read_text("utf-8"))).causal_rules)
        truth = procedure_from_dict(json.loads(cfg.path("truth_procedure").read_text("utf-8")))
        copies, count = (1, 2) if self.smoke else (REPAIR_LONG_COPIES, REPAIR_LONG_INSTANCES)
        tiled = tile_procedure(truth, copies)
        traced_perturb = tracer.wrap("perturb.perturb", perturb, PIPELINE_WRAPPERS["perturb"][1])
        traced_map = tracer.wrap("repair.map", map_rules_to_constraints, _observe_mapping)
        for i in range(count):
            spec = PerturbationSpec(
                n_misorderings=REPAIR_LONG_MISORDERINGS_PER_COPY * copies,
                kinds=cfg.perturbation.kinds,
                seed=derive_seed(self.seed, f"repair_long:{i}"),
            )
            draft, _ = traced_perturb(tiled, spec)
            self.instances.append(RepairInstance(draft, traced_map(draft, rules).constraints))
        self.weights = cfg.weights
        self.raw_mode = cfg.raw_penalty
        self.search = SearchParams(restarts=1, max_stale_iters=cfg.search.max_stale_iters)

    def run_pass(self, tracer: Tracer, repeat: bool = False) -> PassResult:
        """Repair the next instance; ``repeat`` re-runs the previous one."""
        if not repeat:
            self.next_instance += 1
        index = (self.next_instance - 1) % len(self.instances)
        inst = self.instances[index]
        result = PassResult()
        traced_repair = tracer.wrap("repair.search", repair, _observe_repair)
        out = None
        start = perf_counter()
        try:
            out = traced_repair(
                inst.draft,
                inst.constraints,
                (),
                weights=self.weights,
                search=self.search,
                seed=derive_seed(self.seed, f"repair:{index}"),
                raw_mode=self.raw_mode,
            )
        except Exception as exc:  # counted as a failed operation
            result.ops["repair"] = f"raised {type(exc).__name__}: {exc}"
        result.seconds = perf_counter() - start
        if out is not None:
            result.ops["repair"] = None
            self.check(inst, index, out, result)
        return result

    def check(self, inst: RepairInstance, index: int, out, result: PassResult) -> None:
        def recompute(order):
            return objective_cost(list(order), inst.draft, inst.constraints, (), self.weights, self.raw_mode).total

        if sorted(out.order) != sorted(inst.draft.step_ids):
            result.fail("repair", "order is not a permutation of the draft")
            return
        cost = out.cost.total
        if recompute(out.order) != cost:
            result.fail("repair", f"reported cost {cost} != recomputed {recompute(out.order)}")
        draft_cost = recompute(inst.draft.step_ids)
        if cost > draft_cost:
            result.fail("repair", f"repaired cost {cost} > draft cost {draft_cost}")
        if not self.smoke and index < len(self.references) and cost > self.references[index]:
            result.fail("repair", f"cost {cost} > reference {self.references[index]}")
        result.quality["objective_cost"] = cost


WORKLOADS = {cls.name: cls for cls in (CaseStudy, Mining, RepairLong)}
