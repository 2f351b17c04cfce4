"""File-based pipeline stages over a single config.

Each stage reads validated artifacts, writes its outputs atomically, and
leaves a run manifest (input hashes, config hash, seed, tool version)
beside every artifact, so any stage can be re-run or substituted with
hand-edited files.  Two runs with the same config and master seed
produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .errors import ConfigError, SampleValidationError
from .inventory import DomainInventory, parse_inventory, resolve_dynamic_domains
from .metrics import RAW_BINARY, RAW_GAP, evaluate, format_table, reports_to_json, sequence_report
from .perturb import PerturbationSpec, perturb
from .repair import (
    RepairWeights,
    SearchParams,
    constraints_from_dict,
    constraints_to_dict,
    derive_seed,
    map_rules_to_constraints,
    procedure_from_dict,
    procedure_to_dict,
    repair,
)
from .rules import ExtractionConfig, extract_rules, rule_set_from_dict, rule_set_to_dict
from .sampling import NoiseSpec, OracleSpec, build_prompt, fetch_samples, ingest_samples, simulate_oracle
from .sampling import EndpointConfig, SOURCE_ENDPOINT, SOURCE_FILE, SOURCE_ORACLE
from .schemas import first_violation
from .templates import build_template, serialize_template, template_from_dict
from .world_model import aggregate, serialize_world_model, world_model_from_dict


def validate_artifact(name: str, doc: object, source: str = "<memory>") -> None:
    """Validate a document against one of the shipped artifact schemas."""
    violation = first_violation(name, doc)
    if violation is not None:
        path, message = violation
        raise ConfigError(f"{source}: schema {name} violation at {path}: {message}")
    if name == "world_model" and isinstance(doc, dict) and "template" in doc:
        validate_artifact("template", doc["template"], source)


# ── config ────────────────────────────────────────────────────────────────

DEFAULT_PATHS = {
    "inventory": "inventory.json",
    "oracles": "oracles.json",
    "templates_dir": "out/templates",
    "samples_dir": "out/samples",
    "world_models_dir": "out/world_models",
    "rules": "out/rules.json",
    "truth_procedure": "truth_procedure.json",
    "draft_procedure": "out/draft.json",
    "perturbation_log": "out/perturbation_log.json",
    "constraints": "out/constraints.json",
    "repaired_procedure": "out/repaired.json",
    "metrics": "out/metrics.json",
    "metrics_table": "out/metrics.txt",
    "tuning": "out/tuning.json",
}


@dataclass
class PipelineConfig:
    base_dir: Path
    paths: dict[str, Path]
    seed: int
    sample_n: int = 250
    sample_source: str = SOURCE_ORACLE
    sample_objects: list[str] = field(default_factory=list)
    noise: NoiseSpec = NoiseSpec()
    extraction: ExtractionConfig = ExtractionConfig()
    weights: RepairWeights = RepairWeights()
    search: SearchParams = SearchParams()
    raw_penalty: str = RAW_BINARY
    perturbation: PerturbationSpec | None = None
    tune_grid: dict[str, list[float]] = field(default_factory=dict)
    endpoint: EndpointConfig | None = None
    strict: bool = False
    config_hash: str = ""

    def path(self, key: str) -> Path:
        return self.paths[key]


def _load_config_doc(path: Path) -> tuple[dict, str]:
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if path.suffix == ".toml":
        try:
            import tomllib  # Python 3.11+
        except ModuleNotFoundError:
            try:
                import tomli as tomllib
            except ModuleNotFoundError as exc:
                raise ConfigError("TOML config needs Python 3.11+ or the tomli package") from exc
        try:
            return tomllib.loads(raw.decode("utf-8")), digest
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{path}: invalid TOML: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), digest
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _config_table(table: object, where: str, allowed) -> dict:
    """``table``, checked to be a table whose keys are all in ``allowed``.

    A misspelt key or section fails loudly instead of leaving its
    defaults in force.
    """
    if not isinstance(table, dict):
        raise ConfigError(f"config [{where}] must be a table" if where else "config must be a table")
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        names = ", ".join(repr(f"{where}.{key}" if where else key) for key in unknown)
        raise ConfigError(f"unknown config key {names}")
    return table


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Load a TOML or JSON pipeline config; CLI overrides take precedence."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    doc, digest = _load_config_doc(path)
    # [extraction], [repair.weights], [repair.search] and [endpoint] are
    # checked by the dataclasses they are passed to.
    _config_table(doc, "", ("seed", "paths", "sample", "extraction", "repair", "perturb", "tune", "endpoint"))
    overrides = overrides or {}
    if "seed" in overrides and overrides["seed"] is not None:
        doc["seed"] = overrides["seed"]
    if "seed" not in doc:
        raise ConfigError("config must set a master seed")
    base = path.parent
    paths = dict(DEFAULT_PATHS)
    paths.update(_config_table(doc.get("paths", {}), "paths", DEFAULT_PATHS))
    resolved = {k: (base / v) for k, v in paths.items()}

    sample = _config_table(doc.get("sample", {}), "sample", ("n", "source", "objects", "noise"))
    noise_doc = _config_table(sample.get("noise", {}), "sample.noise", ("reward_flip_rate", "effect_corrupt_rate"))
    repair_doc = _config_table(doc.get("repair", {}), "repair", ("weights", "search", "raw_penalty"))
    raw_penalty = repair_doc.get("raw_penalty", RAW_BINARY)
    if raw_penalty not in (RAW_BINARY, RAW_GAP):
        raise ConfigError(f"repair.raw_penalty must be 'binary' or 'gap', got {raw_penalty!r}")
    perturb_doc = doc.get("perturb")
    if perturb_doc:
        _config_table(perturb_doc, "perturb", ("n_misorderings", "kinds"))
    tune_doc = _config_table(doc.get("tune", {}), "tune", ("grid",))
    tune_grid = _config_table(tune_doc.get("grid", {}), "tune.grid", [f.name for f in fields(RepairWeights)])
    endpoint_doc = doc.get("endpoint")
    try:
        perturbation = None
        if perturb_doc:
            perturbation = PerturbationSpec(
                n_misorderings=int(perturb_doc["n_misorderings"]),
                kinds=tuple(perturb_doc["kinds"]),
                seed=derive_seed(doc["seed"], "perturb"),
            )
        cfg = PipelineConfig(
            base_dir=base,
            paths=resolved,
            seed=int(doc["seed"]),
            sample_n=int(sample.get("n", 250)),
            sample_source=sample.get("source", SOURCE_ORACLE),
            sample_objects=list(sample.get("objects", [])),
            noise=NoiseSpec(
                reward_flip_rate=float(noise_doc.get("reward_flip_rate", 0.0)),
                effect_corrupt_rate=float(noise_doc.get("effect_corrupt_rate", 0.0)),
                seed=0,
            ),
            extraction=ExtractionConfig(**doc.get("extraction", {})),
            weights=RepairWeights(**repair_doc.get("weights", {})),
            search=SearchParams(**repair_doc.get("search", {})),
            raw_penalty=raw_penalty,
            perturbation=perturbation,
            tune_grid={k: list(v) for k, v in tune_grid.items()},
            endpoint=EndpointConfig(**endpoint_doc) if endpoint_doc else None,
            strict=bool(overrides.get("strict", False)),
            config_hash=digest,
        )
    except KeyError as exc:  # [perturb] holds the only keys read without a default
        raise ConfigError(f"missing config key 'perturb.{exc.args[0]}'") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if cfg.sample_source not in (SOURCE_ORACLE, SOURCE_FILE, SOURCE_ENDPOINT):
        raise ConfigError(f"unknown sample source {cfg.sample_source!r}")
    return cfg


# ── artifact io ───────────────────────────────────────────────────────────


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_artifact(
    path: Path, text: str, cfg: PipelineConfig, stage: str, inputs: list[Path], lines: dict | None = None
) -> None:
    """Write an artifact atomically plus its run manifest.

    ``lines``, when given, records the accepted and rejected input line
    counts of an ingested samples file.
    """
    write_atomic(path, text)
    manifest = {
        "artifact": path.name,
        "stage": stage,
        "tool_version": __version__,
        "seed": cfg.seed,
        "config_sha256": cfg.config_hash,
        "inputs": {p.name: _sha256_file(p) for p in sorted(inputs) if p.exists()},
    }
    if lines is not None:
        manifest["lines"] = lines
    write_atomic(path.with_name(path.name + ".manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path, schema: str | None = None) -> dict:
    if not path.exists():
        raise ConfigError(f"missing input artifact: {path}")
    try:
        doc = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if schema:
        validate_artifact(schema, doc, str(path))
    return doc


def _load_inventory(cfg: PipelineConfig) -> DomainInventory:
    path = cfg.path("inventory")
    if not path.exists():
        raise ConfigError(f"missing input artifact: {path}")
    return resolve_dynamic_domains(parse_inventory(path.read_text("utf-8")))


def _load_template_files(cfg: PipelineConfig, objects: list[str] | None = None):
    tdir = cfg.path("templates_dir")
    if not tdir.exists():
        raise ConfigError(f"missing templates directory: {tdir} (run the template stage first)")
    out = []
    for path in sorted(tdir.glob("*.json")):
        if path.name.endswith(".manifest.json"):
            continue
        doc = _read_json(path, "template")
        tpl = template_from_dict(doc)
        if objects is None or tpl.focal_object in objects:
            out.append((path, tpl))
    if not out:
        raise ConfigError(f"no templates found under {tdir}")
    return out


# ── stages ────────────────────────────────────────────────────────────────


def stage_template(cfg: PipelineConfig) -> list[Path]:
    inv = _load_inventory(cfg)
    outputs = []
    for obj in inv.objects:
        tpl = build_template(inv, obj.id)
        out = cfg.path("templates_dir") / f"{obj.id}.json"
        write_artifact(out, serialize_template(tpl), cfg, "template", [cfg.path("inventory")])
        outputs.append(out)
    return outputs


def stage_sample(cfg: PipelineConfig) -> list[Path]:
    objects = cfg.sample_objects or None
    templates = _load_template_files(cfg, objects)
    if cfg.sample_source == SOURCE_ORACLE:
        oracles_doc = _read_json(cfg.path("oracles"), "oracles")
    outputs = []
    for tpl_path, tpl in templates:
        out = cfg.path("samples_dir") / f"{tpl.focal_object}.jsonl"
        inputs = [cfg.path("inventory"), tpl_path]
        if cfg.sample_source == SOURCE_ORACLE:
            if tpl.focal_object not in oracles_doc:
                raise ConfigError(f"no oracle spec for object {tpl.focal_object!r}")
            oracle = OracleSpec.from_dict(oracles_doc[tpl.focal_object])
            noise = NoiseSpec(
                reward_flip_rate=cfg.noise.reward_flip_rate,
                effect_corrupt_rate=cfg.noise.effect_corrupt_rate,
                seed=derive_seed(cfg.seed, f"sample:{tpl.focal_object}"),
            )
            batch = simulate_oracle(tpl, oracle, cfg.sample_n, noise)
            inputs.append(cfg.path("oracles"))
            lines = None
        else:
            if cfg.sample_source == SOURCE_FILE:
                if not out.exists():
                    raise ConfigError(f"sample source 'file' expects an existing file: {out}")
                report = ingest_samples(out.read_text("utf-8"), tpl, strict=cfg.strict)
                rejection_inputs = [*inputs, out]  # hashed before the accepted lines replace it
            else:
                if cfg.endpoint is None:
                    raise ConfigError("sample source 'endpoint' needs an [endpoint] config section")
                prompt = build_prompt(tpl, cfg.sample_n)
                report = fetch_samples(cfg.endpoint, prompt, tpl, strict=cfg.strict)
                rejection_inputs = inputs
            batch = report.batch
            # [line, reason] pairs; the rewritten samples file keeps only accepted lines.
            rejected = out.with_name(f"{tpl.focal_object}.rejections.json")
            text = json.dumps(report.rejections, indent=2) + "\n"
            write_artifact(rejected, text, cfg, "sample", rejection_inputs)
            outputs.append(rejected)
            lines = {"accepted": len(batch.samples), "rejected": len(report.rejections)}
        write_artifact(out, batch.to_jsonl(), cfg, "sample", inputs, lines)
        outputs.append(out)
    return outputs


def stage_aggregate(cfg: PipelineConfig) -> list[Path]:
    templates = _load_template_files(cfg)
    by_object = {tpl.focal_object: (path, tpl) for path, tpl in templates}
    sdir = cfg.path("samples_dir")
    if not sdir.exists():
        raise ConfigError(f"missing samples directory: {sdir} (run the sample stage first)")
    outputs = []
    for sample_path in sorted(sdir.glob("*.jsonl")):
        obj = sample_path.stem
        if obj not in by_object:
            raise ConfigError(f"samples file {sample_path} has no matching template")
        tpl_path, tpl = by_object[obj]
        report = ingest_samples(sample_path.read_text("utf-8"), tpl, strict=True)
        wm = aggregate(report.batch)
        out = cfg.path("world_models_dir") / f"{obj}.json"
        write_artifact(out, serialize_world_model(wm), cfg, "aggregate", [sample_path, tpl_path])
        outputs.append(out)
    return outputs


def stage_extract(cfg: PipelineConfig) -> list[Path]:
    inv = _load_inventory(cfg)
    wdir = cfg.path("world_models_dir")
    if not wdir.exists():
        raise ConfigError(f"missing world-models directory: {wdir} (run the aggregate stage first)")
    models = []
    inputs = [cfg.path("inventory")]
    for path in sorted(wdir.glob("*.json")):
        if path.name.endswith(".manifest.json"):
            continue
        try:
            models.append(world_model_from_dict(_read_json(path, "world_model")))
        except SampleValidationError as exc:
            raise SampleValidationError(f"{path}: {exc}") from exc
        inputs.append(path)
    if not models:
        raise ConfigError(f"no world models found under {wdir}")
    rule_set = extract_rules(models, inv, cfg.extraction)
    doc = rule_set_to_dict(rule_set)
    validate_artifact("rules", doc, "rules")
    out = cfg.path("rules")
    write_artifact(out, json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg, "extract", inputs)
    return [out]


def stage_map(cfg: PipelineConfig) -> list[Path]:
    rules_doc = _read_json(cfg.path("rules"), "rules")
    rule_set = rule_set_from_dict(rules_doc)
    draft = procedure_from_dict(_read_json(cfg.path("draft_procedure"), "procedure"))
    mapping = map_rules_to_constraints(draft, list(rule_set.causal_rules))
    doc = constraints_to_dict(list(mapping.constraints), [])
    doc["unmatched_rules"] = [r.to_dict() for r in mapping.unmatched]
    doc["dropped_contradictions"] = [
        {"predecessor": c.predecessor, "successor": c.successor, "origin": c.origin}
        for c in mapping.dropped
    ]
    validate_artifact("constraints", doc, "constraints")
    out = cfg.path("constraints")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_artifact(out, text, cfg, "map", [cfg.path("rules"), cfg.path("draft_procedure")])
    return [out]


def _read_constraints(cfg: PipelineConfig):
    doc = _read_json(cfg.path("constraints"), "constraints")
    return constraints_from_dict(doc)


def stage_repair(cfg: PipelineConfig) -> list[Path]:
    draft = procedure_from_dict(_read_json(cfg.path("draft_procedure"), "procedure"))
    constraints, clusters = _read_constraints(cfg)
    result = repair(
        draft,
        constraints,
        clusters,
        weights=cfg.weights,
        search=cfg.search,
        seed=derive_seed(cfg.seed, "repair"),
        raw_mode=cfg.raw_penalty,
    )
    repaired = draft.reordered(list(result.order))
    doc = procedure_to_dict(repaired)
    doc["repair"] = result.to_dict()
    validate_artifact("procedure", doc, "repaired procedure")
    out = cfg.path("repaired_procedure")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_artifact(out, text, cfg, "repair", [cfg.path("draft_procedure"), cfg.path("constraints")])
    return [out]


def stage_evaluate(cfg: PipelineConfig) -> list[Path]:
    truth = procedure_from_dict(_read_json(cfg.path("truth_procedure"), "procedure"))
    draft = procedure_from_dict(_read_json(cfg.path("draft_procedure"), "procedure"))
    repaired_doc = _read_json(cfg.path("repaired_procedure"), "procedure")
    repaired = procedure_from_dict({"steps": repaired_doc["steps"]})
    constraints, _ = _read_constraints(cfg)
    pairs = [(c.predecessor, c.successor) for c in constraints]
    draft_report, repaired_report = evaluate(
        draft.step_ids, repaired.step_ids, truth.step_ids, pairs
    )
    rows = {"draft": draft_report, "repaired": repaired_report}
    doc = json.loads(reports_to_json(rows))
    validate_artifact("metrics", doc, "metrics")
    inputs = [
        cfg.path("truth_procedure"),
        cfg.path("draft_procedure"),
        cfg.path("repaired_procedure"),
        cfg.path("constraints"),
    ]
    out = cfg.path("metrics")
    write_artifact(out, reports_to_json(rows), cfg, "evaluate", inputs)
    table = cfg.path("metrics_table")
    write_artifact(table, format_table(rows), cfg, "evaluate", inputs)
    return [out, table]


def stage_perturb(cfg: PipelineConfig) -> list[Path]:
    if cfg.perturbation is None:
        raise ConfigError("config has no [perturb] section")
    truth = procedure_from_dict(_read_json(cfg.path("truth_procedure"), "procedure"))
    draft, log = perturb(truth, cfg.perturbation, strict=cfg.strict)
    out = cfg.path("draft_procedure")
    write_artifact(out, json.dumps(procedure_to_dict(draft), indent=2, sort_keys=True) + "\n",
                   cfg, "perturb", [cfg.path("truth_procedure")])
    log_path = cfg.path("perturbation_log")
    write_artifact(log_path, json.dumps(log.to_dict(), indent=2, sort_keys=True) + "\n",
                   cfg, "perturb", [cfg.path("truth_procedure")])
    return [out, log_path]


def stage_tune(cfg: PipelineConfig) -> list[Path]:
    if not cfg.tune_grid:
        raise ConfigError("config has no [tune.grid] section")
    truth = procedure_from_dict(_read_json(cfg.path("truth_procedure"), "procedure"))
    draft = procedure_from_dict(_read_json(cfg.path("draft_procedure"), "procedure"))
    constraints, clusters = _read_constraints(cfg)
    pairs = [(c.predecessor, c.successor) for c in constraints]
    grid = {
        "lambda_pos": cfg.tune_grid.get("lambda_pos", [cfg.weights.lambda_pos]),
        "lambda_edge": cfg.tune_grid.get("lambda_edge", [cfg.weights.lambda_edge]),
        "lambda_cluster": cfg.tune_grid.get("lambda_cluster", [cfg.weights.lambda_cluster]),
        "lambda_raw": cfg.tune_grid.get("lambda_raw", [cfg.weights.lambda_raw]),
    }
    seed = derive_seed(cfg.seed, "tune")
    rows = []
    for pos, edge, cluster, raw in itertools.product(
        grid["lambda_pos"], grid["lambda_edge"], grid["lambda_cluster"], grid["lambda_raw"]
    ):
        weights = RepairWeights(lambda_pos=pos, lambda_edge=edge, lambda_cluster=cluster, lambda_raw=raw)
        result = repair(draft, constraints, clusters, weights=weights, search=cfg.search,
                        seed=seed, raw_mode=cfg.raw_penalty)
        report = sequence_report(list(result.order), truth.step_ids, pairs)
        rows.append(
            {
                "weights": {"lambda_pos": pos, "lambda_edge": edge, "lambda_cluster": cluster, "lambda_raw": raw},
                "raw_slack": report.raw_slack,
                "kendall_tau": report.kendall_tau,
                "breakpoints": report.breakpoints,
                "metrics": report.to_dict(),
            }
        )
    rows.sort(key=lambda r: (r["raw_slack"], -r["kendall_tau"], r["breakpoints"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    out = cfg.path("tuning")
    text = json.dumps({"ranking": rows}, indent=2, sort_keys=True) + "\n"
    write_artifact(out, text, cfg, "tune",
                   [cfg.path("truth_procedure"), cfg.path("draft_procedure"), cfg.path("constraints")])
    return [out]


#: Every stage in standard order; ``run_all`` runs all but the last, ``tune``.
STAGES = {
    "template": stage_template,
    "sample": stage_sample,
    "aggregate": stage_aggregate,
    "extract": stage_extract,
    "perturb": stage_perturb,
    "map": stage_map,
    "repair": stage_repair,
    "evaluate": stage_evaluate,
    "tune": stage_tune,
}


def run_stage(stage: str, cfg: PipelineConfig) -> list[Path]:
    """Run one pipeline stage; returns the artifact paths it wrote."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    return STAGES[stage](cfg)


def run_all(cfg: PipelineConfig) -> dict[str, list[Path]]:
    """Run every stage but ``tune``, in standard order (template through evaluate)."""
    return {stage: run_stage(stage, cfg) for stage in list(STAGES)[:-1]}
