"""File-based pipeline stages over a single config.

Each stage reads validated artifacts, writes its outputs atomically, and
leaves a run manifest (input hashes, config hash, seed, tool version)
beside every artifact, so any stage can be re-run or substituted with
hand-edited files.  Two runs with the same config and master seed
produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import TextIO

from . import __version__
from .errors import ValidationError
from .inventory import DomainInventory, parse_inventory, resolve_dynamic_domains
from .metrics import RAW_BINARY, RAW_GAP, evaluate, format_table, sequence_report
from .perturb import PerturbationSpec, perturb
from .repair import (
    Procedure,
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
from .sampling import EndpointConfig, SOURCE_FILE, SOURCE_ORACLE, SOURCES
from .schemas import dump_json, first_violation, load_json
from .templates import DEFAULT_STATE_LIMIT, build_template, template_from_dict, template_to_dict
from .world_model import aggregate, serialize_world_model, world_model_from_dict


def validate_artifact(name: str, doc: object, source: str = "<memory>") -> None:
    """Validate a document against one of the shipped artifact schemas."""
    violation = first_violation(name, doc)
    if violation is not None:
        path, message = violation
        raise ValidationError(f"{source}: schema {name} violation at {path}: {message}")
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


def _parse_config(text: str, suffix: str) -> dict:
    """The config document in ``text``: TOML for a ``.toml`` file, else JSON."""
    if suffix == ".toml":
        try:
            import tomllib  # Python 3.11+
        except ModuleNotFoundError:
            try:
                import tomli as tomllib
            except ModuleNotFoundError as exc:
                raise ValidationError("TOML config needs Python 3.11+ or the tomli package") from exc
        try:
            return tomllib.loads(text)
        except (tomllib.TOMLDecodeError, RecursionError) as exc:  # nesting deeper than the recursion limit
            raise ValidationError(f"invalid TOML: {exc}") from exc
    try:
        return load_json(text)
    except ValueError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc


def _config_table(table: object, where: str, allowed) -> dict:
    """``table``, checked to be a table whose keys are all in ``allowed``.

    A misspelt key or section fails loudly instead of leaving its
    defaults in force.
    """
    if not isinstance(table, dict):
        raise ValidationError(f"config [{where}] must be a table" if where else "config must be a table")
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        names = ", ".join(repr(f"{where}.{key}" if where else key) for key in unknown)
        raise ValidationError(f"unknown config key {names}")
    return table


def _table(cls, table: object, where: str, **fixed):
    """A ``cls`` built from config table ``[where]`` and the ``fixed`` fields.

    The table's keys are ``cls``'s other fields; each one without a
    default must be there.
    """
    own = [f for f in fields(cls) if f.name not in fixed]
    _config_table(table, where, [f.name for f in own])
    for f in own:
        if f.name not in table and f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"missing config key '{where}.{f.name}'")
    try:
        return cls(**table, **fixed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid config value: {exc}") from exc


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Load a TOML or JSON pipeline config.

    ``overrides`` (``seed``, ``n``, ``source``, ``strict``) take precedence
    over the file where they are not None, and are checked the same way.
    Every error names the file once; a ``[paths]`` value that names an
    existing path of the wrong kind fails naming that path instead.
    """
    path = Path(path)
    text = _read_text(path, "config file not found")  # its errors name the file
    with _naming(path):
        doc = _parse_config(text, path.suffix)
        _config_table(doc, "", ("seed", "paths", "sample", "extraction", "repair", "perturb", "tune", "endpoint"))
        overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
        seed = overrides.get("seed", doc.get("seed"))
        if seed is None:
            raise ValidationError("config must set a master seed")
        if not _is_int(seed):
            raise ValidationError(f"config seed must be an integer, got {seed!r}")
        paths = dict(DEFAULT_PATHS)
        paths.update(_config_table(doc.get("paths", {}), "paths", DEFAULT_PATHS))
        for key, value in paths.items():
            if not isinstance(value, str) or "\0" in value:
                raise ValidationError(f"config key 'paths.{key}' must be a string without NUL, got {value!r}")
        paths = {key: path.parent / value for key, value in paths.items()}

        sample = _config_table(doc.get("sample", {}), "sample", ("n", "source", "objects", "noise"))
        sample_n = overrides.get("n", sample.get("n", 250))
        if not _is_int(sample_n) or sample_n < 1:
            raise ValidationError(f"config key 'sample.n' must be an integer >= 1, got {sample_n!r}")
        sample_source = overrides.get("source", sample.get("source", SOURCE_ORACLE))
        if sample_source not in SOURCES:
            raise ValidationError(f"unknown sample source {sample_source!r}")
        sample_objects = sample.get("objects", [])
        if not isinstance(sample_objects, list) or not all(isinstance(name, str) for name in sample_objects):
            raise ValidationError(f"config key 'sample.objects' must be a list of strings, got {sample_objects!r}")
        repair_doc = _config_table(doc.get("repair", {}), "repair", ("weights", "search", "raw_penalty"))
        raw_penalty = repair_doc.get("raw_penalty", RAW_BINARY)
        if raw_penalty not in (RAW_BINARY, RAW_GAP):
            raise ValidationError(f"repair.raw_penalty must be 'binary' or 'gap', got {raw_penalty!r}")
        tune_doc = _config_table(doc.get("tune", {}), "tune", ("grid",))
        perturb_doc, endpoint_doc = doc.get("perturb"), doc.get("endpoint")
        cfg = PipelineConfig(
            paths=paths,
            seed=seed,
            sample_n=sample_n,
            sample_source=sample_source,
            sample_objects=sample_objects,
            noise=_table(NoiseSpec, sample.get("noise", {}), "sample.noise", seed=0),  # each object derives its own
            extraction=_table(ExtractionConfig, doc.get("extraction", {}), "extraction"),
            weights=_table(RepairWeights, repair_doc.get("weights", {}), "repair.weights"),
            search=_table(SearchParams, repair_doc.get("search", {}), "repair.search"),
            raw_penalty=raw_penalty,
            perturbation=(_table(PerturbationSpec, perturb_doc, "perturb", seed=derive_seed(seed, "perturb"))
                          if perturb_doc else None),
            tune_grid=_config_table(tune_doc.get("grid", {}), "tune.grid", [f.name for f in fields(RepairWeights)]),
            endpoint=_table(EndpointConfig, endpoint_doc, "endpoint") if endpoint_doc else None,
            strict=bool(overrides.get("strict", False)),
            config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest(),  # the file's own bytes: UTF-8 round-trips
        )
        _check_tune_grid(cfg)
    _check_paths(path, paths)
    return cfg


def _check_paths(config: Path, paths: dict[str, Path]) -> None:
    """Fail on ``[paths]`` values that the stages cannot use as given.

    No two values may name the same path.  A value that names an existing
    path must name a directory for a ``*_dir`` key and a regular file for
    any other key; that error names the path, the others name ``config``.
    No value may lie inside another, unless both are directories, so that
    no stage writes over, or reads back, another key's files.
    """
    owner: dict[Path, str] = {}
    for key, p in paths.items():
        if (resolved := p.resolve()) in owner:
            raise ValidationError(f"{config}: config keys 'paths.{owner[resolved]}' and 'paths.{key}' name the same path")
        owner[resolved] = key
    for key, p in paths.items():
        kind = "directory" if key.endswith("_dir") else "regular file"
        if p.exists() and not (p.is_dir() if kind == "directory" else p.is_file()):
            raise ValidationError(f"{p}: config key 'paths.{key}' names an existing path that is not a {kind}")
    for p, inner in owner.items():
        for parent in p.parents:
            outer = owner.get(parent)
            if outer and not (outer.endswith("_dir") and inner.endswith("_dir")):
                raise ValidationError(f"{config}: config key 'paths.{inner}' lies inside the path of 'paths.{outer}'")


def _weight_grid(cfg: PipelineConfig) -> dict[str, list[float]]:
    """Each weight's tune values: its ``[tune.grid]`` list, else the configured weight."""
    return {f.name: cfg.tune_grid.get(f.name, [getattr(cfg.weights, f.name)]) for f in fields(RepairWeights)}


def _check_tune_grid(cfg: PipelineConfig) -> None:
    """Fail at load time on a grid that ``tune`` would reject or run empty."""
    for name, values in cfg.tune_grid.items():
        if not isinstance(values, list) or not values:
            raise ValidationError(f"config key 'tune.grid.{name}' must be a non-empty list")
        for value in values:
            try:
                RepairWeights(**{name: value})
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"invalid config value 'tune.grid.{name}' {value!r}: {exc}") from exc
    try:  # every row has a positive weight if the row of smallest values has one
        RepairWeights(**{name: min(values) for name, values in _weight_grid(cfg).items()})
    except ValueError as exc:
        raise ValidationError(f"invalid config value 'tune.grid': {exc}") from exc


# ── artifact io ───────────────────────────────────────────────────────────


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of string chunks, to ``path`` as UTF-8.

    The chunks go to a temp file beside ``path`` that replaces it only
    once all are written, so a chunk that fails to render leaves ``path``
    as it was.  They are joined a few hundred at a time: one write per
    JSONL line costs more than rendering the line.
    """
    chunks = iter([text] if isinstance(text, str) else text)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            while group := list(itertools.islice(chunks, 256)):
                handle.write("".join(group))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_artifact(
    path: Path, text: str | Iterable[str], cfg: PipelineConfig, stage: str, inputs: list[Path],
    lines: dict | None = None,
) -> None:
    """Write an artifact atomically plus its run manifest.

    ``text`` is the artifact as one string or as string chunks (see
    :func:`write_atomic`).  ``lines``, when given, records the accepted
    and rejected input line counts of an ingested samples file.  The
    manifest keys each input by its file name, so two inputs with one
    name fail before anything is written.
    """
    named: dict[str, Path] = {}
    for p in sorted(p for p in inputs if p.exists()):
        if (first := named.setdefault(p.name, p)) != p:
            raise ValidationError(f"{first} and {p}: inputs of {path.name} share the file name {p.name!r}, "
                              "which keys its manifest")
    write_atomic(path, text)
    manifest = {
        "artifact": path.name,
        "stage": stage,
        "tool_version": __version__,
        "seed": cfg.seed,
        "config_sha256": cfg.config_hash,
        "inputs": {name: _sha256_file(p) for name, p in named.items()},
    }
    if lines is not None:
        manifest["lines"] = lines
    write_atomic(path.with_name(path.name + ".manifest.json"), dump_json(manifest))


def _sha256_file(path: Path) -> str:
    """The sha256 of a file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, doc: object, cfg: PipelineConfig, stage: str, inputs: list[Path]) -> Path:
    """Write ``doc`` as a JSON artifact; a stage that reads it checks it against its schema."""
    write_artifact(path, dump_json(doc), cfg, stage, inputs)
    return path


@contextlib.contextmanager
def _open_text(path: Path, missing: str = "missing input artifact") -> Iterator[TextIO]:
    """An input file open as UTF-8 text whose lines end at LF only.

    Nothing is translated: a CRLF line keeps its CR, and U+2028 or U+0085
    inside a line does not end it, so iterating the handle gives the
    pieces that ``text.split`` at LF gives.  A missing file fails as
    ``missing: path``, and a path that is not a regular file, such as a
    directory, fails naming it.  Bytes that are not UTF-8 fail naming the
    file when the chunk that holds them is read, so an invalid line before
    them, at which strict ingestion stops, raises its own
    :class:`ValidationError` first.  Every one of these is a
    validation error (exit 1).
    """
    if not path.exists():
        raise ValidationError(f"{missing}: {path}")
    if not path.is_file():
        raise ValidationError(f"{path}: not a regular file")
    try:
        with path.open(encoding="utf-8", newline="\n") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_text(path: Path, missing: str = "missing input artifact") -> str:
    """The whole text of an input file, read through :func:`_open_text`."""
    with _open_text(path, missing) as handle:
        return handle.read()


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise a validation error from the block with ``path`` at the head of its message."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _read_json(path: Path, schema: str | None = None, parse=None):
    """The JSON document at ``path``, checked against ``schema`` and then
    turned into an object by ``parse`` where these are given."""
    try:
        doc = load_json(_read_text(path))
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if schema:
        validate_artifact(schema, doc, str(path))
    if parse is None:
        return doc
    with _naming(path):
        return parse(doc)


def _read_procedure(cfg: PipelineConfig, key: str, truth: Procedure | None = None) -> Procedure:
    """The procedure at ``key``; with ``truth``, it must order the same steps."""
    path = cfg.path(key)
    proc = _read_json(path, "procedure", procedure_from_dict)
    if truth is not None and set(proc.step_ids) != set(truth.step_ids):  # step ids are distinct
        raise ValidationError(f"{path}: steps differ from those of {cfg.path('truth_procedure')}")
    return proc


def _read_truth(cfg: PipelineConfig) -> Procedure:
    """The truth procedure that ``evaluate`` and ``tune`` score against: a trigram needs 3 steps."""
    truth = _read_procedure(cfg, "truth_procedure")
    if len(truth.steps) < 3:
        raise ValidationError(f"{cfg.path('truth_procedure')}: the metrics need 3 steps, got {len(truth.steps)}")
    return truth


def _read_constraints(cfg: PipelineConfig):
    return _read_json(cfg.path("constraints"), "constraints", constraints_from_dict)


def _artifact_files(directory: Path, what: str, stage: str, pattern: str = "*.json") -> list[Path]:
    """The artifacts under ``directory`` in name order, without their manifests."""
    if not directory.exists():
        raise ValidationError(f"missing {what} directory: {directory} (run the {stage} stage first)")
    paths = [p for p in sorted(directory.glob(pattern)) if not p.name.endswith(".manifest.json")]
    if not paths:
        raise ValidationError(f"no {what} found under {directory}")
    return paths


def _load_inventory(cfg: PipelineConfig) -> DomainInventory:
    path = cfg.path("inventory")
    text = _read_text(path)
    with _naming(path):
        return resolve_dynamic_domains(parse_inventory(text))


def _load_template_files(cfg: PipelineConfig):
    """Every ``(path, template)`` under the templates directory; the
    stages key templates by focal object, so each file must be named
    ``<focal_object>.json``."""
    templates = []
    for path in _artifact_files(cfg.path("templates_dir"), "templates", "template"):
        tpl = _read_json(path, "template", template_from_dict)
        if path.name != f"{tpl.focal_object}.json":
            raise ValidationError(f"{path}: a template for {tpl.focal_object!r} must be named {tpl.focal_object}.json")
        templates.append((path, tpl))
    return templates


# ── stages ────────────────────────────────────────────────────────────────


def stage_template(cfg: PipelineConfig) -> list[Path]:
    inv = _load_inventory(cfg)
    return [
        _write_json(cfg.path("templates_dir") / f"{obj.id}.json", template_to_dict(build_template(inv, obj.id)),
                    cfg, "template", [cfg.path("inventory")])
        for obj in inv.objects
    ]


def stage_sample(cfg: PipelineConfig) -> list[Path]:
    templates = _load_template_files(cfg)
    objects = {tpl.focal_object for _, tpl in templates}
    if cfg.sample_objects:
        unknown = sorted(set(cfg.sample_objects) - objects)
        if unknown:
            raise ValidationError(f"[sample] objects with no template: {', '.join(map(repr, unknown))}")
        templates = [(path, tpl) for path, tpl in templates if tpl.focal_object in cfg.sample_objects]
    else:  # unset: every template with an action to sample
        templates = [(path, tpl) for path, tpl in templates if tpl.actions]
    if cfg.sample_source == SOURCE_ORACLE:
        for tpl_path, tpl in templates:
            if not tpl.actions:  # a template may have none, but the oracle would have nothing to draw
                raise ValidationError(f"{tpl_path}: template has no actions to sample")
            if (size := tpl.state_space_size()) > DEFAULT_STATE_LIMIT:  # the oracle enumerates every state
                raise ValidationError(f"{tpl_path}: template has {size} states, "
                                  f"over the oracle's limit of {DEFAULT_STATE_LIMIT}")
        oracles_doc = _read_json(cfg.path("oracles"), "oracles")
        if unknown := sorted(set(oracles_doc) - objects):
            raise ValidationError(f"{cfg.path('oracles')}: oracle specs for objects with no template: {unknown}")
    outputs = []
    for tpl_path, tpl in templates:
        out = cfg.path("samples_dir") / f"{tpl.focal_object}.jsonl"
        inputs = [cfg.path("inventory"), tpl_path]
        if cfg.sample_source == SOURCE_ORACLE:
            noise = replace(cfg.noise, seed=derive_seed(cfg.seed, f"sample:{tpl.focal_object}"))
            with _naming(cfg.path("oracles")):
                if tpl.focal_object not in oracles_doc:
                    raise ValidationError(f"no oracle spec for object {tpl.focal_object!r}")
                oracle = OracleSpec.from_dict(oracles_doc[tpl.focal_object])
                batch = simulate_oracle(tpl, oracle, cfg.sample_n, noise)
            inputs.append(cfg.path("oracles"))
            lines = None
        else:
            if cfg.sample_source == SOURCE_FILE:
                with _open_text(out, "sample source 'file' expects an existing file") as handle, _naming(out):
                    report = ingest_samples(handle, tpl, strict=cfg.strict)
                rejection_inputs = [*inputs, out]  # hashed before the accepted lines replace it
            else:
                if cfg.endpoint is None:
                    raise ValidationError("sample source 'endpoint' needs an [endpoint] config section")
                prompt = build_prompt(tpl, cfg.sample_n)
                report = fetch_samples(cfg.endpoint, prompt, tpl, strict=cfg.strict)
                rejection_inputs = inputs
            batch = report.batch
            # [line, reason] pairs; the rewritten samples file keeps only accepted lines.
            rejected = out.with_name(f"{tpl.focal_object}.rejections.json")
            outputs.append(_write_json(rejected, report.rejections, cfg, "sample", rejection_inputs))
            lines = {"accepted": len(batch.samples), "rejected": len(report.rejections)}
        write_artifact(out, batch.jsonl_lines(), cfg, "sample", inputs, lines)
        outputs.append(out)
    return outputs


def stage_aggregate(cfg: PipelineConfig) -> list[Path]:
    by_object = {tpl.focal_object: (path, tpl) for path, tpl in _load_template_files(cfg)}
    outputs = []
    for sample_path in _artifact_files(cfg.path("samples_dir"), "samples", "sample", "*.jsonl"):
        obj = sample_path.stem
        if obj not in by_object:
            raise ValidationError(f"samples file {sample_path} has no matching template")
        tpl_path, tpl = by_object[obj]
        with _open_text(sample_path) as handle, _naming(sample_path):
            report = ingest_samples(handle, tpl, strict=True)
        wm = aggregate(report.batch)
        out = cfg.path("world_models_dir") / f"{obj}.json"
        write_artifact(out, serialize_world_model(wm), cfg, "aggregate", [sample_path, tpl_path])
        outputs.append(out)
    return outputs


def stage_extract(cfg: PipelineConfig) -> list[Path]:
    inv = _load_inventory(cfg)
    paths = _artifact_files(cfg.path("world_models_dir"), "world models", "aggregate")
    models = [_read_json(path, "world_model", world_model_from_dict) for path in paths]
    rule_set = extract_rules(models, inv, cfg.extraction)
    inputs = [cfg.path("inventory"), *paths]
    return [_write_json(cfg.path("rules"), rule_set_to_dict(rule_set), cfg, "extract", inputs)]


def stage_map(cfg: PipelineConfig) -> list[Path]:
    rule_set = _read_json(cfg.path("rules"), "rules", rule_set_from_dict)
    draft = _read_procedure(cfg, "draft_procedure")
    mapping = map_rules_to_constraints(draft, list(rule_set.causal_rules))
    doc = constraints_to_dict(list(mapping.constraints), [])
    doc["unmatched_rules"] = [asdict(r) for r in mapping.unmatched]
    doc["dropped_contradictions"] = constraints_to_dict(list(mapping.dropped), [])["raw"]
    inputs = [cfg.path("rules"), cfg.path("draft_procedure")]
    return [_write_json(cfg.path("constraints"), doc, cfg, "map", inputs)]


def _repair(cfg: PipelineConfig, draft: Procedure, constraints, clusters, weights: RepairWeights, seed: int):
    """``repair`` under the configured search; a bad constraint fails naming its file."""
    with _naming(cfg.path("constraints")):
        if unknown := sorted({c for cc in clusters for c in (cc.earlier, cc.later)} - {s.cluster for s in draft.steps}):
            raise ValidationError(f"cluster constraints name labels no draft step carries: {unknown}")
        return repair(draft, constraints, clusters, weights=weights, search=cfg.search, seed=seed,
                      raw_mode=cfg.raw_penalty)


def stage_repair(cfg: PipelineConfig) -> list[Path]:
    draft = _read_procedure(cfg, "draft_procedure")
    constraints, clusters = _read_constraints(cfg)
    result = _repair(cfg, draft, constraints, clusters, cfg.weights, derive_seed(cfg.seed, "repair"))
    doc = procedure_to_dict(draft.reordered(list(result.order)))
    doc["repair"] = asdict(result)
    inputs = [cfg.path("draft_procedure"), cfg.path("constraints")]
    return [_write_json(cfg.path("repaired_procedure"), doc, cfg, "repair", inputs)]


def stage_evaluate(cfg: PipelineConfig) -> list[Path]:
    truth = _read_truth(cfg)
    draft = _read_procedure(cfg, "draft_procedure", truth)
    repaired = _read_procedure(cfg, "repaired_procedure", truth)
    constraints, _ = _read_constraints(cfg)
    pairs = [(c.predecessor, c.successor) for c in constraints]
    with _naming(cfg.path("constraints")):  # the orders are checked: only a constraint's step ids can fail
        draft_report, repaired_report = evaluate(draft.step_ids, repaired.step_ids, truth.step_ids, pairs)
    rows = {"draft": draft_report, "repaired": repaired_report}
    inputs = [cfg.path(key) for key in ("truth_procedure", "draft_procedure", "repaired_procedure", "constraints")]
    doc = {label: asdict(report) for label, report in rows.items()}
    out = _write_json(cfg.path("metrics"), doc, cfg, "evaluate", inputs)
    table = cfg.path("metrics_table")
    write_artifact(table, format_table(rows), cfg, "evaluate", inputs)
    return [out, table]


def stage_perturb(cfg: PipelineConfig) -> list[Path]:
    if cfg.perturbation is None:
        raise ValidationError("config has no [perturb] section")
    truth = _read_procedure(cfg, "truth_procedure")
    with _naming(cfg.path("truth_procedure")):
        draft, log = perturb(truth, cfg.perturbation, strict=cfg.strict)
    inputs = [cfg.path("truth_procedure")]
    return [
        _write_json(cfg.path("draft_procedure"), procedure_to_dict(draft), cfg, "perturb", inputs),
        _write_json(cfg.path("perturbation_log"), asdict(log), cfg, "perturb", inputs),
    ]


def stage_tune(cfg: PipelineConfig) -> list[Path]:
    if not cfg.tune_grid:
        raise ValidationError("config has no [tune.grid] section")
    truth = _read_truth(cfg)
    draft = _read_procedure(cfg, "draft_procedure", truth)
    constraints, clusters = _read_constraints(cfg)
    pairs = [(c.predecessor, c.successor) for c in constraints]
    grid = _weight_grid(cfg)
    seed = derive_seed(cfg.seed, "tune")
    rows = []
    for values in itertools.product(*grid.values()):
        weights = dict(zip(grid, values))
        result = _repair(cfg, draft, constraints, clusters, RepairWeights(**weights), seed)
        report = sequence_report(list(result.order), truth.step_ids, pairs)
        rows.append({"weights": weights, "raw_slack": report.raw_slack, "kendall_tau": report.kendall_tau,
                     "breakpoints": report.breakpoints, "metrics": asdict(report)})
    rows.sort(key=lambda r: (r["raw_slack"], -r["kendall_tau"], r["breakpoints"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    inputs = [cfg.path(key) for key in ("truth_procedure", "draft_procedure", "constraints")]
    return [_write_json(cfg.path("tuning"), {"ranking": rows}, cfg, "tune", inputs)]


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
        raise ValidationError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    return STAGES[stage](cfg)


def run_all(cfg: PipelineConfig) -> dict[str, list[Path]]:
    """Run every stage but ``tune``, in standard order (template through evaluate)."""
    return {stage: run_stage(stage, cfg) for stage in list(STAGES)[:-1]}
