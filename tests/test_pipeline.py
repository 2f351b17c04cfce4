import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from procforge.cli import main as cli_main
from procforge.errors import (
    ConfigError,
    DanglingReferenceError,
    DomainResolutionError,
    DuplicateIdError,
    EndpointAuthError,
    EndpointError,
    InventorySchemaError,
    InventorySyntaxError,
    OracleCoverageError,
    PermutationError,
    SampleValidationError,
    SequenceMismatchError,
    StateSpaceLimitError,
    UnknownObjectError,
)
from procforge import sampling
from procforge.metrics import kendall_tau
from procforge.pipeline import load_config, run_all, run_stage, validate_artifact
from procforge.sampling import EndpointConfig
from procforge.world_model import world_model_from_dict


@pytest.fixture()
def workdir(tmp_path, benchmark_dir):
    """A private copy of the benchmark so stages can write freely."""
    for name in ("inventory.json", "oracles.json", "truth_procedure.json", "config.toml"):
        shutil.copy(benchmark_dir / name, tmp_path / name)
    return tmp_path


@pytest.fixture()
def cfg(workdir):
    return load_config(workdir / "config.toml")


def read_json(path):
    return json.loads(Path(path).read_text())


def test_config_requires_seed(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"paths": {}}))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "c.json")


def test_config_json_and_toml_equivalent(workdir):
    toml_cfg = load_config(workdir / "config.toml")
    doc = {
        "seed": 20240,
        "sample": {"n": 250},
        "repair": {"raw_penalty": "gap"},
    }
    (workdir / "c.json").write_text(json.dumps(doc))
    json_cfg = load_config(workdir / "c.json")
    assert json_cfg.seed == toml_cfg.seed
    assert json_cfg.raw_penalty == toml_cfg.raw_penalty


def test_validate_artifact_path_format_matches_parse_inventory():
    doc = {"schema_version": "1", "objects": [{"id": "x", "category": "widget"}]}
    with pytest.raises(ConfigError) as err:
        validate_artifact("inventory", doc, "inventory.json")
    assert "inventory.json: schema inventory violation at $.objects[0].category: " in str(err.value)


def test_missing_input_artifact_names_file(cfg):
    with pytest.raises(ConfigError) as err:
        run_stage("aggregate", cfg)
    assert "templates" in str(err.value)


def test_template_stage_writes_schema_valid_artifacts(cfg):
    outputs = run_stage("template", cfg)
    assert len(outputs) == 11  # one per inventory object
    for path in outputs:
        validate_artifact("template", read_json(path), str(path))
        manifest = read_json(path.with_name(path.name + ".manifest.json"))
        assert manifest["stage"] == "template"
        assert manifest["seed"] == cfg.seed
        assert "inventory.json" in manifest["inputs"]


def test_full_pipeline_chain_and_metrics_direction(cfg):
    run_all(cfg)
    metrics = read_json(cfg.path("metrics"))
    draft, repaired = metrics["draft"], metrics["repaired"]
    assert repaired["kendall_tau"] >= draft["kendall_tau"]
    assert repaired["raw_slack"] == 0.0
    validate_artifact("rules", read_json(cfg.path("rules")))
    validate_artifact("procedure", {"steps": read_json(cfg.path("repaired_procedure"))["steps"]})
    validate_artifact("metrics", metrics)


def test_pipeline_is_deterministic(workdir, benchmark_dir):
    def run_into(subdir):
        cfg = load_config(workdir / "config.toml")
        base = workdir / subdir
        for key, value in list(cfg.paths.items()):
            if "out" in value.parts:
                rel = Path(*value.parts[value.parts.index("out") + 1 :])
                cfg.paths[key] = base / rel
        run_all(cfg)
        return base

    a = run_into("run_a")
    b = run_into("run_b")
    for name in ("rules.json", "repaired.json", "metrics.json", "draft.json", "constraints.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_samples(workdir):
    cfg_a = load_config(workdir / "config.toml")
    run_stage("template", cfg_a)
    run_stage("sample", cfg_a)
    first = (cfg_a.path("samples_dir") / "electronic_pipette.jsonl").read_bytes()
    cfg_b = load_config(workdir / "config.toml", {"seed": 1})
    run_stage("sample", cfg_b)
    second = (cfg_b.path("samples_dir") / "electronic_pipette.jsonl").read_bytes()
    assert first != second


def test_perturb_then_repair_never_hurts_kendall(cfg):
    run_all(cfg)
    truth = [s["id"] for s in read_json(cfg.path("truth_procedure"))["steps"]]
    draft = [s["id"] for s in read_json(cfg.path("draft_procedure"))["steps"]]
    repaired = [s["id"] for s in read_json(cfg.path("repaired_procedure"))["steps"]]
    assert kendall_tau(repaired, truth) >= kendall_tau(draft, truth)


def test_sample_stage_file_source_validates_existing(cfg):
    run_stage("template", cfg)
    run_stage("sample", cfg)
    cfg.sample_source = "file"
    outputs = run_stage("sample", cfg)
    assert outputs


def test_sample_stage_file_source_keeps_rejected_lines(cfg):
    run_stage("template", cfg)
    written = run_stage("sample", cfg)
    assert not any(p.name.endswith(".rejections.json") for p in written)
    assert not list(cfg.path("samples_dir").glob("*.rejections.json"))
    samples = cfg.path("samples_dir") / "electronic_pipette.jsonl"
    good = samples.read_text()
    samples.write_text(good + "not json\nnot json\n")
    cfg.sample_source = "file"
    written = run_stage("sample", cfg)
    rejections_path = cfg.path("samples_dir") / "electronic_pipette.rejections.json"
    assert rejections_path in written
    rejections = read_json(rejections_path)
    assert [lineno for lineno, _ in rejections] == [251, 252]
    assert rejections[0][1] == rejections[1][1]
    assert samples.read_text() == good
    manifest = read_json(rejections_path.with_name(rejections_path.name + ".manifest.json"))
    assert manifest["stage"] == "sample"
    assert "electronic_pipette.jsonl" in manifest["inputs"]
    assert read_json(cfg.path("samples_dir") / "spoon.rejections.json") == []


def test_sample_stage_file_source_counts_lines_in_manifest(cfg):
    run_stage("template", cfg)
    run_stage("sample", cfg)
    samples = cfg.path("samples_dir") / "electronic_pipette.jsonl"
    manifest_path = samples.with_name(samples.name + ".manifest.json")
    assert "lines" not in read_json(manifest_path)  # the oracle source ingests nothing
    samples.write_text(samples.read_text() + "\nnot json\n{}\n")
    cfg.sample_source = "file"
    run_stage("sample", cfg)
    assert read_json(manifest_path)["lines"] == {"accepted": 250, "rejected": 2}


def test_sample_stage_endpoint_source_counts_lines_in_manifest(cfg, monkeypatch):
    run_stage("template", cfg)
    run_stage("sample", cfg)
    samples = cfg.path("samples_dir") / "electronic_pipette.jsonl"
    good = samples.read_text().split("\n")[:3]
    reply = json.dumps({"choices": [{"message": {"content": "\n".join([*good, "not json"])}}]})
    monkeypatch.setattr(sampling, "_urllib_transport", lambda *args: (200, reply))
    monkeypatch.setenv("PROCFORGE_API_KEY", "k")
    cfg.sample_source = "endpoint"
    cfg.sample_objects = ["electronic_pipette"]
    cfg.endpoint = EndpointConfig(base_url="http://localhost:9/v1/chat", model="m", max_retries=0)
    run_stage("sample", cfg)
    manifest = read_json(samples.with_name(samples.name + ".manifest.json"))
    assert manifest["lines"] == {"accepted": 3, "rejected": 1}
    assert read_json(cfg.path("samples_dir") / "electronic_pipette.rejections.json")[0][0] == 4


def test_sample_stage_file_source_splits_lines_only_at_newlines(cfg):
    run_stage("template", cfg)
    run_stage("sample", cfg)
    samples = cfg.path("samples_dir") / "electronic_pipette.jsonl"
    lines = samples.read_text().split("\n")[:2]
    # JSON allows these raw inside a string; they must not end the line.
    odd = json.dumps({**json.loads(lines[1]), "note": "a\u2028b\u2029c\u0085d"}, ensure_ascii=False)
    samples.write_text("\n".join([lines[0], odd, "not json", ""]))
    cfg.sample_source = "file"
    run_stage("sample", cfg)
    rejections = read_json(cfg.path("samples_dir") / "electronic_pipette.rejections.json")
    assert [lineno for lineno, _ in rejections] == [3]
    assert samples.read_text().split("\n") == [lines[0], lines[1], ""]


# sha256 over the (name, bytes) of every samples/*.jsonl and
# world_models/*.json file that template -> aggregate writes on the shipped
# config, recorded before sampling, ingest and aggregation were made to
# work once per distinct record; the bytes must not change.
SAMPLES_SHA256 = "2a0b1d0adb6e7e28e4f21ed36e51a635ae4dcd282a92d4002428b13e9dcd02eb"
WORLD_MODELS_SHA256 = "b194566e0566b59e4e5ba72dcab0a5de1fd5ea48b23b968ce7af41f1f1eb3b3f"


def tree_digest(paths):
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_sample_and_aggregate_artifacts_match_recorded_digests(cfg):
    for stage in ("template", "sample", "aggregate"):
        run_stage(stage, cfg)
    world_models = [p for p in cfg.path("world_models_dir").glob("*.json") if not p.name.endswith(".manifest.json")]
    assert tree_digest(cfg.path("samples_dir").glob("*.jsonl")) == SAMPLES_SHA256
    assert tree_digest(world_models) == WORLD_MODELS_SHA256


def test_tune_ranks_default_weights_first(cfg):
    run_all(cfg)
    run_stage("tune", cfg)
    ranking = read_json(cfg.path("tuning"))["ranking"]
    best = ranking[0]
    assert best["weights"] == {
        "lambda_pos": 0.5,
        "lambda_edge": 1.0,
        "lambda_cluster": 0.0,
        "lambda_raw": 2.0,
    }
    assert best["raw_slack"] == 0.0
    assert best["raw_slack"] < ranking[1]["raw_slack"]


def test_single_cell_grid(cfg):
    run_all(cfg)
    cfg.tune_grid = {"lambda_pos": [0.5], "lambda_edge": [1.0], "lambda_raw": [2.0]}
    run_stage("tune", cfg)
    assert len(read_json(cfg.path("tuning"))["ranking"]) == 1


# ── CLI ───────────────────────────────────────────────────────────────────


def test_cli_happy_path(workdir, capsys):
    assert cli_main(["template", "--config", str(workdir / "config.toml")]) == 0
    out = capsys.readouterr().out
    assert "electronic_pipette.json" in out


def test_cli_validation_failure_exit_code(workdir, capsys):
    (workdir / "inventory.json").write_text("{broken")
    code = cli_main(["template", "--config", str(workdir / "config.toml")])
    assert code == 1
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, bad",
    [
        ("lambda_pos = 0.5", "lambda_pos = -1.0"),
        ("lambda_pos = 0.5", "lambda_pos = nan"),
        ("restarts = 8", "restarts = 0"),
    ],
)
def test_cli_bad_weight_or_search_value_is_config_error(workdir, capsys, line, bad):
    config = workdir / "config.toml"
    text = config.read_text()
    assert line in text
    config.write_text(text.replace(line, bad))
    code = cli_main(["template", "--config", str(config)])
    assert code == 1
    assert "invalid config value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, typo, key",
    [
        ("[repair.weights]", "[repiar.weights]", "'repiar'"),
        ("n = 250", "nn = 250", "'sample.nn'"),
        ("reward_flip_rate = 0.0", "reward_flip_rat = 0.0", "'sample.noise.reward_flip_rat'"),
        ('raw_penalty = "gap"', 'raw_penalti = "gap"', "'repair.raw_penalti'"),
        ("n_misorderings = 6", "n_misorderings = 6\nkind = []", "'perturb.kind'"),
        ("lambda_raw = [0.5, 1.0, 2.0]", "lambda_rw = [0.5, 1.0, 2.0]", "'tune.grid.lambda_rw'"),
    ],
)
def test_cli_misspelt_config_key_is_config_error(workdir, capsys, line, typo, key):
    config = workdir / "config.toml"
    text = config.read_text()
    assert text.count(line) == 1
    config.write_text(text.replace(line, typo))
    code = cli_main(["template", "--config", str(config)])
    assert code == 1
    assert f"unknown config key {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, edit, message",
    [
        ("n_misorderings = 6\n", "", "missing config key 'perturb.n_misorderings'"),
        ("n_misorderings = 6", "n_misorderings = 0", "n_misorderings must be >= 1"),
        ("[tune.grid]", '[endpoint]\nbase_url = "http://localhost"\nmodle = "m"\n\n[tune.grid]', "'modle'"),
    ],
    ids=["missing-n-misorderings", "zero-misorderings", "misspelt-endpoint-key"],
)
def test_cli_bad_perturb_or_endpoint_table_is_config_error(workdir, capsys, line, edit, message):
    config = workdir / "config.toml"
    text = config.read_text()
    assert text.count(line) == 1
    config.write_text(text.replace(line, edit))
    code = cli_main(["template", "--config", str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert message in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda state: state.update({"ddh2o_bottle.cap.state": "ajar"}), "value 'ajar' not in domain"),
        (lambda state: state.pop("ddh2o_bottle.cap.state"), "variables do not match template: missing"),
    ],
    ids=["value-out-of-domain", "missing-variable"],
)
def test_cli_extract_rejects_a_hand_edited_world_model(workdir, capsys, edit, message):
    config = str(workdir / "config.toml")
    for stage in ("template", "sample", "aggregate"):
        assert cli_main([stage, "--config", config]) == 0
    path = workdir / "out/world_models/electronic_pipette.json"
    doc = read_json(path)
    edit(doc["entries"][4]["state"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["extract", "--config", config]) == 1
    err = capsys.readouterr().err
    assert f"{path}: $.entries[4].state" in err
    assert message in err


def test_cli_missing_config_exit_code(tmp_path, capsys):
    code = cli_main(["template", "--config", str(tmp_path / "nope.toml")])
    assert code == 1


def test_cli_runtime_error_exit_code(workdir, capsys, monkeypatch):
    import procforge.pipeline as pipeline_mod

    def boom(cfg):
        raise RuntimeError("disk on fire")

    monkeypatch.setitem(pipeline_mod.STAGES, "template", boom)
    code = cli_main(["template", "--config", str(workdir / "config.toml")])
    assert code == 2
    assert capsys.readouterr().err == "procforge: unexpected error: disk on fire\n"


@pytest.mark.parametrize(
    "exc, code",
    [(ConfigError("bad input"), 1), (EndpointError("request failed"), 2), (RuntimeError("disk on fire"), None)],
)
def test_cli_debug_reraises_only_unexpected_errors(workdir, monkeypatch, exc, code):
    import procforge.pipeline as pipeline_mod

    def fail(cfg):
        raise exc

    monkeypatch.setitem(pipeline_mod.STAGES, "template", fail)
    argv = ["template", "--config", str(workdir / "config.toml"), "--debug"]
    if code is None:
        with pytest.raises(RuntimeError, match="disk on fire"):
            cli_main(argv)
    else:
        assert cli_main(argv) == code


@pytest.mark.parametrize(
    "exc, code",
    [
        *((cls("bad input"), 1) for cls in (
            ConfigError,
            DanglingReferenceError,
            DomainResolutionError,
            DuplicateIdError,
            InventorySchemaError,
            InventorySyntaxError,
            OracleCoverageError,
            PermutationError,
            SampleValidationError,
            SequenceMismatchError,
        )),
        (UnknownObjectError("no such object"), 2),
        (StateSpaceLimitError(10, 5), 2),
        (EndpointError("request failed"), 2),
        (EndpointAuthError("bad key"), 2),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_cli_exit_code_follows_error_taxonomy(workdir, monkeypatch, exc, code):
    import procforge.pipeline as pipeline_mod

    def fail(cfg):
        raise exc

    monkeypatch.setitem(pipeline_mod.STAGES, "template", fail)
    assert cli_main(["template", "--config", str(workdir / "config.toml")]) == code


def test_cli_entry_point_installed(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "procforge.cli", "template", "--config", str(workdir / "config.toml")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_cli_sample_flags_override_config(workdir):
    assert cli_main(["template", "--config", str(workdir / "config.toml")]) == 0
    assert cli_main(["sample", "--config", str(workdir / "config.toml"), "--source", "oracle", "--n", "250"]) == 0
    lines = (workdir / "out/samples/electronic_pipette.jsonl").read_text().splitlines()
    assert len(lines) == 250


def test_tune_position_only_row_returns_draft(cfg):
    run_all(cfg)
    cfg.tune_grid = {"lambda_pos": [1.0], "lambda_edge": [0.0], "lambda_raw": [0.0]}
    run_stage("tune", cfg)
    row = read_json(cfg.path("tuning"))["ranking"][0]
    draft = [s["id"] for s in read_json(cfg.path("draft_procedure"))["steps"]]
    truth = [s["id"] for s in read_json(cfg.path("truth_procedure"))["steps"]]
    assert row["kendall_tau"] == pytest.approx(kendall_tau(draft, truth))


def test_every_written_artifact_validates_against_its_schema(cfg):
    run_all(cfg)
    run_stage("tune", cfg)
    checks = [
        ("rules", cfg.path("rules")),
        ("constraints", cfg.path("constraints")),
        ("procedure", cfg.path("draft_procedure")),
        ("procedure", cfg.path("repaired_procedure")),
        ("procedure", cfg.path("truth_procedure")),
        ("metrics", cfg.path("metrics")),
    ]
    for schema, path in checks:
        validate_artifact(schema, read_json(path), str(path))
    for path in cfg.path("world_models_dir").glob("*.json"):
        if not path.name.endswith(".manifest.json"):
            doc = read_json(path)
            validate_artifact("world_model", doc, str(path))
            world_model_from_dict(doc)  # the schema checks only the envelope
    for path in cfg.path("samples_dir").glob("*.jsonl"):
        for line in path.read_text().splitlines():
            validate_artifact("sample", json.loads(line), str(path))
