import hashlib
import json
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from procforge.cli import main as cli_main
from procforge.errors import (
    EndpointAuthError,
    EndpointError,
    StateSpaceLimitError,
    UnknownObjectError,
    ValidationError,
)
from procforge import errors, pipeline, sampling
from procforge.metrics import kendall_tau
from procforge.pipeline import _open_text, load_config, run_all, run_stage, validate_artifact, write_atomic
from procforge.sampling import EndpointConfig, NoiseSpec, ingest_samples, simulate_oracle
from procforge.templates import template_from_dict
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
    with pytest.raises(ValidationError, match=": config must set a master seed$"):
        load_config(tmp_path / "c.json")


@pytest.mark.parametrize("seed", [20240.5, True, "20240"])
def test_config_seed_must_be_an_integer(tmp_path, seed):
    (tmp_path / "c.json").write_text(json.dumps({"seed": seed}))
    with pytest.raises(ValidationError, match="config seed must be an integer"):
        load_config(tmp_path / "c.json")


@pytest.mark.parametrize("objects", ["spoon", ["spoon", 1], {"spoon": "tool"}])
def test_config_sample_objects_must_be_a_list_of_strings(tmp_path, objects):
    (tmp_path / "c.json").write_text(json.dumps({"seed": 1, "sample": {"objects": objects}}))
    with pytest.raises(ValidationError, match="config key 'sample.objects' must be a list of strings"):
        load_config(tmp_path / "c.json")


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_requests", 0),
        ("n_requests", 1.5),
        ("max_retries", -1),
        ("timeout_s", 0),
        ("timeout_s", float("inf")),
        ("backoff_s", -1.0),
        ("backoff_s", float("nan")),
        ("base_url", 5),
        ("model", 5),
        ("api_key_env", 5),
        ("response_path", None),
    ],
)
def test_config_rejects_a_bad_endpoint_value(tmp_path, key, value):
    endpoint = {"base_url": "http://localhost:9/v1/chat", "model": "m", key: value}
    (tmp_path / "c.json").write_text(json.dumps({"seed": 1, "endpoint": endpoint}))
    with pytest.raises(ValidationError, match=f"invalid config value: endpoint needs .*{key}"):
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
    with pytest.raises(ValidationError) as err:
        validate_artifact("inventory", doc, "inventory.json")
    assert "inventory.json: schema inventory violation at $.objects[0].category: " in str(err.value)


def test_missing_input_artifact_names_file(cfg):
    with pytest.raises(ValidationError, match="^missing templates directory: ") as err:
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


def test_sample_stage_rejects_objects_without_a_template(workdir):
    config = workdir / "config.toml"
    config.write_text(config.read_text().replace('"electronic_scale",', '"electronic_scal",\n    "spon",'))
    cfg = load_config(config)
    run_stage("template", cfg)
    with pytest.raises(ValidationError, match="\\[sample\\] objects with no template: 'electronic_scal', 'spon'"):
        run_stage("sample", cfg)
    assert not cfg.path("samples_dir").exists()


def test_sample_stage_without_objects_samples_every_template_with_an_action(workdir):
    listed = load_config(workdir / "config.toml")
    run_stage("template", listed)
    expected = {p.name: p.read_bytes() for p in run_stage("sample", listed)}
    assert len(expected) == 10
    text = (workdir / "config.toml").read_text().replace("out/", "unlisted/")
    start = text.index("objects = [")
    config = workdir / "unlisted.toml"
    config.write_text(text[:start] + text[text.index("]", start) + 1 :])
    assert cli_main(["template", "--config", str(config)]) == 0
    assert cli_main(["sample", "--config", str(config)]) == 0
    written = {p.name: p.read_bytes() for p in (workdir / "unlisted/samples").glob("*.jsonl")}
    assert written == expected


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


def _samples_text(lines, case):
    """The text of a samples file built from valid ``lines`` in one of the shapes a reader must keep."""
    odd = json.dumps({**json.loads(lines[1]), "note": "a\u2028b\u0085c"}, ensure_ascii=False)
    return {
        "crlf": "\r\n".join([*lines, "not json", ""]),
        "lone-cr": "\n".join([lines[0], lines[1] + "\r" + lines[2], "not json", ""]),  # one invalid line
        "raw-line-separators": "\n".join([lines[0], odd, "not json", lines[2], ""]),
        "no-trailing-newline": "\n".join([*lines, "not json", lines[0]]),
        "blank-lines": "\n".join(["", lines[0], "", "   ", "not json", "\t", lines[1], "", ""]),
        "strict-error": "\n".join([lines[0], lines[1], "not json", lines[2], ""]),
    }[case]


def _ingest_outcome(stream, tpl, strict):
    """The samples and rejections ingested from ``stream``, or the message of the error that stops it."""
    try:
        report = ingest_samples(stream, tpl, strict=strict)
    except ValidationError as exc:
        return str(exc)
    return report.batch.samples, report.rejections


@pytest.mark.parametrize(
    "case", ["crlf", "lone-cr", "raw-line-separators", "no-trailing-newline", "blank-lines", "strict-error"]
)
def test_streamed_ingest_equals_ingest_of_the_whole_text(tmp_path, pipette_template, pipette_oracles, case):
    batch = simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 3, NoiseSpec(seed=5))
    text = _samples_text(batch.to_jsonl().split("\n")[:3], case)
    path = tmp_path / "samples.jsonl"
    path.write_bytes(text.encode("utf-8"))
    strict = case == "strict-error"
    with _open_text(path) as handle:
        streamed = _ingest_outcome(handle, pipette_template, strict)
    assert streamed == _ingest_outcome(text, pipette_template, strict)
    if strict:
        assert streamed == "line 3: invalid JSON: Expecting value"
        return
    samples, rejections = streamed
    pieces = [piece.strip() for piece in text.split("\n")]
    assert "not json" in [pieces[lineno - 1] for lineno, _ in rejections]
    assert len(samples) + len(rejections) == sum(1 for piece in pieces if piece)


def test_sample_stage_writes_exactly_the_batch_jsonl(cfg, monkeypatch):
    batches = {}

    def recording(tpl, *args, **kwargs):
        batches[tpl.focal_object] = batch = simulate_oracle(tpl, *args, **kwargs)
        return batch

    monkeypatch.setattr(pipeline, "simulate_oracle", recording)
    run_stage("template", cfg)
    run_stage("sample", cfg)
    assert sorted(batches) == sorted(cfg.sample_objects)
    for obj, batch in batches.items():
        assert (cfg.path("samples_dir") / f"{obj}.jsonl").read_bytes() == batch.to_jsonl().encode("utf-8")


def test_write_atomic_writes_every_chunk_or_leaves_the_old_file(tmp_path):
    path = tmp_path / "a.jsonl"
    lines = [f"{i}\n" for i in range(1000)]
    write_atomic(path, iter(lines))
    assert path.read_text() == "".join(lines)

    def failing():
        yield from ["x\n"] * 600
        raise ValueError("render failed")

    with pytest.raises(ValueError, match="render failed"):
        write_atomic(path, failing())
    assert path.read_text() == "".join(lines)
    assert [p.name for p in tmp_path.iterdir()] == ["a.jsonl"]


def test_sample_and_aggregate_memory_stays_below_the_samples_file(cfg):
    # The samples file is streamed in and out, so neither stage holds its
    # text: at 20000 samples each peaks well below one file's size (it
    # was about twice the size when the file was built and read whole).
    cfg.sample_n = 20000
    cfg.sample_objects = ["magnetic_stirrer"]
    run_stage("template", cfg)
    peaks = {}
    tracemalloc.start()
    try:
        for stage in ("sample", "aggregate"):
            tracemalloc.reset_peak()
            run_stage(stage, cfg)
            peaks[stage] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = max(p.stat().st_size for p in cfg.path("samples_dir").glob("*.jsonl"))
    assert size > 5_000_000
    assert peaks["sample"] < size
    assert peaks["aggregate"] < size


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


# sha256 of every file under out/, manifests included, that template ->
# evaluate plus tune writes on the shipped config, recorded before the
# stages shared one JSON writer; the bytes must not change.
OUT_SHA256 = {
    "constraints.json": "24c58eb2197379627f95597887d581204f23b68907fd4230bdc10c59a5dab9e4",
    "constraints.json.manifest.json": "92faf2590a2b47536c7126a17368519ce70d7dba29c6cddcb199c1e56e50802c",
    "draft.json": "eb935e5f403d68ba37827a558310271b2091ace7555095f73bdd21f70bf2e465",
    "draft.json.manifest.json": "3fdc146a8f53b3ed9e6eb8bb1492f550fbd1529ab4dfe62e3560e6887da9a7b1",
    "metrics.json": "9df5107972712a4f04b74383c8faeb0c7916bff14c11a0bd8b78d01f74a201f2",
    "metrics.json.manifest.json": "db6f0b629d04f4841a06867bc6da755d4e3a5b8df63b2282fe1133e7a6a77e7f",
    "metrics.txt": "49a8c965e28c9c18a9570a92c2eec8ce20f37e0ff2004dc4f7aac43de77437c6",
    "metrics.txt.manifest.json": "4976e432ca416deca09335139f2ae8c08f9260cf06029954880f0b056bedf491",
    "perturbation_log.json": "e57f560dd40912ac9d95e674044f88395c6487f1ab6e5c963afb7ba318d05a20",
    "perturbation_log.json.manifest.json": "f28b6b254fb7ad9eaf8a2b74ba001b9c9467362b1021aced2bd1d8531df7cca8",
    "repaired.json": "37775ef5b0e856bc5592859131500553583932692758bf72a8c9dde18c4c08c2",
    "repaired.json.manifest.json": "09366b171a7448aeaa36c741dd27715118eef7e86a174e10d9ab3f945d574c46",
    "rules.json": "57c4a34dc2eada6386232c0418da1e6f7e9c5e2da86fc5641bf498237282f3d9",
    "rules.json.manifest.json": "452dca9414e30e9f42f03ae14fe93d3236266d8133cd1dfe331fdb8a6dceea3a",
    "samples/aluminium_foil.jsonl": "3e10f006031d73e36c98ed7073cb51ec4c78489f523a1435f5c602c588b9e310",
    "samples/aluminium_foil.jsonl.manifest.json": "9b052b4e08f3aa99c055a7e51c6d70f4d44ddda88d3d452401ece1930a3183fe",
    "samples/cuso4_bottle.jsonl": "76b67ae0d6f18bab601ab59eeeedfb8e5311053e8a6df04e4eac59c184c0ee13",
    "samples/cuso4_bottle.jsonl.manifest.json": "5401bbbda1308a8c450c6300b5464b419279355d7489dcd0d2947b77c7c46a8c",
    "samples/ddh2o_bottle.jsonl": "02be3938c66483f7b8a869d52671084bc51dc7e1038eb11d3ee75107cc0eef81",
    "samples/ddh2o_bottle.jsonl.manifest.json": "61db2774d4f6c221ad188695d5e1facb3a0ebed5fb90b78559445a92393a7cf7",
    "samples/electronic_pipette.jsonl": "718d2e170b4ea39212a32ce61298226060066d1e1bd5f867acb8f42bbeef16c5",
    "samples/electronic_pipette.jsonl.manifest.json": "3e0f3a759237a4851b87ef9aae2071a32f3b781d2579cc5e5c3b066ebf838289",
    "samples/electronic_scale.jsonl": "069e5bf1077b97864f36e82a00bcba6c287d43ee659eab28a4449bf2aa42738d",
    "samples/electronic_scale.jsonl.manifest.json": "96329c6d813158a8deb6a56c60df05561a87eb6676d7a9340bd79bd730ac1980",
    "samples/erlenmeyer_flask.jsonl": "4e9179374b53db214dc2874dc5df3d2a401097cfbee343b18b26c954a9f71940",
    "samples/erlenmeyer_flask.jsonl.manifest.json": "eb2736111b93a1e90c1147a968de5dacec02a5d69d5a9f8ca9f1d8add6aa3c84",
    "samples/magnetic_stir_bar.jsonl": "0d3db0ec0a48ec0c450333b69042d6650a4467836ebc95b15c7e85f24af6fe09",
    "samples/magnetic_stir_bar.jsonl.manifest.json": "2b74edb09f59b95693a44ddb39f2c65a7c281ab6a25c594ad3b2a506a3c0319c",
    "samples/magnetic_stirrer.jsonl": "d919c0abf854e72b3af8b242f68c7da5121515709c2906ae18f13abafc7a06f7",
    "samples/magnetic_stirrer.jsonl.manifest.json": "2e38f227f75f4f5e69b6c579639a8ac81229b46d2712b3c0fc5e999445e55146",
    "samples/nahco3_bottle.jsonl": "2ef9763da051b4c698fc00bc8f6221b9386d3289aef81720f329c2f93e865bd9",
    "samples/nahco3_bottle.jsonl.manifest.json": "c87f5c423622997704dde5a5f3f213f96ee59361a879dc759428bf0ed36dfd22",
    "samples/spoon.jsonl": "1f5d5ec73fd759567b30abb08f0ddaee6c7cd41f9bb21b660d99bb1f8fd876ca",
    "samples/spoon.jsonl.manifest.json": "c8f6da47e8bac492ae37e6ad1ab952a222387aafd1c516ef74dde25531869bc6",
    "templates/aluminium_foil.json": "f95de9569dd6bc2ac71319023d88e6298241d2e1d7abc15d9c55c122dec93c76",
    "templates/aluminium_foil.json.manifest.json": "0172ad2066be8c895cf114aee97b3f35bd30812b1842c7df271eeb94f873cf58",
    "templates/cuso4_bottle.json": "4a0069c7b672e3f61b40fe16d984f37ddc8e24c9d44da6379bcea1ab3d4cafe0",
    "templates/cuso4_bottle.json.manifest.json": "61dd39ceed813f9f06bda3b95842362e99872cd8caa761f885bf4f0aa2900f0e",
    "templates/ddh2o_bottle.json": "1a43bc9e0ac1f1cabe0bd6d3b698947bacb064db7402109e9f65cac5d4af4a99",
    "templates/ddh2o_bottle.json.manifest.json": "f44e4776927accf78e48a5d36d12f98aaa5ef2373575d38f5e3e5226f71870d5",
    "templates/electronic_pipette.json": "3dcc72e2bdf3fb80f2b6032e1684cae423bb80c417cfa1ccaeaa6aa6b29d72f2",
    "templates/electronic_pipette.json.manifest.json": "35e3a944999dbb9b20031d8d9db4e24b70dae5b63752fde9c8a981435740e188",
    "templates/electronic_scale.json": "74b35cf08c630302a5deb705305b7c763c5073434e824e58a09224be0c1dcbf8",
    "templates/electronic_scale.json.manifest.json": "433e119e7b016e3bb7fd2bb091ec66b5277c342bcf05d4b67abfe9186cf6434f",
    "templates/erlenmeyer_flask.json": "5f0a45593ee7f687a3f28e91f3f8a4712ced14dffb3c4062735de3d8551492bf",
    "templates/erlenmeyer_flask.json.manifest.json": "7d8b32d3bdbc4070c6049710871f28c278dc636de15a68d4c89edcaf6aff9da6",
    "templates/magnetic_stick.json": "65c02ef1f0d65fa31a646dd0fb34320e0f07dd8f3e4cd58a7eeeb4e6c3b10c96",
    "templates/magnetic_stick.json.manifest.json": "92d9e7b5ca95bcd569d3cebff6e81cf22afefc1de0ceb83d207580c89ddac319",
    "templates/magnetic_stir_bar.json": "b3adaa40c049f0a992469da1f02f6591589c8cd4a5e8e63492ed2f46382e333a",
    "templates/magnetic_stir_bar.json.manifest.json": "916069d9180ad134cafade23d243192b6d77300971de7917ca426ddd13644181",
    "templates/magnetic_stirrer.json": "64046ac49531052e54d8fa00b34f0ad4862fda481cf0f4d828ae5d881cd06dc2",
    "templates/magnetic_stirrer.json.manifest.json": "6817fbdda7e5334db6ec52dc06e0ec01979a97ff49122549afb582d4f3b4b75b",
    "templates/nahco3_bottle.json": "3e6d03ad591240948f8f5c4f6ef418f82f9be694b1236a661d68cc333572178b",
    "templates/nahco3_bottle.json.manifest.json": "d9b3678ef8ab6b0bc8ffd91fdce9de23ea43cbaab8b7c677bae6f90991da54d9",
    "templates/spoon.json": "99619f4e90961216e897ed9afee0c0296eb7a89a0fb79199f9d14b80e84450c2",
    "templates/spoon.json.manifest.json": "82544df74f0c2028d7a1a7b7d20632011ca47b119d171880b162616691b9fa7d",
    "tuning.json": "cee261920877d7eefa804c2dbfc87815aef10809447b806421005203e0c991b0",
    "tuning.json.manifest.json": "c80dffb9ff6b66d92e8bda3358c466d3116fac1c8c126f4eb2f5468ac7ebf432",
    "world_models/aluminium_foil.json": "da4962a59b5f21e50aa2b0ad963aeeb4e29d88a3df82e8688d345adf40ad1660",
    "world_models/aluminium_foil.json.manifest.json": "85c4195798e2e7cc1ca70f6351be4de8033fbc7eb7430b3a797531aeddb1c134",
    "world_models/cuso4_bottle.json": "78267d927d6efaf32d7170b14818bae3698b962cede5f1666e6539e6a08b55ca",
    "world_models/cuso4_bottle.json.manifest.json": "7704487dc8e76f1b8bbfc632df14501f17297a626929dad74177e2eae5b289e3",
    "world_models/ddh2o_bottle.json": "6d2e2ad93be5025d2c35a0dc9b588225d5796300da7dff7ee301aa094ba7a134",
    "world_models/ddh2o_bottle.json.manifest.json": "3b2d7ee0377bde5628198c035270e57e91b2432cf0b855019496d228c004cc59",
    "world_models/electronic_pipette.json": "75acb62382f5e4734a117b143d54d6198f5b49e4a76aa2881e114369e18377e9",
    "world_models/electronic_pipette.json.manifest.json": "6dc691e16d81136c2d5c9047f311a00c67cb4c89d53842ed8cd798746aee0499",
    "world_models/electronic_scale.json": "18bc454ae760edc66c48b13277e7167344a54bb9b79b395448e889cda8fe7f35",
    "world_models/electronic_scale.json.manifest.json": "9d65b471eec61ac2ebdf53f1bb9e365e39cc77a81ed9cab5375f40f754db3af0",
    "world_models/erlenmeyer_flask.json": "97769ce74950009e44dd91e7676edc856e6b9e81881024a14457d0f370a1310f",
    "world_models/erlenmeyer_flask.json.manifest.json": "f03a70c5430747a715d1e11c678209b5c56db861985eca966f7bc9d511f7a5d8",
    "world_models/magnetic_stir_bar.json": "33e70f09e6cf365fb26fac07b3eb3070572807552f4781479338ce94b4be9e90",
    "world_models/magnetic_stir_bar.json.manifest.json": "91d6166af5059386f6055e1b1b2c0c9adb89cb06089fe8403a160ff794e9a190",
    "world_models/magnetic_stirrer.json": "4a6edb2ce927d282cd3d3bef78d24bafddf70012e9da9def6a73e61c936ae704",
    "world_models/magnetic_stirrer.json.manifest.json": "bbba214f1f9e90b4a013eaee04bd59086c9fe3a2d64624c718fc94fb99381065",
    "world_models/nahco3_bottle.json": "f8a62251d4fddf4eb5417fe3ed7f785b569852d7025ce9caaed25738dced6d72",
    "world_models/nahco3_bottle.json.manifest.json": "eb4dd484a749b3164b3af77b597232dd2929fc0e0b41aaa2fc15d95eacbc16e5",
    "world_models/spoon.json": "fb295ff6e2cb8900115ac2daf455ad00a647bc3479ff7ea03894c297f14f7e6b",
    "world_models/spoon.json.manifest.json": "96ea129d03ca3346d02de692b2be1b31067dc38d806978d553c7cf87de8231bd",
}


def test_every_output_file_matches_its_recorded_digest(cfg, workdir):
    run_all(cfg)
    run_stage("tune", cfg)
    out = workdir / "out"
    written = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    assert written == OUT_SHA256


# sha256 over the sorted "path\0sha256\n" lines of the same 78 files that
# template -> evaluate plus tune writes at master seed 7, recorded before
# the records were written through asdict; the bytes must not change.
OUT_SEED_7_SHA256 = "f92088b1741af74a463b44d7078dd615a805a0ddc61990b0f7b74f430ed9a5de"


def test_every_output_file_at_seed_7_matches_its_recorded_digest(workdir):
    cfg = load_config(workdir / "config.toml", {"seed": 7})
    run_all(cfg)
    run_stage("tune", cfg)
    out = workdir / "out"
    lines = sorted(f"{p.relative_to(out).as_posix()}\0{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                   for p in out.rglob("*") if p.is_file())
    assert len(lines) == 78
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == OUT_SEED_7_SHA256


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


GRID_RAW = "lambda_raw = [0.5, 1.0, 2.0]"
GRID = "lambda_pos = [0.5, 2.0]\nlambda_edge = [1.0]\nlambda_cluster = [0.0]\n" + GRID_RAW
ENDPOINT = '[endpoint]\nbase_url = "http://localhost"\nmodel = "m"\n'


@pytest.mark.parametrize(
    "line, typo, key",
    [
        ("[repair.weights]", "[repiar.weights]", "'repiar'"),
        ("n = 250", "nn = 250", "'sample.nn'"),
        ("reward_flip_rate = 0.0", "reward_flip_rat = 0.0", "'sample.noise.reward_flip_rat'"),
        ('raw_penalty = "gap"', 'raw_penalti = "gap"', "'repair.raw_penalti'"),
        ("n_misorderings = 6", "n_misorderings = 6\nkind = []", "'perturb.kind'"),
        ("lambda_raw = [0.5, 1.0, 2.0]", "lambda_rw = [0.5, 1.0, 2.0]", "'tune.grid.lambda_rw'"),
        ("theta_hi = 0.8", "thet_hi = 0.8", "'extraction.thet_hi'"),
        ("lambda_edge = 1.0", "lambda_edg = 1.0", "'repair.weights.lambda_edg'"),
        ("max_stale_iters = 10", "max_stale_iter = 10", "'repair.search.max_stale_iter'"),
        ("[tune.grid]", ENDPOINT + "timeout = 5\n\n[tune.grid]", "'endpoint.timeout'"),
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
        (
            "[tune.grid]", '[endpoint]\nbase_url = "http://localhost"\nmodle = "m"\n\n[tune.grid]',
            "unknown config key 'endpoint.modle'",
        ),
        (
            "[tune.grid]", '[endpoint]\nbase_url = "http://localhost"\n\n[tune.grid]',
            "missing config key 'endpoint.model'",
        ),
        (GRID_RAW, "lambda_raw = []", "config key 'tune.grid.lambda_raw' must be a non-empty list"),
        (GRID_RAW, "lambda_raw = [0.5, -1.0]", "'tune.grid.lambda_raw' -1.0: weights must be non-negative"),
        (GRID_RAW, "lambda_raw = [nan]", "'tune.grid.lambda_raw' nan: weights must be finite"),
        (GRID_RAW, 'lambda_raw = ["2.0"]', "invalid config value 'tune.grid.lambda_raw' '2.0'"),
        (GRID, GRID.replace("0.5", "0.0").replace("1.0", "0.0"), "'tune.grid': at least one weight must be positive"),
        ("n = 250", "n = 0", "config key 'sample.n' must be an integer >= 1, got 0"),
        ("n = 250", "n = 250.9", "config key 'sample.n' must be an integer >= 1, got 250.9"),
        ("n = 250", "n = true", "config key 'sample.n' must be an integer >= 1, got True"),
        ('source = "oracle"', "source = 1", "unknown sample source 1"),
        ("restarts = 8", "restarts = 2.5", "integers restarts >= 1 and max_stale_iters >= 0, got (2.5, 10)"),
        ("restarts = 8", "restarts = true", "integers restarts >= 1 and max_stale_iters >= 0, got (True, 10)"),
        ("max_stale_iters = 10", "max_stale_iters = 1.5", "max_stale_iters >= 0, got (8, 1.5)"),
        ("n_misorderings = 6", "n_misorderings = 2.7", "n_misorderings must be an integer, got 2.7"),
        ("n_misorderings = 6", "n_misorderings = true", "n_misorderings must be an integer, got True"),
        ("min_valid_weight = 3", "min_valid_weight = 2.5", "min_valid_weight must be an integer >= 1, got 2.5"),
        ("lambda_pos = 0.5", "lambda_pos = true", "lambda_pos must be a finite number, got True"),
        ("lambda_pos = [0.5, 2.0]", "lambda_pos = [true, 2.0]", "'tune.grid.lambda_pos' True: lambda_pos must be a finite"),
        ("theta_hi = 0.8", "theta_hi = true", "theta_hi must be a finite number, got True"),
        ("epsilon0 = 0.05", "epsilon0 = false", "epsilon0 must be a finite number, got False"),
        ("reward_flip_rate = 0.0", "reward_flip_rate = true", "reward_flip_rate must be a finite number, got True"),
        ("[tune.grid]", ENDPOINT + "timeout_s = true\n\n[tune.grid]", "backoff_s >= 0, got (True, 1.0)"),
        ("[tune.grid]", ENDPOINT + "backoff_s = false\n\n[tune.grid]", "backoff_s >= 0, got (60.0, False)"),
    ],
    ids=[
        "missing-n-misorderings",
        "zero-misorderings",
        "misspelt-endpoint-key",
        "missing-endpoint-model",
        "empty-grid-list",
        "negative-grid-value",
        "nan-grid-value",
        "string-grid-value",
        "grid-row-without-positive-weight",
        "zero-sample-n",
        "fractional-sample-n",
        "boolean-sample-n",
        "non-string-sample-source",
        "fractional-restarts",
        "boolean-restarts",
        "fractional-max-stale-iters",
        "fractional-misorderings",
        "boolean-misorderings",
        "fractional-min-valid-weight",
        "boolean-weight",
        "boolean-grid-value",
        "boolean-threshold",
        "boolean-tolerance",
        "boolean-noise-rate",
        "boolean-endpoint-timeout",
        "boolean-endpoint-backoff",
    ],
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


@pytest.mark.parametrize(
    "name, earlier, argv",
    [
        ("config.toml", [], ["template"]),
        ("c.json", [], ["template"]),
        ("inventory.json", [], ["template"]),
        ("out/world_models/electronic_pipette.json", ["template", "sample", "aggregate"], ["extract"]),
        ("out/samples/electronic_pipette.jsonl", ["template", "sample"], ["aggregate"]),
        ("out/samples/electronic_pipette.jsonl", ["template", "sample"], ["sample", "--source", "file"]),
    ],
    ids=["toml-config", "json-config", "inventory", "world-model", "samples", "samples-file-source"],
)
def test_cli_input_that_is_not_utf8_is_config_error(workdir, capsys, name, earlier, argv):
    (workdir / "c.json").write_text(json.dumps({"seed": 20240}))
    config = str(workdir / ("c.json" if name == "c.json" else "config.toml"))
    for stage in earlier:
        assert cli_main([stage, "--config", config]) == 0
    path = workdir / name
    path.write_bytes(path.read_bytes() + b"\n# \xff\xfe\n")
    capsys.readouterr()
    assert cli_main([*argv, "--config", config]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"{path}: not UTF-8 text" in err


@pytest.mark.parametrize(
    "name, text, stage",
    [
        ("inventory.json", "[" * 200_000, "template"),
        ("c.json", "[" * 200_000, "template"),
        ("config.toml", "a = " + "[" * 200_000, "template"),
        ("out/repaired.json", "[" * 200_000, "evaluate"),
    ],
    ids=["inventory", "json-config", "toml-config", "artifact"],
)
def test_cli_json_nested_past_the_recursion_limit_is_config_error(workdir, capsys, name, text, stage):
    config = str(workdir / ("c.json" if name == "c.json" else "config.toml"))
    if stage == "evaluate":
        assert cli_main(["all", "--config", config]) == 0
    path = workdir / name
    path.write_text(text)
    capsys.readouterr()
    assert cli_main([stage, "--config", config]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert str(path) in err


def _duplicate_first_step_id(doc):
    doc["steps"][1]["id"] = doc["steps"][0]["id"]


def _constrain_an_unknown_step(doc):
    doc["raw"][0]["predecessor"] = "s99"


@pytest.mark.parametrize(
    "name, edit, stage, message",
    [
        ("out/draft.json", _duplicate_first_step_id, "map", "duplicate step ids in procedure"),
        ("out/constraints.json", _constrain_an_unknown_step, "repair", "constraint references unknown step ids"),
        ("out/constraints.json", _constrain_an_unknown_step, "tune", "constraint references unknown step ids"),
    ],
    ids=["duplicate-step-id", "unknown-step-at-repair", "unknown-step-at-tune"],
)
def test_cli_bad_procedure_reference_is_validation_error(workdir, capsys, name, edit, stage, message):
    config = str(workdir / "config.toml")
    assert cli_main(["all", "--config", config]) == 0
    path = workdir / name
    doc = read_json(path)
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main([stage, "--config", config]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert f"{path}: {message}" in err


def _editing(edit):
    """A corruption that applies ``edit(doc, workdir)`` to a JSON file."""

    def corrupt(path, workdir):
        doc = read_json(path)
        edit(doc, workdir)
        path.write_text(json.dumps(doc))

    return corrupt


def _truncate(path, workdir):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _self_precedence(doc, workdir):
    doc["raw"][0]["successor"] = doc["raw"][0]["predecessor"]


def _drop_an_unconstrained_step(doc, workdir):
    constraints = read_json(workdir / "out/constraints.json")["raw"]
    named = {c["predecessor"] for c in constraints} | {c["successor"] for c in constraints}
    doc["steps"].remove(next(step for step in doc["steps"] if step["id"] not in named))


def _extraction_config(key, value):
    return _editing(lambda doc, workdir: doc["config"].update({key: value}))


def _repeating(select):
    """A corruption that repeats the first item of the list ``select(doc)`` in a JSON file."""
    return _editing(lambda doc, workdir: select(doc).append(select(doc)[0]))


def _scale_power_button(inventory):
    scale = next(obj for obj in inventory["objects"] if obj["id"] == "electronic_scale")
    return next(comp for comp in scale["components"] if comp["id"] == "power_button")


def _writing(text):
    """A corruption that replaces the file's text."""
    return lambda path, workdir: path.write_text(text)


def _replacing(old, new):
    """A corruption that replaces the one occurrence of ``old`` in the file's text."""
    return lambda path, workdir: path.write_text(path.read_text().replace(old, new))


def _setting_path(key, value):
    """A corruption that sets ``[paths] key`` to the TOML ``value`` in the config."""

    def corrupt(path, workdir):
        config = workdir / "config.toml"
        config.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", config.read_text(), count=1))

    return corrupt


def _moving(**moves):
    """A corruption that copies the file of each ``[paths]`` key to a new path and sets the key to it."""

    def corrupt(path, workdir):
        cfg = load_config(workdir / "config.toml")
        for key, new in moves.items():
            (workdir / new).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(cfg.path(key), workdir / new)
            _setting_path(key, f'"{new}"')(path, workdir)

    return corrupt


def _widening(doc, workdir):
    """Three 50-value variables: 36 * 50**3 states, over the oracle's limit."""
    doc["variables"] += [{"id": f"spoon.wide{i}", "domain": [f"v{j}" for j in range(50)], "origin": "own"}
                         for i in range(3)]


def _making(make, key):
    """A corruption that makes the path with ``make`` and sets ``[paths] key`` to it."""

    def corrupt(path, workdir):
        make(path)
        _setting_path(key, f'"{path.name}"')(path, workdir)

    return corrupt


def _replacing_first(old, new):
    """A corruption that replaces the first occurrence of ``old`` in the file's text."""
    return lambda path, workdir: path.write_text(path.read_text().replace(old, new, 1))


def _shortening_every_procedure(n):
    """A corruption that cuts the truth to its first ``n`` steps, writes that order as the draft and
    repaired, and empties the constraints, so that only the truth's length is wrong."""

    def corrupt(path, workdir):
        doc = read_json(path)
        doc["steps"] = doc["steps"][:n]
        for p in (path, workdir / "out/draft.json", workdir / "out/repaired.json"):
            p.write_text(json.dumps(doc))
        (workdir / "out/constraints.json").write_text(json.dumps({"raw": [], "cluster": []}))

    return corrupt


def _repeat_first_key(path, workdir):
    """A corruption that writes the document's first key again, with the value null, at the front of the file."""
    text = path.read_text()
    key = next(iter(json.loads(text)))
    path.write_text(f"{{{json.dumps(key)}: null, {text.lstrip()[1:]}")


def _copy_of(name):
    """A corruption that writes a copy of the file ``name`` to the path."""
    return lambda path, workdir: shutil.copy(workdir / name, path)


ALL = ["all"]
SAMPLED = ["template", "sample"]
SPOON = "out/templates/spoon.json"
REPEAT_VARIABLE = _repeating(lambda doc: doc["variables"])
REPEAT_DOMAIN_VALUE = _repeating(lambda doc: doc["variables"][0]["domain"])
REPEAT_ACTION = _repeating(lambda doc: doc["actions"])
SHARED_NAME_AT_MAP = _moving(rules="out/r/x.json", draft_procedure="out/d/x.json")
BAD_INPUTS = {
    # (file, corruption, stages run before it, the stage's argv)
    "config-missing": ("config.toml", lambda path, workdir: path.unlink(), [], ["template"]),
    "config-invalid-toml": ("config.toml", _writing("seed = "), [], ["template"]),
    "config-invalid-json": ("c.json", _writing('{"seed": '), [], ["template"]),
    "config-repeated-key": ("c.json", _writing('{"seed": null, "seed": 20240}'), [], ["template"]),
    "config-unknown-key": ("config.toml", _replacing("n = 250", "nn = 250"), [], ["template"]),
    "config-bad-value": ("config.toml", _replacing("restarts = 8", "restarts = 0"), [], ["template"]),
    "config-missing-key": ("config.toml", _replacing("n_misorderings = 6\n", ""), [], ["template"]),
    "self-precedence-at-repair": ("out/constraints.json", _editing(_self_precedence), ALL, ["repair"]),
    "self-precedence-at-evaluate": ("out/constraints.json", _editing(_self_precedence), ALL, ["evaluate"]),
    "equal-cluster-labels-at-tune": (
        "out/constraints.json", _editing(lambda doc, w: doc["cluster"].append({"earlier": "x", "later": "x"})),
        ALL, ["tune"],
    ),
    "rules-gamma-at-map": ("out/rules.json", _extraction_config("gamma", 0.4), ALL, ["map"]),
    "rules-thetas-at-map": ("out/rules.json", _extraction_config("theta_hi", 0.1), ALL, ["map"]),
    "rules-min-valid-weight-at-map": ("out/rules.json", _extraction_config("min_valid_weight", 0), ALL, ["map"]),
    "one-step-truth-at-perturb": (
        "truth_procedure.json", _editing(lambda doc, w: doc.update(steps=doc["steps"][:1])), [], ["perturb"],
    ),
    **{
        f"{label}-step-truth-at-{stage}": ("truth_procedure.json", _shortening_every_procedure(n), ALL, [stage])
        for label, n in (("one", 1), ("two", 2)) for stage in ("evaluate", "tune")
    },
    "strict-inapplicable-kind-at-perturb": (
        "truth_procedure.json", _editing(lambda doc, w: doc.update(steps=doc["steps"][:2])), [], ["perturb", "--strict"],
    ),
    "truncated-samples-at-aggregate": ("out/samples/spoon.jsonl", _truncate, SAMPLED, ["aggregate"]),
    "truncated-samples-at-file-source": (
        "out/samples/spoon.jsonl", _truncate, SAMPLED, ["sample", "--source", "file", "--strict"],
    ),
    "unknown-step-at-evaluate": (
        "out/constraints.json", _editing(lambda doc, w: doc["raw"][0].update(predecessor="s99")), ALL, ["evaluate"],
    ),
    "not-a-permutation-at-evaluate": (
        "out/repaired.json", _editing(lambda doc, w: doc["steps"].pop()), ALL, ["evaluate"],
    ),
    "not-a-permutation-at-tune": ("out/draft.json", _editing(_drop_an_unconstrained_step), ALL, ["tune"]),
    "oracle-coverage-at-sample": (
        "oracles.json", _editing(lambda doc, w: doc["spoon"].popitem()), ["template"], ["sample"],
    ),
    "no-actions-at-sample": (SPOON, _editing(lambda doc, w: doc.update(actions=[])), ["template"], ["sample"]),
    "repeated-variable-at-sample": (SPOON, REPEAT_VARIABLE, ["template"], ["sample"]),
    "repeated-variable-at-aggregate": (SPOON, REPEAT_VARIABLE, SAMPLED, ["aggregate"]),
    "repeated-domain-value-at-sample": (SPOON, REPEAT_DOMAIN_VALUE, ["template"], ["sample"]),
    "repeated-domain-value-at-aggregate": (SPOON, REPEAT_DOMAIN_VALUE, SAMPLED, ["aggregate"]),
    "repeated-action-at-sample": (SPOON, REPEAT_ACTION, ["template"], ["sample"]),
    "repeated-action-at-aggregate": (SPOON, REPEAT_ACTION, SAMPLED, ["aggregate"]),
    "world-model-repeated-variable-at-extract": (
        "out/world_models/spoon.json", _repeating(lambda doc: doc["template"]["variables"]),
        [*SAMPLED, "aggregate"], ["extract"],
    ),
    "inventory-repeated-action-at-template": (
        "inventory.json", _repeating(lambda doc: _scale_power_button(doc)["actions"]), [], ["template"],
    ),
    "inventory-repeated-parameter-at-template": (
        "inventory.json", _repeating(lambda doc: _scale_power_button(doc)["actions"][0]["params"]),
        [], ["template"],
    ),
    "repeated-parameter-at-sample": (
        "out/templates/electronic_scale.json",
        _repeating(lambda doc: next(a["params"] for a in doc["actions"] if a["params"])),
        ["template"], ["sample"],
    ),
    "template-copy-at-sample": ("out/templates/zz_spoon_copy.json", _copy_of(SPOON), ["template"], ["sample"]),
    "template-copy-at-aggregate": ("out/templates/zz_spoon_copy.json", _copy_of(SPOON), SAMPLED, ["aggregate"]),
    "template-of-another-object-at-sample": (
        SPOON, _editing(lambda doc, w: doc.update(focal_object="fork")), ["template"], ["sample"],
    ),
    "template-over-state-limit-at-sample": (SPOON, _editing(_widening), ["template"], ["sample"]),
    "config-path-not-a-string": ("config.toml", _setting_path("inventory", "5"), [], ["template"]),
    "config-path-a-list": ("config.toml", _setting_path("rules", '["a"]'), [], ["template"]),
    # The file named is the one the bad path points at: "" is the config's own directory.
    "config-path-empty": ("", _setting_path("inventory", '""'), [], ["template"]),
    "config-path-a-directory": ("out", _setting_path("inventory", '"out"'), ["template"], ["template"]),
    "config-output-path-is-an-input": ("config.toml", _setting_path("metrics", '"truth_procedure.json"'), [], ["all"]),
    "config-file-key-is-a-directory-key": (
        "config.toml", _setting_path("rules", '"out/templates"'), ["template"], ["extract"],
    ),
    "config-directory-key-is-an-input": (
        "config.toml", _setting_path("templates_dir", '"inventory.json"'), [], ["template"],
    ),
    "config-file-inside-a-directory-key": (
        "config.toml", _setting_path("tuning", '"out/world_models/tuning.json"'), [], ["all"],
    ),
    "config-path-inside-a-file-key": ("config.toml", _setting_path("rules", '"out"'), [], ["all"]),
    "config-path-with-nul": (
        "config.toml", _replacing('metrics = "out/metrics.json"', 'metrics = "out/m\\u0000.json"'), [], ["template"],
    ),
    "config-file-key-names-a-directory": ("extra", _making(Path.mkdir, "metrics"), [], ["all"]),
    "config-directory-key-names-a-file": ("extra", _making(Path.touch, "samples_dir"), [], ["template"]),
    "inventory-dangling-interaction-at-template": (
        "inventory.json", _editing(lambda doc, w: doc["interactions"][0].update(source="ghost")), [], ["template"],
    ),
    "inventory-repeated-object-at-template": (
        "inventory.json", _repeating(lambda doc: doc["objects"]), [], ["template"],
    ),
    "inventory-repeated-interaction-at-template": (
        "inventory.json", _repeating(lambda doc: doc["interactions"]), [], ["template"],
    ),
    "oracles-rule-for-no-template-action-at-sample": (
        "oracles.json", _editing(lambda doc, w: doc["spoon"].update(ghost={"preconditions": {}, "effects": {}})),
        ["template"], ["sample"],
    ),
    "oracles-object-with-no-template-at-sample": (
        "oracles.json", _editing(lambda doc, w: doc.update(ghost={})), ["template"], ["sample"],
    ),
    "samples-dangling-action-at-aggregate": (
        "out/samples/spoon.jsonl", _replacing_first('"action": "transfer_material', '"action": "ghost'),
        SAMPLED, ["aggregate"],
    ),
    "world-model-dangling-action-at-extract": (
        "out/world_models/spoon.json", _editing(lambda doc, w: doc["entries"][0].update(action="ghost")),
        [*SAMPLED, "aggregate"], ["extract"],
    ),
    "world-model-repeated-entry-at-extract": (
        "out/world_models/spoon.json", _repeating(lambda doc: doc["entries"]), [*SAMPLED, "aggregate"], ["extract"],
    ),
    "rules-repeated-causal-rule-at-map": ("out/rules.json", _repeating(lambda doc: doc["causal_rules"]), ALL, ["map"]),
    "rules-repeated-precondition-at-map": ("out/rules.json", _repeating(lambda doc: doc["preconditions"]), ALL, ["map"]),
    "truth-repeated-step-at-perturb": ("truth_procedure.json", _repeating(lambda doc: doc["steps"]), [], ["perturb"]),
    "draft-repeated-step-at-map": ("out/draft.json", _repeating(lambda doc: doc["steps"]), ALL, ["map"]),
    "unknown-step-at-repair": (
        "out/constraints.json", _editing(lambda doc, w: doc["raw"][0].update(predecessor="s99")), ALL, ["repair"],
    ),
    "repeated-constraint-at-repair": ("out/constraints.json", _repeating(lambda doc: doc["raw"]), ALL, ["repair"]),
    "repeated-cluster-constraint-at-tune": (
        "out/constraints.json", _editing(lambda doc, w: doc["cluster"].extend([{"earlier": "weighing", "later": "mixing"}] * 2)),
        ALL, ["tune"],
    ),
    "dangling-cluster-label-at-repair": (
        "out/constraints.json", _editing(lambda doc, w: doc["cluster"].append({"earlier": "ghost", "later": "weighing"})),
        ALL, ["repair"],
    ),
    "samples-not-an-object-at-aggregate": ("out/samples/spoon.jsonl", _writing("[]\n"), SAMPLED, ["aggregate"]),
    # A manifest keys its inputs by file name, so two inputs with one name cannot both be listed.
    "inputs-sharing-a-name-at-map": ("out/r/x.json", SHARED_NAME_AT_MAP, ALL, ["map"]),
    "inventory-sharing-a-template-name-at-sample": (
        "spoon.json", _moving(inventory="spoon.json"), ["template"], ["sample"],
    ),
}
# Every stage input, truncated, of the wrong top-level type or repeating a key, at each stage that reads it:
# (the file, the stages run before it, the stages that read it).
READERS = {
    "inventory": ("inventory.json", [*SAMPLED, "aggregate"], ["template", "extract"]),
    "oracles": ("oracles.json", ["template"], ["sample"]),
    "template": (SPOON, SAMPLED, ["sample", "aggregate"]),
    "world-model": ("out/world_models/spoon.json", [*SAMPLED, "aggregate"], ["extract"]),
    "rules": ("out/rules.json", ALL, ["map"]),
    "truth": ("truth_procedure.json", ALL, ["perturb", "evaluate", "tune"]),
    "draft": ("out/draft.json", ALL, ["map", "repair", "evaluate", "tune"]),
    "constraints": ("out/constraints.json", ALL, ["repair", "evaluate", "tune"]),
    "repaired": ("out/repaired.json", ALL, ["evaluate"]),
}
for label, (name, earlier, stages) in READERS.items():
    for corruption, corrupt in (
        ("truncated", _truncate), ("not-an-object", _writing("[]\n")), ("repeated-key", _repeat_first_key),
    ):
        for stage in stages:
            BAD_INPUTS[f"{label}-{corruption}-at-{stage}"] = (name, corrupt, earlier, [stage])


@pytest.mark.parametrize("name, corrupt, earlier, argv", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_cli_bad_input_is_validation_error_naming_its_file_once(workdir, capsys, name, corrupt, earlier, argv):
    config = str(workdir / ("c.json" if name == "c.json" else "config.toml"))
    for stage in earlier:
        assert cli_main([stage, "--config", config]) == 0
    path = workdir / name
    corrupt(path, workdir)
    capsys.readouterr()
    assert cli_main([*argv, "--config", config]) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert err.count(str(path)) == 1


def test_inputs_sharing_a_name_fail_before_the_artifact_is_written(workdir, capsys):
    config = str(workdir / "config.toml")
    assert cli_main(["all", "--config", config]) == 0
    constraints = workdir / "out/constraints.json"
    constraints.unlink()
    SHARED_NAME_AT_MAP(workdir / "config.toml", workdir)
    capsys.readouterr()
    assert cli_main(["map", "--config", config]) == 1
    err = capsys.readouterr().err
    assert f"{workdir / 'out/d/x.json'} and {workdir / 'out/r/x.json'}: " in err
    assert not constraints.exists()


@pytest.mark.parametrize(
    "key, value, other",
    [("metrics", "truth_procedure.json", "truth_procedure"), ("rules", "out/templates", "templates_dir"),
     ("templates_dir", "inventory.json", "inventory")],
)
def test_paths_naming_one_path_fail_at_load_before_any_stage_writes(workdir, capsys, key, value, other):
    _setting_path(key, f'"{value}"')(None, workdir)
    before = {path: path.read_bytes() for path in workdir.iterdir()}
    assert cli_main(["all", "--config", str(workdir / "config.toml")]) == 1
    err = capsys.readouterr().err
    assert f"'paths.{key}'" in err and f"'paths.{other}'" in err
    assert {path: path.read_bytes() for path in workdir.iterdir()} == before


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-3"]])
def test_cli_bad_sample_flag_is_config_error(workdir, capsys, flags):
    code = cli_main(["template", "--config", str(workdir / "config.toml"), *flags])
    assert code == 1
    assert f"config key 'sample.n' must be an integer >= 1, got {flags[1]}" in capsys.readouterr().err


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
    [(ValidationError("bad input"), 1), (EndpointError("request failed"), 2), (RuntimeError("disk on fire"), None)],
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
        (ValidationError("bad input"), 1),
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


def test_bad_input_has_one_error_class():
    defined = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == {
        "ProcforgeError", "ValidationError", "UnknownObjectError", "StateSpaceLimitError", "EndpointError",
        "EndpointAuthError",
    }
    assert ValidationError.__subclasses__() == []


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
        # A samples file has no schema: the ingest parser defines a sample record.
        tpl = template_from_dict(read_json(cfg.path("templates_dir") / f"{path.stem}.json"))
        assert len(ingest_samples(path.read_text(), tpl, strict=True).batch.samples) == cfg.sample_n
