"""The in-tree schema validator against ``jsonschema``'s draft 2020-12 validator."""

import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import Draft202012Validator

from procforge.pipeline import load_config, run_all
from procforge.schemas import SCHEMA_DIR, compile_schema, first_violation, load_schema

from conftest import REPO

SCHEMAS = sorted(path.name.removesuffix(".schema.json") for path in SCHEMA_DIR.glob("*.schema.json"))
REFERENCE = {name: Draft202012Validator(load_schema(name)) for name in SCHEMAS}


def reference_violation(validator, doc):
    """The first error by document path, as ``first_violation`` renders it."""
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    first = errors[0]
    path = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in first.absolute_path)
    return path, first.message


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, benchmark_dir):
    """Valid documents of every shipped schema, from one benchmark run."""
    workdir = tmp_path_factory.mktemp("schemas")
    for name in ("inventory.json", "oracles.json", "truth_procedure.json", "config.toml"):
        shutil.copy(benchmark_dir / name, workdir / name)
    cfg = load_config(workdir / "config.toml")
    run_all(cfg)

    def read(*paths):
        return [json.loads(path.read_text()) for path in paths]

    def read_dir(key):
        return read(*sorted(p for p in cfg.path(key).glob("*.json") if not p.name.endswith(".manifest.json")))

    docs = {
        "inventory": read(benchmark_dir / "inventory.json", benchmark_dir / "pipette_inventory.json"),
        "oracles": read(benchmark_dir / "oracles.json", benchmark_dir / "pipette_oracles.json"),
        "template": read_dir("templates_dir"),
        "world_model": read_dir("world_models_dir"),
        "rules": read(cfg.path("rules")),
        "procedure": read(cfg.path("truth_procedure"), cfg.path("draft_procedure"), cfg.path("repaired_procedure")),
        "constraints": read(cfg.path("constraints")),
        "metrics": read(cfg.path("metrics")),
    }
    assert sorted(docs) == SCHEMAS
    return docs


NEAR_MISSES = st.sampled_from((None, True, 0, -1, 1.5, "", "1bad", [], {}))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
VALUES = NEAR_MISSES | JSON_VALUES


def edited(draw, doc):
    """A copy of ``doc`` with one edit in a container at a random depth:
    a value replaced, a key or item deleted, a key added or an item
    appended.  Only the containers on the path to the edit are copied."""
    keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
    children = [k for k in keys if isinstance(doc[k], (dict, list))]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if children and draw(st.integers(0, 3)) > 0:
        key = draw(st.sampled_from(children))
        out[key] = edited(draw, doc[key])
        return out
    op = draw(st.sampled_from(("replace", "delete", "add")))
    if op != "add" and keys:
        key = draw(st.sampled_from(keys))
        if op == "replace":
            out[key] = draw(VALUES)
        else:
            del out[key]
    elif isinstance(out, dict):
        out[draw(st.text(max_size=6))] = draw(VALUES)
    else:
        out.append(draw(st.sampled_from(out) | VALUES) if out else draw(VALUES))
    return out


@pytest.mark.parametrize("name", SCHEMAS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_first_violation_matches_reference_on_edited_artifacts(artifacts, name, data):
    doc = data.draw(st.sampled_from(artifacts[name]))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = edited(data.draw, doc)
    assert first_violation(name, doc) == reference_violation(REFERENCE[name], doc)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(SCHEMAS), doc=JSON_VALUES)
def test_first_violation_matches_reference_on_any_json(name, doc):
    assert first_violation(name, doc) == reference_violation(REFERENCE[name], doc)


@pytest.mark.parametrize(
    "schema, doc",
    [
        ({"enum": [0, 1]}, True),
        ({"enum": [0, 1]}, 1.0),
        ({"const": [1, {"a": False}]}, [True, {"a": 0}]),
        ({"const": [1, {"a": False}]}, [1.0, {"a": False}]),
        ({"type": "integer"}, 2.0),
        ({"type": "integer"}, True),
        ({"type": "number"}, False),
        ({"type": ["string", "null"]}, 0),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}, {"type": "number"}]}, 3),
        ({"oneOf": [{"type": "string"}, {"minimum": 0}]}, -1),
        ({"minItems": 2, "items": {"minLength": 1}}, [""]),
        ({"minimum": 0, "maximum": 1}, 1.5),
        ({"pattern": "^a", "minLength": 3}, "ba"),
        ({"required": ["b", "a"], "additionalProperties": True}, {"c": 1}),
        ({"properties": {"a": {}}, "additionalProperties": {"type": "string"}}, {"c": 1, "a": 1, "b": "x", "0": 2}),
        ({"properties": {"a": {}}, "additionalProperties": False}, {"c": 1, "a": 1, "b": "x"}),
    ],
)
def test_keyword_edge_cases_match_reference(schema, doc):
    assert compile_schema(schema)(doc) == reference_violation(Draft202012Validator(schema), doc)


def test_benchmark_artifacts_are_valid(artifacts):
    for name, docs in artifacts.items():
        for doc in docs:
            assert first_violation(name, doc) is None
            assert reference_violation(REFERENCE[name], doc) is None


def test_every_shipped_schema_compiles():
    assert len(SCHEMAS) == 8
    for name in SCHEMAS:
        compile_schema(load_schema(name))


@pytest.mark.parametrize(
    "schema, complaint",
    [
        ({"type": "object", "properties": {"xs": {"type": "array", "uniqueItems": True}}}, "uniqueItems"),
        ({"items": [{"type": "string"}]}, "must be an object"),
        ({"$ref": "#/definitions/value", "definitions": {"value": {}}}, "#/definitions/value"),
        ({"$ref": "#/$defs/missing", "$defs": {}}, "#/\\$defs/missing"),
        ({"type": "decimal"}, "decimal"),
    ],
)
def test_unsupported_schema_raises_when_compiled(schema, complaint):
    with pytest.raises(ValueError, match=complaint):
        compile_schema(schema)


def test_importing_procforge_leaves_jsonschema_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, procforge, procforge.cli, procforge.pipeline; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
