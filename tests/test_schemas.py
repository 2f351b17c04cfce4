"""The in-tree schema validator against ``jsonschema``'s draft 2020-12 validator,
the one JSON decoder against ``json.loads``, and the one repeated-id check."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import Draft202012Validator

from procforge import parse_inventory
from procforge.errors import DuplicateIdError
from procforge.pipeline import load_config, run_all
from procforge.repair import PrecedenceConstraint, constraints_from_dict, procedure_from_dict
from procforge.rules import rule_set_from_dict
from procforge.schemas import _ANNOTATIONS, KEYWORDS, SCHEMA_DIR, compile_schema, first_violation, load_json, load_schema
from procforge.templates import template_from_dict

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
        ({"enum": ["0", None]}, 0),
        ({"type": "integer"}, 2.0),
        ({"type": "integer"}, True),
        ({"type": "number"}, False),
        ({"type": ["string", "null"]}, 0),
        ({"anyOf": [{"type": "integer"}, {"minimum": 0}, {"type": "number"}]}, 3),
        ({"anyOf": [{"type": "string"}, {"minimum": 0}]}, -1),
        ({"minItems": 2, "items": {"minLength": 1}}, [""]),
        ({"minimum": 0, "maximum": 1}, 1.5),
        ({"pattern": "^a", "minLength": 3}, "ba"),
        ({"required": ["b", "a"]}, {"c": 1}),
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
        ({"enum": "abc"}, "enum must list strings or null"),
        # Forms no shipped schema uses:
        ({"enum": [0, 1]}, "enum must list strings or null"),
        ({"enum": ["a", {"a": False}]}, "enum must list strings or null"),
        ({"const": [1, {"a": False}]}, "unsupported schema keyword 'const'"),
        ({"items": {"const": "dynamic"}}, "#/items/const"),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}, {"type": "number"}]}, "unsupported schema keyword 'oneOf'"),
        ({"anyOf": [{"type": "string"}, {"oneOf": [{"minimum": 0}]}]}, "#/anyOf/1/oneOf"),
        ({"required": ["b", "a"], "additionalProperties": True}, "a schema must be an object, not True"),
    ],
)
def test_unsupported_schema_raises_when_compiled(schema, complaint):
    with pytest.raises(ValueError, match=complaint):
        compile_schema(schema)


def test_validator_supports_exactly_the_keywords_the_shipped_schemas_use():
    def keywords(node):
        """The keywords of a schema node and of every schema below it."""
        below = [*node.get("properties", {}).values(), *node.get("$defs", {}).values(), *node.get("anyOf", [])]
        below += [node[k] for k in ("items", "additionalProperties") if isinstance(node.get(k), dict)]
        return set(node).union(*map(keywords, below))

    used = set().union(*(keywords(load_schema(name)) for name in SCHEMAS))
    assert used | _ANNOTATIONS == KEYWORDS


@pytest.mark.parametrize("domain", [5, [], ["a", ""], "dyn", "dynamic\n"])
def test_inventory_domain_is_dynamic_or_a_non_empty_list_of_values(domain):
    doc = {"schema_version": "1", "objects": [{"id": "o", "category": "tool", "states": [{"id": "s", "domain": domain}]}]}
    assert first_violation("inventory", doc) == (
        "$.objects[0].states[0].domain", f"{domain!r} is not valid under any of the given schemas",
    )


def test_importing_procforge_leaves_jsonschema_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, procforge, procforge.cli, procforge.pipeline; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


# ── the decoder ───────────────────────────────────────────────────────────


@st.composite
def json_texts(draw):
    """The JSON text of a generated value, in which some objects give one of their keys twice."""

    def render(value):
        if isinstance(value, list):
            return "[" + ", ".join(map(render, value)) + "]"
        if not isinstance(value, dict):
            return json.dumps(value)
        pairs = [f"{json.dumps(key)}: {render(item)}" for key, item in value.items()]
        if value and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(value)))
            pairs.insert(draw(st.integers(0, len(pairs))), f"{json.dumps(key)}: {render(draw(JSON_VALUES))}")
        return "{" + ", ".join(pairs) + "}"

    return render(draw(JSON_VALUES))


def repeats_a_key(node) -> bool:
    """Whether a document read with ``object_pairs_hook=list`` holds an object that repeats a key;
    an object reads as a list of (key, value) tuples, an array as a list of values."""
    if not isinstance(node, list):
        return False
    if node and isinstance(node[0], tuple):
        keys = [key for key, _ in node]
        return len(set(keys)) != len(keys) or any(repeats_a_key(item) for _, item in node)
    return any(map(repeats_a_key, node))


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, ascii_only=st.booleans())
def test_load_json_reads_what_json_loads_reads(value, ascii_only):
    text = json.dumps(value, ensure_ascii=ascii_only)
    assert json.dumps(load_json(text)) == json.dumps(json.loads(text))  # NaN reads back unequal to itself


@settings(max_examples=300, deadline=None)
@given(text=json_texts())
def test_load_json_rejects_exactly_the_texts_that_repeat_a_key(text):
    if repeats_a_key(json.loads(text, object_pairs_hook=list)):
        with pytest.raises(ValueError, match="^repeated key "):
            load_json(text)
    else:
        assert json.dumps(load_json(text)) == json.dumps(json.loads(text))


def test_load_json_rejects_a_leading_bom_as_json_loads_does():
    with pytest.raises(ValueError, match=r"^Unexpected UTF-8 BOM \(decode using utf-8-sig\): line 1 column 1 \(char 0\)$"):
        load_json('\ufeff{"a": 1}')


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000, "[" * 100_000 + "]" * 100_000])
def test_load_json_turns_nesting_past_the_recursion_limit_into_value_error(text):
    with pytest.raises(ValueError, match="^nested too deeply$"):
        load_json(text)


# ── repeated ids ──────────────────────────────────────────────────────────

READ = {
    "inventory": lambda doc: parse_inventory(json.dumps(doc)),
    "template": template_from_dict,
    "procedure": procedure_from_dict,
    "constraints": constraints_from_dict,
    "rules": rule_set_from_dict,
}


def _scale(doc):
    """The inventory's first object, the electronic scale."""
    return doc["objects"][0]


def _key(item):
    return str((item["action"], item["variable"], item["value"]))


# (artifact, the list whose first item is repeated, the name its error gives)
ID_LISTS = {
    "inventory-object-ids": ("inventory", lambda doc: doc["objects"], lambda item: item["id"]),
    "inventory-component-ids": ("inventory", lambda doc: _scale(doc)["components"], lambda item: item["id"]),
    "inventory-variable-names": (
        "inventory", lambda doc: _scale(doc)["components"][0]["states"], lambda item: item["id"],
    ),
    "inventory-action-ids": (
        "inventory", lambda doc: _scale(doc)["components"][0]["actions"],
        lambda item: f"electronic_scale.power_button.{item['id']}",
    ),
    "inventory-parameter-names": (
        "inventory", lambda doc: _scale(doc)["components"][0]["actions"][0]["params"], lambda item: item["name"],
    ),
    "inventory-domain-values": ("inventory", lambda doc: _scale(doc)["components"][0]["states"][0]["domain"], str),
    "inventory-interactions": (
        "inventory", lambda doc: doc["interactions"], lambda item: f"{item['kind']}:{item['source']}->{item['target']}",
    ),
    "template-variable-ids": ("template", lambda doc: doc["variables"], lambda item: item["id"]),
    "template-action-ids": ("template", lambda doc: doc["actions"], lambda item: item["id"]),
    "template-parameter-names": ("template", lambda doc: doc["actions"][0]["params"], lambda item: item["name"]),
    "template-domain-values": ("template", lambda doc: doc["variables"][0]["domain"], str),
    "template-parameter-domain-values": ("template", lambda doc: doc["actions"][0]["params"][0]["domain"], str),
    "procedure-step-ids": ("procedure", lambda doc: doc["steps"], lambda item: item["id"]),
    "raw-constraints": ("constraints", lambda doc: doc["raw"], lambda item: str(PrecedenceConstraint(**item))),
    "cluster-constraints": (
        "constraints", lambda doc: doc.update(cluster=[{"earlier": "weighing", "later": "mixing"}]) or doc["cluster"],
        lambda item: "ClusterConstraint(earlier='weighing', later='mixing')",
    ),
    "rules-preconditions": ("rules", lambda doc: doc["preconditions"], _key),
    "rules-causal-rules": ("rules", lambda doc: doc["causal_rules"], _key),
}


@pytest.mark.parametrize("name, select, repeated", ID_LISTS.values(), ids=ID_LISTS)
def test_each_id_list_reader_names_the_repeated_value(artifacts, name, select, repeated):
    docs = artifacts[name]  # of the templates, the electronic scale's
    doc = copy.deepcopy(next((d for d in docs if d.get("focal_object") == "electronic_scale"), docs[0]))
    items = select(doc)
    items.append(items[0])
    with pytest.raises(DuplicateIdError, match="^duplicate ") as err:
        READ[name](doc)
    assert str(err.value).endswith(f": {repeated(items[0])}")
