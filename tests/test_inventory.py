import json

import pytest

from procforge.errors import ValidationError
from procforge.inventory import parse_inventory, resolve_dynamic_domains


def test_case_study_object_counts(benchmark_dir):
    inv = parse_inventory((benchmark_dir / "inventory.json").read_text())
    by_category = {}
    for obj in inv.objects:
        by_category[obj.category] = by_category.get(obj.category, 0) + 1
    assert by_category == {"instrument": 3, "container": 3, "tool": 5}
    assert len(inv.interactions) == 10


def test_empty_inventory_parses():
    inv = parse_inventory(json.dumps({"schema_version": "1", "objects": []}))
    assert inv.objects == ()
    assert inv.interactions == ()


def test_syntax_error_reports_position():
    with pytest.raises(ValidationError, match="^Expecting value ") as err:
        parse_inventory('{"schema_version": "1", "objects": [}')
    assert "(line 1, column " in str(err.value)


def test_schema_violation_reports_path():
    doc = {"schema_version": "1", "objects": [{"id": "x", "category": "widget"}]}
    with pytest.raises(ValidationError, match=r"^\$\.objects\[0\]\.category: ") as err:
        parse_inventory(json.dumps(doc))
    assert "$.objects[0]" in str(err.value)


_SPOON = {"id": "spoon", "category": "tool"}
_BOTTLE = {"id": "bottle", "category": "container", "states": [{"id": "level", "domain": ["empty", "full"]}]}


def _inventory(*objects, interactions=()):
    return {"schema_version": "1", "objects": list(objects), "interactions": list(interactions)}


@pytest.mark.parametrize(
    "doc, path",
    [
        pytest.param(_inventory({**_SPOON, "id": "1spoon"}), "$.objects[0].id", id="bad-identifier"),
        pytest.param(
            _inventory({**_BOTTLE, "initial_state": {"level": ""}}),
            "$.objects[0].initial_state.level",
            id="empty-value",
        ),
        pytest.param(_inventory({**_SPOON, "category": "widget"}), "$.objects[0].category", id="unknown-category"),
        pytest.param(
            _inventory({**_SPOON, "components": [{"id": "tip", "kind": "nozzle"}]}),
            "$.objects[0].components[0].kind",
            id="unknown-component-kind",
        ),
        pytest.param(
            _inventory(_SPOON, _BOTTLE, interactions=[{"kind": "pour", "source": "spoon", "target": "bottle"}]),
            "$.interactions[0].kind",
            id="unknown-interaction-kind",
        ),
        pytest.param(_inventory({**_BOTTLE, "states": {"id": "level"}}), "$.objects[0].states", id="states-not-a-list"),
        pytest.param(
            _inventory({**_BOTTLE, "states": [{"id": "level", "domain": []}]}),
            "$.objects[0].states[0].domain",
            id="empty-domain",
        ),
        pytest.param(
            _inventory(
                _SPOON,
                _BOTTLE,
                interactions=[{"kind": "transfer_material", "source": "a.b.c", "target": "bottle", "material": "x"}],
            ),
            "$.interactions[0].source",
            id="malformed-reference",
        ),
        pytest.param({"objects": []}, "$", id="missing-schema-version"),
        pytest.param(
            _inventory({**_BOTTLE, "states": [{"id": "level", "domain": ["empty"], "resolved_from": "transfer_material"}]}),
            "$.objects[0].states[0]",
            id="resolved-from-is-not-an-input",
        ),
    ],
)
def test_schema_violation_raises_with_its_path(doc, path):
    with pytest.raises(ValidationError) as err:
        parse_inventory(json.dumps(doc))
    assert str(err.value).startswith(f"{path}: ")


def test_unknown_key_is_a_schema_violation():
    doc = _inventory({**_BOTTLE, "initial_sate": {"level": "full"}})
    with pytest.raises(ValidationError) as err:
        parse_inventory(json.dumps(doc))
    assert str(err.value).startswith("$.objects[0]: ")
    assert "initial_sate" in str(err.value)


def test_duplicate_object_ids_rejected():
    doc = {
        "schema_version": "1",
        "objects": [
            {"id": "spoon", "category": "tool"},
            {"id": "spoon", "category": "tool"},
        ],
    }
    with pytest.raises(ValidationError, match=r"^duplicate object ids in \$\.objects: spoon$"):
        parse_inventory(json.dumps(doc))


def test_dangling_interaction_reference_names_path():
    doc = {
        "schema_version": "1",
        "objects": [{"id": "spoon", "category": "tool"}],
        "interactions": [
            {"kind": "transfer_material", "source": "spoon", "target": "flask", "material": "x"}
        ],
    }
    with pytest.raises(ValidationError, match="unknown object 'flask' in reference 'flask'") as err:
        parse_inventory(json.dumps(doc))
    assert "$.interactions[0].target" in str(err.value)


def test_move_to_receptor_needs_material_free_receptor_target():
    doc = {
        "schema_version": "1",
        "objects": [
            {"id": "foil", "category": "tool"},
            {"id": "scale", "category": "instrument"},
        ],
        "interactions": [{"kind": "move_to_receptor", "source": "foil", "target": "scale"}],
    }
    with pytest.raises(ValidationError, match=r"^\$\.interactions\[0\]\.target: target 'scale' has 0 receptor components"):
        parse_inventory(json.dumps(doc))


def test_whole_object_target_normalized_to_unique_receptor():
    doc = {
        "schema_version": "1",
        "objects": [
            {"id": "foil", "category": "tool"},
            {
                "id": "scale",
                "category": "instrument",
                "components": [
                    {
                        "id": "platform",
                        "kind": "receptor",
                        "states": [{"id": "content", "domain": "dynamic"}],
                    }
                ],
            },
        ],
        "interactions": [{"kind": "move_to_receptor", "source": "foil", "target": "scale"}],
    }
    inv = parse_inventory(json.dumps(doc))
    assert inv.interactions[0].target == "scale.platform"


def test_initial_state_must_use_declared_variables():
    doc = {
        "schema_version": "1",
        "objects": [
            {
                "id": "bottle",
                "category": "container",
                "states": [{"id": "level", "domain": ["empty", "full"]}],
                "initial_state": {"weight": "heavy"},
            }
        ],
    }
    with pytest.raises(ValidationError, match=r"^\$\.objects\[0\]\.initial_state: initial_state assigns undeclared variable 'weight'$"):
        parse_inventory(json.dumps(doc))


def test_initial_state_value_must_be_in_domain():
    doc = {
        "schema_version": "1",
        "objects": [
            {
                "id": "bottle",
                "category": "container",
                "states": [{"id": "level", "domain": ["empty", "full"]}],
                "initial_state": {"level": "half"},
            }
        ],
    }
    with pytest.raises(ValidationError, match=r"^\$\.objects\[0\]\.initial_state\.level: initial value 'half' not in domain of bottle\.level$"):
        parse_inventory(json.dumps(doc))


def test_receptor_domain_resolved_from_move_interactions(benchmark_dir):
    inv = resolve_dynamic_domains(parse_inventory((benchmark_dir / "inventory.json").read_text()))
    platform = {v.id: v for v in inv.variables()}["electronic_scale.platform.content"]
    assert platform.domain == ("none", "aluminium_foil")
    assert platform.resolved_from == "move_to_receptor"


def test_material_domain_resolved_from_transfer_interactions(benchmark_dir):
    inv = resolve_dynamic_domains(parse_inventory((benchmark_dir / "inventory.json").read_text()))
    variables = {v.id: v for v in inv.variables()}
    flask = variables["erlenmeyer_flask.material"]
    assert flask.domain == ("none", "ddH2O")
    assert flask.resolved_from == "transfer_material"
    spoon = variables["spoon.content"]
    assert spoon.domain == ("none", "CuSO4", "NaHCO3")


def test_unresolvable_dynamic_domain_is_an_error():
    doc = {
        "schema_version": "1",
        "objects": [
            {
                "id": "beaker",
                "category": "container",
                "states": [{"id": "material", "domain": "dynamic"}],
            }
        ],
    }
    inv = parse_inventory(json.dumps(doc))
    with pytest.raises(ValidationError, match="^dynamic domain of beaker.material cannot be resolved: ") as err:
        resolve_dynamic_domains(inv)
    assert "beaker.material" in str(err.value)


def test_resolution_is_idempotent(pipette_inventory):
    assert resolve_dynamic_domains(pipette_inventory) == pipette_inventory


def test_resolution_preserves_static_domains_and_variables(benchmark_dir):
    before = parse_inventory((benchmark_dir / "inventory.json").read_text())
    after = resolve_dynamic_domains(before)
    before_vars = {v.id: v for v in before.variables()}
    after_vars = {v.id: v for v in after.variables()}
    assert set(before_vars) == set(after_vars)
    for var_id, var in before_vars.items():
        if not var.is_dynamic:
            assert after_vars[var_id].domain == var.domain
        else:
            assert len(after_vars[var_id].domain) >= 2  # none + at least one value
