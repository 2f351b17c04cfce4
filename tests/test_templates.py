import json

import pytest

from procforge.errors import StateSpaceLimitError, UnknownObjectError, ValidationError
from procforge.inventory import parse_inventory, resolve_dynamic_domains
from procforge.templates import (
    build_template,
    enumerate_states,
    template_from_dict,
    template_to_dict,
)

from conftest import DRAW, POUR, V_CAP, V_FLASK, V_MATERIAL, V_POWER


def test_pipette_template_variables(pipette_template):
    own = [v.id for v in pipette_template.variables if v.origin == "own"]
    ctx = [v.id for v in pipette_template.variables if v.origin == "contextual"]
    assert own == [V_MATERIAL, V_POWER]
    assert ctx == [V_CAP, V_FLASK]


def test_pipette_template_actions(pipette_template):
    keys = [b.key for b in pipette_template.bound_actions()]
    assert keys == [
        "electronic_pipette.power_button.set(value=on)",
        "electronic_pipette.power_button.set(value=off)",
        DRAW,
        POUR,
    ]
    kinds = {a.id: a.kind for a in pipette_template.actions}
    assert kinds["electronic_pipette.power_button.set"] == "control"
    assert kinds[DRAW] == "interaction"


def test_pipette_state_space_is_sixteen(pipette_template):
    states = enumerate_states(pipette_template)
    assert len(states) == 16
    assert pipette_template.state_space_size() == 16
    assert all(set(s) == set(pipette_template.variable_ids) for s in states)


def test_scale_contextual_platform_domain(benchmark_dir):
    inv = resolve_dynamic_domains(parse_inventory((benchmark_dir / "inventory.json").read_text()))
    scale = build_template(inv, "electronic_scale")
    assert scale.domain_of("electronic_scale.platform.content") == ("none", "aluminium_foil")


def test_object_without_interactions_has_no_contextual_entries():
    doc = {
        "schema_version": "1",
        "objects": [
            {
                "id": "lamp",
                "category": "instrument",
                "states": [{"id": "lit", "domain": ["no", "yes"]}],
                "actions": [{"id": "toggle"}],
            }
        ],
    }
    inv = resolve_dynamic_domains(parse_inventory(json.dumps(doc)))
    tpl = build_template(inv, "lamp")
    assert all(v.origin == "own" for v in tpl.variables)
    assert [a.kind for a in tpl.actions] == ["control"]


def test_unknown_object_rejected(pipette_inventory):
    with pytest.raises(UnknownObjectError):
        build_template(pipette_inventory, "centrifuge")


@pytest.mark.parametrize(
    "focal, dish_domain, named",
    [
        pytest.param("bottle", ["none", "salt"], "bottle.cap.state", id="own"),
        pytest.param("dish", ["none", "salt"], "bottle.cap.state", id="contextual"),
        pytest.param("dish", "dynamic", "dish.material", id="own-before-contextual"),
    ],
)
def test_unresolved_variable_is_named_own_first(focal, dish_domain, named):
    # The bottle's cap state is the dish's contextual variable: a transfer
    # into the dish reads whether the cap is open.
    doc = {
        "schema_version": "1",
        "objects": [
            {
                "id": "bottle",
                "category": "container",
                "components": [
                    {"id": "cap", "kind": "cap", "states": [{"id": "state", "domain": "dynamic"}], "actions": []}
                ],
            },
            {"id": "dish", "category": "container", "states": [{"id": "material", "domain": dish_domain}]},
        ],
        "interactions": [{"kind": "transfer_material", "source": "bottle", "target": "dish", "material": "salt"}],
    }
    with pytest.raises(ValidationError, match=f"^inventory is not resolved: {named} still has a dynamic domain$"):
        build_template(parse_inventory(json.dumps(doc)), focal)


def test_build_template_is_deterministic(pipette_inventory):
    a = template_to_dict(build_template(pipette_inventory, "electronic_pipette"))
    b = template_to_dict(build_template(pipette_inventory, "electronic_pipette"))
    assert a == b


def test_template_serialization_round_trip(pipette_template):
    doc = json.loads(json.dumps(template_to_dict(pipette_template)))
    assert template_from_dict(doc) == pipette_template


def test_no_variable_orphaned_across_templates(benchmark_dir):
    inv = resolve_dynamic_domains(parse_inventory((benchmark_dir / "inventory.json").read_text()))
    own_union = set()
    for obj in inv.objects:
        tpl = build_template(inv, obj.id)
        own_union |= {v.id for v in tpl.variables if v.origin == "own"}
        for v in tpl.variables:
            assert inv.get_object(v.id.split(".")[0]) is not None
    assert own_union == {v.id for v in inv.variables()}


def test_enumerate_limit_refusal_reports_size(pipette_template):
    with pytest.raises(StateSpaceLimitError) as err:
        enumerate_states(pipette_template, limit=10)
    assert err.value.size == 16
    assert "16" in str(err.value)


def test_single_boolean_variable_enumerates_two_states():
    doc = {
        "schema_version": "1",
        "objects": [
            {"id": "switch", "category": "tool", "states": [{"id": "up", "domain": ["no", "yes"]}]}
        ],
    }
    inv = resolve_dynamic_domains(parse_inventory(json.dumps(doc)))
    states = enumerate_states(build_template(inv, "switch"))
    assert states == [{"switch.up": "no"}, {"switch.up": "yes"}]


def test_interaction_action_present_in_both_partner_templates(pipette_template, bottle_template):
    assert DRAW in pipette_template.bound_actions_by_key
    assert DRAW in bottle_template.bound_actions_by_key


def test_stateless_object_yields_empty_template(benchmark_dir):
    inv = resolve_dynamic_domains(parse_inventory((benchmark_dir / "inventory.json").read_text()))
    stick = build_template(inv, "magnetic_stick")
    assert stick.variables == ()
    assert stick.actions == ()
    assert enumerate_states(stick) == [{}]
