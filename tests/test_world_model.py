import copy
import json

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from procforge.errors import SampleValidationError, ValidationError
from procforge.pipeline import _read_json
from procforge.sampling import NoiseSpec, SampleBatch, TransitionSample, simulate_oracle
from procforge.templates import MdpTemplate, TemplateAction, TemplateVariable, bound_action_from_parts
from procforge.world_model import (
    aggregate,
    serialize_world_model,
    world_model_from_dict,
)
from procforge.schemas import first_violation, load_schema

from conftest import DRAW, POUR, POWER_ON, V_CAP, V_FLASK, V_MATERIAL, V_POWER


def make_sample(tpl, state, action_key, next_state, reward):
    if "(" in action_key:
        action_id, inner = action_key[:-1].split("(", 1)
        params = dict(pair.split("=") for pair in inner.split(","))
    else:
        action_id, params = action_key, {}
    return TransitionSample(
        state=state,
        action=bound_action_from_parts(action_id, params),
        next_state=next_state,
        reward=reward,
    )


GOOD_DRAW_STATE = {V_MATERIAL: "none", V_POWER: "on", V_CAP: "opened", V_FLASK: "none"}
GOOD_DRAW_NEXT = {**GOOD_DRAW_STATE, V_MATERIAL: "ddH2O"}


def repeated_draw_batch(tpl, n=27):
    samples = tuple(make_sample(tpl, GOOD_DRAW_STATE, DRAW, GOOD_DRAW_NEXT, 1) for _ in range(n))
    return SampleBatch(template=tpl, samples=samples, source="file")


def mixed_pour_batch(tpl):
    """7 successful-outcome samples (one judged invalid) and 13 rejected
    unchanged-state samples for the same key."""
    state = {V_MATERIAL: "ddH2O", V_POWER: "on", V_CAP: "opened", V_FLASK: "ddH2O"}
    moved = {**state, V_MATERIAL: "none"}
    samples = [make_sample(tpl, state, POUR, moved, 1) for _ in range(6)]
    samples.append(make_sample(tpl, state, POUR, moved, 0))
    samples += [make_sample(tpl, state, POUR, state, 0) for _ in range(13)]
    return SampleBatch(template=tpl, samples=tuple(samples), source="file")


def test_identical_samples_collapse_to_one_outcome(pipette_template):
    wm = aggregate(repeated_draw_batch(pipette_template))
    assert len(wm.entries) == 1
    entry = next(iter(wm.entries.values()))
    assert entry.total_count == 27
    assert len(entry.outcomes) == 1
    outcome = entry.outcomes[0]
    assert outcome.count == 27
    assert entry.probability(outcome) == 1.0
    assert outcome.avg_reward == 1.0
    assert entry.plausibility == 1.0


def test_mixed_key_probabilities_are_exact_rationals(pipette_template):
    wm = aggregate(mixed_pour_batch(pipette_template))
    assert len(wm.entries) == 1
    entry = next(iter(wm.entries.values()))
    assert entry.total_count == 20
    probs = sorted(entry.probability(o) for o in entry.outcomes)
    assert probs == [0.35, 0.65]
    by_count = {o.count: o for o in entry.outcomes}
    assert by_count[7].avg_reward == pytest.approx(6 / 7)
    assert by_count[13].avg_reward == 0.0
    assert entry.plausibility == pytest.approx(6 / 20)


def test_empty_batch_gives_empty_model(pipette_template):
    wm = aggregate(SampleBatch(template=pipette_template, samples=(), source="file"))
    assert wm.entries == {}


def test_query_entry_exact_match_only(pipette_template):
    wm = aggregate(repeated_draw_batch(pipette_template))
    action = bound_action_from_parts(DRAW, {})
    assert wm.query_entry(GOOD_DRAW_STATE, action) is not None
    near_miss = {**GOOD_DRAW_STATE, V_CAP: "closed"}
    assert wm.query_entry(near_miss, action) is None
    other_action = bound_action_from_parts("electronic_pipette.power_button.set", {"value": "on"})
    assert wm.query_entry(GOOD_DRAW_STATE, other_action) is None


def test_total_count_matches_batch_size(pipette_template, pipette_oracles):
    batch = simulate_oracle(
        pipette_template, pipette_oracles["electronic_pipette"], 250, NoiseSpec(seed=13)
    )
    wm = aggregate(batch)
    assert wm.total_samples() == 250


def test_plausibility_is_probability_weighted_avg_reward(pipette_template, pipette_oracles):
    batch = simulate_oracle(
        pipette_template,
        pipette_oracles["electronic_pipette"],
        300,
        NoiseSpec(reward_flip_rate=0.2, seed=17),
    )
    for entry in aggregate(batch).entries.values():
        mixture = sum(entry.probability(o) * o.avg_reward for o in entry.outcomes)
        assert entry.plausibility == pytest.approx(mixture, abs=1e-9)
        assert sum(entry.probability(o) for o in entry.outcomes) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=59), max_size=150), seed=st.integers(0, 50))
def test_aggregate_of_shared_samples_equals_aggregate_of_copies(pipette_template, pipette_oracles, picks, seed):
    oracle = pipette_oracles["electronic_pipette"]
    pool = simulate_oracle(
        pipette_template, oracle, 60, NoiseSpec(reward_flip_rate=0.1, effect_corrupt_rate=0.1, seed=seed)
    ).samples
    shared = SampleBatch(pipette_template, tuple(pool[i] for i in picks), "file")
    copies = SampleBatch(pipette_template, tuple(copy.deepcopy(pool[i]) for i in picks), "file")
    fast, slow = aggregate(shared), aggregate(copies)
    assert list(fast.entries.items()) == list(slow.entries.items())
    assert serialize_world_model(fast) == serialize_world_model(slow)


@settings(max_examples=60, deadline=None)
@given(
    obj=st.sampled_from(("electronic_pipette", "ddh2o_bottle")),
    n=st.integers(min_value=1, max_value=300),
    flip=st.floats(min_value=0.0, max_value=1.0),
    corrupt=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_serialization_round_trip(pipette_template, bottle_template, pipette_oracles, obj, n, flip, corrupt, seed):
    """Whatever the writer writes, the strict reader accepts and re-serialises
    byte for byte."""
    tpl = pipette_template if obj == "electronic_pipette" else bottle_template
    batch = simulate_oracle(tpl, pipette_oracles[obj], n, NoiseSpec(flip, corrupt, seed))
    text = serialize_world_model(aggregate(batch))
    restored = world_model_from_dict(json.loads(text))
    assert serialize_world_model(restored) == text
    assert restored.template == tpl


# ── the strict reader against the full entry schema ──────────────────────

# The per-entry part of world_model.schema.json as it stood before the
# reader checked entries against their template: the slow reference.
REFERENCE_ENTRY_SCHEMA = {
    "type": "object",
    "required": ["state", "action", "params", "total_count", "plausibility", "outcomes"],
    "additionalProperties": False,
    "properties": {
        "state": {"type": "object", "additionalProperties": {"type": "string"}},
        "action": {"type": "string"},
        "params": {"type": "object", "additionalProperties": {"type": "string"}},
        "total_count": {"type": "integer", "minimum": 1},
        "plausibility": {"type": "number", "minimum": 0, "maximum": 1},
        "outcomes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["next_state", "count", "probability", "avg_reward", "reward_sum"],
                "additionalProperties": False,
                "properties": {
                    "next_state": {"type": "object", "additionalProperties": {"type": "string"}},
                    "count": {"type": "integer", "minimum": 1},
                    "probability": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    "avg_reward": {"type": "number", "minimum": 0, "maximum": 1},
                    "reward_sum": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
}


def reference_accepts(doc):
    schema = {**load_schema("world_model")}
    schema["properties"] = {**schema["properties"], "entries": {"type": "array", "items": REFERENCE_ENTRY_SCHEMA}}
    return Draft202012Validator(schema).is_valid(doc) and first_violation("template", doc["template"]) is None


def read_world_model(path, doc):
    """What the extract stage does with one world-model file."""
    path.write_text(json.dumps(doc))
    return world_model_from_dict(_read_json(path, "world_model"))


def canonical_entries(doc):
    return sorted(json.dumps(entry, sort_keys=True) for entry in doc["entries"])


@pytest.fixture(scope="module")
def written_model(pipette_template, pipette_oracles):
    noise = NoiseSpec(reward_flip_rate=0.2, effect_corrupt_rate=0.1, seed=5)
    batch = simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 40, noise)
    return json.loads(serialize_world_model(aggregate(batch)))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("world_model") / "electronic_pipette.json"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
NEAR_MISSES = st.sampled_from((0, 1, 2, -1, 1.0, 0.5, -0.0, True, False, "1", "on", None, [], {}, 10**400))


def nodes(value):
    """Every object and array at or below ``value``."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from nodes(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from nodes(item)


@st.composite
def mutated_world_models(draw, base, values):
    """``base`` with one to three edits under ``entries``: a key or item
    deleted, replaced or added (an added list item may repeat a sibling)."""
    doc = copy.deepcopy(base)
    # A fresh copy, so a later edit cannot grow the [] or {} that NEAR_MISSES holds.
    value = (NEAR_MISSES | st.sampled_from(values) | JSON_VALUES).map(copy.deepcopy)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        node = draw(st.sampled_from(list(nodes(doc["entries"]))))
        op = draw(st.sampled_from(("delete", "replace", "add")))
        if isinstance(node, dict):
            keys = sorted(node)
            if op == "add" or not keys:
                node[draw(st.text(max_size=6))] = draw(value)
            elif op == "delete":
                del node[draw(st.sampled_from(keys))]
            else:
                node[draw(st.sampled_from(keys))] = draw(value)
        elif op == "add" or not node:
            node.append(copy.deepcopy(draw(st.sampled_from(node))) if node and draw(st.booleans()) else draw(value))
        else:
            index = draw(st.integers(min_value=0, max_value=len(node) - 1))
            if op == "delete":
                del node[index]
            else:
                node[index] = draw(value)
    return doc


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_strict_reader_rejects_whatever_the_full_schema_rejects(written_model, scratch_file, data):
    tpl = world_model_from_dict(written_model).template
    values = sorted({value for v in tpl.variables for value in v.domain} | {a.id for a in tpl.actions})
    doc = data.draw(mutated_world_models(written_model, values))
    try:
        wm = read_world_model(scratch_file, doc)
    except ValidationError:  # anything else (KeyError, TypeError, ...) fails the test
        return
    assert reference_accepts(doc)
    # Accepted means: exactly the entries the writer writes for this model.
    assert canonical_entries(json.loads(serialize_world_model(wm))) == canonical_entries(doc)


def setting(path, value):
    """An edit that sets the value at ``path``; a callable ``value`` maps the old one."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return edit


def split_outcome(doc):
    """Entry 1's only outcome (count 2) as two records of the same next
    state, with every derived field recomputed."""
    entry = doc["entries"][1]
    (first,) = entry["outcomes"]
    assert first["count"] == 2
    halves = [{**first, "count": 1, "reward_sum": r} for r in (min(first["reward_sum"], 1), max(first["reward_sum"] - 1, 0))]
    for outcome in halves:
        outcome["probability"] = 1 / 2
        outcome["avg_reward"] = float(outcome["reward_sum"])
    entry["outcomes"] = halves


E0, O0 = ["entries", 0], ["entries", 0, "outcomes", 0]

# (edit, start of the error message, whether the full entry schema let it through)
HAND_EDITS = [
    pytest.param(setting(["entries", 1, "state", V_CAP], "ajar"), "$.entries[1].state", True, id="value-out-of-domain"),
    pytest.param(lambda doc: doc["entries"][1]["state"].pop(V_CAP), "$.entries[1].state", True, id="missing-variable"),
    pytest.param(setting(["entries", 3, "state", "flask.lid"], "on"), "$.entries[3].state", True, id="extra-variable"),
    pytest.param(setting(["entries", 2, "action"], "electronic_pipette.teleport"), "$.entries[2].action", True, id="unknown-action"),
    pytest.param(lambda doc: doc["entries"][2].update(action=POWER_ON, params={}), "$.entries[2].action", True, id="forged-bound-action"),
    pytest.param(lambda doc: doc["entries"].insert(2, doc["entries"][1]), "$.entries[2]: repeats", True, id="repeated-entry"),
    pytest.param(setting(E0 + ["total_count"], lambda n: n + 1), "$.entries[0].total_count", True, id="wrong-total-count"),
    pytest.param(setting(E0 + ["total_count"], float), "$.entries[0].total_count", True, id="float-total-count"),
    pytest.param(setting(E0 + ["plausibility"], 0.123), "$.entries[0].plausibility", True, id="wrong-plausibility"),
    pytest.param(setting(O0 + ["probability"], 0.5), "$.entries[0].outcomes[0].probability", True, id="wrong-probability"),
    pytest.param(setting(O0 + ["avg_reward"], 0.5), "$.entries[0].outcomes[0].avg_reward", True, id="wrong-avg-reward"),
    pytest.param(setting(O0 + ["count"], 0), "$.entries[0].outcomes[0].count", False, id="zero-count"),
    pytest.param(setting(O0 + ["count"], True), "$.entries[0].outcomes[0].count", False, id="boolean-count"),
    pytest.param(setting(O0 + ["count"], float), "$.entries[0].outcomes[0].count", True, id="float-count"),
    pytest.param(setting(O0 + ["reward_sum"], 2), "$.entries[0].outcomes[0].reward_sum", True, id="reward-sum-above-count"),
    pytest.param(setting(["entries", 1, "outcomes", 0, "next_state", V_CAP], "ajar"), "$.entries[1].outcomes[0].next_state", True, id="next-state-out-of-domain"),
    pytest.param(split_outcome, "$.entries[1].outcomes[1].next_state repeats", True, id="repeated-next-state"),
]


@pytest.mark.parametrize("edit, message, passed_full_schema", HAND_EDITS)
def test_hand_edit_is_rejected_with_its_entry_path(written_model, scratch_file, edit, message, passed_full_schema):
    doc = copy.deepcopy(written_model)
    edit(doc)
    assert reference_accepts(doc) == passed_full_schema
    with pytest.raises(SampleValidationError) as err:
        read_world_model(scratch_file, doc)
    assert str(err.value).startswith(message)


def test_non_string_param_is_rejected_where_it_would_format_to_a_valid_key():
    tpl = MdpTemplate(
        focal_object="pump",
        variables=(TemplateVariable(id="pump.state", domain=("idle", "busy"), origin="own"),),
        actions=(TemplateAction(id="pump.dose", params=(("vol", ("5", "10")),), kind="control"),),
    )
    sample = TransitionSample({"pump.state": "idle"}, bound_action_from_parts("pump.dose", {"vol": "5"}), {"pump.state": "busy"}, 1)
    doc = json.loads(serialize_world_model(aggregate(SampleBatch(tpl, (sample,), "file"))))
    assert world_model_from_dict(doc).total_samples() == 1
    doc["entries"][0]["params"]["vol"] = 5
    with pytest.raises(SampleValidationError, match=r"^\$\.entries\[0\]: action must be a string and params an object of strings"):
        world_model_from_dict(doc)
