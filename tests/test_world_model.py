import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from procforge.errors import SampleValidationError
from procforge.sampling import NoiseSpec, SampleBatch, TransitionSample, simulate_oracle
from procforge.templates import bound_action_from_parts
from procforge.world_model import (
    aggregate,
    merge,
    serialize_world_model,
    world_model_from_dict,
)

from conftest import DRAW, POUR, V_CAP, V_FLASK, V_MATERIAL, V_POWER


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


def test_merge_models_from_different_templates_rejected(pipette_template, bottle_template):
    a = aggregate(SampleBatch(template=pipette_template, samples=(), source="file"))
    b = aggregate(SampleBatch(template=bottle_template, samples=(), source="file"))
    with pytest.raises(SampleValidationError):
        merge(a, b)


@settings(max_examples=40, deadline=None)
@given(split=st.integers(min_value=0, max_value=120), seed=st.integers(min_value=0, max_value=50))
def test_merge_equals_aggregate_of_concatenation(pipette_template, pipette_oracles, split, seed):
    oracle = pipette_oracles["electronic_pipette"]
    batch = simulate_oracle(
        pipette_template, oracle, 120, NoiseSpec(reward_flip_rate=0.1, seed=seed)
    )
    first = SampleBatch(pipette_template, batch.samples[:split], "file")
    second = SampleBatch(pipette_template, batch.samples[split:], "file")
    merged = merge(aggregate(first), aggregate(second))
    whole = aggregate(batch)
    assert serialize_world_model(merged) == serialize_world_model(whole)
    flipped = merge(aggregate(second), aggregate(first))
    assert serialize_world_model(flipped) == serialize_world_model(whole)


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


def test_serialization_round_trip(pipette_template, pipette_oracles):
    batch = simulate_oracle(
        pipette_template, pipette_oracles["electronic_pipette"], 150, NoiseSpec(seed=23)
    )
    wm = aggregate(batch)
    doc = json.loads(serialize_world_model(wm))
    restored = world_model_from_dict(doc)
    assert serialize_world_model(restored) == serialize_world_model(wm)
    assert restored.template == wm.template
