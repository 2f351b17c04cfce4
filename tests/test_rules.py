import json

import pytest
from hypothesis import given, settings, strategies as st

from procforge.pipeline import validate_artifact
from procforge.rules import (
    FORBIDDEN,
    INITIAL_STATE,
    REQUIRED,
    STRONG,
    WEAK,
    ActionPools,
    ExtractionConfig,
    _index_effects,
    _producers,
    _value_evidence,
    classify_entries,
    extract_rules,
    rule_set_from_dict,
    rule_set_to_dict,
)
from procforge.sampling import NoiseSpec, OracleRule, OracleSpec, SampleBatch, TransitionSample, simulate_oracle
from procforge.templates import enumerate_states
from procforge.world_model import aggregate

from conftest import (
    DRAW,
    OPEN_CAP,
    POUR,
    POWER_OFF,
    POWER_ON,
    V_CAP,
    V_FLASK,
    V_MATERIAL,
    V_POWER,
)

CFG = ExtractionConfig()


def full_sampling(oracle):
    rules = {k: OracleRule(r.preconditions, r.effects, valid_only=False) for k, r in oracle.rules.items()}
    return OracleSpec(rules=rules)


def exhaustive_batch(tpl, oracle, copies=3):
    """Every (state, bound action) pair exactly `copies` times, judged by
    the oracle. Full coverage removes sampling noise from extraction."""
    samples = []
    for state in enumerate_states(tpl):
        for action in tpl.bound_actions():
            rule = oracle.rules[action.key]
            holds = all(state[v] == val for v, val in rule.preconditions.items())
            next_state = {**state, **rule.effects} if holds else dict(state)
            for _ in range(copies):
                samples.append(
                    TransitionSample(
                        state=dict(state),
                        action=action,
                        next_state=next_state,
                        reward=1 if holds else 0,
                    )
                )
    return SampleBatch(template=tpl, samples=tuple(samples), source="file")


@pytest.fixture(scope="module")
def pipette_model(pipette_template, pipette_oracles):
    oracle = full_sampling(pipette_oracles["electronic_pipette"])
    return aggregate(exhaustive_batch(pipette_template, oracle))


@pytest.fixture(scope="module")
def pipette_pools(pipette_model):
    return classify_entries(pipette_model, CFG)


def evidence(pools, tpl, action, variable):
    """``_value_evidence`` of one (action, variable): value -> (valid
    support, invalid support, contrast)."""
    return _value_evidence(pools[action], tpl.variable_ids.index(variable), tpl.domain_of(variable))


# ── classification ────────────────────────────────────────────────────────


def test_classification_thresholds(pipette_model):
    pools = classify_entries(pipette_model, CFG)
    for action_pools in pools.values():
        for entry in action_pools.valid:
            assert entry.plausibility >= CFG.theta_hi
        for entry in action_pools.invalid:
            assert entry.plausibility <= CFG.theta_lo
        for entry in action_pools.ambiguous:
            assert CFG.theta_lo < entry.plausibility < CFG.theta_hi


def test_mixed_evidence_is_ambiguous(pipette_template):
    # One key with plausibility 6/20 = 0.30 sits between the thresholds.
    state = {V_MATERIAL: "ddH2O", V_POWER: "on", V_CAP: "opened", V_FLASK: "ddH2O"}
    moved = {**state, V_MATERIAL: "none"}
    action = [b for b in pipette_template.bound_actions() if b.key == POUR][0]
    samples = [TransitionSample(state, action, moved, 1) for _ in range(6)]
    samples += [TransitionSample(state, action, moved, 0)]
    samples += [TransitionSample(state, action, dict(state), 0) for _ in range(13)]
    wm = aggregate(SampleBatch(pipette_template, tuple(samples), "file"))
    pools = classify_entries(wm, CFG)
    assert len(pools[POUR].ambiguous) == 1
    assert not pools[POUR].valid
    assert not pools[POUR].invalid


def test_pools_partition_total_weight(pipette_model):
    pools = classify_entries(pipette_model, CFG)
    per_action_total = {}
    for entry in pipette_model.entries.values():
        per_action_total[entry.action.key] = per_action_total.get(entry.action.key, 0) + entry.total_count
    for action, action_pools in pools.items():
        split = sum(
            sum(e.total_count for e in side)
            for side in (action_pools.valid, action_pools.invalid, action_pools.ambiguous)
        )
        assert split == per_action_total[action]


# ── support and contrast ──────────────────────────────────────────────────


def test_supports_on_exhaustive_evidence(pipette_pools, pipette_template):
    cap = evidence(pipette_pools, pipette_template, DRAW, V_CAP)
    flask = evidence(pipette_pools, pipette_template, DRAW, V_FLASK)
    assert cap["opened"][0] == 1.0
    assert cap["closed"][0] == 0.0
    assert flask["none"][0] == 0.5
    # 14 invalid states, 8 with the cap closed
    assert cap["closed"][1] == pytest.approx(8 / 14)


def test_support_weighted_by_entry_counts(pipette_template):
    good = {V_MATERIAL: "none", V_POWER: "on", V_CAP: "opened", V_FLASK: "none"}
    other = {**good, V_FLASK: "ddH2O"}
    action = [b for b in pipette_template.bound_actions() if b.key == DRAW][0]
    nxt = {**good, V_MATERIAL: "ddH2O"}
    samples = [TransitionSample(good, action, nxt, 1) for _ in range(9)]
    samples += [TransitionSample(other, action, {**other, V_MATERIAL: "ddH2O"}, 1)]
    pools = classify_entries(aggregate(SampleBatch(pipette_template, tuple(samples), "file")), CFG)
    assert evidence(pools, pipette_template, DRAW, V_FLASK)["none"][0] == 0.9


def test_support_empty_side_is_no_evidence_not_zero(pipette_template, pipette_oracles):
    batch = simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 200, NoiseSpec(seed=3))
    pools = classify_entries(aggregate(batch), CFG)
    # valid_only power actions have no invalid evidence at all
    assert evidence(pools, pipette_template, POWER_ON, V_POWER)["on"][1] is None


def test_contrast_counts_one_value_pairs(pipette_pools, pipette_template):
    # cap=closed flips every otherwise-valid draw state: 2 matched pairs.
    assert evidence(pipette_pools, pipette_template, DRAW, V_CAP)["closed"][2] == 2
    # flask value never flips validity by itself
    assert evidence(pipette_pools, pipette_template, DRAW, V_FLASK)["ddH2O"][2] == 0


def test_contrast_requires_single_variable_difference(pipette_template):
    action = [b for b in pipette_template.bound_actions() if b.key == DRAW][0]
    valid_state = {V_MATERIAL: "none", V_POWER: "on", V_CAP: "opened", V_FLASK: "none"}
    two_off = {**valid_state, V_CAP: "closed", V_FLASK: "ddH2O"}
    samples = [
        TransitionSample(valid_state, action, {**valid_state, V_MATERIAL: "ddH2O"}, 1),
        TransitionSample(two_off, action, dict(two_off), 0),
    ]
    pools = classify_entries(aggregate(SampleBatch(pipette_template, tuple(samples), "file")), CFG)
    assert evidence(pools, pipette_template, DRAW, V_CAP)["closed"][2] == 0


def test_contrast_zero_without_invalid_entries(pipette_template, pipette_oracles):
    batch = simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 200, NoiseSpec(seed=3))
    pools = classify_entries(aggregate(batch), CFG)
    assert evidence(pools, pipette_template, POWER_ON, V_POWER)["on"][2] == 0


# The per-value walks that ``_value_evidence`` replaced: the slow reference.


def reference_support(pools, tpl, action, variable, value, side):
    """Weighted fraction of a side's evidence whose state assigns the
    value; None (never 0/0) when the side pool is empty."""
    entries = getattr(pools[action], side)  # valid or invalid
    total = sum(e.total_count for e in entries)
    if total == 0:
        return None
    idx = tpl.variable_ids.index(variable)
    hit = sum(e.total_count for e in entries if e.state[idx] == value)
    return hit / total


def reference_contrast(pools, tpl, action, variable, value):
    """Pairs of a valid and an invalid entry that agree everywhere but on
    ``variable``, where the invalid entry carries the value."""
    idx = tpl.variable_ids.index(variable)

    def masked(state):
        return state[:idx] + state[idx + 1 :]

    valid_masks = {}
    for entry in pools[action].valid:
        mask = masked(entry.state)
        valid_masks[mask] = valid_masks.get(mask, 0) + 1
    count = 0
    for entry in pools[action].invalid:
        if entry.state[idx] != value:
            continue
        count += valid_masks.get(masked(entry.state), 0)
    return count


@settings(max_examples=80, deadline=None)
@given(
    obj=st.sampled_from(("electronic_pipette", "ddh2o_bottle")),
    every_action_can_fail=st.booleans(),
    n=st.integers(min_value=1, max_value=300),
    flip=st.floats(min_value=0.0, max_value=0.5),
    corrupt=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_value_evidence_matches_per_value_walks(
    pipette_template, bottle_template, pipette_oracles, obj, every_action_can_fail, n, flip, corrupt, seed
):
    # The shipped oracles leave the valid_only actions' invalid pools empty.
    tpl = pipette_template if obj == "electronic_pipette" else bottle_template
    oracle = full_sampling(pipette_oracles[obj]) if every_action_can_fail else pipette_oracles[obj]
    pools = classify_entries(aggregate(simulate_oracle(tpl, oracle, n, NoiseSpec(flip, corrupt, seed))), CFG)
    for action in pools:
        for idx, var in enumerate(tpl.variables):
            got = _value_evidence(pools[action], idx, var.domain)
            assert list(got) == list(var.domain)
            for value in var.domain:
                expected = (
                    reference_support(pools, tpl, action, var.id, value, "valid"),
                    reference_support(pools, tpl, action, var.id, value, "invalid"),
                    reference_contrast(pools, tpl, action, var.id, value),
                )
                assert repr(got[value]) == repr(expected), (action, var.id, value)


# ── precondition extraction ───────────────────────────────────────────────


def expected_draw_required():
    return {(V_CAP, "opened"), (V_MATERIAL, "none"), (V_POWER, "on")}


def test_exhaustive_extraction_matches_oracle_exactly(pipette_model, pipette_oracles, pipette_inventory):
    pres = extract_rules([pipette_model], pipette_inventory, CFG).preconditions
    oracle = pipette_oracles["electronic_pipette"]
    for action_key, rule in oracle.rules.items():
        required = {(p.variable, p.value) for p in pres if p.action == action_key and p.kind == REQUIRED}
        assert required == set(rule.preconditions.items())
        # noiseless full coverage rules out every alternative: all strong
        for p in pres:
            if p.action == action_key and p.kind == REQUIRED:
                assert p.strength == STRONG


def test_draw_forbidden_values(pipette_model, pipette_inventory):
    pres = extract_rules([pipette_model], pipette_inventory, CFG).preconditions
    forbidden = {(p.variable, p.value) for p in pres if p.action == DRAW and p.kind == FORBIDDEN}
    assert forbidden == {(V_CAP, "closed"), (V_MATERIAL, "ddH2O"), (V_POWER, "off")}


def test_strength_matches_forbidden_alternatives(pipette_template, pipette_oracles, pipette_inventory):
    batch = simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 250, NoiseSpec(seed=0))
    pres = extract_rules([aggregate(batch)], pipette_inventory, CFG).preconditions
    forbidden = {(p.action, p.variable, p.value) for p in pres if p.kind == FORBIDDEN}
    domains = {v.id: v.domain for v in pipette_template.variables}
    for p in pres:
        if p.kind != REQUIRED:
            continue
        alternatives = set(domains[p.variable]) - {p.value}
        all_ruled_out = all((p.action, p.variable, alt) in forbidden for alt in alternatives)
        assert (p.strength == STRONG) == all_ruled_out


def test_valid_only_power_actions_yield_weak_required_no_forbidden(
    pipette_template, pipette_oracles, pipette_inventory
):
    batch = simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 250, NoiseSpec(seed=0))
    pres = extract_rules([aggregate(batch)], pipette_inventory, CFG).preconditions
    for action, value in ((POWER_ON, "off"), (POWER_OFF, "on")):
        mine = [p for p in pres if p.action == action]
        required = [p for p in mine if p.kind == REQUIRED]
        assert [(p.variable, p.value) for p in required] == [(V_POWER, value)]
        assert required[0].strength == WEAK
        assert [p for p in mine if p.kind == FORBIDDEN] == []


def test_even_split_yields_no_required_value(pipette_model, pipette_inventory):
    pres = extract_rules([pipette_model], pipette_inventory, CFG).preconditions
    assert not any(p.variable == V_FLASK and p.action == DRAW for p in pres)


def test_insufficient_evidence_gate(pipette_template, pipette_inventory):
    action = [b for b in pipette_template.bound_actions() if b.key == DRAW][0]
    state = {V_MATERIAL: "none", V_POWER: "on", V_CAP: "opened", V_FLASK: "none"}
    samples = (TransitionSample(state, action, {**state, V_MATERIAL: "ddH2O"}, 1),)
    wm = aggregate(SampleBatch(pipette_template, samples, "file"))
    rule_set = extract_rules([wm], pipette_inventory, CFG)
    assert rule_set.preconditions == ()
    assert DRAW in rule_set.report.insufficient_evidence


def test_no_value_required_and_forbidden(pipette_template, pipette_oracles, pipette_inventory):
    for seed in range(5):
        batch = simulate_oracle(
            pipette_template,
            full_sampling(pipette_oracles["electronic_pipette"]),
            250,
            NoiseSpec(reward_flip_rate=0.1, seed=seed),
        )
        pres = extract_rules([aggregate(batch)], pipette_inventory, CFG).preconditions
        seen = {}
        for p in pres:
            key = (p.action, p.variable, p.value)
            assert key not in seen or seen[key] == p.kind
            seen[key] = p.kind


def test_duplication_leaves_extraction_unchanged(pipette_template, pipette_oracles, pipette_inventory):
    oracle = full_sampling(pipette_oracles["electronic_pipette"])
    batch = simulate_oracle(pipette_template, oracle, 200, NoiseSpec(reward_flip_rate=0.05, seed=5))
    doubled = SampleBatch(pipette_template, batch.samples + batch.samples, "file")

    def summary(b):
        return {
            (p.action, p.variable, p.value, p.kind, p.strength)
            for p in extract_rules([aggregate(b)], pipette_inventory, CFG).preconditions
        }

    assert summary(batch) == summary(doubled)


def test_config_invariants_enforced():
    with pytest.raises(ValueError):
        ExtractionConfig(theta_hi=0.2, theta_lo=0.8)
    with pytest.raises(ValueError):
        ExtractionConfig(gamma=0.4)
    with pytest.raises(ValueError):
        ExtractionConfig(gamma=0.9, epsilon0=0.2)  # epsilon0 must stay below 1 - gamma
    with pytest.raises(ValueError):
        NoiseSpec(reward_flip_rate=1.5)


# ── producers and causal rules ────────────────────────────────────────────


@pytest.fixture(scope="module")
def two_models(pipette_template, bottle_template, pipette_oracles):
    p = aggregate(simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 250, NoiseSpec(seed=0)))
    b = aggregate(simulate_oracle(bottle_template, pipette_oracles["ddh2o_bottle"], 250, NoiseSpec(seed=1000)))
    return [p, b]


def producers(models, inv, variable, value):
    """``_producers`` of variable=value over the effects of every model's valid pools."""
    effects = {}
    for wm in models:
        _index_effects(classify_entries(wm, CFG), wm.template.variable_ids, effects)
    return _producers(effects, inv, variable, value)


def test_material_none_producers_include_initial_state_and_pour(two_models, pipette_inventory):
    assert producers(two_models, pipette_inventory, V_MATERIAL, "none") == [INITIAL_STATE, POUR]


def test_power_on_producer(two_models, pipette_inventory):
    assert producers(two_models, pipette_inventory, V_POWER, "on") == [POWER_ON]


def test_unproducible_condition_has_no_producers(two_models, pipette_inventory):
    # flask is initially empty but nothing ever empties it
    assert producers(two_models, pipette_inventory, V_FLASK, "ddH2O") == [POUR]
    assert INITIAL_STATE in producers(two_models, pipette_inventory, V_FLASK, "none")


def reference_producers(condition, models, inv, cfg):
    """Actions with a valid entry (plausibility >= theta_hi) one of whose
    outcomes moves the variable from another value to the target value,
    after the ``initial_state`` marker when the inventory declares it:
    one scan of every model per condition, the walk the effect index
    replaced."""
    variable, value = condition
    found: set[str] = set()
    for wm in models:
        if variable not in wm.template.variable_ids:
            continue
        idx = wm.template.variable_ids.index(variable)
        for entry in wm.entries.values():
            if entry.plausibility < cfg.theta_hi:
                continue
            if entry.state[idx] == value:
                continue
            if any(o.next_state[idx] == value for o in entry.outcomes):
                found.add(entry.action.key)
    out = sorted(found)
    if inv.initial_value(variable) == value:
        out.insert(0, INITIAL_STATE)
    return out


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    flip=st.floats(min_value=0.0, max_value=0.5),
    corrupt=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_effect_index_producers_match_per_condition_scan(
    pipette_template, bottle_template, pipette_oracles, pipette_inventory, n, flip, corrupt, seed
):
    models = [
        aggregate(simulate_oracle(tpl, pipette_oracles[tpl.focal_object], n, NoiseSpec(flip, corrupt, seed + offset)))
        for tpl, offset in ((pipette_template, 0), (bottle_template, 1000))
    ]
    for variable, domain in {**pipette_template.domains, **bottle_template.domains}.items():
        for value in domain:
            expected = reference_producers((variable, value), models, pipette_inventory, CFG)
            assert producers(models, pipette_inventory, variable, value) == expected, (variable, value)
    rule_set = extract_rules(models, pipette_inventory, CFG)
    for rule in rule_set.causal_rules:
        expected = reference_producers((rule.variable, rule.value), models, pipette_inventory, CFG)
        assert list(rule.producers) == [p for p in expected if p != rule.action]


def test_full_rule_set_counts(two_models, pipette_inventory):
    rs = extract_rules(two_models, pipette_inventory, CFG)
    assert len(rs.causal_rules) == 8
    assert [r.strength for r in rs.causal_rules].count(STRONG) == 6
    assert [r.strength for r in rs.causal_rules].count(WEAK) == 2


def test_draw_before_pour_rule(two_models, pipette_inventory):
    rs = extract_rules(two_models, pipette_inventory, CFG)
    rule = [r for r in rs.causal_rules if r.action == POUR and r.variable == V_MATERIAL][0]
    assert rule.value == "ddH2O"
    assert rule.producers == (DRAW,)
    assert rule.strength == STRONG


def test_open_before_draw_rule_via_bottle_model(two_models, pipette_inventory):
    rs = extract_rules(two_models, pipette_inventory, CFG)
    rule = [r for r in rs.causal_rules if r.action == DRAW and r.variable == V_CAP][0]
    assert rule.producers == (OPEN_CAP,)


def test_rule_without_producers_suppressed_and_reported(pipette_template, pipette_oracles, pipette_inventory):
    # pipette model alone has no producer for cap=opened
    wm = aggregate(simulate_oracle(pipette_template, pipette_oracles["electronic_pipette"], 250, NoiseSpec(seed=0)))
    rs = extract_rules([wm], pipette_inventory, CFG)
    assert not any(r.action == DRAW and r.variable == V_CAP for r in rs.causal_rules)
    assert any(
        s["action"] == DRAW and s["variable"] == V_CAP for s in rs.report.suppressed_rules
    )


@pytest.mark.parametrize("n", [5, 20, 40])
def test_insufficient_evidence_lists_each_short_action_once(
    pipette_template, bottle_template, pipette_oracles, pipette_inventory, n
):
    """An interaction action lives in both partner templates; it is listed
    once, and only when no model holding it has enough valid evidence."""
    models = [
        aggregate(simulate_oracle(tpl, pipette_oracles[tpl.focal_object], n, NoiseSpec(seed=seed)))
        for tpl, seed in ((pipette_template, 0), (bottle_template, 1000))
    ]
    weights: dict[str, list[int]] = {}
    for wm in models:
        for action, pools in classify_entries(wm, CFG).items():
            weights.setdefault(action, []).append(ActionPools.weight(pools.valid))
    report = extract_rules(models, pipette_inventory, CFG).report
    assert report.insufficient_evidence == sorted(
        action for action, ws in weights.items() if max(ws) < CFG.min_valid_weight
    )
    # Short in the bottle model at every n; the pipette model has enough at 40.
    assert (DRAW in report.insufficient_evidence) == (n < 40)


def test_ambiguous_weight_sums_over_the_models_an_action_lives_in(
    pipette_template, bottle_template, pipette_oracles, pipette_inventory
):
    models = [
        aggregate(
            simulate_oracle(
                tpl, pipette_oracles[tpl.focal_object], 250, NoiseSpec(reward_flip_rate=0.2, seed=seed)
            )
        )
        for tpl, seed in ((pipette_template, 0), (bottle_template, 1000))
    ]
    weights: dict[str, list[int]] = {}
    for wm in models:
        for action, pools in classify_entries(wm, CFG).items():
            if pools.ambiguous:
                weights.setdefault(action, []).append(ActionPools.weight(pools.ambiguous))
    assert len(weights[DRAW]) == 2  # ambiguous in both partner models
    report = extract_rules(models, pipette_inventory, CFG).report
    assert report.ambiguous_entries == {action: sum(ws) for action, ws in weights.items()}


def test_conflicting_models_drop_the_condition_and_report_it(
    pipette_template, bottle_template, pipette_oracles, pipette_inventory
):
    """DRAW needs the cap opened in the pipette model and closed in a
    bottle model whose oracle says the opposite: the condition is dropped
    from the preconditions and the rules, and reported once."""
    pipette = aggregate(exhaustive_batch(pipette_template, full_sampling(pipette_oracles["electronic_pipette"])))
    bottle_oracle = full_sampling(pipette_oracles["ddh2o_bottle"])
    draw = bottle_oracle.rules[DRAW]
    closed_draw = OracleRule({**draw.preconditions, V_CAP: "closed"}, draw.effects, valid_only=False)
    flipped = OracleSpec(rules={**bottle_oracle.rules, DRAW: closed_draw})
    key = (DRAW, V_CAP, "opened")

    def keys(bottle_oracle):
        bottle = aggregate(exhaustive_batch(bottle_template, bottle_oracle))
        rule_set = extract_rules([pipette, bottle], pipette_inventory, CFG)
        pres = [(p.action, p.variable, p.value) for p in rule_set.preconditions]
        rules = [(r.action, r.variable, r.value) for r in rule_set.causal_rules]
        conflicts = [(c["action"], c["variable"], c["value"]) for c in rule_set.report.conflicts]
        return pres, rules, conflicts

    pres, rules, conflicts = keys(bottle_oracle)
    assert key in pres and key in rules and conflicts == []
    pres, rules, conflicts = keys(flipped)
    assert key not in pres
    assert key not in rules
    assert conflicts.count(key) == 1


def test_rules_sorted_deterministically(two_models, pipette_inventory):
    rs = extract_rules(two_models, pipette_inventory, CFG)
    keys = [(r.action, r.variable, r.value) for r in rs.causal_rules]
    assert keys == sorted(keys)


def test_extract_causal_rules_strength_copied(two_models, pipette_inventory):
    rs = extract_rules(two_models, pipette_inventory, CFG)
    by_action = {r.action: r for r in rs.causal_rules if r.action in (POWER_ON, POWER_OFF)}
    assert by_action[POWER_ON].strength == WEAK
    assert by_action[POWER_OFF].strength == WEAK
    assert INITIAL_STATE in by_action[POWER_ON].producers


# ── serialization ─────────────────────────────────────────────────────────


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    flip=st.floats(min_value=0.0, max_value=0.5),
    corrupt=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rule_set_round_trip(pipette_template, bottle_template, pipette_oracles, pipette_inventory, n, flip, corrupt, seed):
    """Whatever extraction writes fits the rules schema, and reads back
    to an equal rule set that re-serialises byte for byte."""
    models = [
        aggregate(simulate_oracle(tpl, pipette_oracles[tpl.focal_object], n, NoiseSpec(flip, corrupt, seed + offset)))
        for tpl, offset in ((pipette_template, 0), (bottle_template, 1000))
    ]
    rule_set = extract_rules(models, pipette_inventory, CFG)
    text = json.dumps(rule_set_to_dict(rule_set), indent=2, sort_keys=True)
    validate_artifact("rules", json.loads(text), "rules")
    restored = rule_set_from_dict(json.loads(text))
    assert restored == rule_set
    assert json.dumps(rule_set_to_dict(restored), indent=2, sort_keys=True) == text
