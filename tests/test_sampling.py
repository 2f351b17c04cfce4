import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from procforge.errors import EndpointAuthError, EndpointError, ValidationError
from procforge.sampling import (
    EndpointConfig,
    NoiseSpec,
    OracleRule,
    OracleSpec,
    build_prompt,
    fetch_samples,
    ingest_samples,
    parse_sample_line,
    simulate_oracle,
)
from procforge import build_template, parse_inventory, resolve_dynamic_domains
from procforge.repair import derive_seed
from procforge.templates import MdpTemplate, TemplateAction, TemplateVariable, bound_action_from_parts

from conftest import BENCHMARK, DRAW, POUR, POWER_ON, V_CAP, V_FLASK, V_MATERIAL, V_POWER


@pytest.fixture(scope="module")
def pipette_oracle(pipette_oracles):
    return pipette_oracles["electronic_pipette"]


def full_sampling(oracle):
    rules = {k: OracleRule(r.preconditions, r.effects, valid_only=False) for k, r in oracle.rules.items()}
    return OracleSpec(rules=rules)


# ── oracle simulation ─────────────────────────────────────────────────────


def test_valid_draw_applies_effects(pipette_template, pipette_oracle):
    batch = simulate_oracle(pipette_template, full_sampling(pipette_oracle), 400, NoiseSpec(seed=3))
    good = {V_POWER: "on", V_MATERIAL: "none", V_CAP: "opened", V_FLASK: "none"}
    hits = [s for s in batch.samples if s.action.key == DRAW and s.state == good]
    assert hits
    for s in hits:
        assert s.reward == 1
        assert s.next_state == {**good, V_MATERIAL: "ddH2O"}


def test_draw_from_closed_bottle_fails_unchanged(pipette_template, pipette_oracle):
    batch = simulate_oracle(pipette_template, full_sampling(pipette_oracle), 400, NoiseSpec(seed=3))
    bad = {V_POWER: "on", V_MATERIAL: "none", V_CAP: "closed", V_FLASK: "none"}
    hits = [s for s in batch.samples if s.action.key == DRAW and s.state == bad]
    assert hits
    for s in hits:
        assert s.reward == 0
        assert s.next_state == s.state


def test_noiseless_reward_iff_preconditions_hold(pipette_template, pipette_oracle):
    oracle = full_sampling(pipette_oracle)
    batch = simulate_oracle(pipette_template, oracle, 500, NoiseSpec(seed=11))
    for s in batch.samples:
        rule = oracle.rules[s.action.key]
        holds = all(s.state[v] == val for v, val in rule.preconditions.items())
        assert s.reward == (1 if holds else 0)
        if s.reward == 0:
            assert s.next_state == s.state


def test_reward_flip_noise_creates_wrong_judgments(pipette_template, pipette_oracle):
    oracle = full_sampling(pipette_oracle)
    clean = simulate_oracle(pipette_template, oracle, 300, NoiseSpec(seed=5))
    noisy = simulate_oracle(pipette_template, oracle, 300, NoiseSpec(reward_flip_rate=0.1, seed=5))
    # Same seed, same underlying transitions; only some judgments flip.
    flipped = 0
    for a, b in zip(clean.samples, noisy.samples):
        assert (a.state, a.action, a.next_state) == (b.state, b.action, b.next_state)
        flipped += a.reward != b.reward
    assert 0 < flipped < 300
    # A flipped valid pour reproduces a plausible-but-rejected transition.
    wrong = [
        b
        for a, b in zip(clean.samples, noisy.samples)
        if a.action.key == POUR and a.reward == 1 and b.reward == 0
    ]
    assert any(s.next_state[V_MATERIAL] == "none" for s in wrong)


def test_effect_corruption_replaces_next_state(pipette_template, pipette_oracle):
    oracle = full_sampling(pipette_oracle)
    clean = simulate_oracle(pipette_template, oracle, 300, NoiseSpec(seed=5))
    noisy = simulate_oracle(pipette_template, oracle, 300, NoiseSpec(effect_corrupt_rate=0.2, seed=5))
    changed = sum(a.next_state != b.next_state for a, b in zip(clean.samples, noisy.samples))
    assert changed > 0
    domains = {v.id: v.domain for v in pipette_template.variables}
    for s in noisy.samples:
        for var, value in s.next_state.items():
            assert value in domains[var]


def test_simulation_deterministic_given_seed(pipette_template, pipette_oracle):
    spec = NoiseSpec(reward_flip_rate=0.05, effect_corrupt_rate=0.05, seed=21)
    a = simulate_oracle(pipette_template, pipette_oracle, 100, spec)
    b = simulate_oracle(pipette_template, pipette_oracle, 100, spec)
    assert a.to_jsonl() == b.to_jsonl()


def test_valid_only_actions_produce_no_invalid_samples(pipette_template, pipette_oracle):
    batch = simulate_oracle(pipette_template, pipette_oracle, 400, NoiseSpec(seed=9))
    for s in batch.samples:
        if s.action.key.startswith("electronic_pipette.power_button.set"):
            assert s.reward == 1


def test_action_filter_restricts_generation(pipette_template, pipette_oracle):
    batch = simulate_oracle(pipette_template, pipette_oracle, 50, NoiseSpec(seed=1), actions=[DRAW])
    assert {s.action.key for s in batch.samples} == {DRAW}


# sha256 of to_jsonl() at the mining workload's settings: 5000 samples per
# object with reward_flip_rate 0.05 and effect_corrupt_rate 0.02, seeded as
# the sample stage seeds it from the benchmark's master seed 20240.
# Recorded before generation was made to share one object per distinct
# record; the bytes must not change.
MINING_JSONL_SHA256 = {
    "electronic_pipette": "bbbf2407ee78f1f2da9ba89acad39623f7f78cc39b4fb8247eabafa6ee4de2c4",
    "magnetic_stirrer": "565ab2d5403e8cbfbabf4a66c733aa89acb956cf2775aa28c321e5d9920bdbca",
}


@pytest.mark.parametrize("obj", sorted(MINING_JSONL_SHA256))
def test_oracle_jsonl_matches_recorded_digest(obj):
    inv = resolve_dynamic_domains(parse_inventory((BENCHMARK / "inventory.json").read_text()))
    oracle = OracleSpec.from_dict(json.loads((BENCHMARK / "oracles.json").read_text())[obj])
    noise = NoiseSpec(reward_flip_rate=0.05, effect_corrupt_rate=0.02, seed=derive_seed(20240, f"sample:{obj}"))
    batch = simulate_oracle(build_template(inv, obj), oracle, 5000, noise)
    assert hashlib.sha256(batch.to_jsonl().encode()).hexdigest() == MINING_JSONL_SHA256[obj]
    # repeated records are one shared object
    assert len({id(s) for s in batch.samples}) == len(set(batch.to_jsonl().splitlines())) < 5000


def test_oracle_must_cover_every_action(pipette_template, pipette_oracle):
    incomplete = OracleSpec(rules={DRAW: pipette_oracle.rules[DRAW]})
    with pytest.raises(ValidationError, match="^oracle does not cover template actions: "):
        simulate_oracle(pipette_template, incomplete, 10, NoiseSpec(seed=0))


# ── ingestion ─────────────────────────────────────────────────────────────


def test_ingest_round_trip(pipette_template, pipette_oracle):
    batch = simulate_oracle(pipette_template, pipette_oracle, 250, NoiseSpec(seed=4))
    report = ingest_samples(batch.to_jsonl(), pipette_template)
    assert len(report.batch.samples) == 250
    assert report.rejections == ()
    assert report.batch.to_jsonl() == batch.to_jsonl()


def test_ingest_rejects_out_of_domain_value(pipette_template):
    line = json.dumps(
        {
            "state": {V_POWER: "on", V_MATERIAL: "none", V_CAP: "ajar", V_FLASK: "none"},
            "action": DRAW,
            "params": {},
            "next_state": {V_POWER: "on", V_MATERIAL: "none", V_CAP: "ajar", V_FLASK: "none"},
            "reward": 1,
        }
    )
    report = ingest_samples([line], pipette_template)
    assert report.batch.samples == ()
    assert len(report.rejections) == 1
    lineno, reason = report.rejections[0]
    assert lineno == 1
    assert "domain" in reason


def test_ingest_rejects_a_forged_bound_action(pipette_template, pipette_oracle):
    # The key of set(value=on) sent as a bare action id with no params.
    valid = simulate_oracle(pipette_template, pipette_oracle, 1, NoiseSpec(seed=4)).to_jsonl().strip()
    forged = json.dumps({**json.loads(valid), "action": POWER_ON, "params": {}})
    report = ingest_samples([valid, forged], pipette_template)
    assert len(report.batch.samples) == 1
    assert report.rejections == ((2, f"action {POWER_ON!r} not in template"),)
    with pytest.raises(ValidationError, match=r"^line 2: action .* not in template$"):
        ingest_samples([valid, forged], pipette_template, strict=True)


def test_non_string_param_is_rejected_as_the_world_model_reader_rejects_it():
    tpl = MdpTemplate(
        focal_object="pump",
        variables=(TemplateVariable(id="pump.state", domain=("idle", "busy"), origin="own"),),
        actions=(
            TemplateAction(id="pump.dose", params=(("vol", ("5", "10")),), kind="control"),
            TemplateAction(id="pump.prime", params=(), kind="control"),
        ),
    )
    record = {"state": {"pump.state": "idle"}, "action": "pump.dose", "params": {"vol": "5"},
              "next_state": {"pump.state": "busy"}, "reward": 1}
    assert parse_sample_line(tpl, json.dumps(record)).action == bound_action_from_parts("pump.dose", {"vol": "5"})
    unparameterised = {**record, "action": "pump.prime"}
    del unparameterised["params"]  # a missing params is no params
    assert parse_sample_line(tpl, json.dumps(unparameterised)).action == bound_action_from_parts("pump.prime", {})
    record["params"]["vol"] = 5
    report = ingest_samples([json.dumps(record)], tpl)
    assert report.rejections == ((1, "action must be a string and params an object of strings"),)


def test_ingest_empty_stream(pipette_template):
    report = ingest_samples("", pipette_template)
    assert report.batch.samples == ()
    assert report.rejections == ()


def test_ingest_strict_raises(pipette_template):
    with pytest.raises(ValidationError, match="^line 1: invalid JSON: "):
        ingest_samples(["not json"], pipette_template, strict=True)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_ingest_fuzz_never_accepts_invalid_samples(pipette_template_fuzz, line):
    tpl = pipette_template_fuzz
    assert_samples_fit_template(ingest_samples([line], tpl).batch.samples, tpl)


def assert_samples_fit_template(samples, tpl):
    domains = {v.id: v.domain for v in tpl.variables}
    actions = set(tpl.bound_actions())
    for sample in samples:
        assert sample.action in actions
        assert sample.reward in (0, 1)
        for assignment in (sample.state, sample.next_state):
            assert set(assignment) == set(domains)
            for var, value in assignment.items():
                assert value in domains[var]


@pytest.fixture(scope="session")
def ingest_lines(pipette_template, pipette_oracles):
    """Valid, invalid and blank lines for mixing into ingest streams."""
    oracle = full_sampling(pipette_oracles["electronic_pipette"])
    valid = simulate_oracle(pipette_template, oracle, 12, NoiseSpec(seed=8)).to_jsonl().splitlines()
    record = json.loads(valid[0])
    bad_domain = json.dumps({**record, "state": {**record["state"], V_CAP: "ajar"}})
    forged = json.dumps({**record, "action": POWER_ON, "params": {}})
    invalid = ["not json", "[1, 2]", '{"state": {}}', bad_domain, json.dumps({**record, "reward": 2}), forged]
    padded = ["  " + valid[1], valid[1] + "\t"]  # equal to valid[1] once stripped
    return valid + padded + invalid + ["", "   "]


def per_line_ingest(lines, tpl):
    """The slow reference: parse every non-blank line on its own."""
    accepted, rejections = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            accepted.append(parse_sample_line(tpl, line.strip()))
        except ValidationError as exc:
            rejections.append((lineno, str(exc)))
    return accepted, rejections


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_memoised_ingest_matches_per_line_parsing(pipette_template_fuzz, ingest_lines, data):
    tpl = pipette_template_fuzz
    lines = data.draw(st.lists(st.sampled_from(ingest_lines), max_size=40))
    accepted, rejections = per_line_ingest(lines, tpl)
    report = ingest_samples(lines, tpl)
    assert list(report.batch.samples) == accepted
    assert list(report.rejections) == rejections
    rejected = {lineno for lineno, _ in rejections}
    accepted_text = {line.strip() for n, line in enumerate(lines, start=1) if line.strip() and n not in rejected}
    assert len({id(s) for s in report.batch.samples}) == len(accepted_text)
    if rejections:
        lineno, reason = rejections[0]
        with pytest.raises(ValidationError) as err:
            ingest_samples(lines, tpl, strict=True)
        assert str(err.value) == f"line {lineno}: {reason}"
    else:
        assert list(ingest_samples(lines, tpl, strict=True).batch.samples) == accepted


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
RECORD_KEYS = ("state", "action", "params", "next_state", "reward")
NEAR_MISSES = st.sampled_from((2, -1, 0.5, True, "1", None, [], {}))


@st.composite
def fuzzed_lines(draw, known: list[str], values: list[str]):
    """One of the ``known`` lines, arbitrary text, an arbitrary JSON value,
    or the first known line with fields dropped or replaced and a state
    value swapped for any domain value."""
    form = draw(st.sampled_from(("known", "text", "json", "record")))
    if form == "known":
        return draw(st.sampled_from(known))
    if form == "text":
        return draw(st.text(max_size=80))
    if form == "json":
        return json.dumps(draw(JSON_VALUES))
    doc = json.loads(known[0])
    if draw(st.booleans()):  # an ignored extra key holding line-separator characters
        doc["note"] = draw(st.text(alphabet="ab\u2028\u2029\u0085", max_size=6))
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS), max_size=3, unique=True)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(NEAR_MISSES | JSON_VALUES)
    if isinstance(doc.get("state"), dict) and doc["state"] and draw(st.booleans()):
        doc["state"][draw(st.sampled_from(sorted(doc["state"])))] = draw(st.sampled_from(values))
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


def assert_each_line_parses_or_is_rejected(lines, tpl):
    report = ingest_samples(lines, tpl)
    assert_samples_fit_template(report.batch.samples, tpl)
    nonblank = [n for n, line in enumerate(lines, start=1) if line.strip()]
    rejected = [n for n, _ in report.rejections]
    assert all(isinstance(reason, str) and reason for _, reason in report.rejections)
    assert set(rejected) <= set(nonblank)
    assert rejected == sorted(set(rejected))
    assert len(report.batch.samples) + len(rejected) == len(nonblank)
    if rejected:
        with pytest.raises(ValidationError, match=rf"^line {rejected[0]}: "):
            ingest_samples(lines, tpl, strict=True)
    else:
        assert ingest_samples(lines, tpl, strict=True).batch.samples == report.batch.samples
    if not any("\n" in line for line in lines):  # the text form splits at "\n" only
        assert ingest_samples("\n".join(lines), tpl) == report


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ingest_fuzz_each_line_parses_or_is_rejected(pipette_template_fuzz, ingest_lines, data):
    tpl = pipette_template_fuzz
    values = sorted({value for v in tpl.variables for value in v.domain})
    lines = data.draw(st.lists(fuzzed_lines(ingest_lines, values), max_size=12))
    assert_each_line_parses_or_is_rejected(lines, tpl)


def test_ingest_rejects_a_line_nested_past_the_decoder_limit(pipette_template, ingest_lines):
    lines = [ingest_lines[0], "[" * 100_000, '{"state": ' * 50_000]
    assert_each_line_parses_or_is_rejected(lines, pipette_template)
    assert ingest_samples(lines, pipette_template).rejections[0] == (2, "invalid JSON: nested too deeply")


def test_ingest_rejects_a_line_that_repeats_a_key(pipette_template, ingest_lines):
    first = ingest_lines[0]  # a valid record; the copy gives the other reward first
    repeated = '{"reward": %d, %s' % (1 - json.loads(first)["reward"], first.lstrip()[1:])
    lines = [first, repeated]
    assert_each_line_parses_or_is_rejected(lines, pipette_template)
    assert ingest_samples(lines, pipette_template).rejections == ((2, "invalid JSON: repeated key 'reward'"),)
    with pytest.raises(ValidationError, match=r"^line 2: invalid JSON: repeated key 'reward'$"):
        ingest_samples(lines, pipette_template, strict=True)


@pytest.fixture(scope="session")
def pipette_template_fuzz(pipette_template):
    return pipette_template


# ── prompt building ───────────────────────────────────────────────────────


def test_prompt_embeds_dictionary_and_count(pipette_template):
    prompt = build_prompt(pipette_template, 250)
    for v in pipette_template.variables:
        assert v.id in prompt
        for value in v.domain:
            assert value in prompt
    for a in pipette_template.actions:
        assert a.id in prompt
    assert "250" in prompt
    assert "version 1" in prompt
    assert "implausible" in prompt  # both sides requested


def test_prompt_deterministic(pipette_template):
    assert build_prompt(pipette_template, 10) == build_prompt(pipette_template, 10)


def test_prompt_minimal_template():
    from procforge.inventory import parse_inventory, resolve_dynamic_domains
    from procforge.templates import build_template

    doc = {
        "schema_version": "1",
        "objects": [
            {
                "id": "switch",
                "category": "tool",
                "states": [{"id": "up", "domain": ["no", "yes"]}],
                "actions": [{"id": "flip"}],
            }
        ],
    }
    inv = resolve_dynamic_domains(parse_inventory(json.dumps(doc)))
    prompt = build_prompt(build_template(inv, "switch"), 5)
    assert "switch.up" in prompt
    assert "switch.flip" in prompt


# ── endpoint fetching ─────────────────────────────────────────────────────


def make_endpoint(**kw):
    defaults = dict(base_url="https://example.test/v1/chat", model="gen-1", max_retries=2, backoff_s=0.0)
    defaults.update(kw)
    return EndpointConfig(**defaults)


def wrap_response(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_fetch_parses_stubbed_response(pipette_template, pipette_oracle, monkeypatch):
    monkeypatch.setenv("PROCFORGE_API_KEY", "k")
    batch = simulate_oracle(pipette_template, pipette_oracle, 250, NoiseSpec(seed=2))
    calls = []

    def transport(url, headers, body, timeout):
        calls.append((url, headers["Authorization"], timeout))
        return 200, wrap_response(batch.to_jsonl())

    report = fetch_samples(make_endpoint(), "prompt", pipette_template, transport=transport)
    assert len(report.batch.samples) == 250
    assert report.batch.source == "endpoint"
    assert calls[0][1] == "Bearer k"


def test_fetch_reports_malformed_lines(pipette_template, pipette_oracle, monkeypatch):
    monkeypatch.setenv("PROCFORGE_API_KEY", "k")
    batch = simulate_oracle(pipette_template, pipette_oracle, 20, NoiseSpec(seed=2))
    lines = batch.to_jsonl().splitlines()
    lines[3] = "garbage"
    lines[7] = '{"state": {}}'
    lines[11] = "{}"
    text = "\n".join(lines)

    report = fetch_samples(
        make_endpoint(), "p", pipette_template, transport=lambda *a: (200, wrap_response(text))
    )
    assert len(report.batch.samples) == 17
    assert [lineno for lineno, _ in report.rejections] == [4, 8, 12]


def test_fetch_retries_transient_failures(pipette_template, monkeypatch):
    monkeypatch.setenv("PROCFORGE_API_KEY", "k")
    attempts = []

    def flaky(url, headers, body, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            raise EndpointError("transport failure: connection reset")
        return 200, wrap_response("")

    report = fetch_samples(make_endpoint(max_retries=3), "p", pipette_template, transport=flaky)
    assert len(attempts) == 3
    assert report.batch.samples == ()


def test_fetch_gives_up_after_retries(pipette_template, monkeypatch):
    monkeypatch.setenv("PROCFORGE_API_KEY", "k")

    def down(url, headers, body, timeout):
        raise EndpointError("transport failure: unreachable")

    with pytest.raises(EndpointError):
        fetch_samples(make_endpoint(max_retries=1), "p", pipette_template, transport=down)


def test_fetch_auth_failure_not_retried(pipette_template, monkeypatch):
    monkeypatch.setenv("PROCFORGE_API_KEY", "bad")
    attempts = []

    def denied(url, headers, body, timeout):
        attempts.append(1)
        return 401, "{}"

    with pytest.raises(EndpointAuthError):
        fetch_samples(make_endpoint(), "p", pipette_template, transport=denied)
    assert len(attempts) == 1


def test_fetch_requires_api_key(pipette_template, monkeypatch):
    monkeypatch.delenv("PROCFORGE_API_KEY", raising=False)
    with pytest.raises(EndpointAuthError):
        fetch_samples(make_endpoint(), "p", pipette_template, transport=lambda *a: (200, "{}"))


def test_fetch_unparseable_response_preserves_raw_text(pipette_template, monkeypatch):
    monkeypatch.setenv("PROCFORGE_API_KEY", "k")
    with pytest.raises(EndpointError) as err:
        fetch_samples(
            make_endpoint(), "p", pipette_template, transport=lambda *a: (200, '{"surprise": true}')
        )
    assert getattr(err.value, "raw_text", None) == '{"surprise": true}'


def test_fetch_merges_multiple_requests_in_order(pipette_template, pipette_oracle, monkeypatch):
    monkeypatch.setenv("PROCFORGE_API_KEY", "k")
    batch = simulate_oracle(pipette_template, pipette_oracle, 10, NoiseSpec(seed=6))
    lines = batch.to_jsonl().splitlines()
    chunks = ["\n".join(lines[:5]), "\n".join(lines[5:])]
    calls = iter(chunks)

    report = fetch_samples(
        make_endpoint(n_requests=2), "p", pipette_template,
        transport=lambda *a: (200, wrap_response(next(calls))),
    )
    assert [s.to_json_line() for s in report.batch.samples] == [
        s.to_json_line() for s in batch.samples
    ]
