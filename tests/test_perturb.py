import hashlib
import json
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from procforge.errors import ProcforgeError
from procforge.perturb import (
    ALL_KINDS,
    KIND_ADJACENT_SWAP,
    KIND_EARLY_CLOSE,
    KIND_EARLY_POWER_OFF,
    KIND_EARLY_TRANSFER,
    KIND_LATE_POWER_ON,
    PerturbationSpec,
    _candidates_early_close,
    _candidates_early_power_off,
    _candidates_early_transfer,
    _is_close,
    _is_open,
    _is_reset,
    _is_transfer,
    _power_value,
    _transfer_source_object,
    perturb,
)
from procforge.pipeline import load_config
from procforge.repair import Procedure, Step, procedure_from_dict
from procforge.templates import bound_action_from_parts


@pytest.fixture(scope="module")
def truth(benchmark_dir):
    return procedure_from_dict(json.loads((benchmark_dir / "truth_procedure.json").read_text()))


def positions(proc):
    return {s.id: i for i, s in enumerate(proc.steps)}


def test_reorders_only_never_inserts_or_deletes(truth):
    spec = PerturbationSpec(n_misorderings=6, kinds=ALL_KINDS, seed=3)
    draft, log = perturb(truth, spec)
    assert sorted(s.id for s in draft.steps) == sorted(s.id for s in truth.steps)
    assert len(log.moves) == 6


def test_deterministic_given_seed(truth):
    spec = PerturbationSpec(n_misorderings=6, kinds=ALL_KINDS, seed=11)
    a, log_a = perturb(truth, spec)
    b, log_b = perturb(truth, spec)
    assert [s.id for s in a.steps] == [s.id for s in b.steps]
    assert log_a == log_b


def test_early_transfer_lands_before_its_open_step(truth):
    spec = PerturbationSpec(n_misorderings=1, kinds=(KIND_EARLY_TRANSFER,), seed=5)
    draft, log = perturb(truth, spec)
    move = log.moves[0]
    moved = move["step_id"]
    pos = positions(draft)
    step = draft.get_step(moved)
    source = step.action.id.split(":", 1)[1].split("->", 1)[0].split(".")[0]
    open_pos = [
        i for i, s in enumerate(draft.steps) if s.action is not None and s.action.id == f"{source}.cap.open"
    ]
    assert pos[moved] <= min(open_pos)


def test_late_power_on_moves_a_power_step_later(truth):
    spec = PerturbationSpec(n_misorderings=1, kinds=(KIND_LATE_POWER_ON,), seed=2)
    draft, log = perturb(truth, spec)
    move = log.moves[0]
    assert move["to"] > move["from"]
    step = draft.get_step(move["step_id"])
    assert dict(step.action.params)["value"] == "on"


def test_early_power_off_lands_at_or_before_reset(truth):
    spec = PerturbationSpec(n_misorderings=1, kinds=(KIND_EARLY_POWER_OFF,), seed=1)
    draft, log = perturb(truth, spec)
    move = log.moves[0]
    step = draft.get_step(move["step_id"])
    assert dict(step.action.params)["value"] == "off"
    obj = step.action.id.split(".")[0]
    pos = positions(draft)
    reset_pos = [
        i
        for i, s in enumerate(draft.steps)
        if s.action is not None
        and s.action.id == f"{obj}.speed_knob.set"
        and dict(s.action.params)["value"] == "zero"
    ]
    assert pos[move["step_id"]] <= max(reset_pos)


def test_early_close_stays_after_matching_open(truth):
    spec = PerturbationSpec(n_misorderings=1, kinds=(KIND_EARLY_CLOSE,), seed=4)
    draft, log = perturb(truth, spec)
    move = log.moves[0]
    pos = positions(draft)
    obj = draft.get_step(move["step_id"]).action.id.split(".")[0]
    open_positions = [
        i for i, s in enumerate(draft.steps) if s.action is not None and s.action.id == f"{obj}.cap.open"
    ]
    assert pos[move["step_id"]] > min(open_positions)
    assert move["to"] < move["from"]


def test_adjacent_swap_on_two_step_procedure():
    doc = {"steps": [{"id": "a", "action": None}, {"id": "b", "action": None}]}
    truth = procedure_from_dict(doc)
    spec = PerturbationSpec(n_misorderings=1, kinds=(KIND_ADJACENT_SWAP,), seed=0)
    draft, log = perturb(truth, spec)
    assert [s.id for s in draft.steps] == ["b", "a"]
    assert len(log.moves) == 1


def test_inapplicable_kind_skipped_and_logged():
    doc = {"steps": [{"id": "a", "action": None}, {"id": "b", "action": None}]}
    truth = procedure_from_dict(doc)
    spec = PerturbationSpec(n_misorderings=1, kinds=(KIND_LATE_POWER_ON,), seed=0)
    draft, log = perturb(truth, spec)
    assert [s.id for s in draft.steps] == ["a", "b"]
    assert log.moves == []
    assert log.skipped and log.skipped[0]["kind"] == KIND_LATE_POWER_ON


def test_inapplicable_kind_strict_raises():
    doc = {"steps": [{"id": "a", "action": None}, {"id": "b", "action": None}]}
    truth = procedure_from_dict(doc)
    spec = PerturbationSpec(n_misorderings=1, kinds=(KIND_LATE_POWER_ON,), seed=0)
    with pytest.raises(ProcforgeError):
        perturb(truth, spec, strict=True)


def test_zero_misorderings_rejected():
    with pytest.raises(ValueError):
        PerturbationSpec(n_misorderings=0, kinds=ALL_KINDS)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PerturbationSpec(n_misorderings=1, kinds=("swap_everything",))


# ── candidate search: one pass per move against the prefix-scan definitions ──


def _obj(step):
    return step.action.id.split(".")[0]


def ref_early_transfer(seq):
    """The slow reference: rescan each transfer's prefix for its last open."""
    out = []
    for ti, step in enumerate(seq):
        if not _is_transfer(step):
            continue
        source = _transfer_source_object(step)
        opens = [oi for oi, s in enumerate(seq[:ti]) if _is_open(s) and _obj(s) == source]
        if opens:
            oi = max(opens)
            out.append((ti, max(0, oi - 4), oi))
    return out


def ref_early_close(seq):
    out = []
    for ci, step in enumerate(seq):
        if not _is_close(step):
            continue
        opens = [oi for oi, s in enumerate(seq[:ci]) if _is_open(s) and _obj(s) == _obj(step)]
        if opens and ci - max(opens) >= 3:
            out.append((ci, max(opens) + 1, ci - 1))
    return out


def ref_early_power_off(seq):
    out = []
    for fi, step in enumerate(seq):
        if _power_value(step) != "off":
            continue
        resets = [zi for zi, s in enumerate(seq[:fi]) if _is_reset(s) and _obj(s) == _obj(step)]
        if resets:
            out.append((fi, max(0, max(resets) - 3), max(resets)))
    return out


# "transfer_material:a" names an object whose open steps are also
# transfers, and whose own transfers take one of those steps as their open.
OBJECTS = ("a", "b", "c", "transfer_material:a")


def step_actions(obj, other):
    return [
        None,
        (f"{obj}.cap.open", {}),
        (f"{obj}.cap.close", {}),
        (f"transfer_material:{obj}->{other}:water", {}),
        (f"transfer_material:{obj}.open", {}),  # both a transfer and an open
        (f"{obj}.speed_knob.set", {"value": "zero"}),
        (f"{obj}.speed_knob.set", {"value": "high"}),
        (f"{obj}.power_button.set", {"value": "on"}),
        (f"{obj}.power_button.set", {"value": "off"}),
        (f"{obj}.power_button.set", {"value": "zero"}),
    ]


@st.composite
def mixed_sequences(draw):
    objects = draw(st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(min_value=0, max_value=30))
    seq = []
    for k in range(n):
        obj, other = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        action = draw(st.sampled_from(step_actions(obj, other)))
        seq.append(Step(id=f"s{k}", action=None if action is None else bound_action_from_parts(*action)))
    return seq


def _seq(*actions):
    return [Step(id=f"s{k}", action=bound_action_from_parts(a, {})) for k, a in enumerate(actions)]


@settings(max_examples=400, deadline=None)
@given(mixed_sequences())
@example(
    _seq(
        "transfer_material:a.cap.open",
        "b.cap.open",
        "transfer_material:transfer_material:a->b:water",
    )
)
def test_one_pass_candidates_match_prefix_scans(seq):
    assert _candidates_early_transfer(seq) == ref_early_transfer(seq)
    assert _candidates_early_close(seq) == ref_early_close(seq)
    assert _candidates_early_power_off(seq) == ref_early_power_off(seq)


def tile(proc, copies):
    """``copies`` back-to-back copies of ``proc``, step ids prefixed per copy."""
    return Procedure(steps=tuple(replace(s, id=f"c{c}.{s.id}") for c in range(copies) for s in proc.steps))


def perturb_digest(proc, spec):
    draft, log = perturb(proc, spec)
    doc = {"order": [s.id for s in draft.steps], "log": asdict(log)}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# Recorded from the prefix-scan implementation; "config" is the shipped
# [perturb] spec of benchmark/config.toml (its seed and kind order).
PINNED = {
    (1, 6, 3): "223daecff1d393b9b4b6afe15057bcf7ba858c801b92dc0d7ae05c8d9f9d0b37",
    (1, 6, 11): "88195b18deb43366702c32113942884db7ddfb586970b34042f7ef63bd4052ec",
    (1, 6, "config"): "3f8ccb7bb1019042342b7328f28ec8ae4cdd17007ec243087c212492a8a4ad6b",
    (2, 40, 3): "d1805a71ca62e6158d5d520248d2ad1e0675df3de26ff26dc4d1bcd411646097",
    (2, 40, 11): "d14965475ec4cfb430f34910abce19711305ab07f342be8f968f345d85b0fcde",
    (2, 40, "config"): "4dfb73ff4871e1f76a30d354fdf8bd9060b4f1913c2fc4d3c512edbc2b7c5863",
}


@pytest.mark.parametrize("copies,n,seed", list(PINNED))
def test_drafts_and_logs_match_pinned_digests(truth, benchmark_dir, copies, n, seed):
    if seed == "config":
        spec = replace(load_config(benchmark_dir / "config.toml").perturbation, n_misorderings=n)
    else:
        spec = PerturbationSpec(n_misorderings=n, kinds=ALL_KINDS, seed=seed)
    proc = truth if copies == 1 else tile(truth, copies)
    assert perturb_digest(proc, spec) == PINNED[(copies, n, seed)]
