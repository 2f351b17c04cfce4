"""Seeded perturbation harness: introduce plausible local misorderings
into a ground-truth procedure to produce benchmark drafts.

Every kind reorders steps only; nothing is inserted or deleted.  Each
named kind lists its candidate moves, found from the step action
identifiers (open/close cap actions, power-button settings, knob resets,
transfer interactions), as (step index, lowest landing, highest landing)
triples; one seeded rule picks a triple and a landing in its range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ValidationError
from .repair import Procedure, Step

KIND_EARLY_TRANSFER = "early_transfer_before_open"
KIND_EARLY_CLOSE = "early_close"
KIND_LATE_POWER_ON = "late_power_on"
KIND_EARLY_POWER_OFF = "early_power_off_before_reset"
KIND_ADJACENT_SWAP = "generic_adjacent_swap"
KIND_REINSERT = "generic_reinsert"

ALL_KINDS = (
    KIND_EARLY_TRANSFER,
    KIND_EARLY_CLOSE,
    KIND_LATE_POWER_ON,
    KIND_EARLY_POWER_OFF,
    KIND_ADJACENT_SWAP,
    KIND_REINSERT,
)


@dataclass(frozen=True)
class PerturbationSpec:
    n_misorderings: int
    kinds: tuple[str, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))
        if type(self.n_misorderings) is not int:
            raise ValueError(f"n_misorderings must be an integer, got {self.n_misorderings!r}")
        if self.n_misorderings < 1:
            raise ValueError("n_misorderings must be >= 1")
        unknown = set(self.kinds) - set(ALL_KINDS)
        if unknown:
            raise ValueError(f"unknown perturbation kinds: {sorted(unknown)}")
        if not self.kinds:
            raise ValueError("at least one perturbation kind is required")


@dataclass
class PerturbationLog:
    moves: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)


def _is_open(step: Step) -> bool:
    return step.action is not None and step.action.id.endswith(".open")


def _is_close(step: Step) -> bool:
    return step.action is not None and step.action.id.endswith(".close")


def _is_transfer(step: Step) -> bool:
    return step.action is not None and step.action.id.startswith("transfer_material:")


def _is_power_off(step: Step) -> bool:
    return _power_value(step) == "off"


def _power_value(step: Step) -> str | None:
    if step.action is None or ".power_button.set" not in step.action.id:
        return None
    return dict(step.action.params).get("value")


def _is_reset(step: Step) -> bool:
    if step.action is None or not step.action.id.endswith(".set"):
        return False
    return dict(step.action.params).get("value") == "zero" and ".power_button." not in step.action.id


def _transfer_source_object(step: Step) -> str:
    # transfer_material:<source>-><target>[:material]
    body = step.action.id.split(":", 1)[1]
    return body.split("->", 1)[0].split(".")[0]


def _object(step: Step) -> str:
    return step.action.id.split(".")[0]


def _move(seq: list[Step], i: int, j: int) -> None:
    step = seq.pop(i)
    seq.insert(j, step)


def _pick(rng: random.Random, items: list):
    return items[rng.randrange(len(items))] if items else None


def _after_last_anchor(seq: list[Step], is_target, target_object, is_anchor):
    """Yield (i, a) for each target step i whose object has an anchor step
    before it, a being the index of the last such anchor.

    One pass: each step is tested as a target before it is recorded as an
    anchor, so a step that matches both anchors later steps but never
    itself, as a scan of the prefix ``seq[:i]`` would have it.
    """
    last = {}  # object -> index of its last anchor step so far
    for i, step in enumerate(seq):
        if is_target(step):
            a = last.get(target_object(step))
            if a is not None:
                yield i, a
        if is_anchor(step):
            last[_object(step)] = i


def _candidates_early_transfer(seq: list[Step]) -> list[tuple[int, int, int]]:
    """A transfer after its source's last open lands up to 4 steps before it."""
    pairs = _after_last_anchor(seq, _is_transfer, _transfer_source_object, _is_open)
    return [(ti, max(0, oi - 4), oi) for ti, oi in pairs]


def _candidates_early_close(seq: list[Step]) -> list[tuple[int, int, int]]:
    """A close at least 3 steps after its object's last open lands between."""
    pairs = _after_last_anchor(seq, _is_close, _object, _is_open)
    return [(ci, oi + 1, ci - 1) for ci, oi in pairs if ci - oi >= 3]


def _candidates_late_power_on(seq: list[Step]) -> list[tuple[int, int, int]]:
    """A power-on with 3 steps after it lands 3 to 8 steps later."""
    return [(i, i + 3, min(len(seq) - 1, i + 8)) for i in range(len(seq) - 3) if _power_value(seq[i]) == "on"]


def _candidates_early_power_off(seq: list[Step]) -> list[tuple[int, int, int]]:
    """A power-off after its object's last zero reset lands up to 3 steps before it."""
    pairs = _after_last_anchor(seq, _is_power_off, _object, _is_reset)
    return [(fi, max(0, zi - 3), zi) for fi, zi in pairs]


_CANDIDATES = {
    KIND_EARLY_TRANSFER: _candidates_early_transfer,
    KIND_EARLY_CLOSE: _candidates_early_close,
    KIND_LATE_POWER_ON: _candidates_late_power_on,
    KIND_EARLY_POWER_OFF: _candidates_early_power_off,
}


def _apply_kind(kind: str, seq: list[Step], rng: random.Random) -> dict | None:
    n = len(seq)
    if kind in _CANDIDATES:
        cand = _pick(rng, _CANDIDATES[kind](seq))
        if cand is None:
            return None
        i, lo, hi = cand
        j = rng.randint(lo, hi)
    elif kind == KIND_ADJACENT_SWAP:
        j = rng.randrange(n - 1)
        i = j + 1
    else:  # KIND_REINSERT: PerturbationSpec admits no other kind
        i = rng.randrange(n)
        offset = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        j = min(n - 1, max(0, i + offset))
        if j == i:
            j = max(0, i - 1) if i == n - 1 else i + 1
    _move(seq, i, j)
    return {"from": i, "to": j}


def perturb(truth: Procedure, spec: PerturbationSpec, strict: bool = False) -> tuple[Procedure, PerturbationLog]:
    """Apply the requested misordering kinds to a copy of the procedure.

    Kinds are applied in the listed order, cycling until
    ``n_misorderings`` moves have been made.  Inapplicable kinds are
    logged and skipped, or fail as a validation error if ``strict`` is set.  Deterministic given the
    seed.
    """
    if len(truth.steps) < 2:
        raise ValidationError("perturbation needs at least 2 steps")
    rng = random.Random(spec.seed)
    seq = list(truth.steps)
    log = PerturbationLog()
    applied = 0
    while applied < spec.n_misorderings:
        progressed = False
        for kind in spec.kinds:
            if applied >= spec.n_misorderings:
                break
            move = _apply_kind(kind, seq, rng)
            if move is None:
                message = {"kind": kind, "reason": "no applicable steps"}
                if strict:
                    raise ValidationError(f"perturbation kind {kind!r} is not applicable")
                log.skipped.append(message)
                continue
            log.moves.append({"kind": kind, "step_id": seq[move["to"]].id, "from": move["from"], "to": move["to"]})
            applied += 1
            progressed = True
        if not progressed:
            break
    return Procedure(steps=tuple(seq)), log
