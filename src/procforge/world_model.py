"""Tabular world model: samples grouped by (state, action) with outcome
counts, empirical probabilities, and plausibility scores.

States compare by exact equality of all template variables; there is no
abstraction or partial matching here.  Generalization happens only in
rule extraction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import SampleValidationError
from .sampling import SampleBatch
from .schemas import dump_json
from .templates import BoundAction, MdpTemplate, bound_action_from_parts, template_from_dict, template_to_dict

StateTuple = tuple[str, ...]
EntryKey = tuple[str, StateTuple]  # (bound action key, canonical state tuple)


@dataclass(frozen=True)
class OutcomeRecord:
    next_state: StateTuple
    count: int
    reward_sum: int

    @property
    def avg_reward(self) -> float:
        return self.reward_sum / self.count


@dataclass(frozen=True)
class WorldModelEntry:
    action: BoundAction
    state: StateTuple
    outcomes: tuple[OutcomeRecord, ...]

    @property
    def total_count(self) -> int:
        return sum(o.count for o in self.outcomes)

    @property
    def reward_total(self) -> int:
        return sum(o.reward_sum for o in self.outcomes)

    @property
    def plausibility(self) -> float:
        """Count-weighted mean reward over all samples behind this key."""
        return self.reward_total / self.total_count

    def probability(self, outcome: OutcomeRecord) -> float:
        return outcome.count / self.total_count


@dataclass(frozen=True)
class WorldModel:
    template: MdpTemplate
    entries: dict[EntryKey, WorldModelEntry]

    def query_entry(self, state: dict[str, str] | StateTuple, action: BoundAction) -> WorldModelEntry | None:
        """Exact-match lookup; None means no evidence for this key."""
        if isinstance(state, dict):
            state = self.template.state_tuple(state)
        return self.entries.get((action.key, state))

    def total_samples(self) -> int:
        return sum(e.total_count for e in self.entries.values())

    def sorted_entries(self) -> list[WorldModelEntry]:
        return [self.entries[k] for k in sorted(self.entries)]


def _finalize(
    tpl: MdpTemplate,
    acc: dict[EntryKey, dict[StateTuple, list[int]]],
    actions: dict[str, BoundAction],
) -> WorldModel:
    entries: dict[EntryKey, WorldModelEntry] = {}
    for key, outcome_acc in acc.items():
        action_key, state = key
        outcomes = tuple(
            OutcomeRecord(next_state=ns, count=c, reward_sum=r)
            for ns, (c, r) in sorted(outcome_acc.items(), key=lambda kv: (-kv[1][0], kv[0]))
        )
        entries[key] = WorldModelEntry(action=actions[action_key], state=state, outcomes=outcomes)
    return WorldModel(template=tpl, entries=entries)


def aggregate(batch: SampleBatch) -> WorldModel:
    """Group a batch by exact (state, action, params) into a world model."""
    tpl = batch.template
    acc: dict[EntryKey, dict[StateTuple, list[int]]] = {}
    actions: dict[str, BoundAction] = {}
    # Each distinct sample object is converted once and counted with its
    # multiplicity; first-occurrence order keeps every dict's order.
    multiplicity = Counter(map(id, batch.samples))
    for sample in {id(s): s for s in batch.samples}.values():
        count = multiplicity[id(sample)]
        state = tpl.state_tuple(sample.state)
        next_state = tpl.state_tuple(sample.next_state)
        key = (sample.action.key, state)
        actions.setdefault(sample.action.key, sample.action)
        per_outcome = acc.setdefault(key, {})
        slot = per_outcome.setdefault(next_state, [0, 0])
        slot[0] += count
        slot[1] += sample.reward * count
    return _finalize(tpl, acc, actions)


# ── serialization ─────────────────────────────────────────────────────────


def _entry_to_dict(tpl: MdpTemplate, entry: WorldModelEntry) -> dict:
    return {
        "state": tpl.state_dict(entry.state),
        "action": entry.action.id,
        "params": dict(entry.action.params),
        "total_count": entry.total_count,
        "plausibility": entry.plausibility,
        "outcomes": [
            {
                "next_state": tpl.state_dict(o.next_state),
                "count": o.count,
                "probability": entry.probability(o),
                "avg_reward": o.avg_reward,
                "reward_sum": o.reward_sum,
            }
            for o in entry.outcomes
        ],
    }


def world_model_to_dict(wm: WorldModel) -> dict:
    entries = [_entry_to_dict(wm.template, entry) for entry in wm.sorted_entries()]
    return {"template": template_to_dict(wm.template), "entries": entries}


def _require_keys(raw: object, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(raw, dict) or sorted(raw) != sorted(keys):
        raise SampleValidationError(f"{where} must be an object with exactly the keys {sorted(keys)}")


def _require_same(stored: dict, expected: dict, keys: tuple[str, ...], where: str) -> None:
    """Each stored derived field must be its recomputed value exactly.

    Compared by repr, not ``==``, which equates True, 1 and 1.0, and -0.0
    and 0.0."""
    for key in keys:
        if repr(stored[key]) != repr(expected[key]):
            raise SampleValidationError(f"{where}.{key}: stored {stored[key]!r}, recomputed {expected[key]!r}")


def _entry_from_dict(tpl: MdpTemplate, item: object, where: str) -> WorldModelEntry:
    _require_keys(item, ("state", "action", "params", "total_count", "plausibility", "outcomes"), where)
    action_id, params = item["action"], item["params"]
    if not (isinstance(action_id, str) and isinstance(params, dict)) or not all(
        isinstance(value, str) for value in params.values()
    ):
        raise SampleValidationError(f"{where}: action must be a string and params an object of strings")
    action = bound_action_from_parts(action_id, params)
    if tpl.bound_actions_by_key.get(action.key) != action:
        raise SampleValidationError(f"{where}.action: {action.key!r} not in template")
    state = tpl.state_tuple(tpl.validate_assignment(item["state"], f"{where}.state"))
    if not isinstance(item["outcomes"], list) or not item["outcomes"]:
        raise SampleValidationError(f"{where}.outcomes must be a non-empty array")
    outcomes = []
    for j, raw in enumerate(item["outcomes"]):
        at = f"{where}.outcomes[{j}]"
        _require_keys(raw, ("next_state", "count", "probability", "avg_reward", "reward_sum"), at)
        count, reward_sum = raw["count"], raw["reward_sum"]
        if type(count) is not int or count < 1:
            raise SampleValidationError(f"{at}.count: {count!r} is not an integer >= 1")
        if type(reward_sum) is not int or not 0 <= reward_sum <= count:
            raise SampleValidationError(f"{at}.reward_sum: {reward_sum!r} is not an integer in [0, count]")
        next_state = tpl.state_tuple(tpl.validate_assignment(raw["next_state"], f"{at}.next_state"))
        if any(o.next_state == next_state for o in outcomes):
            raise SampleValidationError(f"{at}.next_state repeats an earlier outcome's")
        outcomes.append(OutcomeRecord(next_state=next_state, count=count, reward_sum=reward_sum))
    entry = WorldModelEntry(action=action, state=state, outcomes=tuple(outcomes))
    expected = _entry_to_dict(tpl, entry)
    _require_same(item, expected, ("total_count", "plausibility"), where)
    for j, (stored, recomputed) in enumerate(zip(item["outcomes"], expected["outcomes"])):
        _require_same(stored, recomputed, ("probability", "avg_reward"), f"{where}.outcomes[{j}]")
    return entry


def world_model_from_dict(doc: dict) -> WorldModel:
    """Parse a world model whose envelope fits its schema, checking every
    entry against the embedded template: states as sample states are, a
    bound action of the template, counts in range, no repeated key, and
    each derived field as the writer renders it.  A violation raises
    :class:`SampleValidationError` naming its ``$.entries[i]`` path."""
    tpl = template_from_dict(doc["template"])
    entries: dict[EntryKey, WorldModelEntry] = {}
    for i, item in enumerate(doc["entries"]):
        entry = _entry_from_dict(tpl, item, f"$.entries[{i}]")
        key = (entry.action.key, entry.state)
        if key in entries:
            raise SampleValidationError(f"$.entries[{i}]: repeats the (action, state) key of an earlier entry")
        entries[key] = entry
    return WorldModel(template=tpl, entries=entries)


def serialize_world_model(wm: WorldModel) -> str:
    return dump_json(world_model_to_dict(wm))
