"""Tabular world model: samples grouped by (state, action) with outcome
counts, empirical probabilities, and plausibility scores.

States compare by exact equality of all template variables; there is no
abstraction or partial matching here.  Generalization happens only in
rule extraction.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import SampleValidationError
from .sampling import SampleBatch
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


def merge(first: WorldModel, second: WorldModel) -> WorldModel:
    """Combine two models over the same template.

    Equivalent to aggregating the concatenation of the underlying
    batches.
    """
    if first.template != second.template:
        raise SampleValidationError("cannot merge world models built from different templates")
    acc: dict[EntryKey, dict[StateTuple, list[int]]] = {}
    actions: dict[str, BoundAction] = {}
    for model in (first, second):
        for key, entry in model.entries.items():
            actions.setdefault(entry.action.key, entry.action)
            per_outcome = acc.setdefault(key, {})
            for outcome in entry.outcomes:
                slot = per_outcome.setdefault(outcome.next_state, [0, 0])
                slot[0] += outcome.count
                slot[1] += outcome.reward_sum
    return _finalize(first.template, acc, actions)


# ── serialization ─────────────────────────────────────────────────────────


def world_model_to_dict(wm: WorldModel) -> dict:
    tpl = wm.template
    entries = []
    for entry in wm.sorted_entries():
        entries.append(
            {
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
        )
    return {"template": template_to_dict(tpl), "entries": entries}


def world_model_from_dict(doc: dict) -> WorldModel:
    tpl = template_from_dict(doc["template"])
    entries: dict[EntryKey, WorldModelEntry] = {}
    for item in doc["entries"]:
        action = bound_action_from_parts(item["action"], item.get("params", {}))
        state = tpl.state_tuple(item["state"])
        outcomes = tuple(
            OutcomeRecord(
                next_state=tpl.state_tuple(o["next_state"]),
                count=int(o["count"]),
                reward_sum=int(o["reward_sum"]),
            )
            for o in item["outcomes"]
        )
        entries[(action.key, state)] = WorldModelEntry(action=action, state=state, outcomes=outcomes)
    return WorldModel(template=tpl, entries=entries)


def serialize_world_model(wm: WorldModel) -> str:
    return json.dumps(world_model_to_dict(wm), indent=2, sort_keys=True) + "\n"
