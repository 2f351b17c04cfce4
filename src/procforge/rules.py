"""Precondition and causal-precedence rule extraction.

Each world model's entries are classified once, as valid, invalid, or
ambiguous by plausibility.  Weighted value supports over each action's
valid and invalid pools give its required and forbidden values; the same
valid pools give the effects that link each required condition to the
actions observed to establish it, yielding producer-before-consumer
ordering rules.  :func:`extract_rules` is the one entry point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter

from .errors import ValidationError, distinct
from .inventory import DomainInventory
from .world_model import WorldModel, WorldModelEntry

REQUIRED = "required"
FORBIDDEN = "forbidden"

STRONG = "strong"
WEAK = "weak"

#: Producer marker for conditions that may hold before the procedure starts.
INITIAL_STATE = "initial_state"


@dataclass(frozen=True)
class ExtractionConfig:
    """Thresholds driving classification and rule extraction.

    ``theta_hi``/``theta_lo`` split entries into valid/invalid/ambiguous.
    ``gamma`` is the confidence threshold for supports; ``epsilon0`` is
    the tolerance under which a valid support counts as "absent".
    ``min_valid_weight`` is the evidence weight an action needs before
    any precondition is extracted for it.
    """

    theta_hi: float = 0.8
    theta_lo: float = 0.2
    gamma: float = 0.9
    epsilon0: float = 0.05
    min_valid_weight: int = 3

    def __post_init__(self):
        for name in ("theta_hi", "theta_lo", "gamma", "epsilon0"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 <= self.theta_lo < self.theta_hi <= 1.0:
            raise ValueError("need 0 <= theta_lo < theta_hi <= 1")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("need 0.5 < gamma <= 1")
        if not 0.0 <= self.epsilon0 < 1.0 - self.gamma:
            raise ValueError("need 0 <= epsilon0 < 1 - gamma")
        if type(self.min_valid_weight) is not int or self.min_valid_weight < 1:
            raise ValueError(f"min_valid_weight must be an integer >= 1, got {self.min_valid_weight!r}")


@dataclass(frozen=True)
class ActionPools:
    valid: tuple[WorldModelEntry, ...]
    invalid: tuple[WorldModelEntry, ...]
    ambiguous: tuple[WorldModelEntry, ...]

    @staticmethod
    def weight(entries: tuple[WorldModelEntry, ...]) -> int:
        return sum(e.total_count for e in entries)


def classify_entries(wm: WorldModel, cfg: ExtractionConfig) -> dict[str, ActionPools]:
    """Partition each action's entries by plausibility score.

    Valid means plausibility >= theta_hi, invalid means <= theta_lo, and
    everything in between is ambiguous and excluded from supports.
    """
    sides: dict[str, tuple[list[WorldModelEntry], list[WorldModelEntry], list[WorldModelEntry]]] = {}
    for entry in wm.sorted_entries():
        valid, invalid, ambiguous = sides.setdefault(entry.action.key, ([], [], []))
        p = entry.plausibility
        if p >= cfg.theta_hi:
            valid.append(entry)
        elif p <= cfg.theta_lo:
            invalid.append(entry)
        else:
            ambiguous.append(entry)
    return {key: ActionPools(*map(tuple, lists)) for key, lists in sides.items()}


def _value_evidence(
    pools: ActionPools, idx: int, domain: tuple[str, ...]
) -> dict[str, tuple[float | None, float | None, int]]:
    """Valid support, invalid support and one-value contrast count of each
    value of variable ``idx``, from one pass over each side's pool.

    A support is the weighted fraction of a side's evidence whose state
    assigns the value; weights are entry sample counts, and an empty side
    gives None (never 0/0).  A contrast pair is a valid entry and an
    invalid entry whose states agree on every variable except ``idx``,
    where the invalid entry carries the value.
    """

    def masked(state: tuple[str, ...]) -> tuple[str, ...]:
        return state[:idx] + state[idx + 1 :]

    valid_hits: Counter[str] = Counter()
    valid_masks: Counter[tuple[str, ...]] = Counter()
    for entry in pools.valid:
        valid_hits[entry.state[idx]] += entry.total_count
        valid_masks[masked(entry.state)] += 1
    invalid_hits: Counter[str] = Counter()
    contrast: Counter[str] = Counter()
    for entry in pools.invalid:
        value = entry.state[idx]
        invalid_hits[value] += entry.total_count
        contrast[value] += valid_masks[masked(entry.state)]
    valid_weight, invalid_weight = sum(valid_hits.values()), sum(invalid_hits.values())
    return {
        value: (
            valid_hits[value] / valid_weight if valid_weight else None,
            invalid_hits[value] / invalid_weight if invalid_weight else None,
            contrast[value],
        )
        for value in domain
    }


@dataclass(frozen=True)
class Precondition:
    action: str
    variable: str
    value: str
    kind: str  # required | forbidden
    strength: str | None = None  # strong | weak, required conditions only
    valid_support: float | None = None
    invalid_support: float | None = None
    contrast: int = 0
    valid_weight: int = 0


@dataclass
class ExtractionReport:
    ambiguous_entries: dict[str, int] = field(default_factory=dict)
    insufficient_evidence: list[str] = field(default_factory=list)
    suppressed_rules: list[dict] = field(default_factory=list)
    conflicts: list[dict] = field(default_factory=list)


#: The order of every precondition list.
_ORDER = attrgetter("action", "variable", "value", "kind")


def _rated(pres: list[Precondition], domains: dict[str, tuple[str, ...]]) -> list[Precondition]:
    """``pres`` in order, each required value rated against the forbidden
    values of its (action, variable).

    A required value is strong exactly when every alternative value of its
    variable is forbidden.  A single-value domain has no alternative left
    to rule out, so its required value is strong.
    """
    forbidden: dict[tuple[str, str], set[str]] = {}
    for pre in pres:
        if pre.kind == FORBIDDEN:
            forbidden.setdefault((pre.action, pre.variable), set()).add(pre.value)
    out = []
    for pre in pres:
        if pre.kind == REQUIRED:
            ruled_out = forbidden.get((pre.action, pre.variable), set())
            strong = set(domains[pre.variable]) - {pre.value} <= ruled_out
            pre = replace(pre, strength=STRONG if strong else WEAK)
        out.append(pre)
    return sorted(out, key=_ORDER)


def _candidates(wm: WorldModel, pools: dict[str, ActionPools], cfg: ExtractionConfig) -> list[Precondition]:
    """The required and forbidden values of model ``wm``, unrated, in order.

    A value is required when its valid support reaches gamma and every
    alternative value of the same variable stays at or below 1 - gamma.
    A value is forbidden when it is (nearly) absent from valid evidence
    and either a one-value contrast or gamma-level invalid support backs
    the failure.  An action whose valid weight is below
    ``min_valid_weight`` yields nothing.
    """
    out: list[Precondition] = []
    for action, action_pools in pools.items():
        valid_weight = ActionPools.weight(action_pools.valid)
        if valid_weight < cfg.min_valid_weight:
            continue
        for idx, var in enumerate(wm.template.variables):
            evidence = _value_evidence(action_pools, idx, var.domain)
            for value, (vs, inv_support, contrast) in evidence.items():
                assert vs is not None  # valid pool is non-empty here
                others_dominated = all(
                    evidence[v2][0] <= 1.0 - cfg.gamma for v2 in var.domain if v2 != value
                )
                is_required = vs >= cfg.gamma and others_dominated
                is_forbidden = vs <= cfg.epsilon0 and (
                    contrast > 0 or (inv_support is not None and inv_support >= cfg.gamma)
                )
                # Disjoint by construction (gamma > epsilon0); assert anyway.
                assert not (is_required and is_forbidden), (action, var.id, value)
                if not (is_required or is_forbidden):
                    continue
                pre = Precondition(
                    action=action,
                    variable=var.id,
                    value=value,
                    kind=REQUIRED if is_required else FORBIDDEN,
                    valid_support=vs,
                    invalid_support=inv_support,
                    contrast=contrast,
                    valid_weight=valid_weight,
                )
                out.append(pre)
    # merge_preconditions reports conflicts in the order of these lists.
    return sorted(out, key=_ORDER)


def merge_preconditions(
    per_model: list[list[Precondition]],
    domains: dict[str, tuple[str, ...]],
    report: ExtractionReport,
) -> list[Precondition]:
    """Deduplicate preconditions extracted from several templates.

    The same action can appear in more than one template (interactions
    live in both partners); conditions are merged by (action, variable,
    value), keeping the higher-weight evidence, and required strengths
    are rated against the merged forbidden sets.
    """
    by_key: dict[tuple[str, str, str], Precondition] = {}
    kinds: dict[tuple[str, str, str], set[str]] = {}
    for pres in per_model:
        for pre in pres:
            key = (pre.action, pre.variable, pre.value)
            kinds.setdefault(key, set()).add(pre.kind)
            best = by_key.get(key)
            if best is None or pre.valid_weight > best.valid_weight:
                by_key[key] = pre
    merged: list[Precondition] = []
    for key, pre in by_key.items():
        if len(kinds[key]) > 1:
            # Required in one model, forbidden in another: inconsistent
            # evidence; drop it and surface the conflict.
            report.conflicts.append(
                {"action": pre.action, "variable": pre.variable, "value": pre.value}
            )
            continue
        merged.append(pre)
    return _rated(merged, domains)


#: (variable, value) -> the actions that some valid entry shows moving the
#: variable to the value from another value.
EffectIndex = dict[tuple[str, str], set[str]]


def _index_effects(pools: dict[str, ActionPools], variable_ids: tuple[str, ...], effects: EffectIndex) -> None:
    """Add to ``effects`` each (variable, value) that an outcome of a valid entry moves a variable to."""
    for action, action_pools in pools.items():
        for entry in action_pools.valid:
            for outcome in entry.outcomes:
                for var_id, before, after in zip(variable_ids, entry.state, outcome.next_state):
                    if before != after:
                        effects.setdefault((var_id, after), set()).add(action)


def _producers(effects: EffectIndex, inv: DomainInventory, variable: str, value: str) -> list[str]:
    """The actions that establish variable=value, in order, after the
    ``initial_state`` marker when the inventory declares the value as
    the variable's initial value."""
    out = sorted(effects.get((variable, value), ()))
    if inv.initial_value(variable) == value:
        out.insert(0, INITIAL_STATE)
    return out


@dataclass(frozen=True)
class CausalRule:
    """Producer-before-consumer ordering rule for one required condition."""

    action: str  # consumer
    variable: str
    value: str
    producers: tuple[str, ...]
    strength: str


@dataclass(frozen=True)
class RuleSet:
    preconditions: tuple[Precondition, ...]
    causal_rules: tuple[CausalRule, ...]
    report: ExtractionReport
    config: ExtractionConfig


def extract_rules(models: list[WorldModel], inv: DomainInventory, cfg: ExtractionConfig) -> RuleSet:
    """Preconditions and causal rules over one or more world models.

    Each model is classified once; its valid pools give both the evidence
    of every precondition and the effects that name each required
    condition's producers.  An action lives in every template it touches:
    its ambiguous weight is summed over those models, and it lacks evidence
    only when no model holding it has ``min_valid_weight``.  A required
    condition yields one rule per consumer, listing the actions other than
    the consumer that produce it; with none, the rule is suppressed and
    reported.
    """
    report = ExtractionReport()
    domains: dict[str, tuple[str, ...]] = {}
    per_model = []
    effects: EffectIndex = {}
    valid_weight: dict[str, int] = {}  # the largest over the models holding the action
    for wm in models:
        pools = classify_entries(wm, cfg)
        for action, action_pools in pools.items():
            if action_pools.ambiguous:
                weight = ActionPools.weight(action_pools.ambiguous)
                report.ambiguous_entries[action] = report.ambiguous_entries.get(action, 0) + weight
            valid_weight[action] = max(valid_weight.get(action, 0), ActionPools.weight(action_pools.valid))
        for var_id, domain in wm.template.domains.items():
            domains.setdefault(var_id, domain)
        per_model.append(_candidates(wm, pools, cfg))
        _index_effects(pools, wm.template.variable_ids, effects)
    report.insufficient_evidence = sorted(a for a, w in valid_weight.items() if w < cfg.min_valid_weight)
    merged = merge_preconditions(per_model, domains, report)
    rules = []
    for pre in merged:  # in (action, variable, value) order
        if pre.kind != REQUIRED:
            continue
        producers = [p for p in _producers(effects, inv, pre.variable, pre.value) if p != pre.action]
        if not producers:
            report.suppressed_rules.append(
                {"action": pre.action, "variable": pre.variable, "value": pre.value, "reason": "no producers"}
            )
            continue
        rules.append(CausalRule(pre.action, pre.variable, pre.value, tuple(producers), pre.strength))
    return RuleSet(preconditions=tuple(merged), causal_rules=tuple(rules), report=report, config=cfg)


# ── serialization ─────────────────────────────────────────────────────────


def rule_set_to_dict(rules: RuleSet) -> dict:
    return {
        "config": asdict(rules.config),
        "preconditions": [asdict(p) for p in rules.preconditions],
        "causal_rules": [asdict(r) for r in rules.causal_rules],
        "extraction_report": asdict(rules.report),
    }


def rule_set_from_dict(doc: dict) -> RuleSet:
    try:
        cfg = ExtractionConfig(**doc["config"])
    except ValueError as exc:
        raise ValidationError(f"invalid extraction config: {exc}") from exc
    preconditions = tuple(Precondition(**p) for p in doc["preconditions"])
    rules = tuple(CausalRule(**{**r, "producers": tuple(r["producers"])}) for r in doc["causal_rules"])
    for name, items in (("preconditions", preconditions), ("causal_rules", rules)):
        distinct(((i.action, i.variable, i.value) for i in items), f"(action, variable, value) in {name}")
    report = ExtractionReport(**doc["extraction_report"])
    return RuleSet(preconditions=preconditions, causal_rules=rules, report=report, config=cfg)
