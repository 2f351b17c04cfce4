"""Per-object behaviour templates: the focal object's own state variables
and actions plus the one-hop contextual variables and interaction actions
needed to describe what it does.

An interaction with another object adds its action and partner variables
by two rules.  A source gets the target holder's variables resolved from
the interaction's kind, which it writes; a transfer's target gets the
source's cap states, which the transfer reads.

Templates are dictionaries, not transition models: they enumerate
variables, value domains, and actions, and say nothing about effects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import StateSpaceLimitError, UnknownObjectError, ValidationError, distinct
from .inventory import DomainInventory, StateVariable

ORIGIN_OWN = "own"
ORIGIN_CONTEXTUAL = "contextual"

KIND_CONTROL = "control"
KIND_INTERACTION = "interaction"

DEFAULT_STATE_LIMIT = 100_000


@dataclass(frozen=True)
class TemplateVariable:
    id: str
    domain: tuple[str, ...]
    origin: str


@dataclass(frozen=True)
class TemplateAction:
    """An action available in a template.

    ``params`` holds enumerable parameter domains; concrete bindings are
    produced by :meth:`MdpTemplate.bound_actions`.
    """

    id: str
    params: tuple[tuple[str, tuple[str, ...]], ...]
    kind: str


@dataclass(frozen=True)
class BoundAction:
    """An action with every parameter bound to one value."""

    id: str
    params: tuple[tuple[str, str], ...] = ()

    @property
    def key(self) -> str:
        if not self.params:
            return self.id
        inner = ",".join(f"{n}={v}" for n, v in self.params)
        return f"{self.id}({inner})"


def bound_action_from_parts(action_id: str, params: dict[str, str] | None) -> BoundAction:
    items = tuple(sorted((params or {}).items()))
    return BoundAction(id=action_id, params=items)


@dataclass(frozen=True)
class MdpTemplate:
    focal_object: str
    variables: tuple[TemplateVariable, ...]
    actions: tuple[TemplateAction, ...]

    @cached_property
    def variable_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    @cached_property
    def variable_index(self) -> dict[str, int]:
        """Each variable's position in a state tuple, under its id."""
        return {var_id: i for i, var_id in enumerate(self.variable_ids)}

    @cached_property
    def domains(self) -> dict[str, tuple[str, ...]]:
        """Each variable's domain, under its id, in variable order."""
        return {v.id: v.domain for v in self.variables}

    def domain_of(self, var_id: str) -> tuple[str, ...]:
        return self.domains[var_id]

    def state_space_size(self) -> int:
        size = 1
        for v in self.variables:
            size *= len(v.domain)
        return size

    def state_tuple(self, assignment: dict[str, str]) -> tuple[str, ...]:
        """Canonical tuple form of a complete state assignment."""
        return tuple(assignment[v.id] for v in self.variables)

    def validate_assignment(self, raw: object, label: str) -> dict[str, str]:
        """``raw`` if it assigns every variable, and no other, a value in its domain."""
        if not isinstance(raw, dict):
            raise ValidationError(f"{label} must be an object")
        domains = self.domains
        if raw.keys() != domains.keys():
            gaps = (("missing", domains.keys() - raw.keys()), ("unexpected", raw.keys() - domains.keys()))
            detail = ", ".join(f"{word} {sorted(ids)}" for word, ids in gaps if ids)
            raise ValidationError(f"{label} variables do not match template: {detail}")
        for var_id, value in raw.items():
            if value not in domains[var_id]:
                raise ValidationError(f"{label}: value {value!r} not in domain of {var_id}")
        return dict(raw)

    def state_dict(self, values: tuple[str, ...]) -> dict[str, str]:
        return {v.id: value for v, value in zip(self.variables, values)}

    def bound_actions(self) -> list[BoundAction]:
        """All concrete parameter bindings, in deterministic order."""
        out: list[BoundAction] = []
        for act in self.actions:
            if not act.params:
                out.append(BoundAction(id=act.id))
                continue
            names = [n for n, _ in act.params]
            for combo in itertools.product(*(dom for _, dom in act.params)):
                out.append(BoundAction(id=act.id, params=tuple(sorted(zip(names, combo)))))
        return out

    @cached_property
    def bound_actions_by_key(self) -> dict[str, BoundAction]:
        """Each bound action under its key: the one lookup that tells
        whether a parsed action is the template's own."""
        return {b.key: b for b in self.bound_actions()}

    def bound_action(self, action_id: object, params: object, where: str = "") -> BoundAction:
        """The template's own bound action that a parsed ``action_id`` with
        ``params`` names.  The id must be a string, ``params`` an object of
        string values, and the pair must bind one of the template's actions;
        otherwise :class:`ValidationError`, whose message starts with
        ``where``, the path of the record read, when one is given."""
        head, at = (f"{where}: ", f"{where}.action: ") if where else ("", "action ")
        if not (isinstance(action_id, str) and isinstance(params, dict)) or not all(
            isinstance(value, str) for value in params.values()
        ):
            raise ValidationError(f"{head}action must be a string and params an object of strings")
        action = bound_action_from_parts(action_id, params)
        own = self.bound_actions_by_key.get(action.key)
        if own != action:
            raise ValidationError(f"{at}{action.key!r} not in template")
        return own


def build_template(inv: DomainInventory, object_id: str) -> MdpTemplate:
    """Build the behaviour template for one focal object.

    Contextual closure is one interaction hop: for each interaction
    involving the object, its action and the partner variables of the two
    rules in the module docstring are pulled in.
    """
    obj = inv.get_object(object_id)
    if obj is None:
        raise UnknownObjectError(f"unknown object id {object_id!r}")

    own_vars = {var.id: var for var in obj.all_variables()}
    ctx_vars: dict[str, StateVariable] = {}
    interaction_actions: dict[str, TemplateAction] = {}
    for inter in inv.interactions:
        source_obj = inter.source.split(".")[0]
        target_obj = inter.target.split(".")[0]
        if object_id not in (source_obj, target_obj):
            continue
        action_id = inter.canonical_action_id()
        interaction_actions.setdefault(
            action_id, TemplateAction(id=action_id, params=(), kind=KIND_INTERACTION)
        )
        if source_obj == object_id != target_obj:
            # What the interaction writes: the holder's variable of its kind.
            partner = [v for v in inv.holder_variables(inter.target) if v.resolved_from == inter.kind]
        elif target_obj == object_id != source_obj and inter.kind == "transfer_material":
            # What a transfer reads: whether the source's caps are open.
            partner = [v for c in inv.get_object(source_obj).components if c.kind == "cap" for v in c.states]
        else:
            continue
        ctx_vars.update((v.id, v) for v in partner if v.id not in own_vars)
    for var in (*own_vars.values(), *ctx_vars.values()):
        if var.is_dynamic:
            raise ValidationError(f"inventory is not resolved: {var.id} still has a dynamic domain")

    variables = [
        TemplateVariable(id=v.id, domain=tuple(v.domain), origin=ORIGIN_OWN)
        for v in sorted(own_vars.values(), key=lambda v: v.id)
    ] + [
        TemplateVariable(id=v.id, domain=tuple(v.domain), origin=ORIGIN_CONTEXTUAL)
        for v in sorted(ctx_vars.values(), key=lambda v: v.id)
    ]
    actions = [
        TemplateAction(id=a.id, params=a.params, kind=KIND_CONTROL)
        for a in sorted(obj.all_actions(), key=lambda a: a.id)
    ] + [interaction_actions[k] for k in sorted(interaction_actions)]
    return MdpTemplate(focal_object=object_id, variables=tuple(variables), actions=tuple(actions))


def enumerate_states(tpl: MdpTemplate, limit: int = DEFAULT_STATE_LIMIT) -> list[dict[str, str]]:
    """Cartesian product of the template's variable domains.

    Refuses (reporting the computed size) when the product exceeds
    ``limit``.
    """
    size = tpl.state_space_size()
    if size > limit:
        raise StateSpaceLimitError(size, limit)
    out = []
    for combo in itertools.product(*(v.domain for v in tpl.variables)):
        out.append({v.id: value for v, value in zip(tpl.variables, combo)})
    return out


# ── serialization ─────────────────────────────────────────────────────────


def template_to_dict(tpl: MdpTemplate) -> dict:
    return {
        "focal_object": tpl.focal_object,
        "variables": [
            {"id": v.id, "domain": list(v.domain), "origin": v.origin} for v in tpl.variables
        ],
        "actions": [
            {
                "id": a.id,
                "params": [{"name": n, "domain": list(dom)} for n, dom in a.params],
                "kind": a.kind,
            }
            for a in tpl.actions
        ],
    }


def template_from_dict(doc: dict) -> MdpTemplate:
    """The template of a document that fits its schema; a repeated variable
    id, action id, parameter name or domain value raises
    :class:`ValidationError`."""
    variables = tuple(TemplateVariable(**{**v, "domain": distinct(v["domain"], f"domain values of {v['id']}")})
                      for v in doc["variables"])
    distinct((v.id for v in variables), "variable ids in template")
    actions = tuple(
        TemplateAction(
            id=a["id"],
            params=tuple(
                (p["name"], distinct(p["domain"], f"domain values of {a['id']}({p['name']})"))
                for p in a.get("params", [])
            ),
            kind=a["kind"],
        )
        for a in doc["actions"]
    )
    distinct((a.id for a in actions), "action ids in template")
    for a in actions:
        distinct((name for name, _ in a.params), f"parameter names of {a.id}")
    return MdpTemplate(focal_object=doc["focal_object"], variables=variables, actions=actions)
