"""Structured laboratory-domain inventory: parsing, validation, resolution.

The inventory is the controlled vocabulary for everything downstream:
objects with components, symbolic state variables, actions, and the
interactions (placements and material transfers) that tie objects
together.  State domains may be declared ``dynamic``; those are resolved
from the interactions into concrete value sets.

All types are immutable; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ValidationError, distinct
from .schemas import first_violation, load_json

#: Sentinel domain marker for interaction-dependent state variables.
DYNAMIC = "dynamic"

#: Sentinel value meaning "nothing placed / nothing contained".
NONE_VALUE = "none"


@dataclass(frozen=True)
class StateVariable:
    """A symbolic state variable with a finite value domain.

    ``id`` is fully qualified (``object[.component].name``).  ``domain``
    is either a tuple of values or the ``dynamic`` marker.
    ``resolved_from`` records which interaction kind produced the domain;
    only :func:`resolve_dynamic_domains` sets it.
    """

    id: str
    domain: tuple[str, ...] | str
    resolved_from: str | None = None

    @property
    def is_dynamic(self) -> bool:
        return self.domain == DYNAMIC

    @property
    def name(self) -> str:
        return self.id.rsplit(".", 1)[1]


@dataclass(frozen=True)
class ActionDef:
    """An action with fully-qualified id and finite parameter domains."""

    id: str
    params: tuple[tuple[str, tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class Component:
    id: str
    kind: str
    states: tuple[StateVariable, ...] = ()
    actions: tuple[ActionDef, ...] = ()


@dataclass(frozen=True)
class LabObject:
    id: str
    category: str
    components: tuple[Component, ...] = ()
    states: tuple[StateVariable, ...] = ()
    actions: tuple[ActionDef, ...] = ()
    initial_state: dict[str, str] = field(default_factory=dict)

    def all_variables(self) -> list[StateVariable]:
        """Object-level variables followed by component variables."""
        out = list(self.states)
        for comp in self.components:
            out.extend(comp.states)
        return out

    def all_actions(self) -> list[ActionDef]:
        out = list(self.actions)
        for comp in self.components:
            out.extend(comp.actions)
        return out


@dataclass(frozen=True)
class Interaction:
    """A placement (``move_to_receptor``) or a material transfer."""

    kind: str
    source: str
    target: str
    material: str | None = None

    def canonical_action_id(self) -> str:
        base = f"{self.kind}:{self.source}->{self.target}"
        if self.material is not None:
            base += f":{self.material}"
        return base


@dataclass(frozen=True)
class DomainInventory:
    objects: tuple[LabObject, ...]
    interactions: tuple[Interaction, ...]

    def get_object(self, object_id: str) -> LabObject | None:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        return None

    def variables(self) -> list[StateVariable]:
        out: list[StateVariable] = []
        for obj in self.objects:
            out.extend(obj.all_variables())
        return out

    def initial_value(self, fq_var_id: str) -> str | None:
        """Declared initial value of a variable, or None if unspecified."""
        obj_id, local = fq_var_id.split(".", 1)
        obj = self.get_object(obj_id)
        if obj is None:
            return None
        return obj.initial_state.get(local)

    def holder_variables(self, ref: str) -> list[StateVariable]:
        """Variables attached directly to an object or component ref."""
        parts = ref.split(".")
        obj = self.get_object(parts[0])
        if obj is None:
            return []
        if len(parts) == 1:
            return list(obj.states)
        for comp in obj.components:
            if comp.id == parts[1]:
                return list(comp.states)
        return []


# ── parsing ──────────────────────────────────────────────────────────────
#
# inventory.schema.json is the one structural check: types, enums, required
# keys, identifier and reference syntax.  The code below adds only what the
# schema cannot state: uniqueness, reference resolution, the material rule
# per interaction kind, and initial values against the declared variables.


def _parse_domain(raw: list[str] | str, path: str) -> tuple[str, ...] | str:
    return DYNAMIC if raw == DYNAMIC else distinct(raw, f"domain values in {path}")


def _parse_states(raw: list[dict], prefix: str, path: str) -> tuple[StateVariable, ...]:
    states = tuple(
        StateVariable(id=f"{prefix}.{item['id']}", domain=_parse_domain(item["domain"], f"{path}[{i}].domain"))
        for i, item in enumerate(raw)
    )
    distinct((s.name for s in states), f"variable names in {path}")
    return states


def _parse_actions(raw: list[dict], prefix: str, path: str) -> tuple[ActionDef, ...]:
    actions = tuple(
        ActionDef(
            id=f"{prefix}.{item['id']}",
            params=tuple(
                (p["name"], _parse_domain(p["domain"], f"{path}[{i}].params[{k}].domain"))
                for k, p in enumerate(item.get("params", []))
            ),
        )
        for i, item in enumerate(raw)
    )
    distinct((a.id for a in actions), f"action ids in {path}")
    for i, action in enumerate(actions):
        distinct((name for name, _ in action.params), f"parameter names in {path}[{i}].params")
    return actions


def _parse_object(item: dict, path: str) -> LabObject:
    obj_id = item["id"]
    components = []
    for i, citem in enumerate(item.get("components", [])):
        prefix = f"{obj_id}.{citem['id']}"
        states = _parse_states(citem.get("states", []), prefix, f"{path}.components[{i}].states")
        actions = _parse_actions(citem.get("actions", []), prefix, f"{path}.components[{i}].actions")
        components.append(Component(id=citem["id"], kind=citem["kind"], states=states, actions=actions))
    distinct((c.id for c in components), f"component ids in {path}.components")
    return LabObject(
        id=obj_id,
        category=item["category"],
        components=tuple(components),
        states=_parse_states(item.get("states", []), obj_id, f"{path}.states"),
        actions=_parse_actions(item.get("actions", []), obj_id, f"{path}.actions"),
        initial_state=dict(item.get("initial_state", {})),
    )


def _resolve_ref(inv_objects: dict[str, LabObject], ref: str, path: str) -> tuple[LabObject, Component | None]:
    obj_id, _, comp_id = ref.partition(".")
    obj = inv_objects.get(obj_id)
    if obj is None:
        raise ValidationError(f"{path}: unknown object {obj_id!r} in reference {ref!r}")
    if not comp_id:
        return obj, None
    for comp in obj.components:
        if comp.id == comp_id:
            return obj, comp
    raise ValidationError(f"{path}: unknown component {comp_id!r} in reference {ref!r}")


def _normalize_interaction(inv_objects: dict[str, LabObject], item: dict, path: str) -> Interaction:
    kind, source, target = item["kind"], item["source"], item["target"]
    material = item.get("material")
    _resolve_ref(inv_objects, source, f"{path}.source")
    tgt_obj, tgt_comp = _resolve_ref(inv_objects, target, f"{path}.target")
    if kind == "transfer_material":
        if material is None:
            raise ValidationError(f"{path}.material: transfer_material requires a material")
    else:
        if material is not None:
            raise ValidationError(f"{path}.material: move_to_receptor takes no material")
        # Whole-object targets are normalized to the unique receptor component.
        if tgt_comp is None:
            receptors = [c for c in tgt_obj.components if c.kind == "receptor"]
            if len(receptors) != 1:
                raise ValidationError(
                    f"{path}.target: target {target!r} has {len(receptors)} receptor components; "
                    "move_to_receptor needs exactly one"
                )
            tgt_comp = receptors[0]
            target = f"{tgt_obj.id}.{tgt_comp.id}"
        elif tgt_comp.kind != "receptor":
            raise ValidationError(
                f"{path}.target: move_to_receptor target {target!r} is a {tgt_comp.kind}, not a receptor"
            )
    return Interaction(kind=kind, source=source, target=target, material=material)


def _validate_initial_state(obj: LabObject, path: str) -> None:
    declared = {var.id.split(".", 1)[1]: var for var in obj.all_variables()}
    for local, value in obj.initial_state.items():
        var = declared.get(local)
        if var is None:
            raise ValidationError(f"{path}.initial_state: initial_state assigns undeclared variable {local!r}")
        # A dynamic variable's value is checked after resolution.
        if not var.is_dynamic and value not in var.domain:
            raise ValidationError(f"{path}.initial_state.{local}: initial value {value!r} not in domain of {var.id}")


def parse_inventory(text: str) -> DomainInventory:
    """Parse and validate a serialized inventory document.

    A syntax error reports its line and column, a schema violation its
    ``$.…`` path.  Dynamic domains are kept unresolved; call
    :func:`resolve_dynamic_domains` afterwards.
    """
    try:
        doc = load_json(text)
    except ValueError as exc:  # only a syntax error (a JSONDecodeError) has a line and column
        message = getattr(exc, "msg", str(exc))
        if hasattr(exc, "lineno"):
            message += f" (line {exc.lineno}, column {exc.colno})"
        raise ValidationError(message) from exc
    violation = first_violation("inventory", doc)
    if violation is not None:
        path, message = violation
        raise ValidationError(f"{path}: {message}")
    objects = [_parse_object(item, f"$.objects[{i}]") for i, item in enumerate(doc["objects"])]
    distinct((o.id for o in objects), "object ids in $.objects")
    by_id = {o.id: o for o in objects}
    interactions = tuple(
        _normalize_interaction(by_id, item, f"$.interactions[{i}]")
        for i, item in enumerate(doc.get("interactions", []))
    )
    distinct((inter.canonical_action_id() for inter in interactions), "interactions in $.interactions")
    for i, obj in enumerate(objects):
        _validate_initial_state(obj, f"$.objects[{i}]")
    return DomainInventory(objects=tuple(objects), interactions=interactions)


# ── dynamic-domain resolution ─────────────────────────────────────────────


def _resolved_domain(inv: DomainInventory, var: StateVariable, holder: str) -> StateVariable:
    placed: set[str] = set()
    transferred: set[str] = set()
    for inter in inv.interactions:
        if inter.target != holder:
            continue
        if inter.kind == "move_to_receptor":
            placed.add(inter.source.split(".")[0])
        else:
            assert inter.material is not None
            transferred.add(inter.material)
    values = placed | transferred
    if not values:
        raise ValidationError(
            f"dynamic domain of {var.id} cannot be resolved: no interaction targets {holder!r}"
        )
    kind = "move_to_receptor" if placed else "transfer_material"
    domain = (NONE_VALUE,) + tuple(sorted(values))
    return replace(var, domain=domain, resolved_from=kind)


def resolve_dynamic_domains(inv: DomainInventory) -> DomainInventory:
    """Replace every ``dynamic`` domain with its interaction-derived values.

    A receptor variable's domain becomes ``none`` plus the ids of objects
    movable onto it; a contained-material variable's domain becomes
    ``none`` plus the materials transferable into its holder.  Idempotent.
    """

    def resolve_states(states: tuple[StateVariable, ...], holder: str) -> tuple[StateVariable, ...]:
        return tuple(_resolved_domain(inv, v, holder) if v.is_dynamic else v for v in states)

    objects = []
    for i, obj in enumerate(inv.objects):
        components = tuple(
            replace(c, states=resolve_states(c.states, f"{obj.id}.{c.id}")) for c in obj.components
        )
        new_obj = replace(obj, states=resolve_states(obj.states, obj.id), components=components)
        _validate_initial_state(new_obj, f"$.objects[{i}]")
        objects.append(new_obj)
    return replace(inv, objects=tuple(objects))
