"""The one JSON boundary: decoding text, encoding artifacts, and checking
documents against the shipped JSON schemas, each read and compiled once
per process.

Documents are checked by the small validator below, not by a general
JSON Schema library.  It follows JSON Schema draft 2020-12 for exactly
the keywords the shipped schemas use (:data:`KEYWORDS`), with the
message text of the ``jsonschema`` package (the tests' reference):

- ``type``: ``number`` and ``integer`` exclude ``bool``, and an
  integral float is an ``integer``;
- ``properties``, ``required``, and ``additionalProperties`` as
  ``false`` or a schema;
- ``items`` (schema form), and ``$ref`` to ``#/$defs/<name>``;
- ``enum`` of strings and null;
- ``minItems``, ``minLength``, ``pattern`` (``re.search``),
  ``minimum``, ``maximum`` and ``anyOf``;
- the annotations ``$schema``, ``$id``, ``title``, ``description``,
  ``$comment`` and ``$defs``.

Any other keyword or form raises ``ValueError`` when the schema is
compiled, so a schema is never checked with part of it ignored.
"""

from __future__ import annotations

import functools
import json
import re
from operator import itemgetter
from pathlib import Path
from typing import Callable

SCHEMA_DIR = Path(__file__).parent

# check(instance, path, errors) appends each (path, message) violation.
_Check = Callable[[object, tuple, list], None]

_ANNOTATIONS = frozenset({"$schema", "$id", "title", "description", "$comment", "$defs"})

#: Every keyword the validator supports, the annotations included.
KEYWORDS = _ANNOTATIONS | {
    "type", "properties", "required", "additionalProperties", "items", "$ref", "enum",
    "minItems", "minLength", "pattern", "minimum", "maximum", "anyOf",
}

_TYPES: dict[str, Callable[[object], bool]] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}
_is_number = _TYPES["number"]


def _non_empty_or_short(limit: int) -> str:
    return "should be non-empty" if limit == 1 else "is too short"


def compile_schema(schema: dict) -> Callable[[object], tuple[str, str] | None]:
    """Compile ``schema`` into a function giving a document's first violation.

    The function returns ``(path, message)`` or None.  The first violation
    is the first by place in the document; among violations at one place,
    the first in schema keyword order.  The path is rendered as
    ``$.objects[0].category``.
    """
    def_schemas = schema.get("$defs", {})
    defs: dict[str, _Check] = {}

    def compile_node(node: dict, at: str) -> _Check:
        if not isinstance(node, dict):
            raise ValueError(f"{at}: a schema must be an object, not {node!r}")
        checks = [compile_keyword(key, value, node, f"{at}/{key}") for key, value in node.items()]
        checks = [c for c in checks if c is not None]
        if len(checks) == 1:
            return checks[0]

        def check(x, path, errors):
            for c in checks:
                c(x, path, errors)

        return check

    def compile_keyword(key: str, value, node: dict, at: str) -> _Check | None:
        if key not in KEYWORDS:
            raise ValueError(f"{at}: unsupported schema keyword {key!r}")
        if key in _ANNOTATIONS:
            return None
        if key == "type":
            names = [value] if isinstance(value, str) else list(value)
            unknown = [n for n in names if n not in _TYPES]
            if unknown:
                raise ValueError(f"{at}: unknown type {unknown[0]!r}")
            preds = [_TYPES[n] for n in names]
            expected = ", ".join(repr(n) for n in names)

            def check(x, path, errors):
                if not any(p(x) for p in preds):
                    errors.append((path, f"{x!r} is not of type {expected}"))

        elif key == "properties":
            props = [(name, compile_node(sub, f"{at}/{name}")) for name, sub in value.items()]

            def check(x, path, errors):
                if isinstance(x, dict):
                    for name, sub in props:
                        if name in x:
                            sub(x[name], path + (name,), errors)

        elif key == "required":

            def check(x, path, errors):
                if isinstance(x, dict):
                    for name in value:
                        if name not in x:
                            errors.append((path, f"{name!r} is a required property"))

        elif key == "additionalProperties":
            declared = node.get("properties", {})
            if value is False:

                def check(x, path, errors):
                    if isinstance(x, dict):
                        extras = sorted((k for k in x if k not in declared), key=str)
                        if extras:
                            verb = "was" if len(extras) == 1 else "were"
                            listed = ", ".join(repr(k) for k in extras)
                            errors.append(
                                (path, f"Additional properties are not allowed ({listed} {verb} unexpected)")
                            )

            else:  # a schema; ``true`` fails here, since leaving the keyword out means the same
                extra = compile_node(value, at)

                def check(x, path, errors):
                    if isinstance(x, dict):
                        for k, v in x.items():
                            if k not in declared:
                                extra(v, path + (k,), errors)

        elif key == "items":
            item = compile_node(value, at)

            def check(x, path, errors):
                if isinstance(x, list):
                    for i, v in enumerate(x):
                        item(v, path + (i,), errors)

        elif key == "$ref":
            name = value.removeprefix("#/$defs/")
            if name == value or name not in def_schemas:
                raise ValueError(f"{at}: unsupported $ref {value!r}")

            def check(x, path, errors):
                defs[name](x, path, errors)

        elif key == "enum":
            if not isinstance(value, list) or not all(v is None or isinstance(v, str) for v in value):
                raise ValueError(f"{at}: enum must list strings or null, not {value!r}")

            def check(x, path, errors):  # ``in`` is JSON equality for strings and null
                if x not in value:
                    errors.append((path, f"{x!r} is not one of {value!r}"))

        elif key == "minItems":

            def check(x, path, errors):
                if isinstance(x, list) and len(x) < value:
                    errors.append((path, f"{x!r} {_non_empty_or_short(value)}"))

        elif key == "minLength":

            def check(x, path, errors):
                if isinstance(x, str) and len(x) < value:
                    errors.append((path, f"{x!r} {_non_empty_or_short(value)}"))

        elif key == "pattern":
            regex = re.compile(value)

            def check(x, path, errors):
                if isinstance(x, str) and not regex.search(x):
                    errors.append((path, f"{x!r} does not match {value!r}"))

        elif key == "minimum":

            def check(x, path, errors):
                if _is_number(x) and x < value:
                    errors.append((path, f"{x!r} is less than the minimum of {value!r}"))

        elif key == "maximum":

            def check(x, path, errors):
                if _is_number(x) and x > value:
                    errors.append((path, f"{x!r} is greater than the maximum of {value!r}"))

        else:  # anyOf
            options = [compile_node(sub, f"{at}/{i}") for i, sub in enumerate(value)]

            def passes(c, x):
                found: list = []
                c(x, (), found)
                return not found

            def check(x, path, errors):
                if not any(passes(c, x) for c in options):
                    errors.append((path, f"{x!r} is not valid under any of the given schemas"))

        return check

    for name, sub in def_schemas.items():
        defs[name] = compile_node(sub, f"#/$defs/{name}")
    root = compile_node(schema, "#")

    def first(doc: object) -> tuple[str, str] | None:
        errors: list[tuple[tuple, str]] = []
        root(doc, (), errors)
        if not errors:
            return None
        path, message = min(errors, key=itemgetter(0))
        return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path), message

    return first


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        raise ValueError(f"repeated key {next(key for key, _ in pairs if key in seen or seen.add(key))!r}")
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json(text: str) -> object:
    """The JSON document in ``text``.  It fails with ``ValueError`` on a syntax error or a leading BOM
    (a ``JSONDecodeError``), on an object that repeats a key and on nesting deeper than the recursion limit."""
    if text.startswith("\ufeff"):  # as ``json.loads`` rejects it; ``decode`` would not say why
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError("nested too deeply") from exc


def dump_json(doc: object) -> str:
    """The one canonical text of a JSON artifact."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_schema(name: str) -> dict:
    return load_json((SCHEMA_DIR / f"{name}.schema.json").read_text("utf-8"))


@functools.cache
def _validator(name: str) -> Callable[[object], tuple[str, str] | None]:
    return compile_schema(load_schema(name))


def first_violation(name: str, doc: object) -> tuple[str, str] | None:
    """``(path, message)`` of the first violation of schema ``name``, or None.

    Violations are ordered by their place in the document, ties by schema
    keyword order, and the path is rendered as ``$.objects[0].category``.
    """
    return _validator(name)(doc)
