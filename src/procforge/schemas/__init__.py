"""The shipped JSON schemas, each read and compiled once per process."""

from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema


def load_schema(name: str) -> dict:
    text = resources.files(__name__).joinpath(f"{name}.schema.json").read_text("utf-8")
    return json.loads(text)


@functools.cache
def _validator(name: str) -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(load_schema(name))


def first_violation(name: str, doc: object) -> tuple[str, str] | None:
    """``(path, message)`` of the first violation of schema ``name``, or None.

    Violations are ordered by their place in the document, and the path
    is rendered as ``$.objects[0].category``.
    """
    errors = sorted(_validator(name).iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    first = errors[0]
    path = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in first.absolute_path)
    return path, first.message
