"""The one JSON document format of the package's files: a JSON object with sorted
keys, a trailing newline and an integer schema_version, which the reader checks
before it returns anything. The field checker reads values as json.load makes
them: true is not an integer and 2.0 is not one either.
"""
from __future__ import annotations

import json

# JSON kind of a field -> how an error names it; a field of kind None takes any value
_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list",
          dict: "an object"}


def write_json(path, doc: dict, version: int = 1, indent: int | None = 2) -> None:
    """Write {"schema_version": version, **doc} to path. A compact document
    (indent=None) is one json.dumps string, which takes the C encoder; an indented
    one is streamed through json.dump, so that the pure-Python encoder's many
    small chunks are never all held at once."""
    doc = {"schema_version": version, **doc}
    with open(path, "w") as f:
        if indent is None:
            f.write(json.dumps(doc, sort_keys=True))
        else:
            json.dump(doc, f, indent=indent, sort_keys=True)
        f.write("\n")


def read_json(path, what: str, version: int = 1, missing_ok: bool = False) -> dict:
    """The JSON object at path without its schema_version, which must be exactly
    the JSON integer version; missing_ok reads a document without one as that
    version."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object")
    found = doc.pop("schema_version", version if missing_ok else None)
    if type(found) is not int or found != version:
        raise ValueError(f"unsupported {what} schema_version {found!r}; this version reads {version}")
    return doc


def check_fields(d: dict, kinds: dict, what: str) -> None:
    """Reject keys of d outside kinds and values of another JSON kind than their
    key's: an int key takes a JSON integer, a float key any number."""
    unknown = d.keys() - kinds.keys()
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    for key, value in d.items():
        kind = kinds[key]
        if kind is not None and (not isinstance(value, (int, float) if kind is float else kind)
                                 or isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{what} {key} must be {_KINDS[kind]}, got {value!r}")


def int_items(values: list, what: str) -> list:
    """values, when every item is a JSON integer (not true, not 2.0)."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} must hold integers, got {x!r}")
    return values


def number_items(values, what: str) -> list:
    """values, when it is a list of JSON numbers only (not true, not "0.5")."""
    if type(values) is not list:
        raise ValueError(f"{what}: not a list")
    if not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{what}: not a number")
    return values
