"""The one JSON document format of the package's files: a JSON object with sorted
keys, a trailing newline and an integer schema_version, which the reader checks
before it returns anything. The field checker reads values as json.load makes
them: true is not an integer and 2.0 is not one either.

A document's arrays are .npy files beside it, named in its "arrays" map with
the sha256 of their bytes. read_array is the package's one .npy reader.
"""
from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

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


def check_array(array, what: str, dtype: np.dtype, shape: tuple) -> None:
    """Raise ValueError naming what unless array is an ndarray of dtype and of
    shape's rank and lengths (None: any length)."""
    if not isinstance(array, np.ndarray):
        raise ValueError(f"{what}: not a .npy array")
    if array.dtype != dtype:
        raise ValueError(f"{what}: dtype {array.dtype.str}, expected {dtype.str}")
    if array.ndim != len(shape):
        raise ValueError(f"{what}: shape {array.shape}, expected rank {len(shape)}")
    if any(want not in (None, got) for got, want in zip(array.shape, shape)):
        raise ValueError(f"{what}: shape {array.shape}, expected {shape}")


def read_array(path, what: str, dtype: np.dtype, shape: tuple, sha256: str | None = None) -> np.ndarray:
    """The check_array-checked array of the .npy file at path, read without
    pickle; with sha256 given, its bytes are hashed once, must match it and are
    loaded from memory. Any failure raises ValueError naming what."""
    try:
        with open(path, "rb") as f:
            source = f if sha256 is None else io.BytesIO(f.read())
            if sha256 is not None and (found := hashlib.sha256(source.getbuffer()).hexdigest()) != sha256:
                raise ValueError(f"sha256 {found}, its document records {sha256}")
            array = np.load(source, allow_pickle=False)
    except (EOFError, OSError, MemoryError, ValueError) as e:  # MemoryError: a header's huge shape
        raise ValueError(f"{what}: {e}") from None
    check_array(array, what, dtype, shape)
    return array


def write_arrays(path, arrays: dict) -> dict:
    """Write arrays, {file name: array}, as .npy files beside the document at
    path; return the document's "arrays" map, {file name: sha256}."""
    digests = {}
    for name, array in arrays.items():
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=False)
        (Path(path).parent / name).write_bytes(buf.getbuffer())
        digests[name] = hashlib.sha256(buf.getbuffer()).hexdigest()
    return digests


def read_arrays(path, digests: dict, shapes: dict) -> dict:
    """The finite float64 arrays, {file name: array}, of shapes {file name:
    shape} beside the document at path, whose "arrays" map is digests."""
    if digests.keys() != shapes.keys():
        raise ValueError(f"arrays names {sorted(digests)}, expected {sorted(shapes)}")
    arrays = {name: read_array(Path(path).parent / name, name, np.dtype("<f8"), shape, digests[name])
              for name, shape in shapes.items()}
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise ValueError(f"{name}: non-finite values")
    return arrays
