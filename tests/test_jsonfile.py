import json
import re

import pytest

from hoicompose.jsonfile import check_fields, int_items, read_json, write_json


def test_write_json_stamps_version_sorts_keys_and_ends_in_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": [1, 2], "a": None})
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ],\n  "schema_version": 1\n}\n'
    write_json(path, {"b": 1.5, "a": "x"}, version=2, indent=None)
    assert path.read_text() == '{"a": "x", "b": 1.5, "schema_version": 2}\n'


@pytest.mark.parametrize("indent", [None, 2])
def test_write_json_writes_the_bytes_json_dump_streams(tmp_path, indent):
    # one json.dumps string, and with indent=None the C encoder: the bytes the
    # streamed json.dump wrote, floats at the edges of repr included
    doc = {"w": [[5e-324, -0.0, 1e16], [[0.1, -2.5e-308], []], 1.7976931348623157e308],
           "n": {"z": [1, -0.0, float("nan"), float("inf")], "a": "h\u00e9\u2028"}, "e": {}}
    path = tmp_path / "doc.json"
    write_json(path, doc, version=3, indent=indent)
    with open(tmp_path / "want.json", "w") as f:
        json.dump({"schema_version": 3, **doc}, f, indent=indent, sort_keys=True)
        f.write("\n")
    assert path.read_bytes() == (tmp_path / "want.json").read_bytes()


def test_read_json_returns_the_document_without_its_version(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": [1.5]}, version=2)
    assert read_json(path, "doc", version=2) == {"a": [1.5]}


@pytest.mark.parametrize("body,version", [
    ({"a": 1}, 1),  # missing
    ({"schema_version": None}, 1),
    ({"schema_version": 2}, 1),
    ({"schema_version": True}, 1),  # == 1 in Python
    ({"schema_version": 1.0}, 1),
    ({"schema_version": "1"}, 1),
    ({"schema_version": 2.0}, 2),
    ({"schema_version": 1}, 2),
])
def test_read_json_takes_only_the_exact_integer_version(tmp_path, body, version):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(body))
    found = body.get("schema_version")
    with pytest.raises(ValueError, match=re.escape(f"unsupported doc schema_version {found!r}; "
                                                   f"this version reads {version}")):
        read_json(path, "doc", version=version)


def test_read_json_missing_ok_reads_a_document_without_version(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1}')
    assert read_json(path, "config", missing_ok=True) == {"a": 1}
    path.write_text('{"a": 1, "schema_version": 3}')
    with pytest.raises(ValueError, match="unsupported config schema_version 3"):
        read_json(path, "config", missing_ok=True)


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "1"])
def test_read_json_needs_an_object(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="doc must hold a JSON object"):
        read_json(path, "doc")


KINDS = {"n": int, "x": float, "flag": bool, "name": str, "ids": list, "sub": dict, "any": None}


def test_check_fields_accepts_each_kind():
    check_fields({"n": 3, "x": 2, "flag": False, "name": "a", "ids": [], "sub": {}, "any": [True, "y"]},
                 KINDS, "doc")
    check_fields({"x": 2.5, "any": None}, KINDS, "doc")
    check_fields({}, KINDS, "doc")


@pytest.mark.parametrize("d,message", [
    ({"m": 1, "z": 2}, "unknown doc fields: ['m', 'z']"),
    ({"n": True}, "doc n must be an integer, got True"),
    ({"n": 2.0}, "doc n must be an integer, got 2.0"),
    ({"n": "5"}, "doc n must be an integer, got '5'"),
    ({"x": True}, "doc x must be a number, got True"),
    ({"x": None}, "doc x must be a number, got None"),
    ({"flag": 1}, "doc flag must be true or false, got 1"),
    ({"name": 3}, "doc name must be a string, got 3"),
    ({"ids": {}}, "doc ids must be a list, got {}"),
    ({"sub": []}, "doc sub must be an object, got []"),
])
def test_check_fields_rejects(d, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check_fields(d, KINDS, "doc")


def test_int_items():
    assert int_items([0, -3, 2**70], "ids") == [0, -3, 2**70]
    for bad in (1.0, True, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"ids must hold integers, got {bad!r}")):
            int_items([0, bad], "ids")
