"""`nmk_sim.validator` against jsonschema, the reference it copies.

The differential corpus is fixed and deterministic: the shipped configs and
the seed-0 benchmark workload documents, each as it is and with every
scalar leaf set to each of `VALUES`, every object member deleted, and one
unknown key added to every object.  A workload document is edited only at
the paths no shipped config has, which keeps the corpus at about 2,800
documents.  On each document the validator must report the
(path, message) of jsonschema's `best_match`, or nothing where jsonschema
finds nothing.  Written against jsonschema 4.26.0; the corpus runs in about
2.5 s on a 2-vCPU x86 guest.
"""

import copy
import glob
import importlib.util
import json
import os

import jsonschema
import pytest

from nmk_sim import validator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VALUES = [True, False, None, 0, 1, -1, 2, 64, 0.0, 1.5, -0.5, 1e300, -1e300,
          float("inf"), float("-inf"), float("nan"), "", "x", "sigma_x",
          "coherent", "single_photon", [], [1.0], [[1.0]], {},
          {"re": [[1.0]]}]


def _workload_documents():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.make_config(name, 0)[1]
            for name in sorted(workloads.WORKLOADS)]


def _nodes(doc, path=()):
    yield path, doc
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _edited(doc, path, value=None, delete=False):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _edits(base, skip=frozenset()):
    """`base`, then its edits at every path not in `skip`."""
    yield base
    for path, node in _nodes(base):
        if path in skip:
            continue
        if isinstance(node, dict):
            yield _edited(base, (*path, "unknown_key"), 1)
        elif not isinstance(node, list):
            for value in VALUES:
                yield _edited(base, path, value)
        if path and isinstance(path[-1], str):
            yield _edited(base, path, delete=True)


def _corpus():
    configs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path) as fh:
            configs.append(json.load(fh))
    for base in configs:
        yield from _edits(base)
    edited = {path for base in configs for path, _ in _nodes(base)}
    for base in _workload_documents():
        yield from _edits(base, skip=edited)


def _reference(schema, doc):
    ref = jsonschema.validators.validator_for(schema)(schema)
    err = jsonschema.exceptions.best_match(ref.iter_errors(doc))
    return None if err is None else (list(err.absolute_path), err.message)


def test_shipped_schema_verdicts_match_jsonschema():
    schema = validator.shipped().schema
    ref = jsonschema.validators.validator_for(schema)(schema)
    count = valid = 0
    for doc in _corpus():
        err = jsonschema.exceptions.best_match(ref.iter_errors(doc))
        want = None if err is None else (list(err.absolute_path), err.message)
        assert validator.shipped().best_error(doc) == want, doc
        count += 1
        valid += want is None
    # the corpus reaches both verdicts
    assert count > 2500 and 500 < valid < count - 1000


@pytest.mark.parametrize("schema, doc", [
    ({"enum": [1, [1], {"a": 1}]}, True),
    ({"enum": [1, [1], {"a": 1}]}, [True]),
    ({"enum": [1, [1], {"a": 1}]}, {"a": True}),
    ({"enum": [1, [1], {"a": 1}]}, 1.0),
    ({"const": 1}, True),
    ({"const": False}, 0),
    ({"type": "integer"}, 2.0),
    ({"type": "integer"}, 2.5),
    ({"type": "number"}, False),
    ({"type": "object"}, []),
    ({"type": "array"}, {}),
    ({"minimum": 0}, float("-inf")),
    ({"exclusiveMinimum": 0}, float("nan")),
    ({"minItems": 2}, [1]),
    ({"minProperties": 2}, {"a": 1}),
    ({"additionalProperties": False, "properties": {"a": {}}},
     {"b": 1, "a": 1, "c": 2}),
    ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, 3),
    ({"oneOf": [{"type": "number"},
                {"type": "array", "items": {"type": "number"}}]}, [1, "a"]),
    ({"oneOf": [{"required": ["a"]}, {"required": ["b"]}]}, {}),
    ({"allOf": [{"if": {"properties": {"k": {"const": 1}}},
                 "then": {"required": ["v"]}}]}, {"k": 1}),
], ids=lambda v: json.dumps(v, allow_nan=True)[:40])
def test_hand_schema_verdicts_match_jsonschema(schema, doc):
    assert validator.Validator(schema).best_error(doc) == _reference(schema, doc)


@pytest.mark.parametrize("schema", [
    {"type": "array", "maxItems": 3},
    {"properties": {"a": {"pattern": "^x"}}},
    {"oneOf": [{"type": "number"}, {"not": {}}]},
    {"$ref": "#/$defs/missing", "$defs": {}},
    {"$ref": "https://example.org/schema"},
    {"additionalProperties": {"type": "number"}},
    {"type": "string"},
    {"type": ["number", "array"]},
    {"items": True},
], ids=["maxItems", "nested-pattern", "not-in-oneOf", "missing-def",
        "remote-ref", "additionalProperties-schema", "unused-type", "type-list",
        "boolean-schema"])
def test_unsupported_schema_is_refused_at_load(schema):
    with pytest.raises(ValueError, match="at #"):
        validator.Validator(schema)


def test_shipped_schema_with_a_new_keyword_is_refused():
    schema = copy.deepcopy(validator.shipped().schema)
    schema["$defs"]["kernel"]["properties"]["phase_poly"]["maxItems"] = 8
    with pytest.raises(ValueError, match="'maxItems' at #/\\$defs/kernel"):
        validator.Validator(schema)
