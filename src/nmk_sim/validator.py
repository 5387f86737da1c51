"""Validation of experiment documents against the package's ``schema.json``.

A JSON Schema (draft 2020-12) validator for exactly the keywords the
shipped schema uses: ``type`` (``object``, ``array``, ``number`` or
``integer``), ``enum``, ``const``, ``required``,
``properties``, ``additionalProperties: false``, ``items``, ``minItems``,
``minProperties``, ``minimum``, ``exclusiveMinimum``, ``$ref`` (to
``#/$defs/...``), ``allOf``, ``if``/``then`` and ``oneOf``.  The annotations
``$schema``, ``title`` and ``default`` are ignored, and any other keyword is
refused when the schema is loaded, so a schema edit is never silently
ignored.  Verdicts, messages and the one error reported copy jsonschema
4.26: a bool is not a number, an integral float is an integer, ``True``
does not equal ``1``, NaN and infinities pass the numeric bounds, and
`Validator.best_error` picks the error its ``best_match`` picks.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from importlib import resources


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int)
                                            or x.is_integer()),
}


def _equal(a, b):
    """JSON equality: a bool equals only itself, at any depth."""
    if a is b:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return len(a) == len(b) and all(k in b and _equal(v, b[k])
                                        for k, v in a.items())
    return a == b


def _messages(kw, v, x, schema):
    """Messages of the failures of the leaf keyword `kw` with value `v` at
    the instance `x`, in jsonschema's order."""
    if kw == "type" and not _TYPES[v](x):
        return [f"{x!r} is not of type {v!r}"]
    if kw == "enum" and not any(_equal(e, x) for e in v):
        return [f"{x!r} is not one of {v!r}"]
    if kw == "const" and not _equal(x, v):
        return [f"{v!r} was expected"]
    if kw == "required" and isinstance(x, dict):
        return [f"{p!r} is a required property" for p in v if p not in x]
    if kw == "additionalProperties" and isinstance(x, dict):
        extra = sorted(set(x) - set(schema.get("properties", {})), key=str)
        if extra:
            return [f"Additional properties are not allowed "
                    f"({', '.join(map(repr, extra))} "
                    f"{'was' if len(extra) == 1 else 'were'} unexpected)"]
    if kw == "minItems" and isinstance(x, list) and len(x) < v:
        return [f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}"]
    if kw == "minProperties" and isinstance(x, dict) and len(x) < v:
        return [f"{x!r} " + ("should be non-empty" if v == 1
                             else "does not have enough properties")]
    if kw == "minimum" and _is_number(x) and x < v:
        return [f"{x!r} is less than the minimum of {v!r}"]
    if kw == "exclusiveMinimum" and _is_number(x) and x <= v:
        return [f"{x!r} is less than or equal to the minimum of {v!r}"]
    return []


_LEAVES = ("type", "enum", "const", "required", "additionalProperties",
           "minItems", "minProperties", "minimum", "exclusiveMinimum")
_APPLICATORS = ("properties", "items", "$ref", "allOf", "if", "oneOf")
_IGNORED = ("$schema", "title", "default")

# `path` is relative to the instance the error's parent validated
_Error = namedtuple("_Error", "path keyword schema instance message context")


def _relevance(err):
    """jsonschema's `relevance` key: the largest is the best match."""
    matches_type = "type" in err.schema and _TYPES[err.schema["type"]](
        err.instance)
    return (-len(err.path), err.path, err.keyword != "oneOf", not matches_type)


def _under(key, errors):
    for err in errors:
        yield err._replace(path=(key, *err.path))


class Validator:
    """Validator of one schema, whose keywords are checked when it is built."""

    def __init__(self, schema):
        self.schema = schema
        self._check(schema, "#")

    def _check(self, schema, where):
        if not isinstance(schema, dict):
            raise ValueError(f"schema at {where} is not an object")
        for kw, v in schema.items():
            at = f"{where}/{kw}"
            if kw in ("properties", "$defs"):
                for name, sub in v.items():
                    self._check(sub, f"{at}/{name}")
            elif kw in ("allOf", "oneOf"):
                for i, sub in enumerate(v):
                    self._check(sub, f"{at}/{i}")
            elif kw in ("items", "if", "then"):
                self._check(v, at)
            elif kw not in _LEAVES and kw not in _APPLICATORS + _IGNORED:
                raise ValueError(f"unsupported schema keyword {kw!r} at {at}")
            elif kw == "$ref" and not (v.startswith("#/$defs/") and v[8:]
                                       in self.schema.get("$defs", {})):
                raise ValueError(f"unresolvable $ref {v!r} at {at}")
            elif kw == "additionalProperties" and v is not False:
                raise ValueError(
                    f"additionalProperties other than false at {at}")
            elif kw == "type" and not (isinstance(v, str) and v in _TYPES):
                raise ValueError(f"type {v!r} other than {', '.join(_TYPES)} "
                                 f"at {at}")

    def _errors(self, schema, x):
        """jsonschema's `iter_errors` of `x` under `schema`, in its order."""
        for kw, v in schema.items():
            if kw in _LEAVES:
                for message in _messages(kw, v, x, schema):
                    yield _Error((), kw, schema, x, message, [])
            elif kw == "properties" and isinstance(x, dict):
                for key, sub in v.items():
                    if key in x:
                        yield from _under(key, self._errors(sub, x[key]))
            elif kw == "items" and isinstance(x, list):
                for i, item in enumerate(x):
                    yield from _under(i, self._errors(v, item))
            elif kw == "$ref":
                yield from self._errors(self.schema["$defs"][v[8:]], x)
            elif kw == "allOf":
                for sub in v:
                    yield from self._errors(sub, x)
            elif kw == "if":
                if "then" in schema and self._valid(v, x):
                    yield from self._errors(schema["then"], x)
            elif kw == "oneOf":
                yield from self._one_of(v, x, schema)

    def _valid(self, schema, x):
        return next(self._errors(schema, x), None) is None

    def _one_of(self, subs, x, schema):
        context = []
        for i, sub in enumerate(subs):
            errors = list(self._errors(sub, x))
            if not errors:
                more = [s for s in subs[i + 1:] if self._valid(s, x)]
                if more:
                    reprs = ", ".join(map(repr, [*more, sub]))
                    yield _Error((), "oneOf", schema, x,
                                 f"{x!r} is valid under each of {reprs}", [])
                return
            context += errors
        yield _Error((), "oneOf", schema, x,
                     f"{x!r} is not valid under any of the given schemas",
                     context)

    def best_error(self, instance):
        """(path, message) of jsonschema's `best_match`, or None if valid.

        The most relevant error wins, the first of equals; from a ``oneOf``
        error it descends into the least relevant error of its context,
        unless the two least relevant tie."""
        best = max(self._errors(self.schema, instance), key=_relevance,
                   default=None)
        if best is None:
            return None
        path = best.path
        while best.context:
            first = sorted(best.context, key=_relevance)[:2]
            if len(first) == 2 and _relevance(first[0]) == _relevance(first[1]):
                break
            best = first[0]
            path += best.path
        return list(path), best.message


@cache
def shipped() -> Validator:
    """The validator of the package's ``schema.json``, built once."""
    with resources.files(__package__).joinpath("schema.json").open() as fh:
        return Validator(json.load(fh))
