"""Typed parsers for the JSON documents the package reads.

A schema is a parser, a callable of (value, dotted path) that returns the
parsed value or raises ConfigError naming the path, or a dict of schemas for
an object that must hold exactly those keys.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import ConfigError


def read_json(path: str, error: type, what: str):
    """``parse_json`` of the file at ``path``; FileNotFoundError if none."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), error, what)


def parse_json(text, error: type, what: str):
    """``text`` (str or bytes) decoded as JSON, or ``error`` naming ``what``
    if it is not UTF-8 JSON within the decoder's nesting and digit limits."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: invalid JSON ({exc})") from None


def typed(ok, expected: str, convert=None):
    """Parser of (value, dotted key): ``convert(value)`` if ``ok(value)``."""
    def parse_value(value, path: str):
        if not ok(value):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return value if convert is None else convert(value)
    return parse_value


def is_int(v) -> bool:  # a JSON integer, so no booleans and no fractions
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:  # NaN is no number here
    return (isinstance(v, float) and v == v
            or is_int(v) and abs(v) <= sys.float_info.max)


INT = typed(is_int, "an integer")
FLOAT = typed(is_number, "a number", float)
BOOL = typed(lambda v: isinstance(v, bool), "true or false")
TEXT = typed(lambda v: isinstance(v, str) and v != "", "a non-empty string")
SEED = typed(lambda v: is_int(v) and v >= 0, "an integer >= 0")
POSITIVE_INT = typed(lambda v: is_int(v) and v >= 1, "an integer >= 1")
FRACTION = typed(lambda v: is_number(v) and 0 <= v <= 1,
                 "a number in [0, 1]", float)
OBJECT = typed(lambda v: isinstance(v, dict), "an object")


def choice(table):
    """Parser of a key of ``table``, a dict or an Enum (by value), to its entry."""
    if isinstance(table, type):
        table = {member.value: member for member in table}
    return typed(lambda v: isinstance(v, str) and v in table,
                 f"one of {tuple(table)}", table.get)


def nullable(item):
    return lambda value, path: None if value is None else item(value, path)


def list_of(item, non_empty: bool = False):
    check = typed(lambda v: isinstance(v, list) and len(v) >= non_empty,
                  "a non-empty list" if non_empty else "a list")
    return lambda value, path: tuple(
        item(v, f"{path}[{i}]") for i, v in enumerate(check(value, path)))


def array(ndim: int):
    """Parser of a non-empty ``ndim``-D array of finite numbers to floats; the
    entries' types are read as a set, as numpy would make a boolean a number."""
    def parse_array(value, path: str) -> np.ndarray:
        try:  # ragged rows or an integer past float range raise here
            arr = np.array(value, dtype=object)
            if (arr.ndim == ndim and arr.size
                    and set(map(type, arr.flat)) <= {int, float}):
                arr = arr.astype(float)
                if np.isfinite(arr).all():
                    return arr
        except (ValueError, OverflowError):
            pass
        raise ConfigError(
            f"{path}: expected a non-empty {ndim}-D array of finite numbers")
    return parse_array


def known_keys(value: dict, keys, path: str) -> None:
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in keys:
            raise ConfigError(f"{prefix}{key}: unknown key")


def parse(value, schema, path: str):
    """``value`` parsed by ``schema``: a parser, or a dict of schemas whose
    keys ``value`` must hold, and no others.  Unknown keys are looked for
    last, so a model whose ``version`` is not 1 is refused for that."""
    if callable(schema):
        return schema(value, path)
    OBJECT(value, path)
    prefix = f"{path}." if path else ""
    parsed = {}
    for key, sub in schema.items():
        if key not in value:
            raise ConfigError(f"{prefix}{key}: missing")
        parsed[key] = parse(value[key], sub, prefix + key)
    known_keys(value, schema, path)
    return parsed


def build(cls, schema: dict):
    """Parser of an object to ``cls(**parse(value, schema, path))``; a
    ConfigError from ``cls`` names the object's path (``document`` at root)."""
    def parse_object(value, path: str):
        fields = parse(value, schema, path)
        try:
            return cls(**fields)
        except ConfigError as exc:
            raise ConfigError(f"{path or 'document'}: {exc}") from None
    return parse_object
