"""Flat ``key = value`` text and the one reader of its values.

A key is declared once: as a typed field, with its default, on the dataclass
that holds it. :func:`read_fields` reads the keys of a dataclass and
:func:`read_value` one key. The field's type hint is the whole contract of
its key: how many tokens it takes, how each is read and what range it must
lie in.

* ``int``, ``float``, ``str``, ``bool`` (``true``, ``false``, ``1`` or
  ``0``), and a class with a ``parse(text)`` constructor, whose one token
  names a file path or a packaged data file: exactly one token;
* ``Literal["a", "b"]``: one token, one of the listed words;
* ``tuple[float, float]`` and the like: one token per entry;
  ``tuple[int, ...]``: one or more;
* ``frozenset[Literal[...]]``: a set of flags, zero or more words;
* ``Annotated[T, bound]``: as ``T``, and the value must meet ``bound``, one
  of the names in ``_BOUNDS`` (``Count``, ``Size``, ``NonNegative`` and
  ``Positive`` are of this form);
* ``X | None``: as ``X``; None is only ever a default.

An ``int`` or ``float`` token is an ASCII numeral with no ``_`` (see
:func:`numeral`), and a float must be finite. A value that breaks any of
this raises :class:`ConfigError`.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import types
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError, FormatError

# bound name -> whether a value meets it
_BOUNDS = {
    "at least 0": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
    "exactly 1": lambda v: v == 1,
    "above 0": lambda v: v > 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [-pi, pi]": lambda v: -math.pi <= v <= math.pi,
}
Count = Annotated[int, "at least 0"]
Size = Annotated[int, "at least 1"]
NonNegative = Annotated[float, "at least 0"]
Positive = Annotated[float, "above 0"]


def packaged_text(name: str) -> str:
    ref = importlib.resources.files("pillarseg.data").joinpath(name)
    if not ref.is_file():
        raise ConfigError(f"no packaged data file named {name!r}")
    return ref.read_text()


def resolve_text(value: str) -> str:
    """File contents of a path, falling back to a packaged data file name."""
    p = Path(value)
    if p.is_file():
        return p.read_text()
    return packaged_text(value)


def parse_flat(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value.split()
    return out


def numeral(token: str) -> str:
    """``token`` if it may be read as a number: ``int`` and ``float`` also
    take digit separators (``1_0``) and non-ASCII digits (``٣``), which no
    text format here does. Raises ``ValueError`` otherwise."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII numeral: {token!r}")
    return token


def read_fields(cls, values: dict[str, list[str]], **given):
    """An instance of dataclass ``cls`` from the ``given`` fields and, for each
    other field, the entry of ``values`` under its key (the field name, or its
    ``key`` metadata), which is removed from ``values``. A field with no entry
    keeps its default; one with no default is an error."""
    hints = _type_hints(cls)
    read = {}
    for f in fields(cls):
        if not f.init or f.name in given:
            continue
        key = f.metadata.get("key", f.name)
        if key in values:
            read[f.name] = read_value(key, values.pop(key), hints[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"no value for key {key!r}")
    return cls(**given, **read)


@functools.cache
def _type_hints(cls) -> dict:
    return get_type_hints(cls, include_extras=True)


def read_value(key: str, tokens: list[str], hint):
    """The value of ``key`` from its tokens, by the type hint of its field."""
    if get_origin(hint) in (Union, types.UnionType):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is frozenset:
        return frozenset(_read_token(key, token, get_args(hint)[0]) for token in tokens)
    items = get_args(hint) if get_origin(hint) is tuple else None
    if items is None:
        items, want = (hint,), "1 value"
    elif items[-1] is Ellipsis:
        items, want = items[:1] * max(1, len(tokens)), "one or more values"
    else:
        want = f"{len(items)} values"
    if len(tokens) != len(items):
        raise ConfigError(f"key {key!r} takes {want}, got {len(tokens)}: {tokens}")
    values = tuple(_read_token(key, token, item) for token, item in zip(tokens, items))
    return values if get_origin(hint) is tuple else values[0]


def _read_token(key: str, token: str, hint):
    bound = None
    if get_origin(hint) is Annotated:
        hint, bound = get_args(hint)
    if get_origin(hint) is Literal:
        if token not in get_args(hint):
            raise ConfigError(f"key {key!r} takes one of {' '.join(get_args(hint))}, got {token!r}")
        return token
    try:
        if hint is bool:
            value = {"true": True, "1": True, "false": False, "0": False}[token.lower()]
        elif hasattr(hint, "parse"):
            value = hint.parse(resolve_text(token))
        else:
            value = hint(numeral(token) if hint in (int, float) else token)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for key {key!r}: {token!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {token!r}")
    if bound is not None and not _BOUNDS[bound](value):
        raise ConfigError(f"{key} must be {bound}, got {value}")
    return value
