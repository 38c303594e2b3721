"""One JSON codec for the frozen dataclasses that are persisted or keyed on.

Metrics, failures and events are written to the result cache, the sweep
journal and the event log as JSON, and configs are hashed into cache keys
in the same form.  :class:`Codec` gives a dataclass its
``to_dict``/``from_dict`` pair, driven by ``dataclasses.fields`` and
the resolved annotations (worked out once per class).

Encoding, by value:

* fields in declaration order;
* enums by ``.value``;
* tuples and lists as lists, sets and frozensets as sorted lists, paths as
  ``str``, dicts key by key;
* anything with its own ``to_dict`` through it: nested codec classes, and
  the classes with a form of their own (``Program``'s address/value pairs,
  ``Instruction``'s compact form).

Decoding, by annotation:

* an unknown key is ignored and an absent defaulted field takes the
  dataclass default — an old reader parses a newer writer's message;
* an absent required field raises ``KeyError``;
* ``None`` stays ``None``; enums, ``from_dict`` classes, and tuples,
  frozensets and dicts of plain values are rebuilt; everything else is
  taken as it is.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from pathlib import PurePath
from typing import Callable

#: JSON's own scalar types: values of exactly these encode as they are.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def encode(value: object) -> object:
    """The JSON-ready form of one field value (see the module docstring)."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        if _PLAIN.issuperset(map(type, value)):
            return list(value)
        return [encode(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(encode(item) for item in value)
    if isinstance(value, dict):
        if _PLAIN.issuperset(map(type, value.values())):
            return dict(value)
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, PurePath):
        return str(value)
    raise TypeError(f"cannot encode {type(value).__name__}")


def _decoder(hint: object) -> Callable[[object], object] | None:
    """How to rebuild a JSON value as ``hint``; ``None`` takes it as it is."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        arms = [arm for arm in typing.get_args(hint) if arm is not type(None)]
        decoders = [d for d in map(_decoder, arms) if d is not None]
        if len(decoders) > 1:
            raise TypeError(f"ambiguous union {hint}")
        return decoders[0] if decoders else None
    if origin in (tuple, frozenset, dict):
        if any(_decoder(arg) for arg in typing.get_args(hint) if arg is not Ellipsis):
            raise TypeError(f"cannot decode {hint}")
        return origin
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint
    if hasattr(hint, "from_dict"):
        return hint.from_dict
    return None


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Callable | None, bool], ...]:
    """Per field of ``cls``: (name, decoder, required)."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            _decoder(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


class Codec:
    """Mixin giving a dataclass the field-driven ``to_dict``/``from_dict``."""

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {name: encode(getattr(self, name)) for name, _, _ in _plan(type(self))}

    @classmethod
    def from_dict(cls, payload: dict):
        kwargs = {}
        for name, decode, required in _plan(cls):
            if name in payload:
                value = payload[name]
                kwargs[name] = value if value is None or decode is None else decode(value)
            elif required:
                raise KeyError(name)
        return cls(**kwargs)
