"""One value idiom for the package's immutable types.

A value type is a frozen dataclass, declared with ``eq=False`` so that
``@dataclass`` keeps the methods of ``Value``, whose init fields hold floats,
ints, enums, read-only float arrays or tuples of these.  ``==`` compares the
fields, arrays by value, and the hash agrees with it, -0.0 and 0.0 included.
``to_dict`` keys the fields by name, writing arrays and tuples as lists and
enums as their value; ``from_dict(d)`` is ``cls(**d)``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import fields

import numpy as np


def frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


def _plain(v):
    """A field value as JSON-ready lists and scalars."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


def _key(v):
    """A hashable stand-in for a field value that is equal exactly when the
    values are: an array by its shape and bytes, with + 0.0 turning -0.0
    into 0.0 (the types hold no NaN)."""
    if isinstance(v, np.ndarray):
        return v.shape, (v + 0.0).tobytes()
    if isinstance(v, tuple):
        return tuple(map(_key, v))
    return v


class Value:
    def _values(self) -> tuple:
        return tuple((f.name, getattr(self, f.name))
                     for f in fields(self) if f.init)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _key(self._values()) == _key(other._values())

    def __hash__(self):
        return hash(_key(self._values()))

    def to_dict(self) -> dict:
        return {name: _plain(v) for name, v in self._values()}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str):
        return cls.from_dict(json.loads(s))
