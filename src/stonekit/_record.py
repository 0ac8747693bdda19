"""Immutable records: the value classes' shared behavior, written once.

A record class names its fields, in order, in ``_fields`` and writes
out its own ``__init__``: it stores each field with
``object.__setattr__`` and, when the class certifies its contents,
ends with ``self.__post_init__()``. ``Record`` derives everything else
from ``_fields``, as a frozen dataclass would:

* setting or deleting an attribute raises AttributeError (cached
  properties write to ``__dict__`` directly and are unaffected);
* two records are equal when they are of the same class and their
  fields are equal, and the hash is that of the tuple of fields;
* the repr is ``Name(field=value, ...)``.

Nothing is generated from source. The dataclass decorator compiles
six methods per class with ``exec``, and that cost comes back in every
fresh process, since generated code is not kept in the ``.pyc``.
"""


class Record:
    """Base of the package's immutable value classes; see the module."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"
