"""Immutable records: the value classes' shared behavior, written once.

A record class names its fields, in order, in ``_fields``, and the
defaults of its trailing fields, if any, in ``_defaults``. ``Record``
derives everything else from those two, as a frozen dataclass would:

* the constructor takes the fields by position or keyword, stores
  them and ends with ``self.__post_init__()``, the certification step
  (a no-op unless the class defines one);
* ``_trusted(*values)`` stores the fields without certifying, for
  callers that already know the values to be lawful;
* setting or deleting an attribute raises AttributeError (cached
  properties write to ``__dict__`` directly and are unaffected);
* two records are equal when they are of the same class and their
  fields are equal, and the hash is that of the tuple of fields;
* the repr is ``Name(field=value, ...)``.

Nothing is generated from source. The dataclass decorator compiles
six methods per class with ``exec``, and that cost comes back in every
fresh process, since generated code is not kept in the ``.pyc``.
"""


# one object.__setattr__ per field: writing them all through
# self.__dict__.update makes CPython build the instance dict up front,
# and every later field read is then slower
_store = object.__setattr__


class Record:
    """Base of the package's immutable value classes; see the module."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _store(self, name, value)
        # looked up per call, so a tracer that wraps __post_init__ on
        # the class sees every certification
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        # The field values for a call with keywords or defaults, bound as
        # a def with one parameter per field, defaults from _defaults.
        fields = cls._fields
        name = cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        for key in kwargs:
            problem = "multiple values for argument" if key in fields else "an unexpected keyword argument"
            raise TypeError(f"{name}() got {problem} {key!r}")
        return values

    def __post_init__(self):
        """Certify the fields; a record that checks nothing keeps this."""

    @classmethod
    def _trusted(cls, *values):
        """A record of ``values``, one per field, stored without running
        ``__post_init__``; each caller says why its values are lawful."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values, strict=True):
            _store(record, name, value)
        return record

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
