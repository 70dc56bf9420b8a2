"""The frozen record base class.

A record's fields are its class's annotated names, in order; a class
attribute of the same name is the field's default.  Records compare and
hash by their field tuple, show their fields in their repr, and refuse
attribute assignment and deletion.  The behaviour is written once here, in
plain methods, so that importing the package generates and compiles no code
per record type.
"""

from __future__ import annotations

_MISSING = object()


class Record:
    """A frozen record; subclasses annotate their fields and may override
    ``_check``, which the constructor calls once the fields are set."""

    #: the field names, in order (set for each subclass from its annotations)
    _fields = ()
    #: fields that the repr leaves out (large arrays)
    _hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = vars(self)
        values.update(zip(fields, args))
        for name in fields[len(args):]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = getattr(cls, name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{cls.__name__} is missing the field {name!r}")
            values[name] = value
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {sorted(kwargs)}")
        self._check()

    def _check(self):
        """Refuse invalid field values; a record without rules accepts any."""

    def _values(self):
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
