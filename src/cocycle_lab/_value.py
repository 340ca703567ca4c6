"""Base of the package's value classes.

A subclass names its constructor fields, in order, in ``_fields`` and sets
them in its own ``__init__`` with ``object.__setattr__``.  ``Value`` then
compares, hashes and prints an instance by those fields, and refuses any
later assignment or deletion.  ``functools.cached_property`` still works on
a subclass without ``__slots__``: it writes the instance ``__dict__``
directly.  Classes built in bulk define their own ``__eq__`` and
``__hash__`` over an explicit field tuple.
"""


class Value:
    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
