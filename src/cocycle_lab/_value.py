"""Base of the package's value classes.

A subclass names its constructor fields, in order, in ``_fields``, and the
defaults of the optional ones in ``_defaults``.  ``Value.__init__`` binds
positional and keyword arguments to those fields, sets them, and then runs
the ``_check`` hook, which a subclass overrides to validate its fields or to
set derived ones (with ``object.__setattr__``).  ``Value`` compares, hashes
and prints an instance by its fields, and refuses any later assignment or
deletion.  ``functools.cached_property`` still works on a subclass without
``__slots__``: it writes the instance ``__dict__`` directly.  Classes built
in bulk keep a constructor of their own and define their own ``__eq__`` and
``__hash__`` over an explicit field tuple.
"""


class Value:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        if len(args) != len(self._fields) or kwargs:
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self._check()

    def _bind(self, args, kwargs):
        """The field values in order: args, then each remaining field from
        kwargs or its default."""
        cls = self.__class__.__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{cls} takes {len(self._fields)} arguments, got {len(args)}")
        out = list(args)
        for name in self._fields[len(args):]:
            if name in kwargs:
                out.append(kwargs.pop(name))
            elif name in self._defaults:
                out.append(self._defaults[name])
            else:
                raise TypeError(f"{cls} is missing the argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls} got unexpected or repeated arguments {sorted(kwargs)}")
        return out

    def _check(self):
        """Validate the fields or set derived ones; nothing by default."""

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
