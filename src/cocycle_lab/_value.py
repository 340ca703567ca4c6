"""Base of the package's value classes.

A subclass names its constructor fields, in order, in ``_fields``, and the
defaults of the optional ones in ``_defaults``.  ``Value.__init__`` binds
positional and keyword arguments to those fields, sets them, and then runs
the ``_check`` hook, which a subclass overrides to validate its fields or to
set derived ones (with ``object.__setattr__``).  ``Value`` compares, hashes
and prints an instance by its fields, and refuses any later assignment or
deletion.  ``functools.cached_property`` still works on a subclass without
``__slots__``: it writes the instance ``__dict__`` directly.  Classes built
in bulk (``KNumber``, ``Poly``, one ``CaseLeaf`` and ``Branch`` per case
leaf) keep a constructor of their own, and those also compared in bulk
define their own ``__eq__`` and ``__hash__`` over an explicit field tuple.

The module also defines the engine's three outcome types.  None derives
from another, and any other exception the engine raises is a fault.
"""


class InputError(Exception):
    """A defect of the input itself (the CLI exits 1)."""


class Unsupported(Exception):
    """A valid input that a construction or the rule asked for does not
    support (the CLI exits 2, undecided)."""


class BudgetExceeded(Exception):
    """A case tree outgrew its case budget (the CLI exits 2, undecided)."""

    def __init__(self, budget):
        super().__init__(f"case budget of {budget} leaves exceeded")
        self.budget = budget


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
