"""Plain record classes whose methods are closures.

``@record()`` reads the fields and defaults of a class from its own
annotations and installs ``__init__`` (positional or keyword arguments, then
``__post_init__``), ``__eq__`` within the class, ``__repr__`` as
``Name(field=value, ...)`` and, with ``frozen=True``, ``__hash__`` (the hash
of the field tuple) and a refusing ``__setattr__``/``__delattr__``; a mutable
record is unhashable.
Every g2hecke command is a fresh process, and generating such methods from
source text at import cost more than building the tables.
"""

from operator import attrgetter

__all__ = ["record", "replace"]


def record(frozen: bool = False):
    def wrap(cls):
        names = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        post_init = getattr(cls, "__post_init__", None)

        # the field tuple behind __eq__ and __hash__, read in C; attrgetter
        # of a single name returns the bare value, so that case is wrapped
        if len(names) > 1:
            values = attrgetter(*names)
        else:
            def values(self):
                return tuple(getattr(self, n) for n in names)

        def bind(args, kwargs):
            given = dict(zip(names, args))
            if len(args) > len(names):
                raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, not {len(args)}")
            for key in kwargs:
                if key not in names or key in given:
                    raise TypeError(f"{cls.__name__}() got an unknown or repeated argument {key!r}")
            given = {**defaults, **given, **kwargs}
            missing = [n for n in names if n not in given]
            if missing:
                raise TypeError(f"{cls.__name__}() missing arguments {missing}")
            return [given[n] for n in names]

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                args = bind(args, kwargs)
            self.__dict__.update(zip(names, args))
            if post_init is not None:
                post_init(self)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __repr__(self):
            inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
            return f"{self.__class__.__qualname__}({inner})"

        def refuse(self, name, value=None):
            raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

        cls._record_fields = names
        cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
        cls.__hash__ = (lambda self: hash(values(self))) if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = refuse
        return cls

    return wrap


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes`` applied; validation runs again."""
    return obj.__class__(**{**{n: getattr(obj, n) for n in obj._record_fields}, **changes})
