"""The package's one record base: immutable value classes in ``__slots__``.

A record lists its fields as class annotations, in order, and gives a field
a default by assigning it, shared by every instance and so immutable.  The
metaclass turns them into ``__slots__``, the field tuple ``_fields`` and
``_defaults``, and keeps each slot's setter, which a constructor calls
directly.  An instance takes its fields by position or by name, runs
``__post_init__`` (where a spec checks its values), refuses assignment, and
compares, hashes and prints by its fields alone, equal only to a record of
its own class.
"""

from __future__ import annotations


class _RecordType(type):
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = ns["_fields"] = fields
        cls = super().__new__(mcls, name, bases, ns)
        cls._setters = tuple(vars(cls)[f].__set__ for f in fields)
        return cls


class Record(metaclass=_RecordType):
    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            bad = [n for n in kwargs if n not in names or n in given]
            bad += [n for n in names if n not in given and n not in kwargs and n not in self._defaults]
            if len(args) > len(names) or bad:
                raise TypeError(f"{type(self).__name__} takes the fields {names}: {len(args)} positional, "
                                f"unexpected, repeated or missing {bad}")
            given.update(kwargs)
            args = [given[n] if n in given else self._defaults[n] for n in names]
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, *_value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()
