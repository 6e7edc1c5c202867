"""The value contract shared by the library's small value classes.

Each value class lists its fields in ``__slots__``, in constructor order,
and its own ``__init__`` validates them and sets each once through
``object.__setattr__``.  This base derives the rest from the slots: a value
is its class plus its fields, so two instances are equal when they share a
class and their field tuples are equal, the hash is the hash of the field
tuple, and the repr is the keyword form ``Name(field=value, ...)``.  It
refuses later writes, and lets ``pickle`` and ``copy`` rebuild an instance
through its constructor.  ``OrderedPartition`` keeps a positional repr, and
``ContingencyMatrix``, whose identity is its rows alone, writes its own
``==``, hash, repr and reduce.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # _fields(value) is the field tuple, read by one attrgetter per class
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            # attrgetter of one name returns the bare value, not a 1-tuple
            cls._fields = staticmethod(lambda value: (get(value),))
        else:
            cls._fields = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        values = self._fields(self)
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, values)
        )
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of immutable {type(self).__name__}"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of immutable {type(self).__name__}"
        )

    def __reduce__(self):
        return type(self), self._fields(self)
