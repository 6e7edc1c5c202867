"""The immutability shared by the library's small value classes.

Each value class lists its fields in ``__slots__``, in constructor order,
and its own ``__init__`` validates them and sets each once through
``object.__setattr__``; it writes its own ``__eq__``, ``__hash__`` and
``__repr__``.  This base only refuses later writes and lets ``pickle`` and
``copy`` rebuild an instance through its constructor.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))
