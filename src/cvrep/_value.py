"""The base of every immutable value type in the package: the circuit ops and the records."""

from numpy import array_equal, ndarray


def _same(a, b) -> bool:
    """Whether two field values are equal: an array by its shape and entries, NaN equal to NaN."""
    if isinstance(a, ndarray):
        return isinstance(b, ndarray) and array_equal(a, b, equal_nan=True)
    return a is b or a == b


class Value:
    """An immutable value: its type and its fields.

    The fields are the class's public ``__slots__``, in constructor order;
    a private slot holds what is derived from them or kept out of the value
    (``__dict__``, for a ``cached_property``).  The subclass's ``__init__``
    runs the type's checks and sets the fields in one ``_set`` call, past
    the ``__setattr__`` that refuses assignment, as the op table's do.
    ``==`` goes by the type and the fields, ``hash`` by the same, so a type
    with an array or a dict field is unhashable, and ``repr`` prints the
    fields, as in ``Qnd(control=1, target=2, gain=0.5)``.  A field can be
    neither assigned nor deleted, and a copy or pickle rebuilds the value
    through its constructor, so its checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _set(self, *values) -> None:
        """Set the fields to ``values``, in ``__slots__`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, self._values(), other._values()))

    def __hash__(self):
        return hash((self.__class__, *self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
