"""``Value``, the one base class of the package's immutable records."""


class Value:
    """An immutable record whose fields are its instance attributes, in the
    order ``__init__`` sets them through ``__dict__``.  It equals only an
    instance of the same class with equal fields and hashes by them;
    assigning or deleting a field raises AttributeError.  A plain class,
    because the standard library's record decorator imports ``inspect`` and
    its dependencies, a noticeable share of a short process's start-up.

    A subclass declares its fields as class annotations.  One that checks or
    normalises its arguments writes its own ``__init__``, which ends in one
    ``self.__dict__.update(...)``; any other takes the fields positionally."""

    def __init__(self, *values):
        fields = self.__annotations__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(values)}")
        self.__dict__.update(zip(fields, values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
