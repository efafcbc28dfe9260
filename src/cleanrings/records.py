"""The base of every record in the package; it imports nothing, so any layer can use it."""


class _Value:
    """An immutable record, as a frozen dataclass is, but built without code
    generation. Its fields are the names its class bodies annotate, bases
    first; a class attribute of that name is the default. It equals only a
    record of its own class, and hashes and prints by its fields; the hash is
    kept on the record, so a memo keyed by nested specs hashes each once. A
    record that compares and hashes by fewer fields overrides _values."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = vars(cls).get("__annotations__", {})
        cls._fields = (*cls._fields, *(name for name in own if name not in cls._fields))

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs or hasattr(cls, name):
                values[name] = kwargs.pop(name) if name in kwargs else getattr(cls, name)
        if len(args) > len(names) or kwargs or len(values) < len(names):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks the fields; a record that has conditions overrides it."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash(self._values())
        return self.__dict__["_hash"]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
