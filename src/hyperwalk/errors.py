"""Exception hierarchy, and `record`, which builds the package's value classes.

Every error raised on purpose by this package derives from HyperwalkError,
so callers can catch one type at the CLI boundary.  `record` builds from
closures the methods `dataclasses` would compile from source text.
"""

from operator import attrgetter, itemgetter


class HyperwalkError(Exception):
    """Base class for all hyperwalk errors."""


class DomainError(HyperwalkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvariantViolationError(HyperwalkError):
    """Data violates a structural invariant (e.g. point off the hyperboloid)."""


class UsageError(HyperwalkError):
    """An operation was invoked in an unsupported configuration."""


class ConfigError(UsageError):
    """A config file problem; carries the offending key and line number."""

    def __init__(self, message, key=None, line=None):
        where = [f"key '{key}'"] * (key is not None) + [f"line {line}"] * (line is not None)
        super().__init__(message + (f" ({', '.join(where)})" if where else ""))
        self.key, self.line = key, line


class OverflowGuardError(HyperwalkError):
    """A walk passed the radius its geometry resolves: the neighbourhood
    probe's kR past TURN_KR_LIMIT, or validate's hyperboloid step overflowing."""


def record(cls=None, /, *, frozen=True, eq=True):
    """Make cls a value class over the names it annotates (read, never
    evaluated), with the class attributes of those names as defaults, `list`
    for a new list: `__init__` by position or keyword, then `__post_init__`
    (a class's own `__init__` is kept), `__repr__` and, with `eq`, `__eq__`
    of the fields.  Frozen, it hashes by its fields and refuses assignment.
    A tuple subclass holds its fields as items."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq)
    own = vars(cls)
    cls._fields = names = tuple(own.get("__annotations__", ()))
    default = {n: own[n] for n in names if n in own.keys() - own.get("__slots__", ())}
    required, known = frozenset(names) - default.keys(), frozenset(names)

    def values(args, kwargs):
        given = dict(zip(names, args), **kwargs)
        if len(given) < len(args) + len(kwargs) or not required <= given.keys() <= known:
            raise TypeError(f"{cls.__qualname__}() takes ({', '.join(names)}), got {len(args)} "
                            f"positional arguments and {sorted(kwargs)} by keyword")
        return [given[n] if n in given else [] if default[n] is list else default[n] for n in names]

    def __init__(self, *args, **kwargs):
        self.__dict__.update(zip(names, values(args, kwargs)))
        post_init(self)

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({inner})"

    def refuse(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    cls.__repr__ = __repr__
    if issubclass(cls, tuple):
        for i, name in enumerate(names):
            setattr(cls, name, property(itemgetter(i)))
        cls.__new__ = staticmethod(lambda cls, *args, **kw: tuple.__new__(cls, values(args, kw)))
        cls.__getnewargs__ = lambda self: tuple(self)
        return cls
    post_init = getattr(cls, "__post_init__", lambda self: None)
    cls.__init__ = own.get("__init__", __init__)
    if eq:
        fields = attrgetter(*names)
        cls.__eq__ = lambda self, other: (
            fields(self) == fields(other) if type(other) is type(self) else NotImplemented)
        cls.__hash__ = (lambda self: hash(fields(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed; its checks run again."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj._fields}, **changes})
