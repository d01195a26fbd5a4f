"""Shared exception types, the default resource guard, and the base of
the package's immutable record classes with their lazily computed facts."""

from operator import attrgetter

# Default ceiling for any enumeration (lattice points, cycles, forests).
# Overridable per call and, at the CLI, via --cap / FREIMAN_CAP.
DEFAULT_CAP = 1_000_000


class FreimanError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FreimanError):
    """Malformed input text.  Carries a position when one is known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


class PreconditionError(FreimanError):
    """The input is well-formed but outside an operation's domain,
    e.g. an ideal that is not quasi-equigenerated."""


class ResourceCapError(FreimanError):
    """An enumeration exceeded its configured cap.  Reported, never truncated."""

    def __init__(self, what, cap):
        self.what = what
        self.cap = cap
        super().__init__(f"resource cap exceeded: {what} (cap {cap})")


def effective_cap(cap):
    return DEFAULT_CAP if cap is None else cap


def cap_vertex_pairs(n, cap=None):
    """The facts of a graph on n vertices take memory in its C(n, 2)
    vertex pairs, so more than 8 * cap of them are refused."""
    cap = effective_cap(cap)
    if (pairs := n * (n - 1) // 2) > 8 * cap:
        raise ResourceCapError(f"{pairs} vertex pairs on {n} vertices", cap)


class Record:
    """Base of the immutable value classes.  A subclass declares its fields
    as annotations, in constructor order, defaults last; it gets a plain
    __init__ that stores them and calls __post_init__ if there is one.
    Records compare and hash by their field tuple within one class, refuse
    assignment, and keep a __dict__ that holds the values of their lazy
    attributes."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*fields)
        # built once per class, so construction costs what a hand-written
        # __init__ does
        lines = [f"def __init__(self, {', '.join(fields)}):", "    d = self.__dict__"]
        lines += [f"    d[{f!r}] = {f}" for f in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        scope = {}
        exec("\n".join(lines), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__defaults__ = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)

    @classmethod
    def _trusted(cls, *values, **facts):
        """Internal constructor for field values already known to be valid,
        given in field order, with any lazy facts the caller already holds;
        skips __post_init__."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values), **facts)
        return record

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class lazy:
    """A fact computed on first access and stored in the instance __dict__,
    where later lookups find it first: a cached_property without a lock."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value
