"""dualkit: a workbench for string-diagram rewriting, exact model
categories, idempotent splittings, and equivariant collapse certificates."""

import sys

__version__ = "0.1.0"


class DomainError(Exception):
    """Base of every layer's domain failure: an input the mathematics
    rejects (a singular matrix, a group too large, an invalid action, a
    mistyped diagram, ...), as opposed to a bug.  The CLI reports any
    DomainError as a structured failure with exit code 1."""


class MalformedInput(DomainError, ValueError):
    """An input its reader rejects: a file that cannot be read or is not
    JSON, a JSON value of the wrong shape, an unknown preset or trace
    name, or a value out of range (a non-prime modulus, a negative
    dimension or entry, ...)."""


class _Field:
    """One field as ``dataclasses.replace`` reads it.  A stopgap for the
    benchmark, which corrupts traces, certificates and morphisms with
    ``dataclasses.replace`` and reads ``__dataclass_fields__`` to count
    digits; it is no public interface.  It imitates private names of
    the ``dataclasses`` module of Python 3.10+ (``_field_type``,
    ``_FIELD``, ``init``), which a later Python may change.  Once the
    benchmark rebuilds values through their constructors, ``_Field``
    and the table go."""

    def __init__(self, name: str, init: bool):
        self.name, self.init = name, init

    @property
    def _field_type(self):
        # the marker of an ordinary field; only dataclasses reads it
        return sys.modules["dataclasses"]._FIELD


class Record:
    """Base of dualkit's value classes.  A subclass names its fields, in
    order, in ``_fields`` (and those its ``__init__`` computes instead
    of taking them in ``_derived``), keeps them in the instance
    ``__dict__``, and writes out its own ``__init__``, ``__eq__`` (equal
    to an instance of the same class with equal fields) and
    ``__hash__``.  The base gives the repr ``Name(field=value, ...)``
    and the benchmark's stopgap ``__dataclass_fields__`` table of the
    fields (see ``_Field``)."""

    _fields: tuple = ()
    _derived: tuple = ()

    def __init_subclass__(cls):
        cls.__dataclass_fields__ = {name: _Field(name, name not in
                                                 cls._derived)
                                    for name in cls._fields}

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))


class Frozen(Record):
    """A record whose ``__init__`` sets its fields through the instance
    ``__dict__`` and that refuses every later assignment or deletion
    with an AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def clip(text: str, limit: int = 40) -> str:
    """text, cut to its first limit characters and "..." when longer."""
    return text if len(text) <= limit else text[:limit] + "..."


def read_json(path):
    """The JSON value in the file at path; MalformedInput naming the
    file when it cannot be read, does not hold JSON or nests too deeply
    to parse."""
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:     # JSONDecodeError, UnicodeDecodeError
        raise MalformedInput(f"{path} is not JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput(f"{path} nests too deeply") from None


def has_shape(obj, shape) -> bool:
    """Whether the JSON value obj has the shape: a type; a callable,
    which tests obj; [s], a list of s; {key: s}, an object with these
    keys (one ending in "?" may be absent) and maybe more; or {test: s},
    with a type or callable test, an object whose keys all pass it and
    whose values all have shape s.  JSON true and false are not ints,
    though Python's bool is a subclass of int."""
    if isinstance(shape, type):
        return isinstance(obj, shape) and not (shape is int
                                               and isinstance(obj, bool))
    if isinstance(shape, list):
        return isinstance(obj, list) and all(has_shape(x, shape[0])
                                             for x in obj)
    if not isinstance(shape, dict):
        return shape(obj)

    def field_ok(key, s) -> bool:
        if callable(key):
            return all(has_shape(k, key) and has_shape(x, s)
                       for k, x in obj.items())
        name = key.rstrip("?")
        return has_shape(obj[name], s) if name in obj else key.endswith("?")
    return isinstance(obj, dict) and all(field_ok(key, s)
                                         for key, s in shape.items())


def _lazy_exports(namespace: dict, exports: dict) -> tuple:
    """(__getattr__, __dir__) for the package whose globals are
    namespace and whose public names are listed per home submodule in
    exports ({submodule: names}).  A name is imported from its home on
    first access and then kept in namespace, so importing the package
    loads no submodule.  The submodule is loaded by the import
    statement's machinery, so that ``python -X importtime`` lists it."""
    package = namespace["__name__"]
    home = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(__import__(f"{package}.{home[name]}",
                                   fromlist=[name]), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())
    return __getattr__, __dir__
