"""dualkit: a workbench for string-diagram rewriting, exact model
categories, idempotent splittings, and equivariant collapse certificates."""

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
