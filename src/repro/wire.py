"""The wire codec: ``to_dict()`` / ``from_dict()`` derived from dataclass fields.

Every typed message of the ICDB server -- the requests, the handshake
frames, the query IR, constraints, structural netlists and the plan and
equivalence answers -- is a dataclass that inherits :class:`Wire`.  Its
field annotations are its wire contract; this module turns them into one
encoder and one decoder per class, built on first use.

**Encode.**  Every field that takes part in comparison goes out under its
name, or under ``metadata["wire_key"]``; ``compare=False`` fields stay in
process.  Tuples become lists, dicts are copied and nested wire objects
encode recursively.  A class-level ``type`` or ``kind`` tag (a class
attribute, not a field) goes first.

**Decode.**  A missing or null key takes the field's default, or
``metadata["wire_default"]`` when the field declares one; a field without
a default must be present.  Unknown keys are ignored.  Every present value
is checked against its annotation:

======================  ====================================================
annotation              accepts
======================  ====================================================
``str``                 a string
``int``                 an integer, not a boolean
``float``               a number; a JSON integer becomes a float
``bool``                a boolean
``Optional[X]``         null (the default) or an ``X``
``Tuple[X, ...]``,      a list of ``X``; a fixed ``Tuple[X, Y]`` takes
``List[X]``             exactly that many items
``Dict[str, X]``        an object whose values are ``X``
a wire class            an object, decoded by that class
``Union[A, B]``         an object whose ``kind`` names one member; a wire
                        class whose own ``kind`` is empty stands for the
                        union of its subclasses that set one
``Any``                 anything (not checked)
======================  ====================================================

A failed check raises ``IcdbError`` with code ``BAD_REQUEST`` naming the
offending ``Class.field`` (and the item path below it); a union decoded at
the top level names the member it picked.  After the checks
the constructor runs, so every ``__post_init__`` check applies exactly as
to an object built in process.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Callable, Dict, Mapping, NoReturn, Optional, Tuple, Union

#: Class attributes that, when they are strings and not fields, tag a
#: class's wire form (the handshake frames' ``type``, the requests' and
#: predicates' ``kind``).
_TAGS = ("type", "kind")

_NoneType = type(None)

#: What a JSON object may arrive as; ``dict`` first, so the common case
#: never reaches the slower abstract-class check.
_OBJECT = (dict, Mapping)

#: What a missing or null key decodes to, unless the field declares a
#: ``wire_default`` value.
_OMIT = object()  # nothing: the constructor applies the field's default
_REQUIRED = object()  # the field has no default, so the key must be present

_JSON_NAMES = {
    _NoneType: "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    tuple: "a list",
    dict: "an object",
}

Convert = Optional[Callable[[Any], Any]]

#: class -> (encode, decode), built once per class.
_CODECS: Dict[type, Tuple[Callable[[Any], Dict[str, Any]], Callable[[Any], Any]]] = {}


class Wire:
    """Base of every wire dataclass: the derived ``to_dict`` / ``from_dict``."""

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready wire form."""
        return codec(type(self))[0](self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Rebuild an instance from its wire form, checking every field."""
        try:
            return codec(cls)[1](data)
        except _Mismatch as exc:
            # Call-time import: repro.core imports modules that define
            # wire classes, so a load-time import would be a cycle.
            from .core.icdb import IcdbError

            owner = exc.owner or cls.__name__
            raise IcdbError(f"{owner}{exc}", code="BAD_REQUEST") from None


def codec(cls: type) -> Tuple[Callable[[Any], Dict[str, Any]], Callable[[Any], Any]]:
    """The ``(encode, decode)`` pair of a wire class, built on first use.

    Building resolves every field annotation, so calling this for a class
    is how a test proves its contract is well-formed.
    """
    try:
        return _CODECS[cls]
    except KeyError:
        pair = _CODECS[cls] = _build(cls)
        return pair


class _Mismatch(Exception):
    """A value that does not fit its annotation.

    The message is the path below the failing field plus the complaint;
    each enclosing level prepends its own step, and :meth:`Wire.from_dict`
    the class name.  A union sets ``owner`` to the member whose field
    failed, so a union decoded at the top level names that member's field,
    not the union's; an enclosing level's new exception drops it again.
    """

    owner = ""


def _fail(expected: str, value: Any) -> NoReturn:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    raise _Mismatch(f": expected {expected}, got {got}")


def _build(cls: type):
    """Resolve ``cls``'s annotations once; return its encoder and decoder."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.compare]
    names = {f.name for f in dataclasses.fields(cls)}
    tags = {
        key: getattr(cls, key)
        for key in _TAGS
        if key not in names and isinstance(getattr(cls, key, None), str)
    }
    encoders = [
        (f.name, f.metadata.get("wire_key", f.name), _encoder(hints[f.name]))
        for f in fields
    ]

    def encode(obj: Any) -> Dict[str, Any]:
        data = dict(tags)
        values = obj.__dict__  # every field lives there; one lookup each
        for name, key, convert in encoders:
            value = values[name]
            data[key] = value if convert is None else convert(value)
        return data

    if tags.get("kind") == "":
        return encode, _union(_variants(cls))

    steps = []
    for f in fields:
        if "wire_default" in f.metadata:
            fallback: Any = f.metadata["wire_default"]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            fallback = _REQUIRED
        else:
            fallback = _OMIT
        key = f.metadata.get("wire_key", f.name)
        steps.append((f.name, key, _checker(_non_null(hints[f.name])), fallback))

    def decode(data: Any) -> Any:
        if not isinstance(data, _OBJECT):
            _fail(f"a {cls.__name__} object", data)
        kwargs = {}
        get = data.get
        name = ""
        try:
            for name, key, check, fallback in steps:
                value = get(key)
                if value is not None:
                    kwargs[name] = value if check is None else check(value)
                elif fallback is _REQUIRED:
                    raise _Mismatch(" is required")
                elif fallback is not _OMIT:
                    kwargs[name] = fallback
        except _Mismatch as exc:
            raise _Mismatch(f".{name}{exc}") from None
        return cls(**kwargs)

    return encode, decode


def _variants(cls: type) -> Dict[str, type]:
    """The subclasses of an untagged wire class, by their ``kind``."""
    found: Dict[str, type] = {}
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        pending.extend(sub.__subclasses__())
        if getattr(sub, "kind", ""):
            found[sub.kind] = sub
    return found


def _non_null(hint: Any) -> Any:
    """``X`` for ``Optional[X]``: a null field takes its default instead."""
    if typing.get_origin(hint) is Union:
        members = tuple(arg for arg in typing.get_args(hint) if arg is not _NoneType)
        return members[0] if len(members) == 1 else Union[members]
    return hint


# ---------------------------------------------------------------------------
# Encoders: how a value of one annotation goes out (None = as it is)
# ---------------------------------------------------------------------------


def _wire_encode(value: Any) -> Dict[str, Any]:
    return codec(type(value))[0](value)


def _encoder(hint: Any) -> Convert:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        members = [arg for arg in args if arg is not _NoneType]
        inner = _encoder(members[0]) if len(members) == 1 else _wire_encode
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        items = [_encoder(arg) for arg in args]
        return lambda value: [
            item if convert is None else convert(item)
            for convert, item in zip(items, value)
        ]
    if origin in (tuple, list):
        item = _encoder(args[0])
        if item is None:
            return list
        return lambda value: [item(entry) for entry in value]
    if origin is dict:
        item = _encoder(args[1])
        if item is None:
            return dict
        return lambda value: {key: item(entry) for key, entry in value.items()}
    if isinstance(hint, type) and issubclass(hint, Wire):
        return _wire_encode
    return None


# ---------------------------------------------------------------------------
# Checks: how a present value of one annotation comes in (None = as it is)
# ---------------------------------------------------------------------------


def _str(value: Any) -> Any:
    if isinstance(value, str):
        return value
    _fail("a string", value)


def _int(value: Any) -> Any:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    _fail("an integer", value)


def _float(value: Any) -> Any:
    if isinstance(value, float):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        # 2 and 2.0 are one value: decoding both to a float keeps the
        # canonical forms built from it (the cache keys) equal.
        try:
            return float(value)
        except OverflowError:
            raise _Mismatch(": number out of range") from None
    _fail("a number", value)


def _bool(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    _fail("a boolean", value)


_SCALARS = {str: _str, int: _int, float: _float, bool: _bool}


def _checker(hint: Any) -> Convert:
    if hint is Any:
        return None
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union and _NoneType not in args:
        return _union({member.kind: member for member in args})
    if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        return _fixed([_checker(arg) for arg in args])
    if origin in (tuple, list):
        return _sequence(_checker(args[0]), origin)
    if origin is dict:
        return _mapping(_checker(args[1]))
    if isinstance(hint, type) and issubclass(hint, Wire):
        return _nested(hint)
    raise TypeError(f"no wire rule for the annotation {hint!r}")


def _nested(cls: type) -> Callable[[Any], Any]:
    # The nested codec is looked up per call, not at build time, so
    # classes that contain each other (a batch of requests) build lazily.
    return lambda value: codec(cls)[1](value)


def _union(members: Dict[str, type]) -> Callable[[Any], Any]:
    def check(value: Any) -> Any:
        if not isinstance(value, _OBJECT):
            _fail("an object", value)
        kind = value.get("kind")
        member = members.get(kind) if isinstance(kind, str) else None
        if member is None:
            raise _Mismatch(
                f": unknown kind {kind!r}; expected one of {sorted(members)}"
            )
        try:
            return codec(member)[1](value)
        except _Mismatch as exc:
            exc.owner = member.__name__
            raise

    return check


def _sequence(item: Convert, build: type) -> Callable[[Any], Any]:
    def check(value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            _fail("a list", value)
        if item is None:
            return build(value)
        entries = []
        index = 0
        try:
            for index, entry in enumerate(value):
                entries.append(item(entry))
        except _Mismatch as exc:
            raise _Mismatch(f"[{index}]{exc}") from None
        return build(entries)

    return check


def _fixed(items: list) -> Callable[[Any], Any]:
    def check(value: Any) -> Any:
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            _fail(f"a list of {len(items)} items", value)
        entries = []
        index = 0
        try:
            for index, (convert, entry) in enumerate(zip(items, value)):
                entries.append(entry if convert is None else convert(entry))
        except _Mismatch as exc:
            raise _Mismatch(f"[{index}]{exc}") from None
        return tuple(entries)

    return check


def _mapping(item: Convert) -> Callable[[Any], Any]:
    def check(value: Any) -> Any:
        if not isinstance(value, _OBJECT):
            _fail("an object", value)
        if item is None:
            return dict(value)
        entries = {}
        key = None
        try:
            for key, entry in value.items():
                entries[key] = item(entry)
        except _Mismatch as exc:
            raise _Mismatch(f"[{key!r}]{exc}") from None
        return entries

    return check
