"""The record base and the wire codec: one field table per class.

Every typed message of the ICDB server -- the requests, the handshake
frames, the query IR, constraints, structural netlists and the plan and
equivalence answers -- is a :class:`Wire` record, and the value records a
server builds at boot (the response envelope, catalog entries, table
columns, recovery reports) are :class:`Record` s.  A record class is
declared by its annotated fields::

    class Hello(Wire, frozen=True):
        protocol: int = field(default=PROTOCOL_VERSION, metadata={"wire_default": 0})
        client: str = ""

**Records.**  When a record class is created, :class:`Record` builds its
field table (:func:`fields`): the bases' fields, then the class's own
annotated ones, skipping ``ClassVar``; an overriding field keeps its
base's position.  A default is a class attribute or a :func:`field`
(``default``, ``default_factory`` run once per instance, ``compare``,
``repr``, ``metadata``); :data:`MISSING` marks a field with none, and a
field without a default may not follow one with a default.  From that
table the class serves ``__init__`` (keyword or positional, in field
order; ``__post_init__`` runs after the fields are set), ``==`` and
``repr`` over the compared / shown fields, and a ``__hash__``: over the
compared fields for a frozen class, ``None`` for a mutable one.
``frozen=True`` is inherited; setting or deleting a field of a frozen
instance raises :class:`FrozenInstanceError`, and ``__post_init__``
normalises through ``object.__setattr__``.  A method the class body
defines itself is kept.  Nothing is compiled per class: every method is
a closure over the table, so a process that defines records imports
neither ``dataclasses`` nor ``inspect``.

**Storage.**  A record costs what the ``@dataclass`` it stands for
costs.  ``__init__`` sets every field, in field order, as an ordinary
instance attribute, as ``@dataclass`` does, so instances keep CPython's
shared-key instance values; ``==``, the hash, ``repr`` and the codec
read fields by attribute, never through ``__dict__``.  A class that
declares ``__slots__`` naming its fields has no ``__dict__`` (a slotted
field takes no default, and a frozen slotted class pickles through its
own ``__reduce__``).  An attribute ``__post_init__`` derives from the
fields without annotating it is not a field: it takes no part in
``==``, the hash, ``repr`` or the wire form.

The codec turns a :class:`Wire` class's field annotations into one
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

import typing
from operator import attrgetter
from reprlib import recursive_repr
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, NoReturn, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# Records: one field table per class, and the methods it serves
# ---------------------------------------------------------------------------


class FrozenInstanceError(AttributeError):
    """Raised on setting or deleting a field of a frozen record."""


class _Missing:
    def __repr__(self) -> str:
        return "MISSING"


#: The default of a field that has none (and the factory of one that has
#: no factory).
MISSING: Any = _Missing()

#: Stands in a class's ``__init__`` template for a factory-made default.
_FACTORY = object()

_NO_METADATA: Mapping[str, Any] = MappingProxyType({})


class Field:
    """One entry of a record class's field table."""

    __slots__ = ("name", "default", "default_factory", "compare", "repr", "metadata")

    def __init__(
        self,
        default: Any,
        default_factory: Any,
        compare: bool,
        repr: bool,
        metadata: Mapping[str, Any],
    ) -> None:
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr
        self.metadata = metadata


def field(
    *,
    default: Any = MISSING,
    default_factory: Any = MISSING,
    compare: bool = True,
    repr: bool = True,
    metadata: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Declare a field with a default value or a ``default_factory`` run
    once per instance.  A ``compare=False`` field takes no part in ``==``,
    the hash or the wire form; a ``repr=False`` one is left out of
    ``repr``.  ``metadata`` carries the codec's ``wire_key`` /
    ``wire_default``."""
    if default is not MISSING and default_factory is not MISSING:
        raise ValueError("a field takes a default or a default_factory, not both")
    if metadata:
        metadata = MappingProxyType(dict(metadata))
    return Field(default, default_factory, compare, repr, metadata or _NO_METADATA)


def fields(record: Any) -> Tuple[Field, ...]:
    """The field table of a record class or instance, in ``__init__`` order."""
    try:
        return record.__record_fields__
    except AttributeError:
        raise TypeError(f"{record!r} is not a record class or instance") from None


class Record:
    """Base of a class declared by its annotated fields (see the module
    docstring); ``class X(Record, frozen=True)`` makes it immutable."""

    __slots__ = ()
    __record_fields__ = ()
    __record_frozen__ = False

    def __init_subclass__(cls, frozen: Optional[bool] = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if frozen is None:
            frozen = cls.__record_frozen__
        elif cls.__record_frozen__ and not frozen:
            raise TypeError(f"{cls.__name__}: a subclass of a frozen record is frozen")
        table: Dict[str, Field] = {}
        for base in reversed(cls.__mro__[1:]):
            for entry in base.__dict__.get("__record_fields__", ()):
                table[entry.name] = entry
        slots = cls.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        # The class's own annotations: on Python 3.9 cls.__annotations__
        # falls through to a base's when the class declares none.
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            if _is_class_var(annotation):
                continue
            # A slot's class attribute is its descriptor, never a default.
            value = MISSING if name in slots else cls.__dict__.get(name, MISSING)
            if isinstance(value, Field):
                entry = value
            elif value.__class__ in (list, dict, set):
                raise ValueError(
                    f"{cls.__name__}.{name}: a mutable default would be shared "
                    "by every instance; use default_factory"
                )
            else:
                entry = Field(value, MISSING, True, True, _NO_METADATA)
            entry.name = name
            # As with @dataclass: the class attribute is the default, if any.
            if entry.default is not MISSING:
                setattr(cls, name, entry.default)
            elif name in cls.__dict__ and name not in slots:
                delattr(cls, name)
            table[name] = entry
        cls.__record_fields__ = tuple(table.values())
        cls.__record_frozen__ = frozen
        _serve(cls, cls.__record_fields__, frozen)


def _is_class_var(annotation: Any) -> bool:
    if isinstance(annotation, str):  # under ``from __future__ import annotations``
        return annotation.startswith(("ClassVar", "typing.ClassVar"))
    return annotation is typing.ClassVar or typing.get_origin(annotation) is typing.ClassVar


def _serve(cls: type, table: Tuple[Field, ...], frozen: bool) -> None:
    """Install the methods ``cls`` serves from its field table."""
    template = {
        entry.name: entry.default if entry.default_factory is MISSING else _FACTORY
        for entry in table
    }
    names = tuple(template)
    count = len(names)
    required = tuple(name for name in names if template[name] is MISSING)
    if names[: len(required)] != required:
        raise TypeError(
            f"{cls.__name__}: a field without a default follows one with a default"
        )
    factories = tuple(
        (entry.name, entry.default_factory)
        for entry in table
        if entry.default_factory is not MISSING
    )
    post_init = hasattr(cls, "__post_init__")
    # As with @dataclass: a frozen class sets its fields through
    # object.__setattr__, a mutable one through its own __setattr__.
    put = object.__setattr__ if frozen else setattr

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        if args:
            kwargs = _bind(cls, names, args, kwargs)
        values = {**template, **kwargs}
        if len(values) != count:
            raise _unexpected(cls, template, kwargs)
        if required:
            for name in required:
                if values[name] is MISSING:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if factories:
            for name, factory in factories:
                if values[name] is _FACTORY:
                    values[name] = factory()
        # Every field becomes an ordinary instance attribute (a slot, or
        # CPython's shared-key instance values), set in field order as
        # @dataclass sets it, so every instance shares its class's keys.
        for name in names:
            put(self, name, values[name])
        if post_init:
            self.__post_init__()

    key = _values_of(tuple(entry.name for entry in table if entry.compare))

    def __eq__(self: Any, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    shown = tuple(entry.name for entry in table if entry.repr)
    shown_values = _values_of(shown)

    @recursive_repr()
    def __repr__(self: Any) -> str:
        body = ", ".join([f"{name}={value!r}" for name, value in zip(shown, shown_values(self))])
        return f"{self.__class__.__qualname__}({body})"

    def __hash__(self: Any) -> int:
        return hash(key(self))

    # As with @dataclass, a method the class body defines is kept.  A body
    # that defines __eq__ alone gets __hash__ = None from Python itself,
    # which is not a choice.  The hash is set on every class, never
    # inherited: a frozen class under a mutable base stays hashable.
    own = dict(cls.__dict__)
    body_hash = own.get("__hash__", MISSING)
    if body_hash is MISSING or (body_hash is None and "__eq__" in own):
        cls.__hash__ = __hash__ if frozen else None  # type: ignore[assignment]
    for method in (__init__, __eq__, __repr__):
        if method.__name__ not in own:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    if frozen:
        cls.__setattr__ = _frozen_setattr  # type: ignore[assignment]
        cls.__delattr__ = _frozen_delattr  # type: ignore[assignment]


def _values_of(names: Tuple[str, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """A function from an instance to the tuple of its ``names`` fields'
    values, read by attribute: what ``==`` and the hash compare, as
    ``@dataclass`` does."""
    if len(names) == 1:
        return lambda record, get=attrgetter(names[0]): (get(record),)
    return attrgetter(*names) if names else lambda record: ()


def _bind(cls: type, names: Tuple[str, ...], args: tuple, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Positional arguments as keywords, in field order."""
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__name__}() takes {len(names)} positional arguments "
            f"but {len(args)} were given"
        )
    bound = dict(zip(names, args))
    for name in kwargs:
        if name in bound:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
    bound.update(kwargs)
    return bound


def _unexpected(cls: type, template: Dict[str, Any], kwargs: Dict[str, Any]) -> TypeError:
    name = next(name for name in kwargs if name not in template)
    return TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")


def _frozen_setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------


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


class Wire(Record):
    """Base of every wire record: the derived ``to_dict`` / ``from_dict``."""

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
    table = fields(cls)
    compared = [f for f in table if f.compare]
    names = {f.name for f in table}
    tags = {
        key: getattr(cls, key)
        for key in _TAGS
        if key not in names and isinstance(getattr(cls, key, None), str)
    }
    encoders = [
        (f.metadata.get("wire_key", f.name), _encoder(hints[f.name])) for f in compared
    ]
    values_of = _values_of(tuple(f.name for f in compared))

    def encode(obj: Any) -> Dict[str, Any]:
        data = dict(tags)
        for (key, convert), value in zip(encoders, values_of(obj)):
            data[key] = value if convert is None else convert(value)
        return data

    if tags.get("kind") == "":
        return encode, _union(_variants(cls))

    steps = []
    for f in compared:
        if "wire_default" in f.metadata:
            fallback: Any = f.metadata["wire_default"]
        elif f.default is MISSING and f.default_factory is MISSING:
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
