"""Constructor/application term calculus with atomic and arrow types.

Atomic types are base names plus two wrapper forms used by the safe
extensions: Certified(reader, inner) for terms only `reader` may unwrap,
and Proof(holder, inner) recording that `holder` once possessed a term
of the inner type. Wrappers reference agents and base types by name so
this module stays independent of the architecture layer.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping


class CalculusError(Exception):
    pass


class UnknownConstructor(CalculusError):
    pass


class TypeMismatch(CalculusError):
    pass


class MalformedSignature(CalculusError):
    pass


# Sets a slot of a frozen record or term, past its `__setattr__`.
_set = object.__setattr__


class Record:
    """A frozen value whose fields are the names in its class's
    `__match_args__`, each a slot. Records behave as frozen dataclasses do,
    but no code is generated for them when their module is imported.

    Two records are equal when they are of the same class and their fields
    are equal. The hash is the field tuple's (`Proof` adds a tag to its
    fields), kept in the `_hash` slot. A constructor sets the fields, slot
    by slot where records are built in bulk and with `_init` elsewhere, and
    leaves `_hash` unset for `__hash__` to fill on first use, so a record
    holding a mapping only fails when hashed. The constructors of the
    atomic types and of `Con`, whose values key most tables, store the hash
    at once. The repr names each field. Setting or deleting an attribute
    raises `FrozenInstanceError`. A pickle or copy rebuilds the record
    through its constructor, so a kept hash never leaves its process."""

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()
    # Reads a record's fields: their tuple, or the value of the one field.
    _key: Callable[["Record"], Any]

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__match_args__)

    def _init(self, *values: Any) -> None:
        """Set the fields, in `__match_args__` order."""
        for name, value in zip(self.__match_args__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        value = self._key(self)
        return value if len(self.__match_args__) > 1 else (value,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return self is other or key(self) == key(other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values())
            _set(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values())


class Base(Record):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))


class Certified(Record):
    __slots__ = __match_args__ = ("reader", "inner")
    reader: str
    inner: str

    def __init__(self, reader: str, inner: str) -> None:
        _set(self, "reader", reader)
        _set(self, "inner", inner)
        _set(self, "_hash", hash((reader, inner)))


class Proof(Record):
    __slots__ = __match_args__ = ("holder", "inner")
    holder: str
    inner: str

    def __init__(self, holder: str, inner: str) -> None:
        _set(self, "holder", holder)
        _set(self, "inner", inner)
        # The tag keeps `Proof(r, b)` apart from `Certified(r, b)`, which
        # every v2 type system holds as well, in hashed tables.
        _set(self, "_hash", hash((holder, inner, "Proof")))


class Arrow(Record):
    __slots__ = __match_args__ = ("domain", "codomain")
    domain: "TypeExpr"
    codomain: "TypeExpr"

    def __init__(self, domain: "TypeExpr", codomain: "TypeExpr") -> None:
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)


AtomicType = Base | Certified | Proof
TypeExpr = Base | Certified | Proof | Arrow


def is_atomic(t: TypeExpr) -> bool:
    return not isinstance(t, Arrow)


def type_name(t: TypeExpr) -> str:
    """Printable form; arrows are right-associated and never parenthesized
    on the left because signatures never nest arrows in argument position."""
    match t:
        case Base(name):
            return name
        case Certified(reader, inner):
            return f"C[{reader}]({inner})"
        case Proof(holder, inner):
            return f"P[{holder}]({inner})"
        case Arrow(domain, codomain):
            return f"{type_name(domain)} -> {type_name(codomain)}"
    raise TypeError(f"not a type expression: {t!r}")


# Sort rank used everywhere a deterministic type order is needed.
def type_sort_key(t: AtomicType) -> tuple:
    match t:
        case Base(name):
            return (0, name, "")
        case Certified(reader, inner):
            return (1, reader, inner)
        case Proof(holder, inner):
            return (2, holder, inner)
    raise TypeError(f"not an atomic type: {t!r}")


class TypeSetText:
    """Renders type sets from their members' names in canonical order, for
    one printing call. Each declared type's rank and name are worked out
    once, and each distinct set is rendered once. A type outside `declared`
    falls back to type_sort_key and type_name."""

    def __init__(self, declared: Iterable[AtomicType], render: Callable[[list[str]], Any]):
        order = sorted(declared, key=type_sort_key)
        self.names = [type_name(t) for t in order]
        self._entry = {t: (i, name) for i, (t, name) in enumerate(zip(order, self.names))}
        self._render = render
        self._done: dict[frozenset[AtomicType], Any] = {}

    def __call__(self, types: frozenset[AtomicType]) -> Any:
        out = self._done.get(types)
        if out is None:
            try:
                names = [name for _, name in sorted(map(self._entry.__getitem__, types))]
            except KeyError:
                names = [type_name(t) for t in sorted(types, key=type_sort_key)]
            out = self._done[types] = self._render(names)
        return out


class Con(Record):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))


class App:
    """Application of `fun` to `arg`. Immutable; the hash and the size are
    computed once, at construction, from the children's stored values, so
    hashing never walks the term. Equality tests identity, then the stored
    hashes and sizes, and only then the structure, with an explicit stack."""

    __slots__ = ("fun", "arg", "size", "_hash")
    __match_args__ = ("fun", "arg")

    fun: "TermExpr"
    arg: "TermExpr"
    size: int

    def __init__(self, fun: "TermExpr", arg: "TermExpr") -> None:
        init = object.__setattr__
        init(self, "fun", fun)
        init(self, "arg", arg)
        init(self, "size", term_size(fun) + term_size(arg))
        init(self, "_hash", hash((fun, arg)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App):
            return NotImplemented
        stack: list[tuple[TermExpr, TermExpr]] = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, App):
                if not isinstance(b, App) or a._hash != b._hash or a.size != b.size:
                    return False
                stack.append((a.arg, b.arg))
                stack.append((a.fun, b.fun))
            elif a != b:
                return False
        return True

    def __reduce__(self) -> tuple:
        return (App, (self.fun, self.arg))

    def __repr__(self) -> str:
        return f"App(fun={self.fun!r}, arg={self.arg!r})"


TermExpr = Con | App


def term_to_str(t: TermExpr) -> str:
    """Printed form `head(arg, ...)`. A stack holds what is still to print,
    the text pieces and the arguments a term's spine yields last first, so
    nesting costs no Python frame."""
    if isinstance(t, Con):
        return t.name
    if not isinstance(t, App):
        raise TypeError(f"term head is not a constructor: {t!r}")
    out: list[str] = []
    stack: list[TermExpr | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Con):
            out.append(item.name)
        else:
            stack.append(")")
            while isinstance(item, App):
                stack += (item.arg, ", ")
                item = item.fun
            if not isinstance(item, Con):
                raise TypeError(f"term head is not a constructor: {item!r}")
            stack[-1] = "("
            out.append(item.name)
    return "".join(out)


def term_size(t: TermExpr) -> int:
    """Number of constructor occurrences; stored in every App."""
    if isinstance(t, App):
        return t.size
    if isinstance(t, Con):
        return 1
    raise TypeError(f"not a term: {t!r}")


def uncurry(t: TermExpr) -> tuple[str, tuple[TermExpr, ...]]:
    """Split a term into its head constructor name and argument list."""
    args: list[TermExpr] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    if not isinstance(t, Con):
        raise TypeError(f"term head is not a constructor: {t!r}")
    return t.name, tuple(reversed(args))


def apply(head: str, args: Iterable[TermExpr]) -> TermExpr:
    t: TermExpr = Con(head)
    for a in args:
        t = App(t, a)
    return t


def subterms(t: TermExpr) -> Iterator[TermExpr]:
    """`t` and every term inside it, in pre-order: an application, then the
    subterms of its `fun`, then those of its `arg`. A stack of the parts
    still to visit stands in for recursion, so depth costs no frames."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack += (t.arg, t.fun)


class ConstructorDecl(Record):
    __slots__ = __match_args__ = ("name", "signature")
    name: str
    signature: TypeExpr

    def __init__(self, name: str, signature: TypeExpr) -> None:
        _set(self, "name", name)
        _set(self, "signature", signature)


def make_signature(args: Iterable[AtomicType], target: AtomicType) -> TypeExpr:
    sig: TypeExpr = target
    for a in reversed(tuple(args)):
        sig = Arrow(a, sig)
    return sig


def signature_parts(decl: ConstructorDecl) -> tuple[tuple[AtomicType, ...], AtomicType]:
    """Decompose A1 -> ... -> An -> T into ((A1, ..., An), T).

    Every argument and the target must be atomic; anything else is a
    malformed signature (arrows only associate to the right here).
    """
    args: list[AtomicType] = []
    sig = decl.signature
    while isinstance(sig, Arrow):
        if not is_atomic(sig.domain):
            raise MalformedSignature(
                f"constructor {decl.name}: argument type is not atomic: {type_name(sig.domain)}"
            )
        args.append(sig.domain)
        sig = sig.codomain
    if not is_atomic(sig):
        raise MalformedSignature(f"constructor {decl.name}: target is not atomic")
    return tuple(args), sig


class TypeSystem(Record):
    """Atomic types plus named constructors; names are constructor identity.
    The derived tables `_by_name` and `_parts` are no fields: they take no
    part in equality, the hash or the repr."""

    __match_args__ = ("atomic_types", "constructors")
    __slots__ = (*__match_args__, "_by_name", "_parts")
    atomic_types: frozenset[AtomicType]
    constructors: tuple[ConstructorDecl, ...]
    _by_name: Mapping[str, ConstructorDecl]
    # Each constructor's signature_parts, worked out once, as validation
    # needs them anyway.
    _parts: Mapping[str, tuple[tuple[AtomicType, ...], AtomicType]]

    def __init__(
        self, atomic_types: frozenset[AtomicType], constructors: tuple[ConstructorDecl, ...]
    ) -> None:
        self._init(atomic_types, constructors)
        by_name: dict[str, ConstructorDecl] = {}
        parts: dict[str, tuple[tuple[AtomicType, ...], AtomicType]] = {}
        for decl in self.constructors:
            if decl.name in by_name:
                raise MalformedSignature(f"duplicate constructor name: {decl.name}")
            args, target = parts[decl.name] = signature_parts(decl)
            for part in (*args, target):
                if part not in self.atomic_types:
                    raise MalformedSignature(
                        f"constructor {decl.name} mentions undeclared type {type_name(part)}"
                    )
            by_name[decl.name] = decl
        _set(self, "_by_name", by_name)
        _set(self, "_parts", parts)

    @staticmethod
    def build(types: Iterable[AtomicType], constructors: Iterable[ConstructorDecl]) -> "TypeSystem":
        decls = tuple(sorted(constructors, key=lambda d: d.name))
        return TypeSystem(frozenset(types), decls)

    def constructor(self, name: str) -> ConstructorDecl:
        decl = self._by_name.get(name)
        if decl is None:
            raise UnknownConstructor(name)
        return decl

    def has_constructor(self, name: str) -> bool:
        return name in self._by_name

    def parts(self, name: str) -> tuple[tuple[AtomicType, ...], AtomicType]:
        """The named constructor's (argument types, target), as
        signature_parts gives them."""
        parts = self._parts.get(name)
        if parts is None:
            raise UnknownConstructor(name)
        return parts


def infer_type(ts: TypeSystem, term: TermExpr) -> TypeExpr:
    """Syntax-directed inference: constructors read their declared signature,
    an application requires an arrow whose domain equals the argument type."""
    match term:
        case Con(name):
            return ts.constructor(name).signature
        case App(fun, arg):
            fun_ty = infer_type(ts, fun)
            if not isinstance(fun_ty, Arrow):
                raise TypeMismatch(
                    f"applied non-function {term_to_str(fun)} : {type_name(fun_ty)}"
                )
            arg_ty = infer_type(ts, arg)
            if arg_ty != fun_ty.domain:
                raise TypeMismatch(
                    f"argument {term_to_str(arg)} : {type_name(arg_ty)} "
                    f"does not match domain {type_name(fun_ty.domain)}"
                )
            return fun_ty.codomain
    raise TypeError(f"not a term: {term!r}")
