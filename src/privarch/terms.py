"""Constructor/application term calculus with atomic and arrow types.

Atomic types are base names plus two wrapper forms used by the safe
extensions: Certified(reader, inner) for terms only `reader` may unwrap,
and Proof(holder, inner) recording that `holder` once possessed a term
of the inner type. Wrappers reference agents and base types by name so
this module stays independent of the architecture layer.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping


class CalculusError(Exception):
    pass


class UnknownConstructor(CalculusError):
    pass


class TypeMismatch(CalculusError):
    pass


class MalformedSignature(CalculusError):
    pass


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Certified:
    reader: str
    inner: str


@dataclass(frozen=True)
class Proof:
    holder: str
    inner: str


@dataclass(frozen=True)
class Arrow:
    domain: "TypeExpr"
    codomain: "TypeExpr"


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


@dataclass(frozen=True)
class Con:
    name: str


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
    yield t
    if isinstance(t, App):
        yield from subterms(t.fun)
        yield from subterms(t.arg)


@dataclass(frozen=True)
class ConstructorDecl:
    name: str
    signature: TypeExpr


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


@dataclass(frozen=True)
class TypeSystem:
    """Atomic types plus named constructors; names are constructor identity."""

    atomic_types: frozenset[AtomicType]
    constructors: tuple[ConstructorDecl, ...]
    _by_name: Mapping[str, ConstructorDecl] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )
    # Each constructor's signature_parts, worked out once, as validation
    # needs them anyway.
    _parts: Mapping[str, tuple[tuple[AtomicType, ...], AtomicType]] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
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
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_parts", parts)

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
