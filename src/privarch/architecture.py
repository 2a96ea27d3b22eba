"""Message-passing architectures: agents, initial constructor holdings,
and directed channels of atomic types between distinct agents.

Agents synthesized as interfaces carry their kind and owner explicitly so
a synthesized architecture is self-describing; names use the reserved
prefixes "I:" and "O:" which cannot collide with user agent names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .terms import (
    AtomicType,
    Record,
    TypeSystem,
    is_atomic,
    type_name,
    type_sort_key,
)

ORIGINAL = "original"
INTERFACE = "interface"
OUTPUT = "output"

_PREFIX = {INTERFACE: "I:", OUTPUT: "O:"}


class ArchitectureError(Exception):
    pass


class UnknownAgent(ArchitectureError):
    pass


class InvalidArchitecture(ArchitectureError):
    pass


@dataclass(frozen=True)
class AgentId:
    """An agent's name, kind and owner. The hash is stored when the agent is
    built, as `App` stores its own, since agents key most lookups."""

    name: str
    kind: str = ORIGINAL
    owner: str | None = None

    def __post_init__(self) -> None:
        # `owner or ""`: hash(None) is an address on some Pythons, and agent
        # set order must depend on PYTHONHASHSEED alone.
        object.__setattr__(self, "_hash", hash((self.name, self.kind, self.owner or "")))
        if self.kind == ORIGINAL:
            if self.owner is not None:
                raise ArchitectureError(f"original agent {self.name} cannot have an owner")
            if self.name.startswith(("I:", "O:")):
                raise ArchitectureError(f"agent name {self.name} uses a reserved interface prefix")
        elif self.kind in _PREFIX:
            if self.owner is None or self.name != _PREFIX[self.kind] + self.owner:
                raise ArchitectureError(
                    f"interface agent name {self.name} must be {_PREFIX[self.kind]}<owner>"
                )
        else:
            raise ArchitectureError(f"unknown agent kind: {self.kind}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # String hashes differ between processes, so an unpickled agent
        # computes its own.
        return (AgentId, (self.name, self.kind, self.owner))

    @staticmethod
    def interface_of(owner: "AgentId") -> "AgentId":
        return AgentId("I:" + owner.name, INTERFACE, owner.name)

    @staticmethod
    def output_of(owner: "AgentId") -> "AgentId":
        return AgentId("O:" + owner.name, OUTPUT, owner.name)

    @property
    def sort_key(self) -> tuple[int, str]:
        # Originals order before interfaces everywhere an agent order matters.
        return (0 if self.kind == ORIGINAL else 1, self.name)


class Violation(Record):
    __slots__ = __match_args__ = ("code", "subject", "message")
    code: str
    subject: tuple[str, ...]
    message: str


class VerdictReport(Record):
    __slots__ = __match_args__ = ("violations",)
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [f"[{v.code}] {v.message}" for v in self.violations]


def report(violations: Iterable[Violation]) -> VerdictReport:
    return VerdictReport(tuple(sorted(violations, key=lambda v: (v.code, v.subject))))


class Architecture(Record):
    """Agents, their initial constructor holdings and their channels. `build`
    shares one frozenset among all channels with equal type sets, so work
    done once per distinct set may be memoized by the set's `id`. The
    derived `_by_name` is no field."""

    __match_args__ = ("type_system", "agents", "holdings", "channels")
    __slots__ = (*__match_args__, "_by_name")
    type_system: TypeSystem
    agents: frozenset[AgentId]
    holdings: Mapping[AgentId, frozenset[str]]
    channels: Mapping[tuple[AgentId, AgentId], frozenset[AtomicType]]
    _by_name: Mapping[str, AgentId]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_by_name", {a.name: a for a in self.agents})

    @staticmethod
    def build(
        type_system: TypeSystem,
        agents: Iterable[AgentId],
        holdings: Mapping[AgentId, Iterable[str]],
        channels: Mapping[tuple[AgentId, AgentId], Iterable[AtomicType]],
    ) -> "Architecture":
        # Empty holdings and channels are normalized away so structurally
        # equal architectures compare equal regardless of construction path.
        h = {a: held for a, cs in holdings.items() if (held := frozenset(cs))}
        shared: dict[frozenset[AtomicType], frozenset[AtomicType]] = {}
        ch = {p: shared.setdefault(t, t) for p, tys in channels.items() if (t := frozenset(tys))}
        return Architecture(type_system, frozenset(agents), h, ch)

    def holdings_of(self, agent: AgentId) -> frozenset[str]:
        return self.holdings.get(agent, frozenset())

    def channel_types(self, sender: AgentId, receiver: AgentId) -> frozenset[AtomicType]:
        return self.channels.get((sender, receiver), frozenset())

    def agent_named(self, name: str) -> AgentId:
        agent = self._by_name.get(name)
        if agent is None:
            raise UnknownAgent(name)
        return agent

    def sorted_agents(self) -> list[AgentId]:
        return sorted(self.agents, key=lambda a: a.sort_key)

    def sorted_channels(self) -> list[tuple[tuple[AgentId, AgentId], frozenset[AtomicType]]]:
        """Channels by sender, then receiver, each in `sort_key` order."""
        return sorted(self.channels.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1].sort_key))

    def original_agents(self) -> list[AgentId]:
        return sorted((a for a in self.agents if a.kind == ORIGINAL), key=lambda a: a.name)


def can_compute(arch: Architecture, agent: AgentId, target: AtomicType) -> bool:
    """True iff the agent initially holds a constructor whose target is the type."""
    if agent not in arch.agents:
        raise UnknownAgent(agent.name)
    parts = arch.type_system.parts
    return any(parts(name)[1] == target for name in arch.holdings_of(agent))


def validate_architecture(arch: Architecture) -> VerdictReport:
    """Report-valued well-formedness check; never raises on a bad instance."""
    violations: list[Violation] = []
    ts = arch.type_system
    names = [a.name for a in arch.agents]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        violations.append(
            Violation("agents", tuple(dupes), f"duplicate agent names: {', '.join(dupes)}")
        )
    # Only what fails is sorted; a clean architecture sorts nothing.
    for agent, held in sorted(arch.holdings.items(), key=lambda kv: kv[0].sort_key):
        if agent not in arch.agents:
            violations.append(
                Violation("holdings", (agent.name,), f"holdings for undeclared agent {agent.name}")
            )
        for name in sorted(n for n in held if not ts.has_constructor(n)):
            violations.append(
                Violation(
                    "holdings",
                    (agent.name, name),
                    f"{agent.name} holds undeclared constructor {name}",
                )
            )
    # One set difference per distinct type set: `Architecture.build` shares
    # one frozenset among equal channel sets.
    undeclared: dict[int, frozenset] = {}
    failing = []
    for (sender, receiver), types in arch.channels.items():
        bad = undeclared.get(id(types))
        if bad is None:
            bad = undeclared[id(types)] = types - ts.atomic_types
        if bad or sender == receiver or sender not in arch.agents or receiver not in arch.agents:
            failing.append((sender, receiver, bad))
    for sender, receiver, bad in sorted(
        failing, key=lambda f: (f[0].sort_key, f[1].sort_key)
    ):
        where = (sender.name, receiver.name)
        if sender == receiver:
            violations.append(
                Violation("channels", where, f"self-channel on {sender.name} is not allowed")
            )
        for end in (sender, receiver):
            if end not in arch.agents:
                violations.append(
                    Violation("channels", where, f"channel endpoint {end.name} is undeclared")
                )
        for t in sorted(bad, key=_channel_type_key):
            kind = "undeclared" if is_atomic(t) else "non-atomic"
            violations.append(
                Violation(
                    "channels",
                    where,
                    f"channel {sender.name} -> {receiver.name} carries {kind} type "
                    f"{type_name(t)}",
                )
            )
    return report(violations)


def _channel_type_key(t) -> tuple:
    return type_sort_key(t) if is_atomic(t) else (9, type_name(t), "")
