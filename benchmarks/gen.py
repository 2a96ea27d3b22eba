"""Seeded inputs for the privarch benchmark, and the answers they must get.

Everything here is independent of the package under test: original specs
are built as plain data and printed as DSL text, the v2 safe extension is
modelled from the paper's construction (input/output interfaces, certifiers
with proof arguments, a full interface mesh), and traces come from this
module's own term-level possession fold. Verdicts are then checked against
what the generator built, never against another call into the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Original:
    """An architecture of original agents only: each agent holds nullary
    constructors for some base types, channels carry base types, and the
    constraints are `X ni A => Y ni B` plus one `pos` goal."""

    agents: tuple[str, ...]
    bases: tuple[str, ...]
    holds: dict[str, tuple[str, ...]]
    channels: dict[tuple[str, str], tuple[str, ...]]
    constraints: tuple[tuple[str, str, str, str], ...]
    goal: tuple[str, str]

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def b(self) -> int:
        return len(self.bases)


def ctor_of(base: str) -> str:
    return base.lower()


def constraint_str(c: tuple[str, str, str, str]) -> str:
    x, a, y, b = c
    return f"{x} ni {a} => {y} ni {b}"


COPPA = Original(
    agents=("Child", "Parent", "Website"),
    bases=("CONSENT", "INFO", "POLICY"),
    holds={"Child": ("INFO",), "Parent": ("CONSENT",), "Website": ("POLICY",)},
    channels={
        ("Child", "Website"): ("INFO",),
        ("Parent", "Website"): ("CONSENT",),
        ("Website", "Parent"): ("POLICY",),
    },
    constraints=(
        ("Website", "CONSENT", "Parent", "POLICY"),
        ("Website", "INFO", "Website", "CONSENT"),
    ),
    goal=("Website", "INFO"),
)


def random_original(rng: random.Random, n: int, b: int) -> Original:
    """A directed ring of n agents plus chords, b base types. Every agent
    holds at least one base type and every type has a holder. Constraint
    subjects never hold their trigger, so no subject can create it."""
    agents = tuple(f"A{i}" for i in range(n))
    bases = tuple(f"D{j}" for j in range(b))
    holds: dict[str, list[str]] = {a: [] for a in agents}
    order = list(bases)
    rng.shuffle(order)
    for i in range(max(n, b)):
        agent, base = agents[i % n], order[i % b]
        if base not in holds[agent]:
            holds[agent].append(base)
    pairs = [(agents[i], agents[(i + 1) % n]) for i in range(n)]
    others = [(s, r) for s in agents for r in agents if s != r and (s, r) not in pairs]
    pairs += rng.sample(others, min(len(others), rng.randint(1, n)))
    channels = {
        p: tuple(sorted(rng.sample(bases, rng.randint(1, b)))) for p in pairs
    }
    constraints: set[tuple[str, str, str, str]] = set()
    for _ in range(rng.randint(1, 3)):
        x = rng.choice(agents)
        a = rng.choice([t for t in bases if t not in holds[x]])
        y = rng.choice(agents)
        req = rng.choice([t for t in bases if (y, t) != (x, a)])
        constraints.add((x, a, y, req))
    x = rng.choice(agents)
    goal = (x, rng.choice([t for t in bases if t not in holds[x]]))
    return Original(
        agents,
        bases,
        {a: tuple(sorted(h)) for a, h in holds.items()},
        channels,
        tuple(sorted(constraints)),
        goal,
    )


def original_text(o: Original) -> str:
    lines = ["types " + ", ".join(o.bases) + ";"]
    for a in o.agents:
        decls = ", ".join(f"{ctor_of(t)}: {t}" for t in o.holds[a])
        lines.append(f"agent {a} holds {decls};")
    for (s, r), types in sorted(o.channels.items()):
        lines.append(f"channel {s} -> {r} : {', '.join(types)};")
    for c in o.constraints:
        lines.append(f"constraint {constraint_str(c)};")
    lines.append(f"constraint pos({o.goal[0]}, {o.goal[1]});")
    return "\n".join(lines) + "\n"


# --- the v2 safe extension, modelled from the construction ----------------


@dataclass(frozen=True)
class Model:
    """Agents, constructor signatures by name, holdings and channels, all as
    printed names. Enough to generate valid traces and to count entries."""

    agents: tuple[str, ...]
    signatures: dict[str, tuple[tuple[str, ...], str]]
    holds: dict[str, tuple[str, ...]]
    channels: dict[tuple[str, str], tuple[str, ...]]


def wrapped(kind: str, agent: str, base: str) -> str:
    return f"{kind}[{agent}]({base})"


def original_model(o: Original) -> Model:
    sigs = {ctor_of(t): ((), t) for t in o.bases}
    holds = {a: tuple(ctor_of(t) for t in o.holds[a]) for a in o.agents}
    return Model(o.agents, sigs, holds, dict(o.channels))


def v2_model(o: Original) -> Model:
    sigs = {ctor_of(t): ((), t) for t in o.bases}
    certifiers = []
    for x in o.agents:
        for t in o.bases:
            group = sorted(
                ((req, y) for (s, trig, y, req) in o.constraints if (s, trig) == (x, t))
            )
            args = (t,) + tuple(wrapped("P", y, req) for req, y in group)
            sigs[f"m[{x},{t}]"] = (args, wrapped("C", x, t))
            sigs[f"pi[{x},{t}]"] = ((wrapped("C", x, t),), t)
            sigs[f"p[{x},{t}]"] = ((t,), wrapped("P", x, t))
            certifiers.append(f"m[{x},{t}]")
    holds = {a: tuple(ctor_of(t) for t in o.holds[a]) for a in o.agents}
    for a in o.agents:
        holds["I:" + a] = tuple(f"pi[{a},{t}]" for t in o.bases)
        holds["O:" + a] = tuple(certifiers) + tuple(f"p[{a},{t}]" for t in o.bases)
    channels: dict[tuple[str, str], tuple[str, ...]] = {}
    for a in o.agents:
        channels[("I:" + a, a)] = o.bases
        channels[(a, "O:" + a)] = o.bases
    wrappers = tuple(
        wrapped(k, a, t) for k in "CP" for a in o.agents for t in o.bases
    )
    interfaces = [p + a for p in ("I:", "O:") for a in o.agents]
    for s in interfaces:
        for r in interfaces:
            if s != r:
                channels[(s, r)] = wrappers
    agents = o.agents + tuple(interfaces)
    return Model(agents, sigs, holds, channels)


def v2_entries(n: int, b: int) -> int:
    """Channel entries of the v2 extension: the interface mesh carries every
    wrapper type, plus each owner's two base-type links."""
    return (2 * n) * (2 * n - 1) * 2 * n * b + 2 * n * b


# --- the benchmark's own possession fold ------------------------------------


class Fold:
    """Per agent, one witness term (as printed text) per possessed type.
    An agent derives what its held constructors build from what it holds,
    and what was delivered to it; that is all the rules there are."""

    def __init__(self, model: Model):
        self.model = model
        self.owned: dict[str, dict[str, str]] = {a: {} for a in model.agents}
        for a in model.agents:
            self._close(a)

    def _close(self, agent: str) -> None:
        mine = self.owned[agent]
        sigs = self.model.signatures
        changed = True
        while changed:
            changed = False
            for name in self.model.holds.get(agent, ()):
                args, target = sigs[name]
                if target in mine or not all(t in mine for t in args):
                    continue
                mine[target] = (
                    f"{name}({', '.join(mine[t] for t in args)})" if args else name
                )
                changed = True

    def can_send(self, sender: str, ty: str, receiver: str) -> bool:
        return ty in self.owned[sender] and ty in self.model.channels.get(
            (sender, receiver), ()
        )

    def deliver(self, receiver: str, ty: str, term: str) -> None:
        mine = self.owned[receiver]
        if ty not in mine:
            mine[ty] = term
            self._close(receiver)


def replays(model: Model, trace: list[dict], final_check) -> bool:
    """Type-level replay of a reported trace: every event rides a channel
    that carries its type, from a sender that possesses the type. Then
    `final_check(fold)` judges the end state."""
    fold = Fold(model)
    for e in trace:
        if not fold.can_send(e["sender"], e["type"], e["receiver"]):
            return False
        fold.deliver(e["receiver"], e["type"], e["term"])
    return final_check(fold)


def violates(c: tuple[str, str, str, str]):
    x, a, y, b = c
    return lambda fold: a in fold.owned[x] and b not in fold.owned[y]


def reaches(goal: tuple[str, str]):
    x, a = goal
    return lambda fold: a in fold.owned[x]


# --- traces ---------------------------------------------------------------


@dataclass(frozen=True)
class TraceCase:
    text: str
    events: int
    relay_events: int
    planted: int | None  # index of the planted channel violation


def random_trace(
    rng: random.Random, o: Original, model: Model, length: int, planted: int | None
) -> TraceCase:
    """A random walk over sendable (sender, type, receiver), mixed with relay
    segments that forward one wrapped term hop by hop between interfaces.
    With `planted` = k in 0..9, an event is inserted in the k-th tenth of the
    trace in which an original agent sends one of its base values to its own
    input interface, a channel the construction never opens."""
    fold = Fold(model)
    chans = sorted(model.channels)
    interfaces = [a for a in model.agents if a[:2] in ("I:", "O:")]
    events: list[str] = []
    relay = 0
    while len(events) < length:
        if rng.random() < 0.02:
            holder = rng.choice(interfaces)
            wrapper = sorted(t for t in fold.owned[holder] if "[" in t)
            if wrapper:
                ty = rng.choice(wrapper)
                term = fold.owned[holder][ty]
                for _ in range(min(rng.randint(5, 40), length - len(events))):
                    nxt = rng.choice([a for a in interfaces if a != holder])
                    events.append(f"{holder} -> {nxt} : {term} : {ty};")
                    fold.deliver(nxt, ty, term)
                    holder = nxt
                    relay += 1
                continue
        s, r = rng.choice(chans)
        sendable = [t for t in model.channels[(s, r)] if t in fold.owned[s]]
        if not sendable:
            continue
        ty = rng.choice(sendable)
        term = fold.owned[s][ty]
        events.append(f"{s} -> {r} : {term} : {ty};")
        fold.deliver(r, ty, term)
    index = None
    if planted is not None:
        index = rng.randrange(length * planted // 10, length * (planted + 1) // 10)
        a = rng.choice(o.agents)
        ty = o.holds[a][0]
        events.insert(index, f"{a} -> I:{a} : {ctor_of(ty)} : {ty};")
    return TraceCase("\n".join(events) + "\n", len(events), relay, index)


def log_uniform_lengths(k: int, lo: int, hi: int) -> list[int]:
    """k lengths log-uniform on [lo, hi], at the middle of k equal strata:
    every seed sees the same sizes, and the seed varies the traces."""
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (i + 0.5) / k)) for i in range(k)]
