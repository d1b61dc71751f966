"""Family world sampling: backbones, rule closure, name assignment.

A backbone is a forest-of-couples family tree; closure extends it with
every relation the rule base can derive. Edges are directed and carry
exactly one predicate per ordered entity pair.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection, Iterator, Reversible
from dataclasses import dataclass
from importlib import resources

from .errors import ClosureConflictError, ConfigError, PoolExhaustedError
from .ontology import Gender, Predicate, RuleBase


@dataclass(frozen=True)
class Fact:
    """Directed edge: pred(src, dst), gendering dst."""

    src: int
    dst: int
    pred: Predicate

    def __str__(self) -> str:
        return f"{self.pred.value}({self.src},{self.dst})"


class KinshipGraph:
    """Mutable relation graph over integer entity ids.

    `entities` maps each id to its gender. Keeps out- and in-adjacency
    for the closure and the chain sampler, and, built on demand, the
    out-adjacency grouped by predicate and the sorted edges; a new edge
    drops both. `id_base` offsets fresh ids so two graphs can stay
    disjoint.
    """

    def __init__(self, id_base: int = 0) -> None:
        self.entities: dict[int, Gender] = {}
        self._id_base = id_base
        self._out: dict[int, dict[int, Predicate]] = {}
        self._in: dict[int, dict[int, Predicate]] = {}
        self._by_pred: dict[int, dict[Predicate, list[int]]] = {}
        self._facts: tuple[Fact, ...] | None = None

    def add_entity(self, gender: Gender) -> int:
        """Add an entity of this gender and return its fresh id."""
        entity_id = self._id_base + len(self.entities)
        self.entities[entity_id] = gender
        self._out[entity_id] = {}
        self._in[entity_id] = {}
        return entity_id

    def add_edge(self, src: int, dst: int, pred: Predicate) -> None:
        if src == dst:
            raise ConfigError(f"self-loop edge on entity {src}")
        if src not in self.entities or dst not in self.entities:
            raise ConfigError(f"edge endpoints {src},{dst} not both in graph")
        existing = self._out[src].get(dst)
        if existing is not None and existing is not pred:
            raise ConfigError(f"({src},{dst}) already {existing.value}, refusing {pred.value}")
        self._out[src][dst] = pred
        self._in[dst][src] = pred
        self._by_pred.pop(src, None)
        self._facts = None

    def predicate(self, src: int, dst: int) -> Predicate | None:
        out = self._out.get(src)
        return out.get(dst) if out else None

    def out_of(self, src: int) -> dict[int, Predicate]:
        return self._out.get(src, {})

    def in_of(self, dst: int) -> dict[int, Predicate]:
        return self._in.get(dst, {})

    def out_by_pred(self, src: int) -> dict[Predicate, list[int]]:
        """src's out-neighbours grouped by edge predicate, ids ascending."""
        grouped = self._by_pred.get(src)
        if grouped is None:
            out = self.out_of(src)
            grouped = {}
            for dst in sorted(out):
                grouped.setdefault(out[dst], []).append(dst)
            self._by_pred[src] = grouped
        return grouped

    def structure(self) -> tuple:
        """The out-adjacency in insertion order, without genders.

        close_graph never reads a gender, so two graphs with equal
        structures close to the same edges.
        """
        return tuple((src, tuple(out.items())) for src, out in self._out.items())

    def regendered(self, entities: dict[int, Gender]) -> "KinshipGraph":
        """A graph with these genders over this graph's adjacency and
        sorted edges, shared, not copied.

        entities must have this graph's ids. Neither graph may then gain
        an edge, since the other would see it.
        """
        twin = KinshipGraph(self._id_base)
        twin.entities = entities
        twin._out = self._out
        twin._in = self._in
        twin._by_pred = self._by_pred
        twin._facts = self.facts()
        return twin

    def gender(self, entity_id: int) -> Gender:
        return self.entities[entity_id]

    def facts(self) -> tuple[Fact, ...]:
        """All edges as Facts, sorted for determinism; built once per edge set."""
        if self._facts is None:
            self._facts = tuple(
                Fact(src, dst, pred)
                for src in sorted(self._out)
                for dst, pred in sorted(self._out[src].items())
            )
        return self._facts

    @property
    def edge_count(self) -> int:
        return sum(len(d) for d in self._out.values())

    def copy(self) -> "KinshipGraph":
        dup = KinshipGraph(self._id_base)
        dup.entities = dict(self.entities)
        dup._out = {i: dict(d) for i, d in self._out.items()}
        dup._in = {i: dict(d) for i, d in self._in.items()}
        return dup


def simple_paths(
    out_of: Callable[[int], Reversible[int]],
    start: int,
    max_len: int,
    stop: Collection[int] = frozenset(),
) -> Iterator[tuple[int, ...]]:
    """Simple directed paths of 1..max_len edges out of start, as vertex tuples.

    Depth-first from a stack: a popped path yields each one-edge
    extension, walking out_of(last) in reverse, and pushes it unless its
    new vertex is in stop or it has max_len edges. So a vertex in stop may
    end a path but never lies inside one, and the pushed extensions come
    off the stack in out_of order.
    """
    stack = [(start,)]
    while stack:
        path = stack.pop()
        for nxt in reversed(out_of(path[-1])):
            if nxt in path:
                continue
            extended = path + (nxt,)
            yield extended
            if nxt not in stop and len(path) < max_len:
                stack.append(extended)


MAX_CHILDREN = 3


def generate_backbone(seed: int, generations: int = 3, id_base: int = 0) -> KinshipGraph:
    """Sample a family tree of `generations` generations rooted at one
    founding couple.

    Couples draw Uniform{1..MAX_CHILDREN} children with fair coin genders.
    Every non-final-generation person marries a fresh opposite-gender
    entity with probability 1/2; only couples bear children. Entity
    ids count up from id_base.
    """
    rng = random.Random(seed)
    g = KinshipGraph(id_base)
    husband = g.add_entity(Gender.MALE)
    wife = g.add_entity(Gender.FEMALE)
    _marry(g, husband, wife)
    couples = [(husband, wife)]
    for gen in range(1, generations):
        next_couples: list[tuple[int, int]] = []
        for a, b in couples:
            kids = []
            for _ in range(rng.randint(1, MAX_CHILDREN)):
                gender = Gender.MALE if rng.random() < 0.5 else Gender.FEMALE
                kid = g.add_entity(gender)
                kids.append(kid)
                for parent in (a, b):
                    g.add_edge(parent, kid, Predicate.CHILD)
                    g.add_edge(kid, parent, Predicate.INV_CHILD)
            for x in kids:
                for y in kids:
                    if x != y:
                        g.add_edge(x, y, Predicate.SIBLING)
            if gen + 1 < generations:
                for kid in kids:
                    if rng.random() < 0.5:
                        spouse = g.add_entity(g.gender(kid).opposite)
                        _marry(g, kid, spouse)
                        next_couples.append((kid, spouse))
        couples = next_couples
    return g


def _marry(g: KinshipGraph, a: int, b: int) -> None:
    g.add_edge(a, b, Predicate.SO)
    g.add_edge(b, a, Predicate.SO)


def close_graph(g: KinshipGraph, rb: RuleBase) -> KinshipGraph:
    """Least-fixpoint rule closure, in rounds, shortest derivation first.

    Each round derives heads for X -> Z -> Y chains over the current
    edges. A pair keeps its first label: later rounds never relabel.
    Two different predicates first derivable for one pair in the same
    round mean the world is inconsistent; callers resample the backbone.
    Idempotent, and independent of scan order by round construction.
    """
    out = g.copy()
    frontier: list[tuple[int, int]] = [(f.src, f.dst) for f in out.facts()]
    while frontier:
        candidates: dict[tuple[int, int], set[Predicate]] = {}
        for x, z in frontier:
            first = out.predicate(x, z)
            for y, second in out.out_of(z).items():
                if y != x and out.predicate(x, y) is None:
                    head = rb.compose(first, second)
                    if head:
                        candidates.setdefault((x, y), set()).add(head)
            for w, before in out.in_of(x).items():
                if w != z and out.predicate(w, z) is None:
                    head = rb.compose(before, first)
                    if head:
                        candidates.setdefault((w, z), set()).add(head)
        frontier = []
        for pair in sorted(candidates):
            preds = candidates[pair]
            if len(preds) > 1:
                names = ", ".join(sorted(p.value for p in preds))
                raise ClosureConflictError(f"pair {pair} derives {{{names}}} in one round")
            out.add_edge(pair[0], pair[1], preds.pop())
            frontier.append(pair)
    return out


def default_name_pool() -> tuple[tuple[str, Gender], ...]:
    """The bundled pool: data/names.txt's `name,gender` lines in file order."""
    text = resources.files("kinship_forge").joinpath("data/names.txt").read_text(encoding="utf-8")
    return tuple(
        (name, Gender(gender)) for name, gender in (line.split(",") for line in text.split())
    )


def assign_names(
    g: KinshipGraph,
    pool: tuple[tuple[str, Gender], ...],
    seed: int,
) -> dict[int, str]:
    """Map each entity id of g to a fresh gender-matched, graph-unique name."""
    rng = random.Random(seed)
    names_of: dict[int, str] = {}
    for gender in Gender:
        ids = sorted(i for i, ig in g.entities.items() if ig is gender)
        names = [n for n, ng in pool if ng is gender]
        if len(names) < len(ids):
            raise PoolExhaustedError(
                f"{len(ids)} {gender.value} entities but only {len(names)} pool names"
            )
        names_of.update(zip(ids, rng.sample(names, len(ids))))
    return names_of

