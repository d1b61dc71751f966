"""Reasoning chains and noise paths sampled from closed family graphs.

Backward chaining starts from a single target fact and applies k-1
expansions, each replacing one chain fact with the two body facts of a
rule that derives it through a fresh midpoint. The resulting facts form
a simple path whose fold rederives the target.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum

from .errors import ClosureConflictError, ConfigError, NoiseSearchError, UnexpandableError
from .familygraph import Fact, KinshipGraph, generate_backbone, simple_paths
from .ontology import Atom, Rule, RuleBase


@dataclass(frozen=True)
class FactPath:
    """A simple path of graph edges: a reasoning chain or a noise path.

    atoms[i] is (predicate, gender of the second entity) of facts[i].
    """

    facts: tuple[Fact, ...]
    atoms: tuple[Atom, ...]

    @classmethod
    def of(cls, g: KinshipGraph, facts: Iterable[Fact]) -> FactPath:
        facts = tuple(facts)
        return cls(facts, tuple((f.pred, g.gender(f.dst)) for f in facts))

    @property
    def k(self) -> int:
        return len(self.facts)

    @property
    def vertices(self) -> tuple[int, ...]:
        return (self.facts[0].src,) + tuple(f.dst for f in self.facts)


class NoiseKind(Enum):
    SUPPORTING = "supporting"
    IRRELEVANT = "irrelevant"
    DISCONNECTED = "disconnected"


def sample_target(g: KinshipGraph, seed: int) -> Fact:
    """Uniform draw over every edge of the graph.

    Draws an index into the sorted edges, as choice(g.facts()) would,
    and walks the adjacency to it without building the facts.
    """
    count = g.edge_count
    if not count:
        raise ConfigError("cannot sample a target from an edgeless graph")
    index = random.Random(seed).choice(range(count))
    for src in sorted(g.entities):
        out = g.out_of(src)
        if index < len(out):
            break
        index -= len(out)
    dst = sorted(out)[index]
    return Fact(src, dst, out[dst])


# fresh expansions backward_chain tries before it gives up
MAX_RESTARTS = 50


def backward_chain(
    g: KinshipGraph,
    target: Fact,
    k: int,
    seed: int,
    rb: RuleBase,
) -> FactPath:
    """Expand target into a k-fact simple path of graph edges.

    Each step picks a chain fact uniformly, then a rule uniformly among
    rules with at least one valid grounding, then a midpoint uniformly.
    Midpoints already on the path are rejected. An attempt with an
    unexpandable pick restarts from scratch; the restart budget exhausted
    raises UnexpandableError. A target with no grounding at all raises
    it at once, since every restart would stop at its first step.
    """
    if k < 1:
        raise ConfigError(f"chain length must be >= 1, got {k}")
    if g.predicate(target.src, target.dst) is not target.pred:
        raise ConfigError(f"target {target} is not an edge of the graph")
    first_options = _groundings(g, rb, target, {target.src, target.dst})
    if k > 1 and not first_options:
        raise UnexpandableError(f"no length-{k} expansion of {target}: it has no grounding")
    rng = random.Random(seed)
    for _ in range(MAX_RESTARTS):
        facts = [target]
        on_path = {target.src, target.dst}
        while len(facts) < k:
            index = rng.randrange(len(facts))
            fact = facts[index]
            if len(facts) == 1:
                options = first_options
            else:
                options = _groundings(g, rb, fact, on_path)
            if not options:
                break
            rule, midpoints = rng.choice(options)
            z = rng.choice(midpoints)
            facts[index : index + 1] = [
                Fact(fact.src, z, rule.body[0]),
                Fact(z, fact.dst, rule.body[1]),
            ]
            on_path.add(z)
        if len(facts) == k:
            return FactPath.of(g, facts)
    raise UnexpandableError(
        f"no length-{k} expansion of {target} within {MAX_RESTARTS} restarts"
    )


def _groundings(
    g: KinshipGraph, rb: RuleBase, fact: Fact, on_path: set[int]
) -> list[tuple[Rule, list[int]]]:
    """Each rule deriving fact through a midpoint off the path, with those
    midpoints ascending; rules in rules_for_head order."""
    out_by_pred = g.out_by_pred(fact.src)
    into_dst = g.in_of(fact.dst)
    options = []
    for rule in rb.rules_for_head(fact.pred):
        first, second = rule.body
        midpoints = [
            z
            for z in out_by_pred.get(first, ())
            if z not in on_path and into_dst.get(z) is second
        ]
        if midpoints:
            options.append((rule, midpoints))
    return options


def _pick_path(
    rng: random.Random, candidates: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Uniform over available lengths, then uniform within the length.

    Candidates are vertex tuples; sorting them ranks paths as their
    (src, dst, pred) facts would, since a pair carries one predicate.
    """
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for path in candidates:
        by_len.setdefault(len(path), []).append(path)
    length = rng.choice(sorted(by_len))
    return rng.choice(sorted(by_len[length]))


def _path_along(g: KinshipGraph, vertices: tuple[int, ...]) -> FactPath:
    pairs = zip(vertices, vertices[1:])
    return FactPath.of(g, (Fact(a, b, g.predicate(a, b)) for a, b in pairs))


def sample_supporting_noise(g: KinshipGraph, chain: FactPath, seed: int) -> FactPath:
    """A 2-3 edge alternative route between two chain vertices.

    Endpoints are chain vertices vi, vj with i < j; interior vertices
    leave the chain; no edge reuses a chain edge even reversed. The
    result closes a cycle with the chain segment it parallels.
    """
    if chain.k < 2:
        raise ConfigError("supporting noise requires a chain of length >= 2")
    rng = random.Random(seed)
    vertices = chain.vertices
    on_chain = frozenset(vertices)
    index_pairs = [
        (i, j) for i in range(len(vertices)) for j in range(i + 1, len(vertices))
    ]
    # a path of >= 2 edges whose interior leaves the chain has an
    # off-chain endpoint on every edge, so it never reuses a chain edge
    routes: dict[int, list[tuple[int, ...]]] = {}
    for i, j in rng.sample(index_pairs, len(index_pairs)):
        if i not in routes:
            routes[i] = [
                p for p in simple_paths(g.out_of, vertices[i], 3, on_chain) if len(p) >= 3
            ]
        candidates = [p for p in routes[i] if p[-1] == vertices[j]]
        if candidates:
            return _path_along(g, _pick_path(rng, candidates))
    raise NoiseSearchError("no supporting path between any two chain vertices")


def sample_irrelevant_noise(g: KinshipGraph, chain: FactPath, seed: int) -> FactPath:
    """A 1-3 edge dead-end hanging off one query entity.

    The anchor is chosen uniformly between the chain endpoints; every
    other vertex of the path avoids the chain, so the only shared vertex
    is the anchor itself.
    """
    rng = random.Random(seed)
    endpoints = [chain.vertices[0], chain.vertices[-1]]
    anchor = rng.choice(endpoints)
    on_chain = frozenset(chain.vertices)
    for candidate_anchor in (anchor, *(e for e in endpoints if e != anchor)):
        candidates = [
            p
            for p in simple_paths(g.out_of, candidate_anchor, 3, on_chain)
            if p[-1] not in on_chain
        ]
        if candidates:
            return _path_along(g, _pick_path(rng, candidates))
    raise NoiseSearchError("no off-chain path from either query entity")


# the disconnected-noise world's first id, above any story-world id
NOISE_ID_BASE = 10_000


def sample_disconnected_noise(
    seed: int, close: Callable[[KinshipGraph], KinshipGraph]
) -> tuple[FactPath, KinshipGraph]:
    """A 1-3 edge path in a fresh, unrelated closed family graph.

    World attempt i is a two-generation backbone seeded with seed + i,
    with ids from NOISE_ID_BASE to stay disjoint from the caller's
    graph, and closed by close. The returned graph is unnamed; callers
    must name it disjointly from the story's other entities.
    """
    rng = random.Random(seed)
    for attempt in range(20):
        try:
            closed = close(generate_backbone(seed + attempt, 2, NOISE_ID_BASE))
        except ClosureConflictError:
            continue
        starts = sorted(closed.entities)
        for start in rng.sample(starts, len(starts)):
            candidates = list(simple_paths(closed.out_of, start, 3))
            if candidates:
                return _path_along(closed, _pick_path(rng, candidates)), closed
    raise NoiseSearchError("could not build a disconnected noise world")
