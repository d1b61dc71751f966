"""Independent reference implementations the real modules are checked against.

Deliberately simple and slow: full rescans, explicit recursion, no
shared code with the package beyond the core datatypes.
"""

from __future__ import annotations

import re
from functools import lru_cache

from kinship_forge.errors import ClosureConflictError
from kinship_forge.familygraph import Fact, KinshipGraph
from kinship_forge.ontology import (
    Atom,
    Gender,
    Predicate,
    RuleBase,
    genders_consistent,
    parse_surface,
)
from kinship_forge.solver import SolveResult, solve

_FACT_STRING = re.compile(r"([a-z-]+|SO)\(([^,]+),([^)]+)\)")


def record_facts(record, include_noise: bool):
    """Rebuild Fact/gender structures from a row's serialized strings."""
    strings = record.facts + (record.noise_facts if include_noise else ())
    ids: dict[str, int] = {}
    facts: list[Fact] = []
    for rendered in strings:
        m = _FACT_STRING.fullmatch(rendered)
        assert m, rendered
        pred, head, tail = Predicate(m.group(1)), m.group(2), m.group(3)
        facts.append(
            Fact(ids.setdefault(head, len(ids)), ids.setdefault(tail, len(ids)), pred)
        )
    genders = {ids[tok]: Gender(record.genders[tok]) for tok in ids}
    return facts, ids, genders


def resolve_record(record, rb: RuleBase, include_noise: bool = True) -> SolveResult:
    """Re-answer a row's query from nothing but its serialized fields."""
    facts, ids, genders = record_facts(record, include_noise)
    return solve(facts, (ids[record.query_head], ids[record.query_tail]), genders, rb)


def naive_close(g: KinshipGraph, rb: RuleBase) -> KinshipGraph:
    """Round-based closure via full O(V^3) rescan each round.

    Each round collects every head derivable from two currently labeled
    edges landing on an unlabeled pair; two distinct heads for one pair
    in the same round is a conflict; earlier rounds' labels are final.
    """
    out = g.copy()
    while True:
        candidates: dict[tuple[int, int], set[Predicate]] = {}
        for x in sorted(out.entities):
            for z, first in sorted(out.out_of(x).items()):
                for y, second in sorted(out.out_of(z).items()):
                    if x == y or out.predicate(x, y) is not None:
                        continue
                    head = rb.compose(first, second)
                    if head is not None:
                        candidates.setdefault((x, y), set()).add(head)
        if not candidates:
            break
        for (x, y), heads in sorted(candidates.items()):
            if len(heads) > 1:
                raise ClosureConflictError(
                    f"pair ({x},{y}) derivable as {sorted(h.value for h in heads)}"
                )
            out.add_edge(x, y, next(iter(heads)))
    return out


def brute_force_shape_keys(k: int, rb: RuleBase) -> set[tuple[Atom, ...]]:
    """All gendered atom sequences of length k with a nonempty fold."""
    alphabet = [
        (p, g)
        for p in sorted(rb.rule_bearing, key=lambda p: p.value)
        for g in (Gender.FEMALE, Gender.MALE)
    ]

    sequences: list[tuple[Atom, ...]] = [()]
    for _ in range(k):
        sequences = [seq + (atom,) for seq in sequences for atom in alphabet]
    return {
        seq
        for seq in sequences
        if genders_consistent(seq) and brute_force_fold(tuple(p for p, _ in seq), rb)
    }


def brute_force_fold(preds: tuple[Predicate, ...], rb: RuleBase) -> frozenset[Predicate]:
    """All predicates a sequence folds to, by explicit recursion over splits."""

    @lru_cache(maxsize=None)
    def fold(seq: tuple[Predicate, ...]) -> frozenset[Predicate]:
        if len(seq) == 1:
            return frozenset(seq)
        heads: set[Predicate] = set()
        for cut in range(1, len(seq)):
            for left in fold(seq[:cut]):
                for right in fold(seq[cut:]):
                    head = rb.compose(left, right)
                    if head is not None:
                        heads.add(head)
        return frozenset(heads)

    return fold(tuple(preds))


def all_simple_paths(
    edges: set[tuple[int, int]], start: int, max_len: int, stop: frozenset[int]
) -> set[tuple[int, ...]]:
    """Every simple path of 1..max_len edges out of start, as vertex tuples.

    Explicit recursion over the whole edge set; a vertex in stop may end
    a path but is never walked through.
    """
    found: set[tuple[int, ...]] = set()

    def walk(path: tuple[int, ...]) -> None:
        if len(path) - 1 == max_len or (len(path) > 1 and path[-1] in stop):
            return
        for a, b in edges:
            if a == path[-1] and b not in path:
                found.add(path + (b,))
                walk(path + (b,))

    walk((start,))
    return found


# the synthetic bank's three sentence patterns, read backwards: A and B
# are the fact's first and second tokens, REL the second one's relation
_STORY_SENTENCES = (
    re.compile(r"(?P<b>\S+) is the (?P<rel>[a-z-]+) of (?P<a>\S+)\."),
    re.compile(r"The (?P<rel>[a-z-]+) of (?P<a>\S+) is (?P<b>\S+)\."),
    re.compile(r"(?P<a>\S+) has a (?P<rel>[a-z-]+) named (?P<b>\S+)\."),
)


def story_facts(story: str) -> list[tuple[str, str]]:
    """Every fact a synthetic-bank story tells, with its second entity's gender.

    Each sentence must match exactly one pattern; the result pairs a fact
    string, spelled as a row's `facts` are, with a gender value.
    """
    told = []
    for sentence in re.split(r"(?<=\.) ", story):
        matches = [m for p in _STORY_SENTENCES if (m := p.fullmatch(sentence))]
        assert len(matches) == 1, sentence
        m = matches[0]
        pred, gender = parse_surface(m.group("rel"))
        told.append((f"{pred.value}({m.group('a')},{m.group('b')})", gender.value))
    return told
