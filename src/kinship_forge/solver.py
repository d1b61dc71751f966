"""Symbolic oracle: span-fold derivation over fact paths.

The fold is a CYK-style dynamic program: a span derives every head any
bracketing of pairwise composition can reach. solve() works on a bag of
facts: it first mirrors each fact with its inverse spelling (a stored
un(Randolph, Christopher) also provides the Christopher -> Randolph leg
as inv-un), then enumerates simple paths between the query entities and
folds each one.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import AmbiguousAnswerError, NoPathError
from .familygraph import Fact, simple_paths
from .ontology import (
    Gender,
    PREDICATE_ORDER,
    Predicate,
    RuleBase,
    inverse_of,
    surface,
)

SpanTable = dict[tuple[int, int], frozenset[Predicate]]

# longest simple path, in edges, that solve() enumerates; a k-fact chain
# with k above it can never be certified
MAX_PATH_LEN = 12


def fold_predicates(preds: Sequence[Predicate], rb: RuleBase) -> frozenset[Predicate]:
    """Every predicate derivable for the whole sequence, any bracketing."""
    table = _span_table([frozenset((p,)) for p in preds], rb)
    return table[(0, len(preds))]


def _span_table(leaf_sets: Sequence[frozenset[Predicate]], rb: RuleBase) -> SpanTable:
    n = len(leaf_sets)
    table: SpanTable = {(i, i + 1): leaf_sets[i] for i in range(n)}
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            derived = set()
            for m in range(i + 1, j):
                for a in table[(i, m)]:
                    for b in table[(m, j)]:
                        head = rb.compose(a, b)
                        if head:
                            derived.add(head)
            table[(i, j)] = frozenset(derived)
    return table


@dataclass(frozen=True)
class SolveResult:
    predicate: Predicate
    label: str
    proof: str


def _augmented(facts: Iterable[Fact]) -> dict[tuple[int, int], frozenset[Predicate]]:
    pairs: dict[tuple[int, int], set[Predicate]] = {}
    for f in facts:
        pairs.setdefault((f.src, f.dst), set()).add(f.pred)
        pairs.setdefault((f.dst, f.src), set()).add(inverse_of(f.pred))
    return {pair: frozenset(preds) for pair, preds in pairs.items()}


def _witness(
    table: SpanTable,
    vertices: Sequence[int],
    i: int,
    j: int,
    target: Predicate,
    rb: RuleBase,
    name_of,
) -> str:
    if j == i + 1:
        return f"{target.value}({name_of(vertices[i])},{name_of(vertices[j])})"
    for m in range(i + 1, j):
        for a in sorted(table[(i, m)], key=PREDICATE_ORDER.__getitem__):
            for b in sorted(table[(m, j)], key=PREDICATE_ORDER.__getitem__):
                if rb.compose(a, b) is target:
                    left = _witness(table, vertices, i, m, a, rb, name_of)
                    right = _witness(table, vertices, m, j, b, rb, name_of)
                    return f"({left} + {right} => {target.value})"
    raise AssertionError("span table lost its derivation")


def solve(
    facts: Iterable[Fact],
    query: tuple[int, int],
    genders: Mapping[int, Gender],
    rb: RuleBase,
    name_of=None,
) -> SolveResult:
    """Derive the unique relation label for query = (head, tail).

    The answer reads "tail is the <label> of head". Raises NoPathError
    when no simple path derives anything, AmbiguousAnswerError when
    different paths or bracketings disagree.
    """
    if name_of is None:
        name_of = str
    facts = tuple(facts)
    start, goal = query
    pairs = _augmented(facts)
    adjacency: dict[int, list[int]] = {}
    for a, b in sorted(pairs):
        adjacency.setdefault(a, []).append(b)
    if start not in adjacency or goal not in adjacency:
        raise NoPathError(f"query entity missing from facts: {query}")
    derived: set[Predicate] = set()
    witness_path: tuple[int, ...] | None = None
    witness_table: SpanTable | None = None
    for vertices in simple_paths(adjacency.__getitem__, start, MAX_PATH_LEN, {goal}):
        if vertices[-1] != goal:
            continue
        table = _span_table([pairs[(a, b)] for a, b in zip(vertices, vertices[1:])], rb)
        heads = table[(0, len(vertices) - 1)]
        derived.update(heads)
        if heads and witness_path is None:
            witness_path = vertices
            witness_table = table
    if not derived:
        raise NoPathError(f"no derivable path from {start} to {goal}")
    if len(derived) > 1:
        raise AmbiguousAnswerError(derived)
    predicate = derived.pop()
    assert witness_path is not None and witness_table is not None
    proof = _witness(
        witness_table, witness_path, 0, len(witness_path) - 1, predicate, rb, name_of
    )
    return SolveResult(predicate, surface(predicate, genders[goal]), proof)

