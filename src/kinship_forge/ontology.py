"""Gender-neutral kinship ontology: predicates, composition rules, surfaces.

A fact p(X, Y) genders its second constant: it asserts "Y is the
surface(p, gender(Y)) of X". So inv-grand(X, Y) with Y male reads
"Y is the grandfather of X". Composition of two facts that share a
midpoint is a partial function given by 16 head <- (body1, body2) rules.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ConfigError, EnumerationCapError, read_utf8


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"

    @property
    def opposite(self) -> "Gender":
        return Gender.FEMALE if self is Gender.MALE else Gender.MALE


class Predicate(Enum):
    CHILD = "child"
    INV_CHILD = "inv-child"
    GRAND = "grand"
    INV_GRAND = "inv-grand"
    SIBLING = "sibling"
    SO = "SO"
    UN = "un"
    INV_UN = "inv-un"
    IN_LAW = "in-law"
    INV_IN_LAW = "inv-in-law"
    SIB_IN_LAW = "sib-in-law"


# Canonical orderings, used everywhere a deterministic sort is needed.
PREDICATE_ORDER: dict[Predicate, int] = {p: i for i, p in enumerate(Predicate)}
GENDER_ORDER: dict[Gender, int] = {g: i for i, g in enumerate(Gender)}

# p(X, Y) is equivalent to inverse_of(p)(Y, X); the two spellings of one
# relationship. Horizontal predicates are their own inverse.
_INVERSE: dict[Predicate, Predicate] = {
    Predicate.CHILD: Predicate.INV_CHILD,
    Predicate.INV_CHILD: Predicate.CHILD,
    Predicate.GRAND: Predicate.INV_GRAND,
    Predicate.INV_GRAND: Predicate.GRAND,
    Predicate.SIBLING: Predicate.SIBLING,
    Predicate.SO: Predicate.SO,
    Predicate.UN: Predicate.INV_UN,
    Predicate.INV_UN: Predicate.UN,
    Predicate.IN_LAW: Predicate.INV_IN_LAW,
    Predicate.INV_IN_LAW: Predicate.IN_LAW,
    Predicate.SIB_IN_LAW: Predicate.SIB_IN_LAW,
}

_SURFACE: dict[tuple[Predicate, Gender], str] = {
    (Predicate.CHILD, Gender.MALE): "son",
    (Predicate.CHILD, Gender.FEMALE): "daughter",
    (Predicate.INV_CHILD, Gender.MALE): "father",
    (Predicate.INV_CHILD, Gender.FEMALE): "mother",
    (Predicate.GRAND, Gender.MALE): "grandson",
    (Predicate.GRAND, Gender.FEMALE): "granddaughter",
    (Predicate.INV_GRAND, Gender.MALE): "grandfather",
    (Predicate.INV_GRAND, Gender.FEMALE): "grandmother",
    (Predicate.SIBLING, Gender.MALE): "brother",
    (Predicate.SIBLING, Gender.FEMALE): "sister",
    (Predicate.SO, Gender.MALE): "husband",
    (Predicate.SO, Gender.FEMALE): "wife",
    (Predicate.UN, Gender.MALE): "nephew",
    (Predicate.UN, Gender.FEMALE): "niece",
    (Predicate.INV_UN, Gender.MALE): "uncle",
    (Predicate.INV_UN, Gender.FEMALE): "aunt",
    (Predicate.IN_LAW, Gender.MALE): "son-in-law",
    (Predicate.IN_LAW, Gender.FEMALE): "daughter-in-law",
    (Predicate.INV_IN_LAW, Gender.MALE): "father-in-law",
    (Predicate.INV_IN_LAW, Gender.FEMALE): "mother-in-law",
    (Predicate.SIB_IN_LAW, Gender.MALE): "brother-in-law",
    (Predicate.SIB_IN_LAW, Gender.FEMALE): "sister-in-law",
}

_SURFACE_INVERSE: dict[str, tuple[Predicate, Gender]] = {
    name: pair for pair, name in _SURFACE.items()
}


def surface(predicate: Predicate, gender: Gender) -> str:
    """Gendered surface name of a fact whose second constant has `gender`."""
    return _SURFACE[(predicate, gender)]


def parse_surface(name: str) -> tuple[Predicate, Gender]:
    try:
        return _SURFACE_INVERSE[name]
    except KeyError:
        raise ConfigError(f"unknown surface relation: {name!r}") from None


def inverse_of(predicate: Predicate) -> Predicate:
    return _INVERSE[predicate]


def parse_predicate(text: str) -> Predicate:
    try:
        return Predicate(text)
    except ValueError:
        raise ConfigError(f"unknown predicate: {text!r}") from None


def parse_gender(text: str) -> Gender:
    try:
        return Gender(text)
    except ValueError:
        raise ConfigError(f"unknown gender: {text!r}") from None


@dataclass(frozen=True)
class Rule:
    """head(X, Y) holds when body[0](X, Z) and body[1](Z, Y) hold."""

    head: Predicate
    body: tuple[Predicate, Predicate]

    def __str__(self) -> str:
        return f"{self.head.value} <- {self.body[0].value} {self.body[1].value}"


_DEFAULT_RULES: tuple[tuple[str, str, str], ...] = (
    ("grand", "child", "child"),
    ("grand", "SO", "grand"),
    ("grand", "grand", "sibling"),
    ("inv-grand", "inv-child", "inv-child"),
    ("inv-grand", "sibling", "inv-grand"),
    ("child", "child", "sibling"),
    ("child", "SO", "child"),
    ("inv-child", "sibling", "inv-child"),
    ("inv-child", "child", "inv-grand"),
    ("sibling", "child", "inv-un"),
    ("sibling", "inv-child", "child"),
    ("sibling", "sibling", "sibling"),
    ("in-law", "child", "SO"),
    ("inv-in-law", "SO", "inv-child"),
    ("un", "sibling", "child"),
    ("inv-un", "inv-child", "sibling"),
)


class RuleBase:
    """An immutable rule set with functional composition.

    Two rules may not share a body pair; compose(p1, p2) is therefore a
    partial function from ordered predicate pairs to head predicates.
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        by_body: dict[tuple[Predicate, Predicate], Rule] = {}
        for rule in rules:
            if rule.body in by_body:
                raise ConfigError(f"duplicate rule body: {rule}")
            by_body[rule.body] = rule
        self._by_body = by_body
        self.rules: tuple[Rule, ...] = tuple(
            sorted(
                by_body.values(),
                key=lambda r: (
                    PREDICATE_ORDER[r.head],
                    PREDICATE_ORDER[r.body[0]],
                    PREDICATE_ORDER[r.body[1]],
                ),
            )
        )
        by_head: dict[Predicate, list[Rule]] = {}
        for rule in self.rules:
            by_head.setdefault(rule.head, []).append(rule)
        self._by_head = {h: tuple(rs) for h, rs in by_head.items()}

    def compose(self, first: Predicate, second: Predicate) -> Predicate | None:
        rule = self._by_body.get((first, second))
        return rule.head if rule else None

    def rules_for_head(self, head: Predicate) -> tuple[Rule, ...]:
        return self._by_head.get(head, ())

    @property
    def rule_bearing(self) -> tuple[Predicate, ...]:
        """Predicates that appear in at least one rule, canonical order."""
        seen = set()
        for rule in self.rules:
            seen.add(rule.head)
            seen.update(rule.body)
        return tuple(sorted(seen, key=PREDICATE_ORDER.__getitem__))

    @classmethod
    def from_file(cls, path: str | Path) -> "RuleBase":
        """Parse `head <- body1 body2` lines; '#' starts a comment."""
        rules = []
        for lineno, raw in enumerate(read_utf8(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                head_text, body_text = line.split("<-")
                first, second = body_text.split()
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: expected 'head <- body1 body2'") from None
            rules.append(
                Rule(
                    parse_predicate(head_text.strip()),
                    (parse_predicate(first), parse_predicate(second)),
                )
            )
        return cls(rules)


@functools.lru_cache(maxsize=1)
def default_rulebase() -> RuleBase:
    return RuleBase(
        Rule(parse_predicate(h), (parse_predicate(a), parse_predicate(b)))
        for h, a, b in _DEFAULT_RULES
    )


Atom = tuple[Predicate, Gender]


def shape_id(atoms: Sequence[Atom]) -> str:
    """Compact stable identifier, e.g. 'child.f|SO.m'."""
    return "|".join(f"{p.value}.{g.value[0]}" for p, g in atoms)


def atom_sort_key(atoms: Sequence[Atom]) -> tuple:
    """Canonical order of atom sequences: predicate, then gender, atom by atom."""
    return tuple((PREDICATE_ORDER[p], GENDER_ORDER[g]) for p, g in atoms)


def genders_consistent(atoms: Sequence[Atom]) -> bool:
    """SO edges join opposite genders; nothing else constrains a shape.

    An SO atom's first entity is the previous atom's gendered entity
    (the chain start is unrecorded, hence unconstrained).
    """
    for i, (pred, gender) in enumerate(atoms):
        if pred is Predicate.SO and i > 0 and atoms[i - 1][1] is gender:
            return False
    return True


def _expansions(atoms: tuple[Atom, ...], rb: RuleBase) -> Iterable[tuple[Atom, ...]]:
    for i, (pred, gender) in enumerate(atoms):
        for rule in rb.rules_for_head(pred):
            first, second = rule.body
            for midpoint_gender in Gender:
                expanded = (
                    atoms[:i] + ((first, midpoint_gender), (second, gender)) + atoms[i + 1 :]
                )
                if genders_consistent(expanded):
                    yield expanded


# longest shape enumerate_shapes() builds; each level is about 7x the last
MAX_SHAPE_LEN = 6


def enumerate_shapes(k: int, rb: RuleBase) -> tuple[tuple[Atom, ...], ...]:
    """All distinct gendered shapes of length k reachable by rule expansion.

    A shape is its atom key: atoms[i] is (predicate, gender of the edge's
    second entity) for the i-th chain edge; the path-start entity's gender
    is not part of it. Level 1 is every (rule-bearing predicate, gender)
    pair; each further level replaces one atom with a rule body under
    gender consistency. Returned sorted by atom_sort_key.
    """
    if k < 1:
        raise ConfigError(f"shape length must be >= 1, got {k}")
    if k > MAX_SHAPE_LEN:
        raise EnumerationCapError(f"shape length {k} exceeds cap {MAX_SHAPE_LEN}")
    level = {((p, g),) for p in rb.rule_bearing for g in Gender}
    for _ in range(k - 1):
        level = {new for atoms in level for new in _expansions(atoms, rb)}
    return tuple(sorted(level, key=atom_sort_key))
