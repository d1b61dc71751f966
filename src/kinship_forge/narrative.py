"""Story rendering from template banks.

Templates address entities through [ENT_0]..[ENT_n] slots, one per path
vertex of their shape key. A story partitions its chain into 1-3 fact
segments, renders each from an eligible template, then splices noise
sentences in at random sentence boundaries without reordering the main
narrative.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .chains import FactPath
from .errors import (
    BankFormatError,
    ConfigError,
    CoverageError,
    InsufficientTemplatesError,
    NoEligibleTemplateError,
    PoolExhaustedError,
    read_utf8,
)
from .ontology import (
    Atom,
    RuleBase,
    atom_sort_key,
    enumerate_shapes,
    parse_gender,
    parse_predicate,
    surface,
)
from .solver import fold_predicates

SLOT_RE = re.compile(r"\[ENT_(\d+)\]")
_BRACKET_RE = re.compile(r"\[[^\]]*\]")
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")
# a cloze story tells its entities as @entity-0 .. @entity-99
CLOZE_TOKENS = 100


class Split(Enum):
    TRAIN = "train"
    TEST = "test"
    UNSPLIT = "unsplit"


class Naming(Enum):
    NAMES = "names"
    CLOZE = "cloze"


class AnswerLeakWarning(UserWarning):
    """A template mentions the surface form its own key derives."""


@dataclass(frozen=True)
class Template:
    id: str
    key: tuple[Atom, ...]
    text: str
    split: Split = Split.UNSPLIT


class TemplateBank:
    """Keyed template store; lookup by gendered shape key and split."""

    def __init__(self, templates: Iterable[Template], provenance: str = "memory") -> None:
        self.provenance = provenance
        self._by_key: dict[tuple[Atom, ...], list[Template]] = {}
        seen: set[str] = set()
        for t in templates:
            if t.id in seen:
                raise BankFormatError(f"duplicate template id {t.id!r}")
            seen.add(t.id)
            self._by_key.setdefault(t.key, []).append(t)

    def keys(self) -> tuple[tuple[Atom, ...], ...]:
        return tuple(sorted(self._by_key, key=atom_sort_key))

    def templates_for(self, key: tuple[Atom, ...]) -> tuple[Template, ...]:
        return tuple(self._by_key.get(key, ()))

    def eligible(self, key: tuple[Atom, ...], split: Split) -> tuple[Template, ...]:
        pool = self._by_key.get(key)
        if not pool:
            raise CoverageError(f"bank has no templates for key {key}")
        chosen = tuple(t for t in pool if t.split is split or t.split is Split.UNSPLIT)
        if not chosen:
            raise NoEligibleTemplateError(
                f"all templates for key {key} sit outside split {split.value}"
            )
        return chosen

    def all_templates(self) -> tuple[Template, ...]:
        return tuple(t for key in self.keys() for t in self._by_key[key])

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_key.values())

    def __contains__(self, key: tuple[Atom, ...]) -> bool:
        return key in self._by_key


def _validate_slots(template: Template) -> None:
    for token in _BRACKET_RE.findall(template.text):
        if not SLOT_RE.fullmatch(token):
            raise BankFormatError(f"template {template.id}: unknown slot token {token}")
    slots = {int(m) for m in SLOT_RE.findall(template.text)}
    expected = set(range(len(template.key) + 1))
    if slots != expected:
        raise BankFormatError(
            f"template {template.id}: slots {sorted(slots)} do not cover 0..{len(template.key)}"
        )


def _leak_words(key: tuple[Atom, ...], rb: RuleBase) -> tuple[str, ...]:
    heads = fold_predicates([p for p, _ in key], rb)
    return tuple(sorted(surface(h, key[-1][1]) for h in heads))


def _check_leak(template: Template, rb: RuleBase) -> None:
    lowered = template.text.lower()
    for word in _leak_words(template.key, rb):
        if re.search(rf"(?<![a-z]){re.escape(word)}(?![a-z-])", lowered):
            warnings.warn(
                f"template {template.id} mentions its own answer {word!r}",
                AnswerLeakWarning,
                stacklevel=3,
            )


def load_bank(path: str | Path, rb: RuleBase) -> TemplateBank:
    """Parse a line-delimited JSON bank; leaky templates warn, not fail."""
    templates = []
    for lineno, raw in enumerate(read_utf8(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BankFormatError(f"{path}:{lineno}: bad JSON ({exc.msg})") from None
        try:
            key = tuple(
                (parse_predicate(p), parse_gender(g)) for p, g in record["key"]
            )
            template = Template(
                id=str(record["id"]),
                key=key,
                text=str(record["text"]),
                split=Split(record.get("split", "unsplit")),
            )
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise BankFormatError(f"{path}:{lineno}: {exc}") from None
        _validate_slots(template)
        _check_leak(template, rb)
        templates.append(template)
    return TemplateBank(templates, provenance=str(path))


_VARIANT_PATTERNS = (
    "[ENT_{b}] is the {rel} of [ENT_{a}].",
    "The {rel} of [ENT_{a}] is [ENT_{b}].",
    "[ENT_{a}] has a {rel} named [ENT_{b}].",
)


def synth_bank(rb: RuleBase, variants: int = 1) -> TemplateBank:
    """Deterministic bank covering every enumerable key of 1-3 facts, the
    segment lengths a story renders in.

    variant 0 renders each fact as "[ENT_i] is the <relation> of
    [ENT_i-1]."; further variants use alternate fixed phrasings so the
    bank can survive a template split.
    """
    if not 1 <= variants <= len(_VARIANT_PATTERNS):
        raise ConfigError(f"variants must lie in 1..{len(_VARIANT_PATTERNS)}")
    templates = []
    for k in (1, 2, 3):
        for index, key in enumerate(enumerate_shapes(k, rb)):
            for v in range(variants):
                sentences = [
                    _VARIANT_PATTERNS[v].format(
                        a=i, b=i + 1, rel=surface(pred, gender)
                    )
                    for i, (pred, gender) in enumerate(key)
                ]
                templates.append(
                    Template(
                        id=f"syn-k{k}-{index:04d}-v{v}",
                        key=key,
                        text=" ".join(sentences),
                    )
                )
    return TemplateBank(templates, provenance="synthetic")


def split_bank(bank: TemplateBank, holdout_frac: float, seed: int) -> TemplateBank:
    """Tag ceil(frac * n) templates per key as test, the rest as train."""
    if not 0.0 <= holdout_frac <= 1.0:
        raise ConfigError("holdout_frac must lie in [0, 1]")
    if holdout_frac == 0.0:
        return TemplateBank(bank.all_templates(), provenance=bank.provenance)
    rng = random.Random(seed)
    tagged = []
    for key in bank.keys():
        pool = bank.templates_for(key)
        n_test = math.ceil(holdout_frac * len(pool))
        if n_test >= len(pool):
            raise InsufficientTemplatesError(
                f"key {key}: {len(pool)} templates cannot give up {n_test} to test"
            )
        test_ids = set(rng.sample([t.id for t in pool], n_test))
        tagged.extend(
            replace(t, split=Split.TEST if t.id in test_ids else Split.TRAIN)
            for t in pool
        )
    return TemplateBank(tagged, provenance=bank.provenance)


def _segmentations(atoms: tuple[Atom, ...]) -> list[list[tuple[Atom, ...]]]:
    """Every split of atoms into consecutive runs of 1-3 atoms, shorter first run first."""
    if not atoms:
        return [[]]
    return [
        [atoms[:n]] + rest
        for n in (1, 2, 3)
        if n <= len(atoms)
        for rest in _segmentations(atoms[n:])
    ]


def _partition_with(
    rng: random.Random, atoms: tuple[Atom, ...], bank: TemplateBank
) -> list[tuple[Atom, ...]]:
    valid = [segs for segs in _segmentations(atoms) if all(seg in bank for seg in segs)]
    if not valid:
        raise CoverageError(f"no bank-coverable partition of {atoms}")
    return rng.choice(valid)


@dataclass(frozen=True)
class StoryRender:
    text: str
    entity_mentions: dict[int, str]
    template_ids: tuple[str, ...]


def _instantiate(template: Template, tokens: Sequence[str]) -> str:
    return SLOT_RE.sub(lambda m: tokens[int(m.group(1))], template.text)


def _render_path(
    rng: random.Random,
    atoms: tuple[Atom, ...],
    vertices: tuple[int, ...],
    token_of: Mapping[int, str],
    bank: TemplateBank,
    split: Split,
) -> tuple[list[str], list[str]]:
    """Partition, template, and instantiate one fact path.

    Returns (sentences, template ids used).
    """
    sentences: list[str] = []
    used: list[str] = []
    offset = 0
    for segment in _partition_with(rng, atoms, bank):
        template = rng.choice(bank.eligible(segment, split))
        seg_vertices = vertices[offset : offset + len(segment) + 1]
        block = _instantiate(template, [token_of[v] for v in seg_vertices])
        sentences.extend(s for s in _SENTENCE_RE.split(block.strip()) if s)
        used.append(template.id)
        offset += len(segment)
    return sentences, used


def render_story(
    chain: FactPath,
    noise: FactPath | None,
    bank: TemplateBank,
    names: Mapping[int, str] | None,
    split: Split,
    seed: int,
) -> StoryRender:
    """Compose the story text for a chain plus an optional noise path.

    Main-fact sentences keep path order; the noise path renders as one
    contiguous block inserted at a uniformly chosen sentence boundary of
    the main narrative. Entities are told by their names, or, when names
    is None, by cloze tokens resampled per story.
    """
    rng = random.Random(seed)
    story_entities: list[int] = []
    for vertex in chain.vertices + (noise.vertices if noise else ()):
        if vertex not in story_entities:
            story_entities.append(vertex)
    if names is None:
        if len(story_entities) > CLOZE_TOKENS:
            raise PoolExhaustedError(
                f"story needs {len(story_entities)} cloze tokens, pool has {CLOZE_TOKENS}"
            )
        pool = [f"@entity-{n}" for n in range(CLOZE_TOKENS)]
        drawn = rng.sample(pool, len(story_entities))
        token_of = dict(zip(story_entities, drawn))
    else:
        token_of = {}
        for vertex in story_entities:
            name = names.get(vertex)
            if not name:
                raise ConfigError(f"entity {vertex} has no name; assign names first")
            token_of[vertex] = name
        if len(set(token_of.values())) != len(token_of):
            raise ConfigError("entity names collide within one story")
    sentences, template_ids = _render_path(
        rng, chain.atoms, chain.vertices, token_of, bank, split
    )
    if noise is not None:
        noise_sentences, noise_ids = _render_path(
            rng, noise.atoms, noise.vertices, token_of, bank, split
        )
        template_ids.extend(noise_ids)
        boundary = rng.randint(0, len(sentences))
        sentences[boundary:boundary] = noise_sentences
    return StoryRender(
        text=" ".join(sentences),
        entity_mentions={v: token_of[v] for v in story_entities},
        template_ids=tuple(template_ids),
    )
