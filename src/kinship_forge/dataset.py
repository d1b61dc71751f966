"""Benchmark assembly: split configs, row generation, files, statistics.

Every row is generated from a seed derived purely from (master seed,
split, k, row index), so corpora are byte-reproducible regardless of
worker count or completion order. A row is only emitted after the
solver certifies its story facts entail exactly the recorded label.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .chains import (
    FactPath,
    NoiseKind,
    backward_chain,
    sample_disconnected_noise,
    sample_irrelevant_noise,
    sample_supporting_noise,
    sample_target,
)
from .errors import (
    AmbiguousAnswerError,
    ClosureConflictError,
    ConfigError,
    CoverageError,
    GenerationBudgetError,
    NoEligibleTemplateError,
    NoiseSearchError,
    NoPathError,
    PoolExhaustedError,
    SchemaError,
    UnexpandableError,
)
from .familygraph import (
    KinshipGraph,
    assign_names,
    close_graph,
    default_name_pool,
    generate_backbone,
)
from .narrative import (
    SLOT_RE,
    Naming,
    Split,
    TemplateBank,
    render_story,
    split_bank,
)
from .ontology import Gender, RuleBase, enumerate_shapes, shape_id, surface
from .solver import MAX_PATH_LEN, solve


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from structured parts; process-independent."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SplitConfig:
    train_ks: tuple[int, ...] = (2, 3)
    test_ks: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10)
    n_train_per_k: int = 5000
    n_test_per_k: int = 100
    template_holdout_frac: float = 0.2
    shape_holdout_frac: float = 0.1
    train_noise: NoiseKind | None = None
    test_noise: NoiseKind | None = None
    naming: Naming = Naming.NAMES
    master_seed: int = 0
    max_row_attempts: int = 300

    def __post_init__(self) -> None:
        for label, ks in (("train_ks", self.train_ks), ("test_ks", self.test_ks)):
            if not ks:
                raise ConfigError(f"{label} must not be empty")
            if sorted(set(ks)) != sorted(ks):
                raise ConfigError(f"{label} contains duplicates")
            if any(k < 1 for k in ks):
                raise ConfigError(f"{label} entries must be >= 1")
            if any(k > MAX_PATH_LEN for k in ks):
                raise ConfigError(
                    f"{label} entries must be <= {MAX_PATH_LEN}, the solver's path cap"
                )
        for label, frac in (
            ("template_holdout_frac", self.template_holdout_frac),
            ("shape_holdout_frac", self.shape_holdout_frac),
        ):
            if not 0.0 <= frac <= 1.0:
                raise ConfigError(f"{label} must lie in [0, 1]")
        if self.n_train_per_k < 0 or self.n_test_per_k < 0:
            raise ConfigError("row counts must be >= 0")
        if self.max_row_attempts < 1:
            raise ConfigError("max_row_attempts must be >= 1")
        for label, kind, ks in (
            ("train", self.train_noise, self.train_ks),
            ("test", self.test_noise, self.test_ks),
        ):
            if kind is NoiseKind.SUPPORTING and min(ks) < 2:
                raise ConfigError(f"supporting noise needs every {label} k >= 2")

    def noise_for(self, split: str) -> NoiseKind | None:
        return self.train_noise if split == "train" else self.test_noise

    def as_dict(self) -> dict:
        raw = asdict(self)
        raw["train_ks"] = sorted(self.train_ks)
        raw["test_ks"] = sorted(self.test_ks)
        raw["train_noise"] = self.train_noise.value if self.train_noise else None
        raw["test_noise"] = self.test_noise.value if self.test_noise else None
        raw["naming"] = self.naming.value
        return raw


PRESETS: dict[str, SplitConfig] = {
    "gen-k23": SplitConfig(train_ks=(2, 3)),
    "gen-k234": SplitConfig(train_ks=(2, 3, 4)),
    "robust-clean": SplitConfig(train_ks=(2, 3), test_ks=(2, 3)),
    "robust-supporting": SplitConfig(
        train_ks=(2, 3),
        test_ks=(2, 3),
        train_noise=NoiseKind.SUPPORTING,
        test_noise=NoiseKind.SUPPORTING,
    ),
    "robust-irrelevant": SplitConfig(
        train_ks=(2, 3),
        test_ks=(2, 3),
        train_noise=NoiseKind.IRRELEVANT,
        test_noise=NoiseKind.IRRELEVANT,
    ),
    "robust-disconnected": SplitConfig(
        train_ks=(2, 3),
        test_ks=(2, 3),
        train_noise=NoiseKind.DISCONNECTED,
        test_noise=NoiseKind.DISCONNECTED,
    ),
}


@dataclass(frozen=True)
class PuzzleRecord:
    id: str
    split: str
    k: int
    label: str
    query_head: str
    query_tail: str
    story: str
    genders: dict[str, str]
    facts: tuple[str, ...]
    noise_facts: tuple[str, ...]
    noise_kind: str | None
    shape_id: str
    shape_held_out: bool
    template_ids: tuple[str, ...]
    proof_trace: str
    seed: int


COLUMNS = tuple(f.name for f in fields(PuzzleRecord))


def _prepare_bank(bank: TemplateBank, cfg: SplitConfig) -> TemplateBank:
    """Apply the template holdout unless the bank arrived pre-tagged."""
    pre_tagged = any(t.split is not Split.UNSPLIT for t in bank.all_templates())
    if pre_tagged or cfg.template_holdout_frac == 0.0:
        return bank
    return split_bank(
        bank, cfg.template_holdout_frac, derive_seed(cfg.master_seed, "template-split")
    )


def _check_atom_coverage(bank: TemplateBank, rb: RuleBase) -> None:
    """Every single-fact key must be renderable on both sides of the split."""
    missing = []
    for key in enumerate_shapes(1, rb):
        for split in (Split.TRAIN, Split.TEST):
            try:
                bank.eligible(key, split)
            except (CoverageError, NoEligibleTemplateError):
                missing.append((key, split.value))
    if missing:
        raise CoverageError(
            f"bank cannot render {len(missing)} single-fact key/split combinations, "
            f"first: {missing[0]}"
        )


def draw_held_out_shapes(cfg: SplitConfig, rb: RuleBase) -> dict[int, frozenset[str]]:
    """Once per master seed, reserve a fraction of each k>2 train-k's shapes."""
    held: dict[int, frozenset[str]] = {}
    if cfg.shape_holdout_frac == 0.0:
        return held
    for k in sorted(cfg.train_ks):
        if k <= 2:
            continue
        ids = sorted(shape_id(key) for key in enumerate_shapes(k, rb))
        n = math.ceil(cfg.shape_holdout_frac * len(ids))
        rng = random.Random(derive_seed(cfg.master_seed, "shape-holdout", k))
        held[k] = frozenset(rng.sample(ids, n))
    return held


_RETRYABLE = (
    ClosureConflictError,
    UnexpandableError,
    NoiseSearchError,
    NoPathError,
    AmbiguousAnswerError,
    NoEligibleTemplateError,
    CoverageError,
    PoolExhaustedError,
)


@dataclass(frozen=True)
class RowGenerator:
    """The per-row pipeline: backbone, closure, target, backward chain,
    noise, story, certify; retried until the solver certifies a row.

    `held` maps each train k to its held-out shape ids; `pool` is the
    name pool, None under cloze naming. `closed_worlds` maps a backbone
    structure to its closure, filled as structures first occur: at most
    84 story-world and 3 noise-world structures.
    """

    cfg: SplitConfig
    bank: TemplateBank
    held: dict[int, frozenset[str]]
    rb: RuleBase
    pool: tuple[tuple[str, Gender], ...] | None
    closed_worlds: dict[tuple, KinshipGraph] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __call__(self, spec: tuple[str, int, int]) -> PuzzleRecord:
        split, k, index = spec
        row_seed = derive_seed(self.cfg.master_seed, split, k, index)
        last_error: Exception | None = None
        for attempt in range(self.cfg.max_row_attempts):
            try:
                record = self._attempt(split, k, index, row_seed, attempt)
            except _RETRYABLE as exc:
                last_error = exc
                continue
            if record is not None:
                return record
        raise GenerationBudgetError(
            f"row {split}/k={k}/i={index}: no certified puzzle in "
            f"{self.cfg.max_row_attempts} attempts (last error: {last_error})"
        )

    def _close(self, backbone: KinshipGraph) -> KinshipGraph:
        """backbone closed under rb, sharing one closed world per structure.

        The result shares its adjacency with every attempt of the same
        structure, so it is read-only: nothing may add an edge to it.
        Conflicting structures are not kept; they raise on every call.
        """
        key = backbone.structure()
        closed = self.closed_worlds.get(key)
        if closed is not None:
            return closed.regendered(backbone.entities)
        closed = close_graph(backbone, self.rb)
        self.closed_worlds[key] = closed
        return closed

    def _attempt(
        self, split: str, k: int, index: int, row_seed: int, attempt: int
    ) -> PuzzleRecord | None:
        rb = self.rb
        g = self._close(generate_backbone(derive_seed(row_seed, attempt, "backbone")))
        target = sample_target(g, derive_seed(row_seed, attempt, "target"))
        chain = backward_chain(g, target, k, derive_seed(row_seed, attempt, "chain"), rb)
        sid = shape_id(chain.atoms)
        held_out = self.held.get(k, frozenset())
        if split == "train" and sid in held_out:
            return None
        noise_kind = self.cfg.noise_for(split)
        noise: FactPath | None = None
        noise_world: KinshipGraph | None = None
        if noise_kind is not None:
            noise_seed = derive_seed(row_seed, attempt, "noise")
            if noise_kind is NoiseKind.SUPPORTING:
                noise = sample_supporting_noise(g, chain, noise_seed)
            elif noise_kind is NoiseKind.IRRELEVANT:
                noise = sample_irrelevant_noise(g, chain, noise_seed)
            else:
                noise, noise_world = sample_disconnected_noise(noise_seed, self._close)
        genders = g.entities
        names = None
        if self.pool is not None:
            names = assign_names(g, self.pool, derive_seed(row_seed, attempt, "names"))
        if noise_world is not None:
            genders = {**genders, **noise_world.entities}
            if names is not None:
                used = set(names.values())
                rest = tuple(p for p in self.pool if p[0] not in used)
                world_seed = derive_seed(row_seed, attempt, "noise-names")
                names.update(assign_names(noise_world, rest, world_seed))
        rendered = render_story(
            chain,
            noise,
            self.bank,
            names,
            split=Split.TRAIN if split == "train" else Split.TEST,
            seed=derive_seed(row_seed, attempt, "render"),
        )
        token_of = rendered.entity_mentions
        genders_by_id = {i: genders[i] for i in token_of}
        name_of = token_of.__getitem__
        query = (target.src, target.dst)
        base = solve(chain.facts, query, genders_by_id, rb, name_of=name_of)
        if base.predicate is not target.pred:
            return None
        noise_facts = noise.facts if noise else ()
        if noise_facts:
            full = solve(
                chain.facts + noise_facts, query, genders_by_id, rb, name_of=name_of
            )
            if full.predicate is not target.pred:
                return None
        label = surface(target.pred, genders_by_id[target.dst])
        return PuzzleRecord(
            id=f"{split}-k{k}-{index:05d}",
            split=split,
            k=k,
            label=label,
            query_head=token_of[target.src],
            query_tail=token_of[target.dst],
            story=rendered.text,
            genders={token_of[i]: genders_by_id[i].value for i in token_of},
            facts=tuple(
                f"{f.pred.value}({token_of[f.src]},{token_of[f.dst]})" for f in chain.facts
            ),
            noise_facts=tuple(
                f"{f.pred.value}({token_of[f.src]},{token_of[f.dst]})" for f in noise_facts
            ),
            noise_kind=noise_kind.value if noise_kind else None,
            shape_id=sid,
            shape_held_out=sid in held_out,
            template_ids=rendered.template_ids,
            proof_trace=base.proof,
            seed=row_seed,
        )


# each pool worker's RowGenerator, sent once by the pool initializer
# rather than pickled with every chunk of specs
_worker_rows: RowGenerator | None = None


def _start_worker(rows: RowGenerator) -> None:
    global _worker_rows
    _worker_rows = rows


def _worker_row(spec: tuple[str, int, int]) -> PuzzleRecord:
    return _worker_rows(spec)


def _worker_count(jobs: int, n_specs: int, cpus: int) -> int:
    """Workers worth starting: no more than the specs or the usable CPUs."""
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return max(1, min(jobs, n_specs, cpus))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def generate_dataset(
    cfg: SplitConfig,
    bank: TemplateBank,
    rb: RuleBase,
    jobs: int = 1,
) -> tuple[list[PuzzleRecord], list[PuzzleRecord], dict]:
    """Produce (train rows, test rows, manifest) for one configuration.

    Row order is (split, ascending k, row index) and never depends on
    jobs. Held-out shapes are excluded from train rows; test rows carry
    a flag instead so both regimes stay measurable.
    """
    prepared = _prepare_bank(bank, cfg)
    _check_atom_coverage(prepared, rb)
    held = draw_held_out_shapes(cfg, rb)
    specs = [
        ("train", k, i) for k in sorted(cfg.train_ks) for i in range(cfg.n_train_per_k)
    ] + [("test", k, i) for k in sorted(cfg.test_ks) for i in range(cfg.n_test_per_k)]
    workers = _worker_count(jobs, len(specs), _usable_cpus())
    pool = default_name_pool() if cfg.naming is Naming.NAMES else None
    generator = RowGenerator(cfg, prepared, held, rb, pool)
    if workers == 1:
        rows = [generator(spec) for spec in specs]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_start_worker,
            initargs=(generator,),
        ) as executor:
            chunk = max(1, len(specs) // (workers * 8))
            rows = list(executor.map(_worker_row, specs, chunksize=chunk))
    train = [r for r in rows if r.split == "train"]
    test = [r for r in rows if r.split == "test"]
    manifest = build_manifest(cfg, prepared, rb, held, train, test)
    return train, test, manifest


def bank_fingerprint(bank: TemplateBank) -> str:
    payload = json.dumps(
        sorted(
            (t.id, [[p.value, g.value] for p, g in t.key], t.text, t.split.value)
            for t in bank.all_templates()
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def rules_fingerprint(rb: RuleBase) -> str:
    payload = "\n".join(str(rule) for rule in rb.rules)
    return hashlib.sha256(payload.encode()).hexdigest()


def build_manifest(
    cfg: SplitConfig,
    bank: TemplateBank,
    rb: RuleBase,
    held: dict[int, frozenset[str]],
    train: list[PuzzleRecord],
    test: list[PuzzleRecord],
) -> dict:
    counts: dict[str, dict[str, int]] = {"train": {}, "test": {}}
    for row in train:
        counts["train"][str(row.k)] = counts["train"].get(str(row.k), 0) + 1
    for row in test:
        counts["test"][str(row.k)] = counts["test"].get(str(row.k), 0) + 1
    bank_print = bank_fingerprint(bank)
    rules_print = rules_fingerprint(rb)
    config_payload = json.dumps(
        {"config": cfg.as_dict(), "bank": bank_print, "rules": rules_print},
        sort_keys=True,
    )
    by_split: dict[str, list[str]] = {"train": [], "test": [], "unsplit": []}
    for t in bank.all_templates():
        by_split[t.split.value].append(t.id)
    return {
        "tool": "kinship-forge",
        "version": __version__,
        "master_seed": cfg.master_seed,
        "seed_scheme": "sha256(master_seed:split:k:index), first 8 bytes",
        "config": cfg.as_dict(),
        "config_hash": hashlib.sha256(config_payload.encode()).hexdigest(),
        "bank": {
            "provenance": bank.provenance,
            "templates": len(bank),
            "fingerprint": bank_print,
        },
        "rules_fingerprint": rules_print,
        "template_split": {
            "train_ids": sorted(by_split["train"]),
            "test_ids": sorted(by_split["test"]),
            "unsplit_ids": sorted(by_split["unsplit"]),
        },
        "shape_holdout_policy": "per-k over train ks greater than 2",
        "held_out_shapes": {str(k): sorted(ids) for k, ids in sorted(held.items())},
        "counts": counts,
    }


def _encode_cell(column: str, value: object) -> str:
    if column in ("genders", "facts", "noise_facts", "template_ids"):
        return json.dumps(value, separators=(",", ":"))
    if column == "shape_held_out":
        return "true" if value else "false"
    if column == "noise_kind":
        return "" if value is None else str(value)
    return str(value)


def _decode_cell(column: str, raw: str) -> object:
    if column in ("genders", "facts", "noise_facts", "template_ids"):
        value = json.loads(raw)
        return tuple(value) if isinstance(value, list) else value
    if column == "shape_held_out":
        if raw not in ("true", "false"):
            raise ValueError(f"shape_held_out must be true/false, got {raw!r}")
        return raw == "true"
    if column == "noise_kind":
        return raw or None
    if column in ("k", "seed"):
        return int(raw)
    return raw


def write_rows(rows: list[PuzzleRecord], path: str | Path, format: str = "csv") -> None:
    """Serialize rows; identical input always yields identical bytes."""
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            for row in rows:
                writer.writerow([_encode_cell(c, getattr(row, c)) for c in COLUMNS])
    elif format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                obj = {c: getattr(row, c) for c in COLUMNS}
                fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    else:
        raise ConfigError(f"unknown format {format!r}; expected csv or jsonl")


def _record_from_mapping(obj: dict, origin: str) -> PuzzleRecord:
    missing = [c for c in COLUMNS if c not in obj]
    if missing:
        raise SchemaError(f"{origin}: missing column(s) {', '.join(missing)}")
    for col, kind in (("k", int), ("seed", int), ("shape_held_out", bool)):
        if type(obj[col]) is not kind:  # not isinstance: True must not pass as a k
            raise SchemaError(f"{origin}: {col} must be {kind.__name__}, got {obj[col]!r}")
    for col in ("facts", "noise_facts", "template_ids"):
        if isinstance(obj[col], list):
            obj[col] = tuple(obj[col])
    return PuzzleRecord(**{c: obj[c] for c in COLUMNS})


def read_rows(path: str | Path) -> list[PuzzleRecord]:
    """Inverse of write_rows; format inferred from the file suffix."""
    path = Path(path)
    if path.suffix not in (".csv", ".jsonl"):
        raise ConfigError(f"cannot infer format from suffix of {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from None
    rows = []
    if path.suffix == ".csv":
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
        index = {c: header.index(c) for c in COLUMNS}
        for lineno, cells in enumerate(reader, 2):
            origin = f"{path}:{lineno}"
            if len(cells) != len(header):
                raise SchemaError(f"{origin}: {len(cells)} cells for {len(header)} columns")
            try:
                obj = {c: _decode_cell(c, cells[index[c]]) for c in COLUMNS}
            except ValueError as exc:  # also JSONDecodeError
                raise SchemaError(f"{origin}: {exc}") from None
            rows.append(_record_from_mapping(obj, origin))
    else:
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            origin = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise SchemaError(f"{origin}: bad JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise SchemaError(f"{origin}: expected a JSON object")
            rows.append(_record_from_mapping(obj, origin))
    return rows


@dataclass(frozen=True)
class BankStats:
    templates_per_k: dict[int, int]
    keys_per_k: dict[int, int]
    unique_words: int
    unigram_jaccard: float
    bigram_jaccard: float


def _stat_tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", SLOT_RE.sub(" ", text).lower())


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def compute_stats(bank: TemplateBank) -> BankStats:
    """Within-key mean pairwise Jaccard overlap, averaged across keys.

    Keys with a single template carry no pairs and drop out of the
    average; a bank with no multi-template key reports 0.0 overlap.
    Entity slots never count as words.
    """
    if len(bank) == 0:
        raise ConfigError("cannot compute statistics of an empty bank")
    templates_per_k: dict[int, int] = {}
    keys_per_k: dict[int, int] = {}
    vocabulary: set[str] = set()
    uni_means: list[float] = []
    bi_means: list[float] = []
    for key in bank.keys():
        pool = bank.templates_for(key)
        k = len(key)
        templates_per_k[k] = templates_per_k.get(k, 0) + len(pool)
        keys_per_k[k] = keys_per_k.get(k, 0) + 1
        unigrams = []
        bigrams = []
        for t in pool:
            tokens = _stat_tokens(t.text)
            vocabulary.update(tokens)
            unigrams.append(frozenset(tokens))
            bigrams.append(frozenset(zip(tokens, tokens[1:])))
        if len(pool) < 2:
            continue
        pairs = [(i, j) for i in range(len(pool)) for j in range(i + 1, len(pool))]
        uni_means.append(
            sum(_jaccard(unigrams[i], unigrams[j]) for i, j in pairs) / len(pairs)
        )
        bi_means.append(
            sum(_jaccard(bigrams[i], bigrams[j]) for i, j in pairs) / len(pairs)
        )
    return BankStats(
        templates_per_k=templates_per_k,
        keys_per_k=keys_per_k,
        unique_words=len(vocabulary),
        unigram_jaccard=sum(uni_means) / len(uni_means) if uni_means else 0.0,
        bigram_jaccard=sum(bi_means) / len(bi_means) if bi_means else 0.0,
    )
