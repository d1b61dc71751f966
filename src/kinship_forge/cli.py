"""Command-line frontend: generate, solve, stats, shapes.

Exit codes are a stable contract: 0 success, 1 configuration or input
error, 2 ambiguous answer, 3 no derivable path, 4 generation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .chains import NoiseKind
from .dataset import (
    PRESETS,
    SplitConfig,
    compute_stats,
    generate_dataset,
    write_rows,
)
from .errors import ConfigError, KinshipForgeError, NoPathError, read_utf8
from .familygraph import Fact
from .ontology import (
    Gender,
    RuleBase,
    default_rulebase,
    enumerate_shapes,
    parse_gender,
    parse_surface,
    shape_id,
)
from .narrative import Naming, load_bank, synth_bank
from .solver import MAX_PATH_LEN, solve

SEED_ENV_VAR = "KINSHIP_FORGE_SEED"

# published reference counts for the shapes delta line
_REFERENCE_SHAPE_COUNTS = {1: 20, 2: 58, 3: 236}

_EXIT_OK = 0
_EXIT_CONFIG = KinshipForgeError.exit_code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for ambiguity."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(_EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_ks(text: str) -> tuple[int, ...]:
    """Accept comma lists and dash ranges: "2,3", "2-10", "2,4-6".

    A value above the solver's path cap is rejected before its range is
    expanded.
    """
    ks: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"(\d+)(?:-(\d+))?", part)
        if m is None:
            raise ConfigError(f"cannot parse k value {part!r}")
        try:
            lo, hi = int(m.group(1)), int(m.group(2) or m.group(1))
        except ValueError:  # more digits than int() converts: far above the cap
            lo = hi = MAX_PATH_LEN + 1
        if lo > hi:
            raise ConfigError(f"empty k range {part!r}")
        if hi > MAX_PATH_LEN:
            raise ConfigError(f"k {part[:20]!r} exceeds the solver's path cap {MAX_PATH_LEN}")
        ks.extend(range(lo, hi + 1))
    if not ks:
        raise ConfigError(f"no k values in {text!r}")
    return tuple(ks)


def _parse_noise(text: str) -> NoiseKind | None:
    lowered = text.strip().lower()
    if lowered in ("", "none", "clean"):
        return None
    try:
        return NoiseKind(lowered)
    except ValueError:
        valid = ", ".join(kind.value for kind in NoiseKind)
        raise ConfigError(f"unknown noise kind {text!r}; expected {valid} or none") from None


_CONFIG_COERCERS = {
    "train_ks": _parse_ks,
    "test_ks": _parse_ks,
    "n_train_per_k": int,
    "n_test_per_k": int,
    "template_holdout_frac": float,
    "shape_holdout_frac": float,
    "train_noise": _parse_noise,
    "test_noise": _parse_noise,
    "naming": Naming,
    "master_seed": int,
    "max_row_attempts": int,
}


def load_config_file(path: str | Path) -> dict:
    """Parse `key = value` lines naming SplitConfig fields."""
    values: dict = {}
    for lineno, raw in enumerate(read_utf8(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        coerce = _CONFIG_COERCERS.get(key)
        if coerce is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = coerce(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> SplitConfig:
    """Precedence: flags > config file > preset/defaults; env seed last."""
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        cfg = PRESETS[args.preset]
    else:
        cfg = SplitConfig()
    overrides: dict = {}
    if args.config is not None:
        overrides.update(load_config_file(args.config))
    # each generate flag's dest is its SplitConfig field
    for key, coerce in _CONFIG_COERCERS.items():
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = coerce(value)
    if "master_seed" not in overrides and SEED_ENV_VAR in os.environ:
        try:
            overrides["master_seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from None
    return replace(cfg, **overrides)


def _load_rules(path: str | None) -> RuleBase:
    return RuleBase.from_file(path) if path else default_rulebase()


def _resolve_bank(args: argparse.Namespace, cfg: SplitConfig, rb: RuleBase):
    if args.bank:
        return load_bank(args.bank, rb)
    variants = 3 if cfg.template_holdout_frac > 0 else 1
    return synth_bank(rb, variants=variants)


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rb = _load_rules(args.rules)
    bank = _resolve_bank(args, cfg, rb)
    train, test, manifest = generate_dataset(cfg, bank, rb, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / f"train.{args.format}"
    test_path = out / f"test.{args.format}"
    manifest_path = out / "manifest.json"
    write_rows(train, train_path)
    write_rows(test, test_path)
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8", newline="\n")
    for split, counts in manifest["counts"].items():
        for k in sorted(counts, key=int):
            print(f"{split} k={k}: {counts[k]} rows")
    print(f"wrote {train_path}, {test_path}, {manifest_path}")
    return _EXIT_OK


_FACT_LINE = re.compile(r"([A-Za-z-]+)\(\s*([^,()]+?)\s*,\s*([^,()]+?)\s*\)")
_ENTITY_LINE = re.compile(r"entity\s+(\S+)\s+(\S+)", re.IGNORECASE)


def parse_fact_file(path: str | Path):
    """Fact lines look like `mother(Bob, Alice)`: Alice is Bob's mother.

    The relation word fixes the second entity's gender. `entity NAME
    GENDER` lines supply genders the facts leave open (a query endpoint
    that never appears in second position).
    """
    names: dict[str, int] = {}
    genders: dict[int, Gender] = {}
    facts = []

    def intern(name: str) -> int:
        return names.setdefault(name, len(names))

    def set_gender(entity: int, gender: Gender, context: str) -> None:
        if genders.get(entity, gender) is not gender:
            raise ConfigError(f"{context}: conflicting gender for entity")
        genders[entity] = gender

    for lineno, raw in enumerate(read_utf8(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ENTITY_LINE.fullmatch(line)
        if m:
            set_gender(intern(m.group(1)), parse_gender(m.group(2)), f"{path}:{lineno}")
            continue
        m = _FACT_LINE.fullmatch(line)
        if m is None:
            raise ConfigError(f"{path}:{lineno}: cannot parse {line!r}")
        relation, head, tail = m.group(1), m.group(2), m.group(3)
        pred, tail_gender = parse_surface(relation)
        head_id, tail_id = intern(head), intern(tail)
        set_gender(tail_id, tail_gender, f"{path}:{lineno}")
        facts.append(Fact(head_id, tail_id, pred))
    return facts, names, genders


def cmd_solve(args: argparse.Namespace) -> int:
    rb = _load_rules(args.rules)
    facts, names, genders = parse_fact_file(args.facts)
    head, tail = args.query
    if head not in names or tail not in names:
        missing = [n for n in (head, tail) if n not in names]
        raise NoPathError(f"query entit{'ies' if len(missing) > 1 else 'y'} "
                          f"{', '.join(missing)} not mentioned in {args.facts}")
    tail_id = names[tail]
    if tail_id not in genders:
        raise ConfigError(
            f"gender of {tail} unknown; add a line: entity {tail} male|female"
        )
    tokens = {i: n for n, i in names.items()}
    result = solve(
        facts, (names[head], tail_id), genders, rb, name_of=tokens.__getitem__
    )
    print(result.label)
    print(f"proof: {result.proof}")
    return _EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    rb = _load_rules(args.rules)
    bank = load_bank(args.bank, rb) if args.bank else synth_bank(rb, variants=3)
    stats = compute_stats(bank)
    print(f"bank: {bank.provenance}")
    for k in sorted(stats.keys_per_k):
        print(
            f"k={k}: {stats.keys_per_k[k]} keys, {stats.templates_per_k[k]} templates"
        )
    print(f"templates total: {len(bank)}")
    print(f"unique words: {stats.unique_words}")
    print(f"unigram jaccard: {stats.unigram_jaccard:.4f}")
    print(f"bigram jaccard: {stats.bigram_jaccard:.4f}")
    return _EXIT_OK


def cmd_shapes(args: argparse.Namespace) -> int:
    rb = _load_rules(args.rules)
    keys = enumerate_shapes(args.k, rb)
    print(f"k={args.k}: {len(keys)} shapes")
    reference = _REFERENCE_SHAPE_COUNTS.get(args.k)
    if reference is not None:
        delta = len(keys) - reference
        print(f"reference: {reference} (delta {delta:+d})")
    if args.list:
        for key in keys:
            print(shape_id(key))
    return _EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="kinship-forge", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"kinship-forge {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build train/test corpora plus manifest")
    gen.add_argument("--preset", help=f"one of: {', '.join(sorted(PRESETS))}")
    gen.add_argument("--config", help="key = value file naming SplitConfig fields")
    gen.add_argument(
        "--seed", type=int, dest="master_seed", metavar="SEED",
        help=f"master seed (fallback: ${SEED_ENV_VAR})",
    )
    gen.add_argument("--out", default="out", help="output directory")
    gen.add_argument("--bank", help="template bank (JSON lines); default synthetic")
    gen.add_argument("--rules", help="rule file; default built-in rules")
    gen.add_argument("--train-ks", help='chain lengths for train, e.g. "2,3"')
    gen.add_argument("--test-ks", help='chain lengths for test, e.g. "2-10"')
    gen.add_argument(
        "--n-train", type=int, dest="n_train_per_k", metavar="N_TRAIN", help="train rows per k"
    )
    gen.add_argument(
        "--n-test", type=int, dest="n_test_per_k", metavar="N_TEST", help="test rows per k"
    )
    gen.add_argument(
        "--template-holdout", type=float, dest="template_holdout_frac",
        metavar="TEMPLATE_HOLDOUT", help="fraction of templates reserved for test",
    )
    gen.add_argument(
        "--shape-holdout", type=float, dest="shape_holdout_frac",
        metavar="SHAPE_HOLDOUT", help="fraction of k>2 shapes reserved for test",
    )
    for split in ("train", "test"):
        gen.add_argument(
            f"--noise-{split}", dest=f"{split}_noise", metavar=f"NOISE_{split.upper()}",
            help="none|supporting|irrelevant|disconnected",
        )
    gen.add_argument("--naming", choices=("names", "cloze"), help="entity naming mode")
    gen.add_argument("--format", default="csv", choices=("csv", "jsonl"), help="row file format")
    gen.add_argument("--jobs", type=int, default=1, help="parallel workers")
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="answer one query over a fact file")
    slv.add_argument("--facts", required=True, help="fact file, lines like mother(Bob, Alice)")
    slv.add_argument("--query", nargs=2, metavar=("HEAD", "TAIL"), required=True)
    slv.add_argument("--rules", help="rule file; default built-in rules")
    slv.set_defaults(func=cmd_solve)

    st = sub.add_parser("stats", help="template bank statistics")
    st.add_argument("--bank", help="bank path; default synthetic bank")
    st.add_argument("--rules", help="rule file; default built-in rules")
    st.set_defaults(func=cmd_stats)

    sh = sub.add_parser("shapes", help="enumerate clause shapes for a chain length")
    sh.add_argument("--k", type=int, required=True)
    sh.add_argument("--list", action="store_true", help="print every shape id")
    sh.add_argument("--rules", help="rule file; default built-in rules")
    sh.set_defaults(func=cmd_shapes)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KinshipForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
