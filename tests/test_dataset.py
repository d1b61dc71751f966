import csv
import json
import re

import pytest

from kinship_forge import dataset
from kinship_forge.chains import NOISE_ID_BASE, NoiseKind
from kinship_forge.dataset import (
    COLUMNS,
    PRESETS,
    BankStats,
    RowGenerator,
    SplitConfig,
    compute_stats,
    derive_seed,
    draw_held_out_shapes,
    generate_dataset,
    read_rows,
    write_rows,
    _worker_count,
)
from kinship_forge.errors import ConfigError, SchemaError
from kinship_forge.familygraph import (
    KinshipGraph,
    close_graph,
    generate_backbone,
)
from kinship_forge.narrative import Naming, Split, Template, TemplateBank
from kinship_forge.ontology import (
    Gender,
    Predicate,
    surface,
)
from _oracles import graph_state, naive_close, resolve_record

FACT_RE = re.compile(r"([a-z-]+|SO)\(([^,]+),([^)]+)\)")


class TestSplitConfig:
    def test_defaults_match_gen_k23(self):
        cfg = SplitConfig()
        assert cfg.train_ks == (2, 3)
        assert cfg.test_ks == tuple(range(2, 11))
        assert cfg.n_train_per_k == 5000
        assert cfg.n_test_per_k == 100
        assert cfg.template_holdout_frac == 0.2
        assert cfg.shape_holdout_frac == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_ks": ()},
            {"train_ks": (2, 2)},
            {"test_ks": (0,)},
            {"test_ks": (2, 13)},
            {"train_ks": (13,)},
            {"template_holdout_frac": 1.5},
            {"shape_holdout_frac": -0.1},
            {"n_train_per_k": -1},
            {"max_row_attempts": 0},
            {"train_ks": (1, 2), "train_noise": NoiseKind.SUPPORTING},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SplitConfig(**kwargs)

    def test_presets(self):
        assert set(PRESETS) == {
            "gen-k23",
            "gen-k234",
            "robust-clean",
            "robust-supporting",
            "robust-irrelevant",
            "robust-disconnected",
        }
        assert PRESETS["gen-k23"].train_ks == (2, 3)
        assert PRESETS["gen-k234"].train_ks == (2, 3, 4)
        assert PRESETS["gen-k23"].test_ks == tuple(range(2, 11))
        for kind in NoiseKind:
            preset = PRESETS[f"robust-{kind.value}"]
            assert preset.train_noise is kind
            assert preset.test_noise is kind
            assert preset.train_ks == preset.test_ks == (2, 3)
        clean = PRESETS["robust-clean"]
        assert clean.train_noise is None and clean.test_noise is None


def test_derive_seed_frozen_and_distinct():
    assert derive_seed(0, "train", 2, 0) == derive_seed(0, "train", 2, 0)
    seen = {derive_seed(0, split, k, i) for split in ("train", "test")
            for k in (2, 3) for i in range(50)}
    assert len(seen) == 200
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_draw_held_out_shapes(rb):
    cfg = SplitConfig(train_ks=(2, 3), master_seed=4)
    held = draw_held_out_shapes(cfg, rb)
    assert set(held) == {3}  # never at k=2
    assert len(held[3]) == 38  # ceil(0.1 * 372)
    for sid in held[3]:
        assert len(sid.split("|")) == 3
    assert held == draw_held_out_shapes(cfg, rb)
    none = draw_held_out_shapes(SplitConfig(shape_holdout_frac=0.0), rb)
    assert none == {}


@pytest.fixture(scope="module")
def small_run(rb, tri_bank):
    cfg = SplitConfig(
        train_ks=(2, 3), test_ks=(2, 3), n_train_per_k=8, n_test_per_k=4, master_seed=5
    )
    train, test, manifest = generate_dataset(cfg, tri_bank, rb)
    return cfg, train, test, manifest


class TestGenerateDataset:
    def test_counts_exact(self, small_run):
        cfg, train, test, manifest = small_run
        assert len(train) == 16 and len(test) == 8
        assert manifest["counts"] == {
            "train": {"2": 8, "3": 8},
            "test": {"2": 4, "3": 4},
        }

    def test_ids_unique_and_ordered(self, small_run):
        _, train, test, _ = small_run
        ids = [r.id for r in train + test]
        assert len(set(ids)) == len(ids)
        assert [r.k for r in train] == sorted(r.k for r in train)

    def test_rows_certified(self, small_run, rb):
        _, train, test, _ = small_run
        for record in train + test:
            result = resolve_record(record, rb)
            assert result.label == record.label
            assert record.label in {surface(p, g) for p in Predicate for g in Gender}
            assert len(record.facts) == record.k
            assert record.proof_trace
            assert len(record.shape_id.split("|")) == record.k

    def test_split_hygiene(self, small_run):
        _, train, test, manifest = small_run
        train_ids = {tid for r in train for tid in r.template_ids}
        test_ids = {tid for r in test for tid in r.template_ids}
        assert not train_ids & test_ids
        held3 = set(manifest["held_out_shapes"]["3"])
        assert held3
        for r in train:
            assert not r.shape_held_out
            if r.k == 3:
                assert r.shape_id not in held3

    def test_jobs_do_not_change_output(self, small_run, rb, tri_bank):
        cfg, train, test, manifest = small_run
        train2, test2, manifest2 = generate_dataset(cfg, tri_bank, rb, jobs=2)
        assert (train2, test2, manifest2) == (train, test, manifest)

    def test_row_seed_scheme(self, small_run):
        cfg, train, _, _ = small_run
        for r in train[:3]:
            index = int(r.id.rsplit("-", 1)[1])
            assert r.seed == derive_seed(cfg.master_seed, r.split, r.k, index)

    def test_manifest_shape(self, small_run, tri_bank):
        cfg, _, _, manifest = small_run
        assert manifest["tool"] == "kinship-forge"
        assert manifest["master_seed"] == cfg.master_seed
        assert len(manifest["config_hash"]) == 64
        assert manifest["bank"]["templates"] == len(tri_bank)
        split = manifest["template_split"]
        assert split["train_ids"] and split["test_ids"] and not split["unsplit_ids"]
        assert not set(split["train_ids"]) & set(split["test_ids"])

    def test_bad_jobs(self, rb, tri_bank):
        with pytest.raises(ConfigError):
            generate_dataset(SplitConfig(), tri_bank, rb, jobs=0)


def test_worker_count_clamps_to_specs_and_cpus():
    assert _worker_count(100_000, 500, 2) == 2
    assert _worker_count(8, 3, 16) == 3
    assert _worker_count(4, 500, 16) == 4
    assert _worker_count(4, 0, 16) == 1


def backbone_of(structure: tuple) -> KinshipGraph:
    """A backbone with this structure (genders arbitrary)."""
    g = KinshipGraph(id_base=structure[0][0])
    for _ in structure:
        g.add_entity(Gender.MALE)
    for src, out in structure:
        for dst, pred in out:
            g.add_edge(src, dst, pred)
    return g


def test_each_default_structure_is_closed_once(rb, tri_bank):
    # the founding couple has 1-3 children, each single or married with
    # 1-3 children: 4 + 16 + 64 structures; the two-generation noise world
    # adds 3 more, which bounds the closed worlds at 87
    rows = RowGenerator(SplitConfig(), tri_bank, {}, rb, None)
    by_structure: dict[tuple, list[KinshipGraph]] = {}
    for seed in range(4000):
        g = generate_backbone(seed)
        by_structure.setdefault(g.structure(), []).append(g)
    assert len(by_structure) == sum(4**n for n in (1, 2, 3)) == 84
    noise_structures: dict[tuple, list[KinshipGraph]] = {}
    for seed in range(100):
        g = generate_backbone(seed, 2, NOISE_ID_BASE)
        noise_structures.setdefault(g.structure(), []).append(g)
    assert len(noise_structures) == 3
    for backbones in (*by_structure.values(), *noise_structures.values()):
        for g in backbones[:4]:  # a miss, then hits with other genders
            assert graph_state(rows._close(g)) == graph_state(naive_close(g, rb))
    assert len(rows.closed_worlds) == 87


@pytest.mark.parametrize(
    "train_noise,test_noise",
    [(NoiseKind.SUPPORTING, NoiseKind.DISCONNECTED), (NoiseKind.IRRELEVANT, None)],
)
def test_closed_worlds_are_left_as_closed(rb, tri_bank, monkeypatch, train_noise, test_noise):
    # every attempt of a structure shares its closed world; none may change it
    made: list[RowGenerator] = []

    class Recording(RowGenerator):
        def __call__(self, spec):
            if not made:
                made.append(self)
            return super().__call__(spec)

    monkeypatch.setattr(dataset, "RowGenerator", Recording)
    cfg = SplitConfig(
        train_ks=(2, 3), test_ks=(2, 3, 4, 5), n_train_per_k=30, n_test_per_k=10,
        train_noise=train_noise, test_noise=test_noise, master_seed=9,
    )
    generate_dataset(cfg, tri_bank, rb)
    worlds = made[0].closed_worlds
    noise_worlds = [key for key in worlds if key[0][0] == NOISE_ID_BASE]
    assert len(worlds) > 20 and bool(noise_worlds) == (test_noise is NoiseKind.DISCONNECTED)
    assert len(worlds) <= 87 and len(noise_worlds) <= 3
    for structure, closed in worlds.items():
        fresh = close_graph(backbone_of(structure), rb)
        assert closed.structure() == fresh.structure()
        assert closed.facts() == fresh.copy().facts()  # copy() starts with no memo
        for v in fresh.entities:
            assert closed.in_of(v) == fresh.in_of(v)
            assert closed.out_by_pred(v) == fresh.out_by_pred(v)


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_noise_rows(rb, tri_bank, kind):
    cfg = SplitConfig(
        train_ks=(2, 3),
        test_ks=(2,),
        n_train_per_k=4,
        n_test_per_k=2,
        train_noise=kind,
        test_noise=kind,
        master_seed=11,
    )
    train, test, _ = generate_dataset(cfg, tri_bank, rb)
    for record in train + test:
        assert record.noise_kind == kind.value
        assert record.noise_facts
        with_noise = resolve_record(record, rb, include_noise=True)
        without = resolve_record(record, rb, include_noise=False)
        assert with_noise.label == without.label == record.label
        if kind is NoiseKind.DISCONNECTED:
            chain_tokens = {t for f in record.facts for t in FACT_RE.fullmatch(f).group(2, 3)}
            noise_tokens = {t for f in record.noise_facts for t in FACT_RE.fullmatch(f).group(2, 3)}
            assert not chain_tokens & noise_tokens


def test_cloze_rows(rb, tri_bank):
    cfg = SplitConfig(
        train_ks=(2,), test_ks=(2,), n_train_per_k=3, n_test_per_k=2,
        naming=Naming.CLOZE, master_seed=3,
    )
    train, test, _ = generate_dataset(cfg, tri_bank, rb)
    for record in train + test:
        assert record.query_head.startswith("@entity-")
        result = resolve_record(record, rb)
        assert result.label == record.label


def test_pre_tagged_bank_skips_resplit(rb, tagged_bank):
    cfg = SplitConfig(
        train_ks=(2,), test_ks=(2,), n_train_per_k=3, n_test_per_k=2, master_seed=1
    )
    _, _, manifest = generate_dataset(cfg, tagged_bank, rb)
    expected = sorted(t.id for t in tagged_bank.all_templates() if t.split is Split.TEST)
    assert manifest["template_split"]["test_ids"] == expected


def test_uncovered_bank_fails_fast(rb):
    lonely = TemplateBank(
        [Template("only", ((Predicate.CHILD, Gender.MALE),), "[ENT_1] of [ENT_0].")]
    )
    cfg = SplitConfig(train_ks=(2,), test_ks=(2,), n_train_per_k=1, n_test_per_k=1,
                      template_holdout_frac=0.0)
    from kinship_forge.errors import CoverageError

    with pytest.raises(CoverageError):
        generate_dataset(cfg, lonely, rb)


@pytest.fixture(scope="module")
def rows(small_run):
    _, train, _, _ = small_run
    return train


class TestRoundTrip:
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_lossless(self, rows, tmp_path, format):
        path = tmp_path / f"rows.{format}"
        write_rows(rows, path)
        assert read_rows(path) == rows

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_byte_deterministic(self, rows, tmp_path, format):
        a, b = tmp_path / f"a.{format}", tmp_path / f"b.{format}"
        write_rows(rows, a)
        write_rows(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self, rows, tmp_path):
        with pytest.raises(ConfigError):
            write_rows(rows, tmp_path / "rows.xml")
        (tmp_path / "rows.xml").write_text("x")
        with pytest.raises(ConfigError):
            read_rows(tmp_path / "rows.xml")

    def test_missing_column_csv(self, rows, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(rows, path)
        lines = path.read_text().splitlines()
        stripped = [",".join(line.split(",")[1:]) for line in lines]
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(stripped) + "\n")
        with pytest.raises(SchemaError, match="id"):
            read_rows(broken)

    def test_missing_column_jsonl(self, rows, tmp_path):
        path = tmp_path / "rows.jsonl"
        record = json.loads(
            json.dumps({c: "x" for c in COLUMNS if c != "label"})
        )
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match="label"):
            read_rows(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_rows(path)

    @pytest.mark.parametrize(
        "column, value",
        [
            (None, None),  # truncated row
            ("facts", "[not json"),
            ("k", "two"),
            ("seed", "1.5"),
            ("facts", "5"),
            ("genders", "[]"),
            ("template_ids", '"x"'),
        ],
    )
    def test_bad_csv_row_names_its_line(self, rows, tmp_path, column, value):
        path = tmp_path / "rows.csv"
        write_rows(rows[:2], path)
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        if column is None:
            del table[2][5:]
        else:
            table[2][COLUMNS.index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
        with pytest.raises(SchemaError, match=r"rows\.csv:3: "):
            read_rows(path)

    @pytest.mark.parametrize("line", ["{not json", "7"])
    def test_bad_jsonl_line_names_its_line(self, rows, tmp_path, line):
        path = tmp_path / "rows.jsonl"
        write_rows(rows[:1], path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(SchemaError, match=r"rows\.jsonl:2: "):
            read_rows(path)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("k", "two"),
            ("k", True),
            ("seed", 1.5),
            ("seed", "1"),
            ("shape_held_out", "yes"),
            ("shape_held_out", 1),
            ("label", 5),
            ("facts", "abc"),
            ("story", None),
            ("genders", []),
            ("template_ids", 7),
            ("noise_kind", 3),
        ],
    )
    def test_mistyped_jsonl_cell_names_its_line(self, rows, tmp_path, column, value):
        # the same checks the CSV reader makes, on every column
        path = tmp_path / "rows.jsonl"
        write_rows(rows[:2], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[column] = value
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=rf"rows\.jsonl:2: {column} must be"):
            read_rows(path)

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_non_utf8_file_is_a_schema_error(self, rows, tmp_path, format):
        path = tmp_path / f"rows.{format}"
        write_rows(rows[:1], path)
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(SchemaError, match=rf"rows\.{format}: not UTF-8"):
            read_rows(path)


class TestStats:
    def one_key_bank(self, *texts):
        key = ((Predicate.CHILD, Gender.MALE),)
        body = "[ENT_0] [ENT_1] "
        return TemplateBank(
            [Template(f"t{i}", key, body + text) for i, text in enumerate(texts)]
        )

    def test_hand_computed_unigram(self):
        stats = compute_stats(self.one_key_bank("a b c", "a b d"))
        assert stats.unigram_jaccard == pytest.approx(2 / 4)
        assert stats.bigram_jaccard == pytest.approx(1 / 3)

    def test_identical_templates(self):
        stats = compute_stats(self.one_key_bank("a b c", "a b c"))
        assert stats.unigram_jaccard == 1.0
        assert stats.bigram_jaccard == 1.0

    def test_slots_excluded_from_tokens(self):
        stats = compute_stats(self.one_key_bank("alpha", "alpha"))
        assert stats.unique_words == 1
        assert stats.unigram_jaccard == 1.0

    def test_singleton_keys_report_zero(self):
        stats = compute_stats(self.one_key_bank("only one"))
        assert stats.unigram_jaccard == 0.0
        assert stats.templates_per_k == {1: 1}
        assert stats.keys_per_k == {1: 1}

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigError):
            compute_stats(TemplateBank([]))

    def test_synth_bank_stats_in_bounds(self, tri_bank):
        stats = compute_stats(tri_bank)
        assert isinstance(stats, BankStats)
        assert 0.0 <= stats.unigram_jaccard <= 1.0
        assert 0.0 <= stats.bigram_jaccard <= 1.0
        assert stats.templates_per_k == {1: 60, 2: 186, 3: 1116}
        assert stats.keys_per_k == {1: 20, 2: 62, 3: 372}
        assert stats.unique_words > 20
