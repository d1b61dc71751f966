import hashlib
import json
import time
from collections import Counter
from dataclasses import fields

import pytest

from _oracles import resolve_record, story_facts
from kinship_forge.cli import _CONFIG_COERCERS, main, parse_fact_file
from kinship_forge.dataset import SplitConfig, read_rows, rules_fingerprint
from kinship_forge.errors import ConfigError
from kinship_forge.ontology import RuleBase, default_rulebase

INTRO_FACTS = "mother(Bob, Alice)\nfather(Alice, Jim)\n"
AMBIGUOUS_FACTS = "husband(Ann, Bob)\nson(Bob, Carl)\ngrandmother(Carl, Dee)\n"

GENERATE_FLAGS = (
    "--preset", "--config", "--seed", "--out", "--bank", "--rules",
    "--train-ks", "--test-ks", "--n-train", "--n-test",
    "--template-holdout", "--shape-holdout", "--noise-train", "--noise-test",
    "--naming", "--format", "--jobs",
)


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def fact_file(tmp_path, text, name="facts.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_grandfather(self, tmp_path, capsys):
        facts = fact_file(tmp_path, INTRO_FACTS)
        rc, out, _ = run(capsys, "solve", "--facts", facts, "--query", "Bob", "Jim")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "grandfather"
        assert lines[1].startswith("proof: ")
        assert "inv-grand" in lines[1]

    def test_ambiguous_exits_2(self, tmp_path, capsys):
        facts = fact_file(tmp_path, AMBIGUOUS_FACTS)
        rc, _, err = run(capsys, "solve", "--facts", facts, "--query", "Ann", "Dee")
        assert rc == 2
        assert "inv-child" in err and "inv-in-law" in err

    def test_unknown_entity_exits_3(self, tmp_path, capsys):
        facts = fact_file(tmp_path, INTRO_FACTS)
        rc, _, err = run(capsys, "solve", "--facts", facts, "--query", "Bob", "Zed")
        assert rc == 3
        assert "Zed" in err

    def test_disconnected_exits_3(self, tmp_path, capsys):
        facts = fact_file(tmp_path, "mother(Bob, Alice)\nmother(Carl, Dee)\n")
        rc, _, _ = run(capsys, "solve", "--facts", facts, "--query", "Bob", "Dee")
        assert rc == 3

    def test_entity_line_supplies_tail_gender(self, tmp_path, capsys):
        facts = fact_file(tmp_path, "entity Bob male\nmother(Bob, Alice)\n")
        rc, out, _ = run(capsys, "solve", "--facts", facts, "--query", "Alice", "Bob")
        assert rc == 0
        assert out.splitlines()[0] == "son"

    def test_missing_tail_gender_exits_1(self, tmp_path, capsys):
        facts = fact_file(tmp_path, INTRO_FACTS)
        rc, _, err = run(capsys, "solve", "--facts", facts, "--query", "Alice", "Bob")
        assert rc == 1
        assert "entity Bob" in err

    def test_unparseable_line_exits_1(self, tmp_path, capsys):
        facts = fact_file(tmp_path, "mother(Bob, Alice)\ngarbage here\n")
        rc, _, err = run(capsys, "solve", "--facts", facts, "--query", "Bob", "Alice")
        assert rc == 1
        assert ":2" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "solve", "--facts", str(tmp_path / "nope"), "--query", "a", "b"
        )
        assert rc == 1
        assert "error" in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", "--facts"),
        ("generate", "--config"),
        ("generate", "--rules"),
        ("generate", "--bank"),
    ],
)
def test_non_utf8_input_exits_1(tmp_path, capsys, command, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"mother(Bob, Alice)\n\xff\xfe\n")
    if command == "solve":
        rest = ["--query", "Bob", "Alice"]
    else:
        rest = ["--out", str(tmp_path / "out"), "--n-train", "1", "--n-test", "1"]
    rc, _, err = run(capsys, command, flag, str(bad), *rest)
    assert rc == 1
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in err


class TestParseFactFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = fact_file(tmp_path, "# header\n\nmother(Bob, Alice)\n")
        facts, names, genders = parse_fact_file(path)
        assert len(facts) == 1
        assert set(names) == {"Bob", "Alice"}
        assert genders[names["Alice"]].value == "female"

    def test_gender_conflict(self, tmp_path):
        path = fact_file(tmp_path, "mother(Bob, Alice)\nfather(Carl, Alice)\n")
        with pytest.raises(ConfigError, match="conflicting gender"):
            parse_fact_file(path)

    def test_entity_gender_conflict(self, tmp_path):
        path = fact_file(tmp_path, "mother(Bob, Alice)\nentity Alice male\n")
        with pytest.raises(ConfigError, match="conflicting gender"):
            parse_fact_file(path)

    def test_unknown_relation_word(self, tmp_path):
        path = fact_file(tmp_path, "cousin(Bob, Alice)\n")
        with pytest.raises(ConfigError):
            parse_fact_file(path)


class TestShapes:
    def test_k1_matches_reference(self, capsys):
        rc, out, _ = run(capsys, "shapes", "--k", "1")
        assert rc == 0
        assert "k=1: 20 shapes" in out
        assert "reference: 20 (delta +0)" in out

    def test_k2_reports_delta(self, capsys):
        rc, out, _ = run(capsys, "shapes", "--k", "2")
        assert rc == 0
        assert "k=2: 62 shapes" in out
        assert "reference: 58 (delta +4)" in out

    def test_list_prints_ids(self, capsys):
        rc, out, _ = run(capsys, "shapes", "--k", "1", "--list")
        lines = out.splitlines()
        assert len(lines) == 2 + 20
        assert "child.m" in lines[2:]

    def test_above_cap_exits_1(self, capsys):
        rc, _, err = run(capsys, "shapes", "--k", "7")
        assert rc == 1
        assert "error" in err


def test_stats_table(capsys):
    rc, out, _ = run(capsys, "stats")
    assert rc == 0
    assert "k=1: 20 keys, 60 templates" in out
    assert "k=3: 372 keys, 1116 templates" in out
    assert "templates total: 1362" in out
    for line in out.splitlines():
        if line.startswith(("unigram", "bigram")):
            value = float(line.split(": ")[1])
            assert 0.0 <= value <= 1.0


class TestParser:
    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus"])
        assert exc.value.code == 1

    def test_no_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "kinship-forge 0.1.0" in capsys.readouterr().out

    def test_generate_help_names_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in GENERATE_FLAGS:
            assert flag in text


GEN_TINY = (
    "generate", "--train-ks", "2", "--test-ks", "2",
    "--n-train", "3", "--n-test", "2", "--seed", "9",
)


class TestGenerate:
    def test_tiny_run(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        rc, out, _ = run(capsys, *GEN_TINY, "--out", str(out_dir))
        assert rc == 0
        assert "train k=2: 3 rows" in out
        assert "test k=2: 2 rows" in out
        assert "wrote" in out
        train = read_rows(out_dir / "train.csv")
        test = read_rows(out_dir / "test.csv")
        assert len(train) == 3 and len(test) == 2
        assert all(r.k == 2 for r in train + test)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 9

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *GEN_TINY, "--out", str(a))[0] == 0
        assert run(capsys, *GEN_TINY, "--out", str(b))[0] == 0
        for name in ("train.csv", "test.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_jsonl_format(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        rc, _, _ = run(capsys, *GEN_TINY, "--out", str(out_dir), "--format", "jsonl")
        assert rc == 0
        assert (out_dir / "train.jsonl").exists()
        assert not (out_dir / "train.csv").exists()
        assert len(read_rows(out_dir / "train.jsonl")) == 3

    def test_k_range_spelling(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "generate", "--train-ks", "2", "--test-ks", "2-4",
            "--n-train", "1", "--n-test", "1", "--seed", "1",
            "--out", str(tmp_path / "c"),
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["counts"]["test"] == {"2": 1, "3": 1, "4": 1}

    def test_noise_flags_reach_config(self, tmp_path, capsys):
        rc, _, _ = run(
            capsys, *GEN_TINY, "--out", str(tmp_path / "c"),
            "--noise-train", "none", "--noise-test", "irrelevant",
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["config"]["train_noise"] is None
        assert manifest["config"]["test_noise"] == "irrelevant"

    def test_unknown_preset_exits_1(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "generate", "--preset", "nope", "--out", str(tmp_path / "c")
        )
        assert rc == 1
        assert "unknown preset" in err

    def test_bad_noise_kind_exits_1(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, *GEN_TINY, "--out", str(tmp_path / "c"), "--noise-train", "loud"
        )
        assert rc == 1
        assert "unknown noise kind" in err

    def test_bad_k_spelling_exits_1(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "generate", "--train-ks", "5-2", "--out", str(tmp_path / "c")
        )
        assert rc == 1
        assert "empty k range" in err

    @pytest.mark.parametrize("flag", ["--train-ks", "--test-ks"])
    def test_empty_k_flag_exits_1(self, tmp_path, capsys, flag):
        # the flag is read like the config line `train_ks =`, not skipped
        rc, _, err = run(capsys, *GEN_TINY, flag, "", "--out", str(tmp_path / "c"))
        assert rc == 1
        assert "no k values in ''" in err
        assert not (tmp_path / "c").exists()

    def test_row_budget_exhausted_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_row_attempts = 3\n")
        rc, _, err = run(
            capsys, "generate", "--config", str(cfg), "--n-train", "0",
            "--test-ks", "11", "--n-test", "1", "--seed", "1", "--out", str(tmp_path / "c"),
        )
        assert rc == 4
        assert "error: row test/k=11/i=0: no certified puzzle in 3 attempts" in err

    @pytest.mark.parametrize(
        "ks", ["13", "2-100000000", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_k_above_path_cap_exits_1_at_once(self, tmp_path, capsys, ks):
        start = time.perf_counter()
        rc, _, err = run(capsys, "generate", "--test-ks", ks, "--out", str(tmp_path / "c"))
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert "path cap 12" in err
        assert not (tmp_path / "c").exists()

    # sha256 of two small corpora, one per format, each with a noisy test
    # split; a change that alters the generated bytes on purpose updates
    # them and says so
    PINNED = {
        "csv": (
            ("--noise-test", "disconnected"),
            {
                "train.csv": "3a1108ce268376fbc8a107ac5236e79951fd9e6d448b4eb6b6c01235f22eabe3",
                "test.csv": "ed04cab530df552d818f03308a41db4ef51e3f5ff5c02f31702d2e005f58a938",
                "manifest.json": "1741d1e37617fafc33e216f41d73bd9ff3e539b5f6470e240d7e1ea37c6e2a4e",
            },
        ),
        "jsonl": (
            ("--noise-test", "supporting", "--naming", "cloze"),
            {
                "train.jsonl": "f21326329b10942ed948f7a3659d1778ef16a001989c4868137a1aa7ac39a87f",
                "test.jsonl": "db2f513c7a2ebd4d13d3cd956e9b5e841b5a7dea4f5c100d65b108fa1df663d7",
                "manifest.json": "d7261045b540fb2034fb91688505eba8b8af5b930e3dcd72e22dd2783f40b960",
            },
        ),
    }

    @pytest.mark.parametrize("fmt", sorted(PINNED))
    def test_output_bytes_pinned(self, tmp_path, capsys, fmt):
        flags, expected = self.PINNED[fmt]
        rc, _, _ = run(
            capsys, "generate", "--preset", "gen-k23", "--seed", "7", "--test-ks", "2-4",
            "--n-train", "100", "--n-test", "20", "--format", fmt, *flags,
            "--out", str(tmp_path),
        )
        assert rc == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in expected
        }
        assert digests == expected

    @pytest.mark.parametrize(
        "fmt, flags",
        [
            ("csv", PINNED["csv"][0]),
            ("jsonl", PINNED["jsonl"][0]),
            ("csv", ("--noise-test", "irrelevant")),
        ],
        ids=["pinned-csv", "pinned-jsonl", "irrelevant"],
    )
    def test_story_tells_the_row_facts(self, tmp_path, capsys, fmt, flags):
        # the story, read back through the bank's sentence patterns, states
        # exactly facts + noise_facts, each second entity with its gender
        rc, _, _ = run(
            capsys, "generate", "--preset", "gen-k23", "--seed", "7", "--test-ks", "2-4",
            "--n-train", "100", "--n-test", "20", "--format", fmt, *flags,
            "--out", str(tmp_path),
        )
        assert rc == 0
        rows = read_rows(tmp_path / f"train.{fmt}") + read_rows(tmp_path / f"test.{fmt}")
        assert len(rows) == 260
        for row in rows:
            expected = Counter(
                (fact, row.genders[fact[:-1].split(",")[1]])
                for fact in row.facts + row.noise_facts
            )
            assert Counter(story_facts(row.story)) == expected, row.id

    def test_custom_rule_base_end_to_end(self, tmp_path, capsys):
        # the default rules without sibling <- child inv-un
        kept = [r for r in default_rulebase().rules if str(r) != "sibling <- child inv-un"]
        assert len(kept) == 15
        rules = tmp_path / "rules.txt"
        rules.write_text("".join(f"{rule}\n" for rule in kept))
        rb = RuleBase.from_file(rules)
        out_dir = tmp_path / "corpus"
        rc, _, _ = run(
            capsys, "generate", "--rules", str(rules), "--train-ks", "2,3",
            "--test-ks", "2-5", "--n-train", "40", "--n-test", "20", "--seed", "3",
            "--out", str(out_dir),
        )
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["rules_fingerprint"] == rules_fingerprint(rb)
        # ceil(0.1 * 284) k=3 shapes; the default rules give ceil(0.1 * 372)
        assert len(manifest["held_out_shapes"]["3"]) == 29
        rows = read_rows(out_dir / "train.csv") + read_rows(out_dir / "test.csv")
        assert len(rows) == 160
        for row in rows:
            assert resolve_record(row, rb).label == row.label, row.id


class TestConfigResolution:
    def test_every_config_field_has_one_coercer(self):
        assert set(_CONFIG_COERCERS) == {f.name for f in fields(SplitConfig)}

    def test_config_file_applies_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny run\n"
            "train_ks = 2\n"
            "test_ks = 2\n"
            "n_train_per_k = 4\n"
            "n_test_per_k = 2\n"
            "master_seed = 7\n"
        )
        out_dir = tmp_path / "c"
        rc, _, _ = run(
            capsys, "generate", "--config", str(cfg),
            "--n-train", "2", "--out", str(out_dir),
        )
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["counts"]["train"] == {"2": 2}
        assert manifest["counts"]["test"] == {"2": 2}
        assert manifest["master_seed"] == 7

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_rows = 4\n")
        rc, _, err = run(
            capsys, "generate", "--config", str(cfg), "--out", str(tmp_path / "c")
        )
        assert rc == 1
        assert "unknown key" in err and ":1" in err

    def test_malformed_config_line_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        rc, _, err = run(
            capsys, "generate", "--config", str(cfg), "--out", str(tmp_path / "c")
        )
        assert rc == 1
        assert "key = value" in err

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KINSHIP_FORGE_SEED", "5")
        out_dir = tmp_path / "c"
        rc, _, _ = run(
            capsys, "generate", "--train-ks", "2", "--test-ks", "2",
            "--n-train", "1", "--n-test", "1", "--out", str(out_dir),
        )
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 5

    def test_seed_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KINSHIP_FORGE_SEED", "5")
        out_dir = tmp_path / "c"
        rc, _, _ = run(capsys, *GEN_TINY, "--out", str(out_dir))
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 9

    def test_bad_env_seed_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KINSHIP_FORGE_SEED", "many")
        rc, _, err = run(
            capsys, "generate", "--train-ks", "2", "--test-ks", "2",
            "--n-train", "1", "--n-test", "1", "--out", str(tmp_path / "c"),
        )
        assert rc == 1
        assert "KINSHIP_FORGE_SEED" in err
