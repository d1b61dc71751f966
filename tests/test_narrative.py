import json
import random
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinship_forge.chains import FactPath, backward_chain, sample_irrelevant_noise, sample_target
from kinship_forge.errors import (
    BankFormatError,
    ConfigError,
    CoverageError,
    InsufficientTemplatesError,
    NoEligibleTemplateError,
    PoolExhaustedError,
)
from kinship_forge.narrative import (
    AnswerLeakWarning,
    Split,
    Template,
    TemplateBank,
    _partition_with,
    load_bank,
    render_story,
    split_bank,
    synth_bank,
)
from kinship_forge.familygraph import Fact
from kinship_forge.ontology import Gender, Predicate, default_rulebase, surface

M, F = Gender.MALE, Gender.FEMALE
RB = default_rulebase()


def bank_record(id="t1", key=(("child", "male"),), text="[ENT_1] is with [ENT_0].", **kw):
    return json.dumps({"id": id, "key": [list(a) for a in key], "text": text, **kw})


def write_bank(tmp_path, *lines):
    path = tmp_path / "bank.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_synth_bank_sizes(plain_bank, tri_bank):
    assert len(plain_bank) == 20 + 62 + 372
    assert len(tri_bank) == 3 * (20 + 62 + 372)
    assert len(plain_bank.keys()) == len(tri_bank.keys()) == 454


def test_synth_bank_variants_differ(tri_bank):
    key = ((Predicate.CHILD, M),)
    texts = {t.text for t in tri_bank.templates_for(key)}
    assert len(texts) == 3
    assert "[ENT_1] is the son of [ENT_0]." in texts


def test_synth_bank_variant_cap(rb):
    with pytest.raises(ConfigError):
        synth_bank(rb, variants=4)
    with pytest.raises(ConfigError):
        synth_bank(rb, variants=0)


def test_synth_bank_is_unsplit(plain_bank):
    assert all(t.split is Split.UNSPLIT for t in plain_bank.all_templates())


def test_bank_rejects_duplicate_ids():
    t = Template("x", ((Predicate.CHILD, M),), "[ENT_0] [ENT_1]")
    with pytest.raises(BankFormatError):
        TemplateBank([t, t])


def test_load_bank_round_trip(tmp_path):
    pair = (("child", "female"), ("sibling", "male"))
    path = write_bank(
        tmp_path,
        bank_record(id="a", split="train"),
        bank_record(id="b", key=pair, text="[ENT_0] [ENT_1] [ENT_2].", split="test"),
        bank_record(id="c", text="[ENT_0] and [ENT_1]."),
    )
    assert set(load_bank(path, RB).all_templates()) == {
        Template("a", ((Predicate.CHILD, M),), "[ENT_1] is with [ENT_0].", Split.TRAIN),
        Template(
            "b", ((Predicate.CHILD, F), (Predicate.SIBLING, M)), "[ENT_0] [ENT_1] [ENT_2].",
            Split.TEST,
        ),
        Template("c", ((Predicate.CHILD, M),), "[ENT_0] and [ENT_1].", Split.UNSPLIT),
    }


def test_load_bank_bad_json_names_line(tmp_path):
    path = write_bank(tmp_path, bank_record(), "{not json")
    with pytest.raises(BankFormatError, match=":2"):
        load_bank(path, RB)


def test_load_bank_missing_field(tmp_path):
    path = write_bank(tmp_path, '{"id": "x", "text": "[ENT_0] [ENT_1]"}')
    with pytest.raises(BankFormatError, match=":1"):
        load_bank(path, RB)


def test_load_bank_bad_predicate(tmp_path):
    path = write_bank(tmp_path, bank_record(key=(("cousin", "male"),)))
    with pytest.raises(BankFormatError):
        load_bank(path, RB)


def test_load_bank_missing_slot(tmp_path):
    path = write_bank(tmp_path, bank_record(text="[ENT_0] has someone."))
    with pytest.raises(BankFormatError, match="t1"):
        load_bank(path, RB)


def test_load_bank_unknown_slot_token(tmp_path):
    path = write_bank(tmp_path, bank_record(text="[ENT_0] [ENT_1] [NAME]"))
    with pytest.raises(BankFormatError, match="NAME"):
        load_bank(path, RB)


def test_load_bank_out_of_range_slot(tmp_path):
    path = write_bank(tmp_path, bank_record(text="[ENT_0] [ENT_1] [ENT_2]"))
    with pytest.raises(BankFormatError):
        load_bank(path, RB)


def test_load_bank_honors_split_tags(tmp_path):
    path = write_bank(tmp_path, bank_record(split="test"))
    bank = load_bank(path, RB)
    assert bank.all_templates()[0].split is Split.TEST


def test_readme_bank_example_loads(tmp_path):
    # the README's example line is a bank the loader reads without a warning
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "bank.jsonl"
    path.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (template,) = load_bank(path, RB).all_templates()
    assert template.key == ((Predicate.CHILD, F), (Predicate.SIBLING, M))
    assert template.split is Split.TRAIN


@pytest.mark.parametrize("key", [["child.f", "sibling.m"], "child", [["child"]], 5])
def test_load_bank_malformed_key_names_the_form(tmp_path, key):
    path = write_bank(tmp_path, json.dumps({"id": "t1", "key": key, "text": "[ENT_0] [ENT_1]"}))
    form = r":1: key must be a list of \[predicate, gender\] pairs"
    with pytest.raises(BankFormatError, match=form):
        load_bank(path, RB)


def test_leak_warning_on_head_surface(tmp_path):
    # a sibling/male template mentioning "brother" names its own answer
    path = write_bank(
        tmp_path,
        bank_record(key=(("sibling", "male"),), text="[ENT_1] is the brother of [ENT_0]."),
    )
    with pytest.warns(AnswerLeakWarning, match="brother"):
        load_bank(path, RB)


def test_leak_warning_respects_word_boundaries(tmp_path):
    # "grandmother" and "mother-in-law" must not trip the "mother" check
    path = write_bank(
        tmp_path,
        bank_record(
            key=(("inv-child", "female"),),
            text="[ENT_1] is the grandmother of the mother-in-law of [ENT_0].",
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", AnswerLeakWarning)
        load_bank(path, RB)


def test_eligible_filters_by_split(tagged_bank):
    key = ((Predicate.CHILD, M),)
    train = tagged_bank.eligible(key, Split.TRAIN)
    test = tagged_bank.eligible(key, Split.TEST)
    assert train and test
    assert not {t.id for t in train} & {t.id for t in test}


def test_eligible_accepts_unsplit_everywhere(plain_bank):
    key = ((Predicate.CHILD, M),)
    assert plain_bank.eligible(key, Split.TRAIN) == plain_bank.eligible(key, Split.TEST)


def test_eligible_missing_key(plain_bank):
    with pytest.raises(CoverageError):
        plain_bank.eligible(((Predicate.SIB_IN_LAW, M),), Split.TRAIN)


def test_eligible_empty_side():
    t = Template("x", ((Predicate.CHILD, M),), "[ENT_0] [ENT_1]", Split.TEST)
    bank = TemplateBank([t])
    with pytest.raises(NoEligibleTemplateError):
        bank.eligible(((Predicate.CHILD, M),), Split.TRAIN)


def test_split_bank_proportions(tri_bank):
    tagged = split_bank(tri_bank, 0.2, seed=9)
    for key in tagged.keys():
        pool = tagged.templates_for(key)
        test_n = sum(1 for t in pool if t.split is Split.TEST)
        assert test_n == 1  # ceil(0.2 * 3)
        assert all(t.split is not Split.UNSPLIT for t in pool)


def test_split_bank_deterministic(tri_bank):
    one = split_bank(tri_bank, 0.2, seed=9)
    two = split_bank(tri_bank, 0.2, seed=9)
    assert one.all_templates() == two.all_templates()
    other = split_bank(tri_bank, 0.2, seed=10)
    assert other.all_templates() != one.all_templates()


def test_split_bank_zero_frac_is_identity(plain_bank):
    assert split_bank(plain_bank, 0.0, seed=0).all_templates() == plain_bank.all_templates()


def test_split_bank_insufficient(plain_bank):
    with pytest.raises(InsufficientTemplatesError):
        split_bank(plain_bank, 0.2, seed=0)


def test_split_bank_frac_bounds(plain_bank):
    with pytest.raises(ConfigError):
        split_bank(plain_bank, 1.2, seed=0)


ALPHABET = [
    (p, g)
    for p in (Predicate.CHILD, Predicate.INV_CHILD, Predicate.SIBLING, Predicate.GRAND)
    for g in (M, F)
]


@given(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_partition_covers_atoms_exactly(atoms, seed):
    bank = synth_bank(RB, variants=1)
    segments = _partition_with(random.Random(seed), tuple(atoms), bank)
    assert all(1 <= len(seg) <= 3 for seg in segments)
    flattened = tuple(a for seg in segments for a in seg)
    assert flattened == tuple(atoms)


def test_partition_varies_with_seed(plain_bank):
    # every contiguous window of this sequence folds, so all 7
    # compositions of 4 into parts of 1..3 are reachable
    atoms = (
        (Predicate.CHILD, M),
        (Predicate.CHILD, M),
        (Predicate.SIBLING, M),
        (Predicate.CHILD, M),
    )
    seen = {
        tuple(map(len, _partition_with(random.Random(s), atoms, plain_bank)))
        for s in range(200)
    }
    assert len(seen) == 7


def test_partition_skips_unfoldable_segments(plain_bank):
    # child,child,child folds to nothing, so no 3-atom segment may be used
    atoms = ((Predicate.CHILD, M),) * 4
    seen = {
        tuple(map(len, _partition_with(random.Random(s), atoms, plain_bank)))
        for s in range(200)
    }
    assert seen == {(1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2)}


def test_partition_coverage_error():
    only_pair = TemplateBank(
        [Template("p", ((Predicate.CHILD, M), (Predicate.CHILD, M)), "[ENT_0] [ENT_1] [ENT_2]")]
    )
    with pytest.raises(CoverageError):
        _partition_with(random.Random(0), ((Predicate.CHILD, M),), only_pair)


@pytest.fixture(scope="module")
def story_setup(closed_world):
    target = sample_target(closed_world, seed=3)
    chain = backward_chain(closed_world, target, 4, seed=5, rb=RB)
    noise = sample_irrelevant_noise(closed_world, chain, seed=7)
    return closed_world, chain, noise


def test_render_fills_every_slot(story_setup, tagged_bank, world_names):
    g, chain, noise = story_setup
    r = render_story(chain, noise, tagged_bank, world_names, Split.TRAIN, seed=1)
    assert "[ENT_" not in r.text
    assert r.template_ids


def expected_sentences(g, facts, token_of):
    return [
        f"{token_of[f.dst]} is the {surface(f.pred, g.gender(f.dst))} of {token_of[f.src]}."
        for f in facts
    ]


def test_render_keeps_main_order_and_noise_contiguous(story_setup, plain_bank, world_names):
    g, chain, noise = story_setup
    r = render_story(chain, noise, plain_bank, world_names, Split.TRAIN, seed=11)
    sentences = re.split(r"(?<=[.!?])\s+", r.text)
    token_of = r.entity_mentions
    main = expected_sentences(g, chain.facts, token_of)
    noise_sents = expected_sentences(g, noise.facts, token_of)
    remaining = [s for s in sentences if s not in noise_sents]
    assert remaining == main
    start = sentences.index(noise_sents[0])
    assert sentences[start : start + len(noise_sents)] == noise_sents


def test_render_uses_entity_names(story_setup, tagged_bank, world_names):
    g, chain, noise = story_setup
    r = render_story(chain, None, tagged_bank, world_names, Split.TRAIN, seed=2)
    for entity_id, token in r.entity_mentions.items():
        assert token == world_names[entity_id]
        assert token in r.text


def test_render_cloze_tokens(story_setup, tagged_bank):
    g, chain, noise = story_setup
    r = render_story(
        chain, noise, tagged_bank, None, Split.TRAIN, seed=2
    )
    tokens = list(r.entity_mentions.values())
    assert len(set(tokens)) == len(tokens)
    for token in tokens:
        assert token.startswith("@entity-")
        assert 0 <= int(token.split("-")[1]) < 100


def test_render_cloze_pool_exhaustion(tagged_bank):
    # 100 facts tell 101 entities, one more than there are cloze tokens
    facts = tuple(Fact(i, i + 1, Predicate.SIBLING) for i in range(100))
    chain = FactPath(facts, ((Predicate.SIBLING, M),) * 100)
    with pytest.raises(PoolExhaustedError, match="needs 101 cloze tokens, pool has 100"):
        render_story(chain, None, tagged_bank, None, Split.TRAIN, seed=2)


def test_render_cloze_resamples_per_story(story_setup, tagged_bank):
    g, chain, noise = story_setup
    draws = {
        tuple(
            render_story(
                chain, None, tagged_bank, None, Split.TRAIN, seed=s
            ).entity_mentions.values()
        )
        for s in range(20)
    }
    assert len(draws) > 15


def test_render_deterministic(story_setup, tagged_bank, world_names):
    g, chain, noise = story_setup
    one = render_story(chain, noise, tagged_bank, world_names, Split.TRAIN, seed=4)
    two = render_story(chain, noise, tagged_bank, world_names, Split.TRAIN, seed=4)
    assert one == two


def test_render_requires_names(story_setup, tagged_bank):
    g, chain, noise = story_setup
    nameless = {i: "" for i in g.entities}
    with pytest.raises(ConfigError):
        render_story(chain, None, tagged_bank, nameless, Split.TRAIN, seed=1)
    with pytest.raises(ConfigError):
        render_story(chain, None, tagged_bank, {}, Split.TRAIN, seed=1)


def test_render_rejects_name_collisions(story_setup, tagged_bank):
    g, chain, noise = story_setup
    clashing = {i: "Same" for i in g.entities}
    with pytest.raises(ConfigError):
        render_story(chain, None, tagged_bank, clashing, Split.TRAIN, seed=1)
