import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import brute_force_shape_keys
from kinship_forge.errors import ConfigError, EnumerationCapError
from kinship_forge.ontology import (
    Gender,
    Predicate,
    Rule,
    RuleBase,
    atom_sort_key,
    default_rulebase,
    enumerate_shapes,
    genders_consistent,
    inverse_of,
    parse_gender,
    parse_predicate,
    parse_surface,
    shape_id,
    surface,
)

M, F = Gender.MALE, Gender.FEMALE

SURFACE_TABLE = {
    (Predicate.CHILD, M): "son",
    (Predicate.CHILD, F): "daughter",
    (Predicate.INV_CHILD, M): "father",
    (Predicate.INV_CHILD, F): "mother",
    (Predicate.GRAND, M): "grandson",
    (Predicate.GRAND, F): "granddaughter",
    (Predicate.INV_GRAND, M): "grandfather",
    (Predicate.INV_GRAND, F): "grandmother",
    (Predicate.SIBLING, M): "brother",
    (Predicate.SIBLING, F): "sister",
    (Predicate.SO, M): "husband",
    (Predicate.SO, F): "wife",
    (Predicate.UN, M): "nephew",
    (Predicate.UN, F): "niece",
    (Predicate.INV_UN, M): "uncle",
    (Predicate.INV_UN, F): "aunt",
    (Predicate.IN_LAW, M): "son-in-law",
    (Predicate.IN_LAW, F): "daughter-in-law",
    (Predicate.INV_IN_LAW, M): "father-in-law",
    (Predicate.INV_IN_LAW, F): "mother-in-law",
    (Predicate.SIB_IN_LAW, M): "brother-in-law",
    (Predicate.SIB_IN_LAW, F): "sister-in-law",
}

RULE_TABLE = {
    "grand <- child child",
    "grand <- SO grand",
    "grand <- grand sibling",
    "inv-grand <- inv-child inv-child",
    "inv-grand <- sibling inv-grand",
    "child <- child sibling",
    "child <- SO child",
    "inv-child <- sibling inv-child",
    "inv-child <- child inv-grand",
    "sibling <- child inv-un",
    "sibling <- inv-child child",
    "sibling <- sibling sibling",
    "in-law <- child SO",
    "inv-in-law <- SO inv-child",
    "un <- sibling child",
    "inv-un <- inv-child sibling",
}


def test_surface_table_is_exactly_the_22_relations():
    assert {surface(p, g) for (p, g) in SURFACE_TABLE} == set(SURFACE_TABLE.values())
    for (p, g), word in SURFACE_TABLE.items():
        assert surface(p, g) == word
        assert parse_surface(word) == (p, g)
    assert len(SURFACE_TABLE) == 22


def test_parse_surface_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_surface("cousin")


def test_parse_predicate_and_gender():
    assert parse_predicate("inv-child") is Predicate.INV_CHILD
    assert parse_gender("female") is F
    with pytest.raises(ConfigError):
        parse_predicate("parent")
    with pytest.raises(ConfigError):
        parse_gender("other")


def test_gender_opposite():
    assert M.opposite is F and F.opposite is M


def test_inverse_pairs():
    assert inverse_of(Predicate.CHILD) is Predicate.INV_CHILD
    assert inverse_of(Predicate.INV_GRAND) is Predicate.GRAND
    assert inverse_of(Predicate.SIBLING) is Predicate.SIBLING
    assert inverse_of(Predicate.SO) is Predicate.SO
    assert inverse_of(Predicate.SIB_IN_LAW) is Predicate.SIB_IN_LAW
    for p in Predicate:
        assert inverse_of(inverse_of(p)) is p


def test_default_rules_frozen(rb):
    assert {str(rule) for rule in rb.rules} == RULE_TABLE
    assert len(rb.rules) == 16


def test_compose_is_the_rule_table(rb):
    defined = {
        (first, second)
        for first in Predicate
        for second in Predicate
        if rb.compose(first, second) is not None
    }
    assert len(defined) == 16
    for rule in rb.rules:
        assert rb.compose(*rule.body) is rule.head


def test_rule_bearing_excludes_sib_in_law(rb):
    assert Predicate.SIB_IN_LAW not in rb.rule_bearing
    assert len(rb.rule_bearing) == 10


def test_rulebase_rejects_duplicate_bodies():
    rules = [
        Rule(Predicate.GRAND, (Predicate.CHILD, Predicate.CHILD)),
        Rule(Predicate.UN, (Predicate.CHILD, Predicate.CHILD)),
    ]
    with pytest.raises(ConfigError):
        RuleBase(rules)


def test_rulebase_from_file_round_trip(tmp_path, rb):
    path = tmp_path / "rules.txt"
    path.write_text(
        "# comment line\n\n" + "\n".join(str(rule) for rule in rb.rules) + "\n"
    )
    assert RuleBase.from_file(path) == rb


def test_rulebase_from_file_bad_line(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("grand <- child child\nnot a rule\n")
    with pytest.raises(ConfigError, match="2"):
        RuleBase.from_file(path)


# enumeration counts are frozen; 20 is the k=1 ground truth, the k=2/k=3
# figures are this enumeration's own counts confirmed by brute force
def test_enumeration_counts(rb):
    assert len(enumerate_shapes(1, rb)) == 20
    assert len(enumerate_shapes(2, rb)) == 62
    assert len(enumerate_shapes(3, rb)) == 372


@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumeration_matches_brute_force(rb, k):
    ours = enumerate_shapes(k, rb)
    assert set(ours) == brute_force_shape_keys(k, rb)
    assert len(set(ours)) == len(ours)
    assert list(ours) == sorted(ours, key=atom_sort_key)
    assert all(genders_consistent(key) for key in ours)


def test_enumerate_shapes_bounds(rb):
    with pytest.raises(ConfigError):
        enumerate_shapes(0, rb)
    with pytest.raises(EnumerationCapError):
        enumerate_shapes(7, rb)


def test_genders_consistent_so_constraint():
    ok = ((Predicate.CHILD, M), (Predicate.SO, F))
    assert genders_consistent(ok)
    bad = ((Predicate.CHILD, F), (Predicate.SO, F))
    assert not genders_consistent(bad)
    # leading SO is unconstrained: no previous atom to bind against
    assert genders_consistent(((Predicate.SO, F), (Predicate.CHILD, M)))


@st.composite
def shapes(draw, k_values=(1, 2, 3)):
    rb = default_rulebase()
    k = draw(st.sampled_from(k_values))
    return draw(st.sampled_from(enumerate_shapes(k, rb)))


def test_shape_id_is_injective(rb):
    keys = [key for k in (1, 2, 3) for key in enumerate_shapes(k, rb)]
    assert len({shape_id(key) for key in keys}) == len(keys)


@given(shapes(k_values=(2, 3)))
def test_consistency_survives_subsequences(atoms):
    # any contiguous segment of a consistent chain is itself consistent
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms) + 1):
            segment = atoms[i:j]
            assert genders_consistent(segment)
