import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import brute_force_fold
from kinship_forge.errors import (
    AmbiguousAnswerError,
    NoPathError,
)
from kinship_forge.familygraph import (
    Fact,
    close_graph,
    generate_backbone,
)
from kinship_forge.ontology import Gender, Predicate, default_rulebase
from kinship_forge.solver import MAX_PATH_LEN, fold_predicates, solve

M, F = Gender.MALE, Gender.FEMALE
P = Predicate


def chain_facts(*preds: Predicate) -> list[Fact]:
    return [Fact(i, i + 1, p) for i, p in enumerate(preds)]


def test_fold_single_is_identity(rb):
    for p in rb.rule_bearing:
        assert fold_predicates([p], rb) == frozenset([p])


def test_fold_simple_composition(rb):
    assert fold_predicates([P.CHILD, P.CHILD], rb) == frozenset([P.GRAND])
    assert fold_predicates([P.INV_CHILD, P.INV_CHILD], rb) == frozenset([P.INV_GRAND])
    assert fold_predicates([P.GRAND, P.GRAND], rb) == frozenset()


def test_fold_known_ambiguity(rb):
    # one sequence, two bracketings, two heads
    heads = fold_predicates([P.SO, P.CHILD, P.INV_GRAND], rb)
    assert heads == frozenset([P.INV_CHILD, P.INV_IN_LAW])


@given(
    st.lists(
        st.sampled_from(sorted(default_rulebase().rule_bearing, key=lambda p: p.value)),
        min_size=1,
        max_size=5,
    )
)
def test_fold_matches_brute_force(preds):
    rb = default_rulebase()
    assert fold_predicates(preds, rb) == brute_force_fold(tuple(preds), rb)


INTRO_GENDERS = {0: M, 1: F, 2: M}


def test_intro_grandfather(rb):
    # Alice is Bob's mother; Jim is Alice's father; Jim is Bob's grandfather
    facts = chain_facts(P.INV_CHILD, P.INV_CHILD)
    result = solve(facts, (0, 2), INTRO_GENDERS, rb)
    assert result.label == "grandfather"
    assert result.predicate is P.INV_GRAND


def test_snapshot_brother(rb):
    # Christopher is Charles's son; Christopher is Randolph's nephew
    charles, christopher, randolph = 0, 1, 2
    facts = [
        Fact(charles, christopher, P.CHILD),
        Fact(randolph, christopher, P.UN),
    ]
    genders = {charles: M, christopher: M, randolph: M}
    result = solve(facts, (charles, randolph), genders, rb)
    assert result.label == "brother"


def test_snapshot_daughter(rb):
    # Sharon is Randolph's sister; Randolph is Arthur's son
    randolph, sharon, arthur = 0, 1, 2
    facts = [
        Fact(randolph, sharon, P.SIBLING),
        Fact(arthur, randolph, P.CHILD),
    ]
    genders = {randolph: M, sharon: F, arthur: M}
    result = solve(facts, (arthur, sharon), genders, rb)
    assert result.label == "daughter"


def test_snapshot_father(rb):
    # Brett is Frank's father; Boyd is Frank's brother
    frank, brett, boyd = 0, 1, 2
    facts = [
        Fact(frank, brett, P.INV_CHILD),
        Fact(frank, boyd, P.SIBLING),
    ]
    genders = {frank: M, brett: M, boyd: M}
    result = solve(facts, (boyd, brett), genders, rb)
    assert result.label == "father"


def test_solve_witness_is_first_derivable_path(rb):
    # two derivable routes from 0 to 4: 0-1-3-4 (SO, child, child) and
    # 0-2-4 (child, child); enumeration follows the smaller neighbour 1
    # first, so the proof witnesses the longer route
    facts = [
        Fact(0, 1, P.SO),
        Fact(1, 3, P.CHILD),
        Fact(3, 4, P.CHILD),
        Fact(0, 2, P.CHILD),
        Fact(2, 4, P.CHILD),
    ]
    result = solve(facts, (0, 4), {4: F}, rb, name_of="ABXZC".__getitem__)
    assert result.label == "granddaughter"
    assert result.proof == "(SO(A,B) + (child(B,Z) + child(Z,C) => grand) => grand)"


def test_solve_result_does_not_depend_on_hash_seed():
    # grand(0,1) and SO(0,1) share one pair, so its predicate set has two
    # members whose iteration order follows PYTHONHASHSEED
    script = (
        "from kinship_forge.familygraph import Fact\n"
        "from kinship_forge.ontology import Gender, Predicate as P, default_rulebase\n"
        "from kinship_forge.solver import solve\n"
        "facts = [Fact(0, 1, P.GRAND), Fact(0, 1, P.SO), Fact(1, 2, P.CHILD)]\n"
        "print(repr(solve(facts, (0, 2), {2: Gender.FEMALE}, default_rulebase())))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(done.stdout)
    assert "SO(0,1) + child(1,2)" in outputs[0]
    assert outputs[0] == outputs[1]


def test_solve_uses_inverse_spellings(rb):
    # only child(a,b) is stated; the reverse query still resolves
    facts = [Fact(0, 1, P.CHILD)]
    result = solve(facts, (1, 0), {0: F, 1: M}, rb)
    assert result.predicate is P.INV_CHILD
    assert result.label == "mother"


def test_solve_label_tracks_goal_gender(rb):
    facts = chain_facts(P.CHILD, P.CHILD)
    assert solve(facts, (0, 2), {0: M, 1: M, 2: M}, rb).label == "grandson"
    assert solve(facts, (0, 2), {0: M, 1: M, 2: F}, rb).label == "granddaughter"


def test_solve_no_path(rb):
    facts = chain_facts(P.CHILD)
    with pytest.raises(NoPathError):
        solve(facts, (0, 7), {0: M, 1: M}, rb)
    disconnected = [Fact(0, 1, P.CHILD), Fact(2, 3, P.CHILD)]
    with pytest.raises(NoPathError):
        solve(disconnected, (0, 3), {i: M for i in range(4)}, rb)


def test_solve_ambiguous_reports_predicates(rb):
    facts = chain_facts(P.SO, P.CHILD, P.INV_GRAND)
    genders = {0: F, 1: M, 2: M, 3: F}
    with pytest.raises(AmbiguousAnswerError) as exc:
        solve(facts, (0, 3), genders, rb)
    assert exc.value.predicates == frozenset([P.INV_CHILD, P.INV_IN_LAW])


def test_solve_respects_max_path_len(rb):
    # a line of brothers: the far end is reachable only along the line
    assert MAX_PATH_LEN == 12
    facts = chain_facts(*[P.SIBLING] * 12)
    assert solve(facts, (0, 12), {i: M for i in range(13)}, rb).label == "brother"
    facts = chain_facts(*[P.SIBLING] * 13)
    with pytest.raises(NoPathError):
        solve(facts, (0, 13), {i: M for i in range(14)}, rb)


def test_proof_is_the_bracketed_witness(rb):
    facts = chain_facts(P.INV_CHILD, P.INV_CHILD)
    names = {0: "Bob", 1: "Alice", 2: "Jim"}
    result = solve(facts, (0, 2), INTRO_GENDERS, rb, name_of=names.__getitem__)
    assert result.proof == "(inv-child(Bob,Alice) + inv-child(Alice,Jim) => inv-grand)"


def test_proof_nests_for_longer_chains(rb):
    facts = chain_facts(P.CHILD, P.CHILD, P.SIBLING)
    result = solve(facts, (0, 3), {0: M, 1: F, 2: M, 3: M}, rb)
    assert result.proof.count("(") == result.proof.count(")")
    assert result.proof.count("=>") == 2
    assert result.proof.endswith("=> grand)")
    for fact in facts:
        assert str(fact) in result.proof


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_solve_agrees_with_closure_when_unambiguous(rb, seed):
    g = close_graph(generate_backbone(seed), rb)
    genders = {i: g.gender(i) for i in g.entities}
    facts = g.facts()
    checked = 0
    for x in g.entities:
        for y in g.entities:
            expected = g.predicate(x, y)
            if x == y or expected is None:
                continue
            try:
                result = solve(facts, (x, y), genders, rb)
            except AmbiguousAnswerError:
                continue
            assert result.predicate is expected, f"pair ({x},{y})"
            checked += 1
    assert checked > 10


def test_solve_deterministic(rb, closed_world):
    genders = {i: closed_world.gender(i) for i in closed_world.entities}
    facts = closed_world.facts()
    pairs = [
        (x, y)
        for x in closed_world.entities
        for y in closed_world.entities
        if x != y and closed_world.predicate(x, y) is not None
    ]
    for x, y in pairs[:5]:
        try:
            first = solve(facts, (x, y), genders, rb)
            second = solve(facts, (x, y), genders, rb)
        except AmbiguousAnswerError:
            continue
        assert first == second
