import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import all_simple_paths, naive_close
from kinship_forge.errors import ClosureConflictError, ConfigError, EdgeConflictError, PoolExhaustedError
from kinship_forge.familygraph import (
    Fact,
    KinshipGraph,
    assign_names,
    close_graph,
    default_name_pool,
    generate_backbone,
    load_name_pool,
    simple_paths,
)
from kinship_forge.ontology import Gender, Predicate, default_rulebase

M, F = Gender.MALE, Gender.FEMALE
RB = default_rulebase()
seeds = st.integers(min_value=0, max_value=10_000)


def closed(seed: int) -> KinshipGraph:
    return close_graph(generate_backbone(seed), RB)


def structure(g: KinshipGraph) -> tuple:
    return g.facts(), tuple(g.gender(i) for i in sorted(g.entities))


def test_minimal_family_is_three_entities_six_edges():
    # seed 1 draws one couple with one unmarried child:
    # 2 SO + 2 child + 2 inv-child, no sibling pairs
    g = generate_backbone(1)
    assert len(g.entities) == 3
    assert g.edge_count == 6
    by_pred = {}
    for fact in g.facts():
        by_pred[fact.pred] = by_pred.get(fact.pred, 0) + 1
    assert by_pred == {Predicate.SO: 2, Predicate.CHILD: 2, Predicate.INV_CHILD: 2}


GOLDEN_SIZES = {0: (7, 24, 41), 1: (3, 6, 6), 2: (5, 12, 20)}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SIZES))
def test_default_backbone_golden_sizes(seed):
    g = generate_backbone(seed)
    c = close_graph(g, RB)
    assert (len(g.entities), g.edge_count, c.edge_count) == GOLDEN_SIZES[seed]


@given(seeds)
def test_backbone_structure(seed):
    g = generate_backbone(seed)
    kids_of = {}
    for fact in g.facts():
        assert fact.src != fact.dst
        if fact.pred is Predicate.SO:
            assert g.predicate(fact.dst, fact.src) is Predicate.SO
            assert g.gender(fact.src) is not g.gender(fact.dst)
        if fact.pred is Predicate.SIBLING:
            assert g.predicate(fact.dst, fact.src) is Predicate.SIBLING
        if fact.pred is Predicate.CHILD:
            assert g.predicate(fact.dst, fact.src) is Predicate.INV_CHILD
            kids_of.setdefault(fact.dst, set()).add(fact.src)
        if fact.pred is Predicate.INV_CHILD:
            assert g.predicate(fact.dst, fact.src) is Predicate.CHILD
    for kid, parents in kids_of.items():
        assert len(parents) == 2
        assert {g.gender(p) for p in parents} == {M, F}
        assert g.predicate(*sorted(parents)) is Predicate.SO


@given(seeds)
def test_backbone_deterministic(seed):
    assert structure(generate_backbone(seed)) == structure(generate_backbone(seed))


def test_distinct_seeds_vary():
    # small families collide structurally, so the bar is variety, not uniqueness
    shapes = {structure(generate_backbone(s)) for s in range(100)}
    assert len(shapes) > 50


@given(seeds)
def test_close_graph_matches_naive_oracle(rb, seed):
    g = generate_backbone(seed)
    assert close_graph(g, rb) == naive_close(g, rb)


@given(seeds)
def test_close_graph_idempotent(rb, seed):
    once = close_graph(generate_backbone(seed), rb)
    assert close_graph(once, rb) == once


@given(seeds)
def test_closure_soundness_and_completeness(rb, seed):
    g = generate_backbone(seed)
    c = close_graph(g, rb)
    derived = {(f.src, f.dst) for f in c.facts()} - {(f.src, f.dst) for f in g.facts()}
    for x, y in derived:
        assert any(
            rb.compose(c.predicate(x, z), c.predicate(z, y)) is c.predicate(x, y)
            for z in c.out_of(x)
            if z != y and c.predicate(z, y) is not None
        ), f"derived edge ({x},{y}) has no two-step derivation"
    for x in c.entities:
        for z, first in c.out_of(x).items():
            for y, second in c.out_of(z).items():
                if x == y:
                    continue
                if rb.compose(first, second) is not None:
                    assert c.predicate(x, y) is not None, f"missing edge ({x},{y})"


@given(seeds)
def test_closed_so_symmetric_sibling_symmetric_on_backbone(seed):
    g = generate_backbone(seed)
    c = close_graph(g, RB)
    for fact in c.facts():
        if fact.pred is Predicate.SO:
            assert c.predicate(fact.dst, fact.src) is Predicate.SO
    for fact in g.facts():
        if fact.pred is Predicate.SIBLING:
            assert c.predicate(fact.dst, fact.src) is Predicate.SIBLING


def test_close_contains_grandfather_chain(rb):
    # Alice is Bob's mother, Jim is Alice's father
    g = KinshipGraph()
    bob = g.add_entity(M)
    alice = g.add_entity(F)
    jim = g.add_entity(M)
    g.add_edge(bob, alice, Predicate.INV_CHILD)
    g.add_edge(alice, jim, Predicate.INV_CHILD)
    c = close_graph(g, rb)
    assert c.predicate(bob, jim) is Predicate.INV_GRAND


def test_close_conflict_error(rb):
    # (x,y) derives sibling via z1 and in-law via z2 in the same round
    g = KinshipGraph()
    x = g.add_entity(M)
    z1 = g.add_entity(M)
    z2 = g.add_entity(F)
    y = g.add_entity(M)
    g.add_edge(x, z1, Predicate.CHILD)
    g.add_edge(z1, y, Predicate.INV_UN)
    g.add_edge(x, z2, Predicate.CHILD)
    g.add_edge(z2, y, Predicate.SO)
    with pytest.raises(ClosureConflictError):
        close_graph(g, rb)


def test_close_never_overwrites_existing_labels(rb):
    # a pre-labeled pair is skipped even when a different head is derivable
    g = KinshipGraph()
    a = g.add_entity(M)
    b = g.add_entity(F)
    c = g.add_entity(M)
    g.add_edge(a, b, Predicate.CHILD)
    g.add_edge(b, c, Predicate.CHILD)
    g.add_edge(a, c, Predicate.SIBLING)
    out = close_graph(g, rb)
    assert out.predicate(a, c) is Predicate.SIBLING


def test_graph_edge_rules():
    g = KinshipGraph()
    a = g.add_entity(M)
    b = g.add_entity(F)
    with pytest.raises(ConfigError):
        g.add_edge(a, a, Predicate.SO)
    with pytest.raises(ConfigError):
        g.add_edge(a, 99, Predicate.SO)
    g.add_edge(a, b, Predicate.SO)
    g.add_edge(a, b, Predicate.SO)  # same label twice is fine
    assert g.edge_count == 1
    with pytest.raises(EdgeConflictError):
        g.add_edge(a, b, Predicate.SIBLING)


def test_out_by_pred_groups_ascending_and_follows_new_edges():
    g = KinshipGraph()
    a, b, c, d, e = (g.add_entity(M) for _ in range(5))
    g.add_edge(a, d, Predicate.SIBLING)
    g.add_edge(a, b, Predicate.SIBLING)
    g.add_edge(a, e, Predicate.CHILD)
    assert g.out_by_pred(a) == {Predicate.SIBLING: [b, d], Predicate.CHILD: [e]}
    g.add_edge(a, c, Predicate.CHILD)
    assert g.out_by_pred(a) == {Predicate.SIBLING: [b, d], Predicate.CHILD: [c, e]}
    assert g.out_by_pred(b) == {}


def test_regendered_shares_the_adjacency():
    g = closed(0)
    twin = g.regendered({i: M for i in g.entities})
    assert twin.facts() == g.facts() and twin.structure() == g.structure()
    assert set(twin.entities.values()) == {M}
    assert twin.out_of(0) is g.out_of(0)
    assert twin.out_by_pred(0) is g.out_by_pred(0)


def test_default_name_pool_is_balanced():
    pool = default_name_pool()
    assert len(pool) == 300
    assert sum(1 for _, g in pool if g is M) == 150
    assert sum(1 for _, g in pool if g is F) == 150
    assert len({name for name, _ in pool}) == 300


def test_assign_names_distinct_and_gendered(closed_world, world_names):
    assert world_names.keys() == closed_world.entities.keys()
    names = list(world_names.values())
    assert all(names)
    assert len(set(names)) == len(names)
    pool = dict(default_name_pool())
    for entity_id, name in world_names.items():
        assert pool[name] is closed_world.gender(entity_id)


def test_assign_names_seed_sensitivity():
    g = generate_backbone(0)
    pool = default_name_pool()
    draws = {
        tuple(sorted(assign_names(g, pool, seed=s).items()))
        for s in range(100)
    }
    assert len(draws) > 95


def test_assign_names_pool_exhaustion():
    g = KinshipGraph()
    for _ in range(3):
        g.add_entity(M)
    pool = (("A", M), ("B", M), ("C", F))
    with pytest.raises(PoolExhaustedError):
        assign_names(g, pool, seed=0)


def test_load_name_pool_rejects_duplicates(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("Alice,female\nAlice,female\n")
    with pytest.raises(ConfigError):
        load_name_pool(path)


def test_load_name_pool_names_a_non_utf8_file(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes(b"Alice,female\n\xff\n")
    with pytest.raises(ConfigError, match="names.txt: not UTF-8 text"):
        load_name_pool(path)


def test_fact_str():
    assert str(Fact(1, 2, Predicate.CHILD)) == "child(1,2)"


def test_backbone_id_base_shifts_every_id():
    plain, based = generate_backbone(4), generate_backbone(4, id_base=100)
    assert based.facts() == tuple(
        Fact(f.src + 100, f.dst + 100, f.pred) for f in plain.facts()
    )
    assert based.entities == {i + 100: gender for i, gender in plain.entities.items()}


@st.composite
def path_queries(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    stop = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    max_len = draw(st.integers(min_value=1, max_value=5))
    return edges, start, max_len, stop


@settings(max_examples=200)
@given(path_queries())
def test_simple_paths_match_brute_force(query):
    edges, start, max_len, stop = query
    adjacency: dict[int, list[int]] = {}
    for a, b in sorted(edges):
        adjacency.setdefault(a, []).append(b)
    paths = list(simple_paths(lambda v: adjacency.get(v, []), start, max_len, stop))
    assert len(paths) == len(set(paths))
    assert set(paths) == all_simple_paths(edges, start, max_len, stop)
