import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import graph_state
from kinship_forge.chains import (
    NOISE_ID_BASE,
    backward_chain,
    sample_disconnected_noise,
    sample_irrelevant_noise,
    sample_supporting_noise,
    sample_target,
)
from kinship_forge.errors import ConfigError, NoiseSearchError, UnexpandableError
from kinship_forge.familygraph import (
    Fact,
    KinshipGraph,
    close_graph,
    generate_backbone,
)
from kinship_forge.ontology import default_rulebase
from kinship_forge.solver import fold_predicates

RB = default_rulebase()


def world(seed: int) -> KinshipGraph:
    return close_graph(generate_backbone(seed), RB)


def find_cases(ks, per_k, max_seed=400):
    """Deterministic (seed, k) pairs on which a chain exists."""
    cases = []
    for k in ks:
        found = 0
        for seed in range(max_seed):
            g = world(seed)
            target = sample_target(g, seed)
            try:
                backward_chain(g, target, k, seed, RB)
            except UnexpandableError:
                continue
            cases.append((seed, k))
            found += 1
            if found == per_k:
                break
    return cases


CASES = find_cases(ks=(2, 3, 4, 5), per_k=5)
TINY = close_graph(generate_backbone(1), RB)


def test_found_enough_cases():
    assert len(CASES) == 20


def test_sample_target_is_an_edge_and_deterministic(closed_world):
    target = sample_target(closed_world, seed=4)
    assert closed_world.predicate(target.src, target.dst) is target.pred
    assert sample_target(closed_world, seed=4) == target


def test_sample_target_covers_many_edges(closed_world):
    edges = {
        (sample_target(closed_world, seed=s).src, sample_target(closed_world, seed=s).dst)
        for s in range(200)
    }
    assert len(edges) > closed_world.edge_count // 2


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=200))
def test_sample_target_draws_like_choice_over_facts(seed, world_seed):
    # the index draw keeps the RNG stream of choice over the sorted facts
    g = world(world_seed)
    expected = random.Random(seed).choice(g.facts())
    assert sample_target(g, seed) == expected


def test_sample_target_requires_edges():
    from kinship_forge.ontology import Gender

    g = KinshipGraph()
    g.add_entity(Gender.MALE)
    with pytest.raises(ConfigError):
        sample_target(g, seed=0)


@pytest.mark.parametrize("seed,k", CASES)
def test_backward_chain_structure(rb, seed, k):
    g = world(seed)
    target = sample_target(g, seed)
    chain = backward_chain(g, target, k, seed, RB)
    assert chain.k == k == len(chain.facts)
    vertices = chain.vertices
    assert len(vertices) == k + 1
    assert len(set(vertices)) == k + 1
    assert vertices[0] == target.src and vertices[-1] == target.dst
    for fact, src, dst in zip(chain.facts, vertices, vertices[1:]):
        assert (fact.src, fact.dst) == (src, dst)
        assert g.predicate(src, dst) is fact.pred
    assert chain.atoms == tuple((f.pred, g.gender(f.dst)) for f in chain.facts)
    assert target.pred in fold_predicates([f.pred for f in chain.facts], rb)


@pytest.mark.parametrize("seed,k", CASES[:6])
def test_backward_chain_deterministic_and_replayable(rb, seed, k):
    g = world(seed)
    target = sample_target(g, seed)
    chain = backward_chain(g, target, k, seed, RB)
    again = backward_chain(g, target, k, seed, RB)
    assert chain == again


def test_backward_chain_k1_is_the_target(closed_world):
    target = sample_target(closed_world, seed=1)
    chain = backward_chain(closed_world, target, 1, seed=1, rb=RB)
    assert chain.facts == (target,)


def test_backward_chain_validates_inputs(closed_world):
    target = sample_target(closed_world, seed=0)
    with pytest.raises(ConfigError):
        backward_chain(closed_world, target, 0, seed=0, rb=RB)
    from kinship_forge.ontology import Predicate

    bogus = Fact(0, 999, Predicate.CHILD)
    with pytest.raises(ConfigError):
        backward_chain(closed_world, bogus, 2, seed=0, rb=RB)


def test_backward_chain_unexpandable_on_tiny_world():
    target = sample_target(TINY, seed=0)
    with pytest.raises(UnexpandableError):
        backward_chain(TINY, target, 3, seed=0, rb=RB)


def has_grounding(g: KinshipGraph, rb, fact) -> bool:
    return any(
        rb.compose(g.predicate(fact.src, z), g.predicate(z, fact.dst)) is fact.pred
        for z in g.out_of(fact.src)
        if z != fact.dst and g.predicate(z, fact.dst) is not None
    )


@pytest.mark.parametrize("world_seed", [0, 2, 5, 11, 23])
def test_backward_chain_stops_on_a_target_without_grounding(rb, world_seed):
    g = world(world_seed)
    ungrounded = 0
    for fact in g.facts():
        assert backward_chain(g, fact, 1, seed=0, rb=RB).facts == (fact,)
        if has_grounding(g, rb, fact):
            assert backward_chain(g, fact, 2, seed=0, rb=RB).k == 2
            continue
        ungrounded += 1
        for k in range(2, 13):
            with pytest.raises(UnexpandableError, match="no grounding"):
                backward_chain(g, fact, k, seed=world_seed, rb=RB)
    assert ungrounded


def supporting_case():
    for seed, k in CASES:
        if k < 2:
            continue
        g = world(seed)
        target = sample_target(g, seed)
        chain = backward_chain(g, target, k, seed, RB)
        try:
            noise = sample_supporting_noise(g, chain, seed)
        except NoiseSearchError:
            continue
        return g, chain, noise
    raise AssertionError("no supporting-noise case found")


def test_supporting_noise_structure():
    g, chain, noise = supporting_case()
    assert 2 <= len(noise.facts) <= 3
    on_chain = set(chain.vertices)
    start, end = noise.vertices[0], noise.vertices[-1]
    assert start in on_chain and end in on_chain
    assert chain.vertices.index(start) < chain.vertices.index(end)
    for middle in noise.vertices[1:-1]:
        assert middle not in on_chain
    chain_pairs = {frozenset((f.src, f.dst)) for f in chain.facts}
    for fact in noise.facts:
        assert g.predicate(fact.src, fact.dst) is fact.pred
        assert frozenset((fact.src, fact.dst)) not in chain_pairs
    assert noise.atoms == tuple((f.pred, g.gender(f.dst)) for f in noise.facts)


def test_supporting_noise_needs_k2():
    target = sample_target(TINY, seed=0)
    chain = backward_chain(TINY, target, 1, seed=0, rb=RB)
    with pytest.raises(ConfigError):
        sample_supporting_noise(TINY, chain, seed=0)


def test_supporting_noise_exhaustion_on_tiny_world():
    target = sample_target(TINY, seed=0)
    chain = backward_chain(TINY, target, 2, seed=0, rb=RB)
    with pytest.raises(NoiseSearchError):
        sample_supporting_noise(TINY, chain, seed=0)


def irrelevant_case():
    for seed, k in CASES:
        g = world(seed)
        target = sample_target(g, seed)
        chain = backward_chain(g, target, k, seed, RB)
        try:
            return g, chain, sample_irrelevant_noise(g, chain, seed)
        except NoiseSearchError:
            continue
    raise AssertionError("no irrelevant-noise case found")


def test_irrelevant_noise_structure():
    g, chain, noise = irrelevant_case()
    assert 1 <= len(noise.facts) <= 3
    shared = set(noise.vertices) & set(chain.vertices)
    assert shared == {noise.vertices[0]}
    assert noise.vertices[0] in (chain.vertices[0], chain.vertices[-1])
    for fact in noise.facts:
        assert g.predicate(fact.src, fact.dst) is fact.pred


def test_irrelevant_noise_exhaustion_on_tiny_world():
    target = sample_target(TINY, seed=0)
    chain = backward_chain(TINY, target, 2, seed=0, rb=RB)
    with pytest.raises(NoiseSearchError):
        sample_irrelevant_noise(TINY, chain, seed=0)


def test_disconnected_noise_structure(closed_world):
    noise, other = sample_disconnected_noise(5, partial(close_graph, rb=RB))
    assert 1 <= len(noise.facts) <= 3
    assert graph_state(close_graph(other, RB)) == graph_state(other)
    assert all(i >= NOISE_ID_BASE for i in other.entities)
    assert not set(other.entities) & set(closed_world.entities)
    for fact in noise.facts:
        assert other.predicate(fact.src, fact.dst) is fact.pred


@given(st.integers(min_value=0, max_value=500))
def test_noise_samplers_deterministic(seed):
    g = world(seed % 40)
    target = sample_target(g, seed)
    try:
        chain = backward_chain(g, target, 3, seed, RB)
    except UnexpandableError:
        return
    for sampler in (sample_supporting_noise, sample_irrelevant_noise):
        try:
            first = sampler(g, chain, seed)
        except NoiseSearchError:
            continue
        assert sampler(g, chain, seed) == first
    close = partial(close_graph, rb=RB)
    noise, other = sample_disconnected_noise(seed, close)
    again, twin = sample_disconnected_noise(seed, close)
    assert again == noise and graph_state(twin) == graph_state(other)
