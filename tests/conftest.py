import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from kinship_forge.familygraph import (
    assign_names,
    close_graph,
    default_name_pool,
    generate_backbone,
)
from kinship_forge.narrative import split_bank, synth_bank
from kinship_forge.ontology import default_rulebase

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def rb():
    return default_rulebase()


@pytest.fixture(scope="session")
def closed_world(rb):
    return close_graph(generate_backbone(11), rb)


@pytest.fixture(scope="session")
def world_names(closed_world):
    return assign_names(closed_world, default_name_pool(), seed=11)


@pytest.fixture(scope="session")
def plain_bank(rb):
    return synth_bank(rb, variants=1)


@pytest.fixture(scope="session")
def tri_bank(rb):
    return synth_bank(rb, variants=3)


@pytest.fixture(scope="session")
def tagged_bank(tri_bank):
    return split_bank(tri_bank, 0.2, seed=3)
