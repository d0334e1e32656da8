"""The scenario table: every scenario has a runner, a CLI help line and a
default config whose digest is pinned."""

import dataclasses

import pytest

from obskit import DomainError, scenarios
from obskit.cli import build_parser
from obskit.config import _SCENARIO_TABLE, HORIZON_SCENARIOS, SCENARIOS, default_config

# default_config(scenario).digest(), as it was before the table replaced the
# per-scenario if-chain: the default systems normalize to the same documents.
DEFAULT_DIGESTS = {
    "verify-cutoff": "62bffc60ddfb990b92cd193d46fb925e1195675ac1c3a92b3554b19133404692",
    "coercivity-scan": "cce219bd4fc416989784ec48b4da4b95de3d716b7050eb647108761cd1dede13",
    "resolvent-scan": "5d02386da8176767518fddc4c5e92fb6f4aa8d36b52db8a53d6f893b3407b2b7",
    "weak-observability": "05e91f1ff6abd287db657636d5ef4188a845ea7a8d6de777ccd4e1e7dfe32853",
    "assumption-i": "4a26579696c81e4f8f37c457c018a8c5d947fe384b3a393181c34e27e597633b",
    "assumption-ii-iii": "537c2cb7f9832455b993ea51dd8addcbede74243978a2f64cb1dc39f546257b2",
    "admissibility": "730d2dd85c72ee224f703769543717813c6e50aac6634ccf454f7bdeba9e58f1",
}


def test_scenario_lists_come_from_the_table_in_order():
    assert SCENARIOS == tuple(DEFAULT_DIGESTS)
    assert HORIZON_SCENARIOS == ("weak-observability", "admissibility")
    assert tuple(_SCENARIO_TABLE) == SCENARIOS


def test_every_scenario_has_a_runner_and_every_runner_a_scenario():
    assert set(scenarios._RUNNERS) == set(SCENARIOS)


def test_a_hand_built_config_of_an_unknown_scenario_has_no_runner():
    cfg = dataclasses.replace(default_config("verify-cutoff"), scenario="interpretive-dance")
    with pytest.raises(DomainError, match="^unknown scenario 'interpretive-dance'$"):
        scenarios.run_scenario(cfg)


def test_help_shows_each_scenario_help_line():
    text = " ".join(build_parser().format_help().split())  # undo argparse's line wrapping
    for scenario, row in _SCENARIO_TABLE.items():
        assert f"{scenario} {row.help}" in text


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_config_digest_is_pinned(scenario):
    assert default_config(scenario).digest() == DEFAULT_DIGESTS[scenario]
