"""The per-trial scenarios run on blocks of states; their reports are the bytes
of the same scenarios run one state at a time (``oracles.ROW_RUNNERS``)."""

import dataclasses

import pytest

from obskit import scenarios
from obskit.config import default_config
from obskit.report import bundle_to_json_text

from oracles import ROW_RUNNERS

TRIALS = 23  # a multiple of none of the block sizes below


@pytest.mark.parametrize("rows", (None, 1, 7, TRIALS, 64), ids=lambda r: f"rows={r}")
@pytest.mark.parametrize("seed", (7, 611, 1))
@pytest.mark.parametrize("scenario", sorted(ROW_RUNNERS))
def test_block_report_bytes_equal_the_row_at_a_time_oracle(monkeypatch, scenario, seed, rows):
    if rows is not None:
        monkeypatch.setattr(scenarios, "_block_rows", lambda row_bytes: rows)
    cfg = dataclasses.replace(default_config(scenario), seed=seed, trials=TRIALS)
    blocks = bundle_to_json_text(scenarios.run_scenario(cfg))
    assert blocks == bundle_to_json_text(ROW_RUNNERS[scenario](cfg))


@pytest.mark.parametrize("scenario", ("weak-observability", "admissibility"))
def test_block_report_bytes_equal_the_oracle_at_a_given_horizon(monkeypatch, scenario):
    monkeypatch.setattr(scenarios, "_block_rows", lambda row_bytes: 7)
    cfg = dataclasses.replace(default_config(scenario), trials=TRIALS, T=0.7)
    blocks = bundle_to_json_text(scenarios.run_scenario(cfg))
    assert blocks == bundle_to_json_text(ROW_RUNNERS[scenario](cfg))


def test_default_blocks_hold_several_states_within_the_byte_budget():
    kernel_row = 16 * 33 * 33  # one complex phase kernel at the default 33 modes
    assert 1 < scenarios._block_rows(kernel_row) < TRIALS
    assert scenarios._block_rows(kernel_row) * kernel_row <= scenarios.BLOCK_BYTES
    assert scenarios._block_rows(10 * scenarios.BLOCK_BYTES) == 1
