"""The per-trial scenarios run on blocks of states; their reports are the bytes
of the same scenarios run one state at a time (``oracles.ROW_RUNNERS``).
Per-row phase kernels are built in chunks whose memory does not grow with
the block."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from obskit import coercivity, evolution, scenarios
from obskit.config import default_config
from obskit.evolution import observability_integral
from obskit.spectral import BLOCK_BYTES, _rows_within
from obskit.report import bundle_to_json_text
from obskit.square import GammaSpec, Side, build_square_system

from oracles import ROW_RUNNERS

TRIALS = 23  # a multiple of none of the block sizes below


@pytest.mark.parametrize("rows", (None, 1, 7, TRIALS, 64), ids=lambda r: f"rows={r}")
@pytest.mark.parametrize("seed", (7, 611, 1))
@pytest.mark.parametrize("scenario", sorted(ROW_RUNNERS))
def test_block_report_bytes_equal_the_row_at_a_time_oracle(monkeypatch, scenario, seed, rows):
    if rows is not None:
        monkeypatch.setattr(scenarios, "_rows_within", lambda row_bytes: rows)
    cfg = dataclasses.replace(default_config(scenario), seed=seed, trials=TRIALS)
    blocks = bundle_to_json_text(scenarios.run_scenario(cfg))
    assert blocks == bundle_to_json_text(ROW_RUNNERS[scenario](cfg))


@pytest.mark.parametrize("chunk", (1, 7, 64), ids=lambda r: f"chunk={r}")
@pytest.mark.parametrize("rows", (None, 1, 7, TRIALS, 64), ids=lambda r: f"rows={r}")
@pytest.mark.parametrize("seed", (7, 611))
def test_weak_observability_bytes_equal_the_oracle_at_every_kernel_chunk(monkeypatch, seed, rows, chunk):
    # Blocks end mid-chunk (23 rows in chunks of 7), chunks hold one row, or one chunk the whole block.
    if rows is not None:
        monkeypatch.setattr(scenarios, "_rows_within", lambda row_bytes: rows)
    monkeypatch.setattr(evolution, "_rows_within", lambda row_bytes: chunk)
    cfg = dataclasses.replace(default_config("weak-observability"), seed=seed, trials=TRIALS)
    blocks = bundle_to_json_text(scenarios.run_scenario(cfg))
    assert blocks == bundle_to_json_text(ROW_RUNNERS["weak-observability"](cfg))


@pytest.mark.parametrize("scenario", ("weak-observability", "admissibility"))
def test_block_report_bytes_equal_the_oracle_at_a_given_horizon(monkeypatch, scenario):
    monkeypatch.setattr(scenarios, "_rows_within", lambda row_bytes: 7)
    cfg = dataclasses.replace(default_config(scenario), trials=TRIALS, T=0.7)
    blocks = bundle_to_json_text(scenarios.run_scenario(cfg))
    assert blocks == bundle_to_json_text(ROW_RUNNERS[scenario](cfg))


def test_default_blocks_hold_several_states_within_the_byte_budget():
    # One budget, set in spectral, sizes every blocked pass.
    assert all(module._rows_within is _rows_within for module in (scenarios, evolution, coercivity))
    coefficient_row = 16 * 33  # one complex state at the default 33 modes
    assert _rows_within(coefficient_row) == 496
    assert 496 * coefficient_row <= BLOCK_BYTES
    assert _rows_within(10 * BLOCK_BYTES) == 1
    kernel = 16 * 33 * 33  # one complex (n, n) phase kernel at 33 modes
    assert _rows_within(kernel) == 15 and 15 * kernel <= BLOCK_BYTES < 16 * kernel
    assert _rows_within(16 * 183 * 183) == 1  # one 536 KB kernel, past the budget, is the floor
    assert _rows_within(8 * 183) == 179  # trace-pass rows: the 149 sub-patch breakpoints in one chunk


def test_per_row_horizons_hold_one_chunk_of_kernels_at_a_time():
    sys_ = build_square_system(250, GammaSpec.full_sides(Side.BOTTOM))
    n = sys_.size
    assert n == 183 and _rows_within(16 * n * n) == 1  # one 536 KB kernel per chunk
    rng = np.random.default_rng(5)
    z = rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n))
    T = rng.uniform(0.5, 2.0, 400)
    _ = sys_.gram  # cached on the system before tracing: not the block's memory
    tracemalloc.start()
    try:
        block = observability_integral(z, sys_, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The framed block and one temporary of its size, and one chunk: its kernel,
    # the gathered phases and the call's gap table 0 … L with its (n, n) index,
    # beside the closed form's (n, n) B and W, since rows with T ≥ 1 = 1/δ take
    # that.  The whole (400, n, n) stack would take 214 MB.
    kernel = 16 * n * n
    assert peak <= 2 * z.nbytes + 3 * kernel + 2 * BLOCK_BYTES, peak
    assert np.array_equal(block, [observability_integral(row, sys_, t) for row, t in zip(z, T)])


@pytest.mark.parametrize("rows", (None, 7), ids=lambda r: f"rows={r}")
def test_a_partly_applicable_batch_counts_only_its_applicable_states(monkeypatch, rows):
    # T = 32000 lies between the batch's smallest and largest t_min: at seed 7
    # 51 of the 100 default states have T ≥ t_min, and only they carry a margin.
    if rows is not None:
        monkeypatch.setattr(scenarios, "_rows_within", lambda row_bytes: rows)
    cfg = dataclasses.replace(default_config("weak-observability"), seed=7, T=32000.0)
    bundle = scenarios.run_scenario(cfg)
    applicable = [row[-1] for row in bundle.tables[0].rows]
    assert sum(applicable) == 51 and len(applicable) == cfg.trials == 100
    assert bundle.verdicts[-1].detail.endswith(" over 51 states")
    assert "some horizons fall below the minimal observation time" in bundle.notes[-1]
    assert bundle_to_json_text(bundle) == bundle_to_json_text(ROW_RUNNERS["weak-observability"](cfg))
