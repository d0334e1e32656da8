"""The per-trial scenarios do their shared work once per run, not once per trial."""

import dataclasses
import functools
import json

import numpy as np
import pytest

from obskit import coercivity, evolution, scenarios, spectral, square
from obskit.cli import main
from obskit.config import default_config


# A 4-mode system whose least gap, 0.01, puts 1/δ = 100 above every horizon
# 2·t_min (about 25) of its weak-observability run.
SUB_UNIT_GAP = {
    "system": {
        "type": "custom",
        "eigenvalues": [1, 1.01, 2.25, 4],
        "gram": [[1, [0.2, 0.1], 0, 0], [[0.2, -0.1], 1.5, 0.3, 0], [0, 0.3, 2, [0, 0.4]], [0, 0, [0, -0.4], 1]],
    }
}


def run_recording(monkeypatch, tmp_path, capsys, scenario, module, name, trials=50, config=None):
    """Run ``scenario`` with ``trials`` trials, on ``config`` if given; return what
    each ``module.name`` call returned."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, recorded)
    argv = [scenario, "--trials", str(trials), "--out", str(tmp_path / "report.json")]
    if config is not None:
        argv += ["--config", json.dumps(config)]
    assert main(argv) == 0
    capsys.readouterr()
    return calls


def test_admissibility_builds_the_kernel_once(monkeypatch, tmp_path, capsys):
    calls = run_recording(monkeypatch, tmp_path, capsys, "admissibility", evolution, "_gap_kernel")
    assert len(calls) == 1


def test_weak_observability_builds_one_gap_table(monkeypatch, tmp_path, capsys):
    # Horizons below 1/δ take per-row kernels, here one row per chunk, all from
    # the one gap table that their ``_energy`` call builds.
    monkeypatch.setattr(evolution, "_rows_within", lambda row_bytes: 1)
    record = functools.partial(run_recording, monkeypatch, tmp_path, capsys, "weak-observability", config=SUB_UNIT_GAP)
    assert len(record(evolution, "_gap_kernel")) == 50
    calls = len(record(evolution, "_energy"))
    assert calls >= 1 and len(record(evolution, "_gap_table")) == calls


def test_weak_observability_builds_kernels_only_below_one_over_the_least_gap(monkeypatch, tmp_path, capsys):
    # The default horizons 2·t_min, 4.3e4 to 8.5e4, are all at or past 1/δ = 1 of the
    # integer spectrum, so every row takes the closed form and no kernel is built.
    record = functools.partial(run_recording, monkeypatch, tmp_path, capsys, "weak-observability")
    assert record(evolution, "_gap_kernel", 1000) == []
    assert record(evolution, "_gap_kernel", config=SUB_UNIT_GAP) != []


def test_weak_observability_checks_blocks_of_coefficient_rows(monkeypatch, tmp_path, capsys):
    # 496 states of 33 modes per block: 3 checks and 6 moment passes for 1000 trials, not 67 and 134.
    # Each block's frequency pass is followed by its check's.
    moments = []

    def counted(original):
        def wrapped(*args, **kwargs):
            moments.append(len(args[0]))
            return original(*args, **kwargs)

        return wrapped

    for module in (spectral, evolution):
        monkeypatch.setattr(module, "_moments", counted(module._moments))
    reports = run_recording(
        monkeypatch, tmp_path, capsys, "weak-observability", scenarios, "weak_observability_check", 1000
    )
    assert [len(rep.integral) for rep in reports] == [496, 496, 8]
    assert moments == [496, 496, 496, 496, 8, 8]


def test_weak_observability_solves_each_block_at_once(monkeypatch, tmp_path, capsys):
    calls = run_recording(
        monkeypatch, tmp_path, capsys, "weak-observability", scenarios, "solve_observation_time", 1000
    )
    assert [np.shape(t_mins) for t_mins in calls] == [(496,), (496,), (8,)]


def test_weak_observability_draws_each_state_once(monkeypatch):
    generators = []
    original = np.random.default_rng

    def counted(*args, **kwargs):
        generators.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    cfg = dataclasses.replace(default_config("weak-observability"), trials=1000)
    scenarios.run_scenario(cfg)
    assert generators == [(cfg.seed,)]


def test_assumption_i_scans_once_at_the_circle_width(monkeypatch):
    widths = []

    def recording(scan):
        def wrapped(system, epsilon):
            widths.append(epsilon)
            return scan(system, epsilon)

        return wrapped

    for module in (scenarios, square):
        monkeypatch.setattr(module, "coercivity_scan", recording(module.coercivity_scan))
    for width, scanned in ((0.5, [0.5]), (2.0, [0.5, 2.0])):
        widths.clear()
        scenarios.run_scenario(dataclasses.replace(default_config("assumption-i"), epsilon_cluster=width))
        assert widths == scanned


@pytest.mark.parametrize("scenario", ["coercivity-scan", "resolvent-scan", "weak-observability"])
def test_each_certificate_scenario_scans_once(monkeypatch, tmp_path, capsys, scenario):
    # scan_certificate takes the scenario's own scan, so nothing in coercivity scans again.
    rescans = []
    monkeypatch.setattr(coercivity, "coercivity_scan", lambda *args: rescans.append(args))
    calls = run_recording(monkeypatch, tmp_path, capsys, scenario, scenarios, "coercivity_scan")
    assert len(calls) == 1 and rescans == []
