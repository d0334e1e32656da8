"""The per-trial scenarios do their shared work once per run, not once per trial."""

import dataclasses

from obskit import evolution, scenarios, square
from obskit.cli import main
from obskit.config import default_config


def run_counting(monkeypatch, tmp_path, capsys, scenario, module, name):
    """Run ``scenario`` with 50 trials; return how often ``module.name`` was called."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    assert main([scenario, "--trials", "50", "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    return len(calls)


def test_admissibility_builds_the_kernel_once(monkeypatch, tmp_path, capsys):
    assert run_counting(monkeypatch, tmp_path, capsys, "admissibility", evolution, "phase_kernel") == 1


def test_weak_observability_solves_every_trial_at_once(monkeypatch, tmp_path, capsys):
    calls = run_counting(
        monkeypatch, tmp_path, capsys, "weak-observability", scenarios, "solve_observation_time"
    )
    assert 1 <= calls <= 2


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
