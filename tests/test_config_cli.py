"""Configuration loading, overrides, digests, the CLI, and the worker count."""

import bisect
import json
import math
import threading

import numpy as np
import pytest

from obskit import (
    ConfigError,
    apply_overrides,
    build_square_system,
    coercivity_scan,
    default_config,
    load_config,
    system_of,
)
from obskit.cli import build_parser, main
from obskit.config import MAX_GRAM_BYTES, SCENARIOS, gamma_spec_of
from obskit.parallel import worker_count
from obskit.square import delta_gamma_fit, full_bottom, mode_count, square_modes


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_inline_text(self):
        cfg = load_config('{"scenario": "coercivity-scan", "trials": 3}')
        assert cfg.scenario == "coercivity-scan"
        assert cfg.trials == 3
        assert cfg.system is not None and cfg.system["type"] == "square"

    def test_parse_error_has_location(self):
        with pytest.raises(ConfigError, match="parse error") as info:
            load_config('{"scenario": ')
        assert info.value.kind == "parse"
        assert "line" in str(info.value)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found") as info:
            load_config(tmp_path / "nope.json")
        assert info.value.kind == "parse"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown") as info:
            load_config('{"scenario": "admissibility", "frobnicate": 1}')
        assert info.value.kind == "schema"

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError) as info:
            load_config('{"scenario": "telepathy"}')
        assert info.value.kind == "schema"

    def test_default_scenario_fill_and_mismatch(self):
        cfg = load_config('{"trials": 9}', default_scenario="resolvent-scan")
        assert cfg.scenario == "resolvent-scan"
        with pytest.raises(ConfigError) as info:
            load_config(
                '{"scenario": "admissibility"}', default_scenario="resolvent-scan"
            )
        assert info.value.kind == "invariant"

    def test_angle_strings(self):
        cfg = load_config(
            json.dumps(
                {
                    "scenario": "assumption-ii-iii",
                    "system": {
                        "type": "square",
                        "n_max_eigenvalue": 100,
                        "gamma": [{"side": "bottom", "alpha": "pi/4", "beta": "3pi/4"}],
                    },
                }
            )
        )
        patch = cfg.system["gamma"][0]
        assert patch["alpha"] == pytest.approx(math.pi / 4.0)
        assert patch["beta"] == pytest.approx(3.0 * math.pi / 4.0)

    def test_bad_angle_string(self):
        with pytest.raises(ConfigError, match="unrecognized angle") as info:
            load_config(
                json.dumps(
                    {
                        "scenario": "admissibility",
                        "system": {
                            "type": "square",
                            "n_max_eigenvalue": 10,
                            "gamma": [{"side": "bottom", "alpha": "tau/4", "beta": "pi"}],
                        },
                    }
                )
            )
        assert info.value.kind == "schema"

    def test_small_n_max_is_invariant_error(self):
        with pytest.raises(ConfigError) as info:
            load_config(
                '{"scenario": "admissibility", '
                '"system": {"type": "square", "n_max_eigenvalue": 1}}'
            )
        assert info.value.kind == "invariant"

    def test_overlapping_patches_rejected(self):
        with pytest.raises(ConfigError, match="overlap") as info:
            load_config(
                json.dumps(
                    {
                        "scenario": "admissibility",
                        "system": {
                            "type": "square",
                            "n_max_eigenvalue": 10,
                            "gamma": [
                                {"side": "bottom", "alpha": 0.0, "beta": 2.0},
                                {"side": "bottom", "alpha": 1.0, "beta": 3.0},
                            ],
                        },
                    }
                )
            )
        assert info.value.kind == "invariant"

    def test_non_hermitian_gram_names_offender(self):
        with pytest.raises(ConfigError, match=r"gram\[0\]\[1\]") as info:
            load_config(
                json.dumps(
                    {
                        "scenario": "resolvent-scan",
                        "system": {
                            "type": "custom",
                            "eigenvalues": [1.0, 2.0],
                            "gram": [[1.0, [0.0, 0.5]], [[0.0, 0.5], 1.0]],
                        },
                    }
                )
            )
        assert info.value.kind == "schema"

    def test_gram_row_length_mismatch(self):
        with pytest.raises(ConfigError, match="2 entries for 3") as info:
            load_config(
                json.dumps(
                    {
                        "scenario": "resolvent-scan",
                        "system": {
                            "type": "custom",
                            "eigenvalues": [1.0, 2.0, 3.0],
                            "gram": [[1, 0, 0], [0, 1], [0, 0, 1]],
                        },
                    }
                )
            )
        assert info.value.kind == "invariant"

    def test_unsorted_eigenvalues_are_invariant_error(self):
        with pytest.raises(ConfigError) as info:
            load_config(
                json.dumps(
                    {
                        "scenario": "resolvent-scan",
                        "system": {
                            "type": "custom",
                            "eigenvalues": [2.0, 1.0],
                            "gram": [[1, 0], [0, 1]],
                        },
                    }
                )
            )
        assert info.value.kind == "invariant"

    def test_assumption_i_requires_both_full_sides(self):
        with pytest.raises(ConfigError, match="bottom and left") as info:
            load_config(
                json.dumps(
                    {
                        "scenario": "assumption-i",
                        "system": {
                            "type": "square",
                            "n_max_eigenvalue": 100,
                            "gamma": [{"side": "bottom"}],
                        },
                    }
                )
            )
        assert info.value.kind == "invariant"

    def test_custom_system_round_trip(self):
        cfg = load_config(
            json.dumps(
                {
                    "scenario": "resolvent-scan",
                    "system": {
                        "type": "custom",
                        "eigenvalues": [1.0, 4.0],
                        "gram": [[2.0, [0.5, 0.25]], [[0.5, -0.25], 3.0]],
                    },
                }
            )
        )
        sys_ = system_of(cfg)
        np.testing.assert_allclose(sys_.eigenvalues, [1.0, 4.0])
        assert sys_.gram[0, 1] == 0.5 + 0.25j
        assert sys_.gram[1, 0] == 0.5 - 0.25j

    def test_square_system_round_trip(self):
        cfg = default_config("coercivity-scan")
        sys_ = system_of(cfg)
        oracle = build_square_system(50, gamma_spec_of(cfg.system))
        np.testing.assert_allclose(sys_.eigenvalues, oracle.eigenvalues)
        np.testing.assert_allclose(sys_.gram, oracle.gram)


class TestDefaultsAndOverrides:
    def test_every_scenario_has_a_default(self):
        for scenario in SCENARIOS:
            cfg = default_config(scenario)
            assert cfg.scenario == scenario
            if scenario == "verify-cutoff":
                assert cfg.system is None
            else:
                assert cfg.system["type"] == "square"

    def test_patch_scenario_default_window(self):
        cfg = default_config("assumption-ii-iii")
        patch = cfg.system["gamma"][0]
        assert patch["alpha"] == pytest.approx(math.pi / 4.0)
        assert patch["beta"] == pytest.approx(math.pi / 2.0)

    def test_overrides(self):
        cfg = default_config("resolvent-scan")
        out = apply_overrides(cfg, seed=11, trials=5, T=2.5, output_path="x.json")
        assert (out.seed, out.trials, out.T, out.output_path) == (11, 5, 2.5, "x.json")
        assert apply_overrides(cfg) is cfg

    def test_override_validation(self):
        cfg = default_config("resolvent-scan")
        with pytest.raises(ConfigError) as info:
            apply_overrides(cfg, trials=0)
        assert info.value.kind == "invariant"
        with pytest.raises(ConfigError):
            apply_overrides(cfg, T=0.0)

    def test_digest_ignores_output_location_only(self):
        base = default_config("coercivity-scan")
        moved = apply_overrides(base, output_path="elsewhere/report.json")
        reseeded = apply_overrides(base, seed=99)
        assert moved.digest() == base.digest()
        assert reseeded.digest() != base.digest()
        assert len(base.digest()) == 64


class TestCli:
    def test_parser_lists_all_scenarios(self):
        parser = build_parser()
        text = parser.format_help()
        for scenario in SCENARIOS:
            assert scenario in text

    def test_coercivity_scan_passes(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = main(["coercivity-scan", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert list(doc) == [
            "toolkit",
            "scenario",
            "seed",
            "config_sha256",
            "constants",
            "notes",
            "verdicts",
            "tables",
        ]
        assert doc["scenario"] == "coercivity-scan"
        assert all(v["passed"] for v in doc["verdicts"])
        assert "PASS" in capsys.readouterr().out

    def test_cutoff_verification_reports_failure(self, tmp_path, capsys):
        out = tmp_path / "cutoff.json"
        code = main(["verify-cutoff", "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        failing = [v["name"] for v in doc["verdicts"] if not v["passed"]]
        assert failing == ["sandwich-upper-bound"]
        assert "FAIL" in capsys.readouterr().out

    def test_reports_are_byte_identical_across_locations(self, tmp_path):
        a = tmp_path / "a" / "r.json"
        b = tmp_path / "b" / "r.json"
        assert main(["resolvent-scan", "--trials", "5", "--out", str(a)]) == 0
        assert main(["resolvent-scan", "--trials", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text(encoding="utf-8").endswith("\n")

    def test_seed_override_changes_digest(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["resolvent-scan", "--trials", "5", "--out", str(a)])
        main(["resolvent-scan", "--trials", "5", "--seed", "8", "--out", str(b)])
        doc_a = json.loads(a.read_text(encoding="utf-8"))
        doc_b = json.loads(b.read_text(encoding="utf-8"))
        assert doc_a["seed"] == 7 and doc_b["seed"] == 8
        assert doc_a["config_sha256"] != doc_b["config_sha256"]

    def test_csv_format_writes_tables(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["coercivity-scan", "--out", str(out), "--format", "csv"])
        assert code == 0
        clusters = tmp_path / "scan.clusters.csv"
        verdicts = tmp_path / "scan.verdicts.csv"
        constants = tmp_path / "scan.constants.csv"
        assert clusters.exists() and verdicts.exists() and constants.exists()
        lines = clusters.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("center,")
        # numeric cells use fixed scientific notation so files diff cleanly
        assert "e+00" in lines[1] or "e-0" in lines[1]

    def test_config_file_and_explicit_values(self, tmp_path):
        path = write_config(
            tmp_path,
            "cfg.json",
            {
                "scenario": "admissibility",
                "system": {"type": "square", "n_max_eigenvalue": 20},
                "T": 0.5,
            },
        )
        out = tmp_path / "adm.json"
        code = main(["admissibility", "--config", str(path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["constants"]["horizon"] == 0.5

    def test_bad_config_exits_three(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"scenario": "telepathy"})
        code = main(["coercivity-scan", "--config", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "schema" in capsys.readouterr().err

    def test_invalid_override_exits_three(self, tmp_path):
        code = main(["resolvent-scan", "--T", "0", "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["interpretive-dance"])
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "obskit" in capsys.readouterr().out


def square_doc(n_max):
    return json.dumps({"system": {"type": "square", "n_max_eigenvalue": n_max}})


class TestResourceGuard:
    def test_mode_count_matches_enumeration(self):
        # square_modes(n) is the prefix of square_modes(2000) with eigenvalue ≤ n
        eigenvalues = [mode.eigenvalue for mode in square_modes(2000)]
        for n in range(2, 2001):
            assert mode_count(n) == bisect.bisect_right(eigenvalues, n)
        for n in (2, 3, 5, 50, 325, 1999, 2000, 10_000):
            assert mode_count(n) == len(square_modes(n))

    def test_cap_boundary(self):
        assert 16 * mode_count(10_564) ** 2 <= MAX_GRAM_BYTES < 16 * mode_count(10_565) ** 2
        assert load_config(square_doc(10_564), default_scenario="coercivity-scan")
        with pytest.raises(ConfigError) as info:
            load_config(square_doc(10_565), default_scenario="coercivity-scan")
        assert info.value.kind == "invariant"

    def test_benchmark_size_loads(self):
        doc = {"type": "square", "n_max_eigenvalue": 2000,
               "gamma": [{"side": "bottom"}, {"side": "left"}]}
        cfg = load_config(json.dumps({"system": doc}), default_scenario="assumption-i")
        assert cfg.system["n_max_eigenvalue"] == 2000

    @pytest.mark.parametrize("n_max", [10**6, 10**30])
    def test_huge_n_max_rejected_before_any_build(self, n_max, tmp_path, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("a rejected input must build nothing")

        monkeypatch.setattr("obskit.square.square_modes", forbidden)
        monkeypatch.setattr("obskit.config.build_square_system", forbidden)
        with pytest.raises(ConfigError) as info:
            load_config(square_doc(n_max), default_scenario="coercivity-scan")
        assert info.value.kind == "invariant"
        out = tmp_path / "x.json"
        assert main(["coercivity-scan", "--config", square_doc(n_max), "--out", str(out)]) == 3
        assert "GiB cap" in capsys.readouterr().err
        assert not out.exists()


class TestWorkers:
    def test_default_is_positive(self):
        assert worker_count() == 1

    def test_cluster_scans_start_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a scan started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert len(coercivity_scan(build_square_system(300, full_bottom()), 0.5, 300.0)) == 101
        assert len(delta_gamma_fit(full_bottom(), 200)[1].rows) == 68
