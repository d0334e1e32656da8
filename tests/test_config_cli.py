"""Configuration loading, overrides, digests, the CLI, and the worker count."""

import bisect
import json
import math
import re
import threading
import warnings

import numpy as np
import pytest

from obskit import (
    ConfigError,
    SpectralSystem,
    apply_overrides,
    build_square_system,
    coercivity_scan,
    default_config,
    load_config,
    system_of,
)
from obskit import cli, scenarios
from obskit.cli import build_parser, main
from obskit.config import MAX_GRAM_BYTES, MAX_TRIALS, SCENARIOS, gamma_spec_of
from obskit.parallel import worker_count
from obskit.square import GammaSpec, Side, delta_gamma_fit, mode_count, square_modes


CUSTOM_GRAM = '{"system": {"type": "custom", "eigenvalues": [1, 2], "gram": [[1, %s], [%s, 1]]}}'


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
        with pytest.raises(ConfigError, match=re.escape("top level: unknown keys ['frobnicate']")) as info:
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

    @pytest.mark.parametrize(
        "key, angle",
        [
            ("alpha", 10**400),
            ("beta", "1" + "0" * 400 + "pi"),
            ("beta", "pi/1" + "0" * 400),
            ("beta", "1" + "0" * 5000 + "pi"),  # past the 4300-digit limit of int()
        ],
        ids=["huge-int", "huge-numerator", "huge-denominator", "numerator-past-digit-limit"],
    )
    def test_angle_past_the_float_range_exits_three_without_report(self, key, angle, tmp_path, capsys):
        doc = json.dumps({"system": {"type": "square", "n_max_eigenvalue": 50,
                                     "gamma": [{"side": "bottom", key: angle}]}})
        with pytest.raises(ConfigError, match=rf"^config invariant error: system\.gamma\[0\]\.{key}: ") as info:
            load_config(doc, default_scenario="coercivity-scan")
        assert info.value.kind == "invariant"
        out = tmp_path / "x.json"
        assert main(["coercivity-scan", "--config", doc, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"obskit: config invariant error: system.gamma[0].{key}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth"),
            ('{"seed": 1' + "0" * 5000 + "}", "4300 digits"),
        ],
        ids=["nested-too-deep", "int-past-digit-limit"],
    )
    def test_every_json_failure_is_a_parse_error(self, doc, message, from_file, tmp_path, capsys):
        source = tmp_path / "doc.json" if from_file else doc
        if from_file:
            source.write_text(doc, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^config parse error: .*{message}") as info:
            load_config(source, default_scenario="verify-cutoff")
        assert info.value.kind == "parse"
        out = tmp_path / "x.json"
        assert main(["verify-cutoff", "--config", str(source), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("obskit: config parse error: ") and err.count("\n") == 1
        assert not out.exists()

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
        # SpectralSystem's one check names the pair that deviates most.
        with pytest.raises(ConfigError, match=r"not Hermitian: \|G\[0\]\[1\]") as info:
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
        assert info.value.kind == "invariant"

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"scenario": "admissibility", "system": {"type": "square", "n_max_eigenvalue": 10, "gamma": [{}]}},
                "system.gamma[0].side: missing required key",
            ),
            ({"scenario": "admissibility", "system": {"type": "square", "gamma": []}},
             "system.n_max_eigenvalue: missing required key"),
            ({"scenario": "admissibility", "system": {"type": "custom", "eigenvalues": [1.0], "gram": [[1]], "x": 0}},
             "system: unknown keys ['x']"),
            ({"scenario": "admissibility", "system": {"type": "custom", "eigenvalues": [1.0]}},
             "system.gram: missing required key"),
            (
                {"scenario": "admissibility", "system": {"type": "custom", "eigenvalues": [1.0], "gram": [[True]]}},
                "system.gram[0][0]: expected a number or [re, im] pair, got True",
            ),
        ],
        ids=["patch-side-missing", "n-max-missing", "custom-unknown", "gram-missing",
             "gram-boolean"],
    )
    def test_key_and_entry_errors_name_their_path(self, doc, message):
        with pytest.raises(ConfigError) as info:
            load_config(json.dumps(doc))
        assert info.value.kind == "schema"
        assert str(info.value) == f"config schema error: {message}"

    def test_square_system_defaults_to_the_full_bottom_side(self):
        def load(system):
            return load_config(json.dumps({"scenario": "admissibility", "system": system}))

        implicit = load({"type": "square", "n_max_eigenvalue": 50})
        explicit = load({"type": "square", "n_max_eigenvalue": 50,
                         "gamma": [{"side": "bottom", "alpha": 0.0, "beta": math.pi}]})
        assert implicit.system["gamma"] == [{"side": "bottom", "alpha": 0.0, "beta": math.pi}]
        assert implicit.system == explicit.system
        assert implicit.digest() == explicit.digest()

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

    @pytest.mark.parametrize(
        "scenario, gamma, message",
        [
            ("assumption-i", [{"side": "bottom"}, {"side": "left", "beta": 1.0}], "full bottom and left sides"),
            ("assumption-ii-iii", [{"side": "bottom", "beta": 1.0}, {"side": "left"}], "single side"),
            ("assumption-ii-iii", None, "requires a square system"),
        ],
    )
    def test_square_scenarios_hold_gamma_to_their_rule(self, scenario, gamma, message):
        system = {"type": "square", "n_max_eigenvalue": 100, "gamma": gamma}
        if gamma is None:  # rejected before its indefinite Gram is factored
            system = {"type": "custom", "eigenvalues": [1.0, 2.0], "gram": [[0, 1], [1, 0]]}
        with pytest.raises(ConfigError, match=message) as info:
            load_config(json.dumps({"scenario": scenario, "system": system}))
        assert info.value.kind == "invariant"

    def test_assumption_i_takes_its_two_sides_in_either_order(self):
        gamma = [{"side": "left"}, {"side": "bottom"}]
        system = {"type": "square", "n_max_eigenvalue": 100, "gamma": gamma}
        cfg = load_config(json.dumps({"scenario": "assumption-i", "system": system}))
        assert [patch["side"] for patch in cfg.system["gamma"]] == ["left", "bottom"]

    def test_verify_cutoff_takes_no_system(self):
        # Rejected before it is normalized: neither the huge square nor the
        # indefinite Gram is looked at.
        for system in (
            {"type": "square", "n_max_eigenvalue": 10**12},
            {"type": "custom", "eigenvalues": [1.0, 2.0], "gram": [[0, 1], [1, 0]]},
        ):
            with pytest.raises(ConfigError, match="scenario verify-cutoff takes no system") as info:
                load_config(json.dumps({"scenario": "verify-cutoff", "system": system}))
            assert info.value.kind == "invariant"
        assert load_config('{"scenario": "verify-cutoff", "system": null}').system is None

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


def _square(patch):
    return {"system": {"type": "square", "n_max_eigenvalue": 50, "gamma": [patch]}}


def _custom(**given):
    return {"system": {"type": "custom", "eigenvalues": [1, 2], "gram": [[1, 0], [0, 1]], **given}}


class TestInputErrors:
    """Each rejected config document names its fault, at ``load_config`` and at the CLI."""

    @pytest.mark.parametrize(
        "doc, kind, message",
        [
            (_square({"side": "bottom", "alpha": True}), "schema",
             "system.gamma[0].alpha: expected a number or an angle string, got a boolean"),
            (_square({"side": "bottom", "beta": "pi/0"}), "schema",
             "system.gamma[0].beta: angle denominator cannot be zero"),
            (_square({"side": "bottom", "beta": [1]}), "schema",
             "system.gamma[0].beta: expected a number or an angle string, got list"),
            ({"epsilon_cluster": "x"}, "schema", "epsilon_cluster: expected a number, got 'x'"),
            ({"system": {"type": "square", "n_max_eigenvalue": 50, "gamma": ["bottom"]}}, "schema",
             "system.gamma[0]: expected an object with side/alpha/beta"),
            (_square({"side": 1}), "schema", "system.gamma[0].side: expected a string"),
            (_square({"side": "diagonal"}), "schema",
             "system.gamma[0].side: unknown side 'diagonal'; expected one of ['bottom', 'left', 'top', 'right']"),
            ({"system": {"type": "square", "n_max_eigenvalue": 50, "gamma": []}}, "schema",
             "system.gamma: expected a nonempty list of patches"),
            (_custom(eigenvalues=1), "schema", "system.eigenvalues: expected a nonempty list of numbers"),
            (_custom(gram=1), "schema", "system.gram: expected a list of rows"),
            (_custom(gram=[[1, 0]]), "invariant", "system.gram has 1 rows for 2 eigenvalues"),
            (_custom(gram=[[1, 0], 1]), "schema", "system.gram[1]: expected a list"),
            ({"system": [1]}, "schema", "system: expected an object"),
            ({"system": {"type": "disk"}}, "schema", "system.type: expected 'square' or 'custom', got 'disk'"),
            ([1], "schema", "top level must be an object, got list"),
            ({"epsilon_cluster": 0}, "invariant", "epsilon_cluster must be positive, got 0.0"),
        ],
        ids=["angle-boolean", "angle-zero-denominator", "angle-list", "epsilon-string", "patch-not-object",
             "side-not-string", "side-unknown", "gamma-empty", "eigenvalues-not-list", "gram-not-list",
             "gram-row-count", "gram-row-not-list", "system-not-object", "system-type-unknown",
             "top-level-not-object", "epsilon-zero"],
    )
    def test_rejected_document_names_its_fault(self, doc, kind, message, tmp_path, capsys):
        source = write_config(tmp_path, "config.json", doc)
        with pytest.raises(ConfigError, match=f"^config {kind} error: {re.escape(message)}$") as info:
            load_config(source, default_scenario="coercivity-scan")
        assert info.value.kind == kind
        out = tmp_path / "x.json"
        assert main(["coercivity-scan", "--config", str(source), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"obskit: config {kind} error: {message}\n"
        assert not out.exists()

    def test_a_document_without_a_scenario_needs_a_subcommand(self):
        message = "config schema error: scenario: missing (give it in the config or pick a subcommand)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as info:
            load_config("{}")
        assert info.value.kind == "schema"

    def test_system_of_a_config_without_a_system(self):
        message = "config invariant error: this scenario requires a system description"
        with pytest.raises(ConfigError, match=f"^{message}$") as info:
            system_of(default_config("verify-cutoff"))
        assert info.value.kind == "invariant"


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
        cfg = default_config("weak-observability")
        out = apply_overrides(cfg, seed=11, trials=5, T=2.5, output_path="x.json")
        assert (out.seed, out.trials, out.T, out.output_path) == (11, 5, 2.5, "x.json")
        assert apply_overrides(cfg) is cfg

    def test_override_validation(self):
        cfg = default_config("admissibility")
        with pytest.raises(ConfigError) as info:
            apply_overrides(cfg, trials=0)
        assert info.value.kind == "invariant"
        with pytest.raises(ConfigError, match="positive"):
            apply_overrides(cfg, T=0.0)

    @pytest.mark.parametrize(
        "override, kind",
        [
            ({"trials": 2.5}, "schema"),
            ({"trials": True}, "schema"),
            ({"seed": 2.5}, "schema"),
            ({"T": 10**400}, "invariant"),
        ],
    )
    def test_override_types_checked_as_in_load_config(self, override, kind):
        (key, value), = override.items()
        for make in (
            lambda: apply_overrides(default_config("weak-observability"), **override),
            lambda: load_config(json.dumps({"scenario": "weak-observability", key: value})),
        ):
            with pytest.raises(ConfigError, match=key) as info:
                make()
            assert info.value.kind == kind

    @pytest.mark.parametrize("scenario", ["coercivity-scan", "resolvent-scan"])
    def test_T_rejected_without_a_horizon(self, scenario):
        for make in (
            lambda: apply_overrides(default_config(scenario), T=2.0),
            lambda: load_config(json.dumps({"scenario": scenario, "T": 2.0})),
        ):
            with pytest.raises(ConfigError, match="no time horizon") as info:
                make()
            assert info.value.kind == "invariant"

    def test_negative_seed_is_invariant_error(self):
        for make in (
            lambda: apply_overrides(default_config("resolvent-scan"), seed=-1),
            lambda: load_config('{"scenario": "resolvent-scan", "seed": -1}'),
        ):
            with pytest.raises(ConfigError, match="seed") as info:
                make()
            assert info.value.kind == "invariant"
        assert load_config('{"scenario": "resolvent-scan", "seed": 0}').seed == 0

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

    @pytest.mark.parametrize("scenario", ["coercivity-scan", "resolvent-scan", "weak-observability"])
    def test_a_scan_that_is_not_weakly_coercive_still_writes_its_report(self, scenario, tmp_path, capsys):
        # Modes 0 and 1 share a cluster at width 0.5, and e₀ − e₁ is unobserved.
        system = {"type": "custom", "eigenvalues": [1, 1.2, 3], "gram": [[1, 1, 0], [1, 1, 0], [0, 0, 1]]}
        out = tmp_path / "report.json"
        assert main([scenario, "--config", json.dumps({"system": system}), "--out", str(out)]) == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        detail = "not weakly coercive at width 0.5: cluster at center 1.0 has minimal observed energy 0.000e+00"
        assert doc["verdicts"] == [{"name": "weakly-coercive-at-width", "passed": False, "detail": detail}]
        assert "FAIL weakly-coercive-at-width" in capsys.readouterr().out

    def test_assumption_i_at_a_width_that_is_not_weakly_coercive_still_writes_its_report(self, tmp_path, capsys):
        # At width 10 the cluster about N = 2 holds a state whose observed energy is round-off.
        out = tmp_path / "report.json"
        assert main(["assumption-i", "--config", '{"epsilon_cluster": 10}', "--out", str(out)]) == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [(v["name"], v["passed"]) for v in doc["verdicts"]] == [
            ("cluster-minima-constant", True),
            ("weakly-coercive-at-width", False),
        ]
        assert doc["verdicts"][1]["detail"].startswith("not weakly coercive at width 10.0: cluster at center 2.0 ")
        assert "envelope_c" not in doc["constants"]
        assert "FAIL weakly-coercive-at-width" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n_max, alpha, beta",
        [(50, 0, 5e-324), (500, 1, 1.001)],  # (β − α)/2 rounds to 0, so δ̂ = 0; then δ̂ < 0 by round-off
    )
    def test_assumption_ii_iii_without_a_positive_decay_constant_tabulates_no_widths(self, n_max, alpha, beta, tmp_path):
        gamma = [{"side": "bottom", "alpha": alpha, "beta": beta}]
        config = {"system": {"type": "square", "n_max_eigenvalue": n_max, "gamma": gamma}}
        out = tmp_path / "report.json"
        assert main(["assumption-ii-iii", "--config", json.dumps(config), "--out", str(out)]) == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert (doc["constants"]["delta_hat"] == 0.0) == (alpha == 0)
        assert doc["constants"]["delta_hat"] <= 0.0
        assert doc["verdicts"][0]["name"] == "decay-constant-positive" and not doc["verdicts"][0]["passed"]
        assert "admissibility_sq" in doc["constants"]
        assert list(doc["tables"]) == ["clusters"]

    def test_admissibility_on_a_zero_gram_is_undecided_and_writes_its_report(self, tmp_path, capsys):
        # The kernel is 0, so its largest eigenvalue C_T is 0 and no margin can be scaled by it.
        system = {"type": "custom", "eigenvalues": [1, 2, 4], "gram": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}
        out = tmp_path / "report.json"
        assert main(["admissibility", "--config", json.dumps({"system": system}), "--trials", "5", "--out", str(out)]) == 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["constants"]["sharp_constant_truncated"] == 0.0
        assert "worst_admissibility_margin" not in doc["constants"]
        assert doc["verdicts"][-1] == {
            "name": "sharp-constant-bounds-random-states",
            "passed": False,
            "detail": "undecided: the sharp constant C_T = 0.0 is not positive",
        }
        assert "FAIL sharp-constant-bounds-random-states" in capsys.readouterr().out

    def test_gram_with_eigenvalues_past_the_float_range_exits_three(self, tmp_path, capsys):
        # Every entry 1e308 is in range, but the largest eigenvalue, 3e308, is not.
        system = {"type": "custom", "eigenvalues": [1, 2, 3], "gram": [[1e308] * 3] * 3}
        out = tmp_path / "report.json"
        argv = ["admissibility", "--config", json.dumps({"system": system, "epsilon_cluster": 1e-8}), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("obskit: config invariant error: system: gram eigenvalues pass the float range: ")
        assert err.endswith(" to inf\n") and err.count("\n") == 1
        assert not out.exists()

    def test_admissibility_ratio_of_a_gram_near_the_float_range_is_finite(self, tmp_path):
        # At G = 1e307·I the product C_T·norm_sq passes the float range; the ratio
        # margin/(C_T·norm_sq), whose margin is C_T's 1e-12 slack, still reads about 1e-12.
        system = {"type": "custom", "eigenvalues": [1, 2, 3], "gram": np.diag([1e307] * 3).tolist()}
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["admissibility", "--config", json.dumps({"system": system}), "--out", str(out)]) == 0
        worst = json.loads(out.read_text(encoding="utf-8"))["constants"]["worst_admissibility_margin"]
        assert 0.99e-12 < worst <= 1e-12

    def test_admissibility_kernel_past_the_float_range_exits_four(self, tmp_path, capsys):
        # At T = 100 the kernel G∘S_T of G = 1e307·I has the entry 1e309.
        system = {"type": "custom", "eigenvalues": [1, 2, 3], "gram": np.diag([1e307] * 3).tolist()}
        out = tmp_path / "report.json"
        argv = ["admissibility", "--config", json.dumps({"system": system, "T": 100}), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 4
        assert capsys.readouterr().err == (
            "obskit: numeric failure: the observability kernel G∘S_T passes the float range at T = 100.0\n"
        )
        assert not out.exists()

    def test_cutoff_constants_block_is_pinned(self, tmp_path):
        out = tmp_path / "cutoff.json"
        main(["verify-cutoff", "--out", str(out)])
        constants = json.loads(out.read_text(encoding="utf-8"))["constants"]
        assert [(key, repr(value)) for key, value in constants.items()] == [
            ("kappa1", "0.4244131815783876"),
            ("kappa2", "6.0"),
            ("chi_l2_norm_sq", "0.3113552725694541"),
            ("chi_deriv_l2_norm_sq", "3.2454210902778167"),
            ("chi_sup_norm", "1.0"),
            ("c0", "119.16807105949562"),
            ("c0_prime", "3.2285492426089144"),
            ("theta0", "127.16807105949562"),
            ("theta1_l2_deriv", "0.3837471488703505"),
            ("theta2", "1.2454210902778164"),
        ]

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

    def test_config_path_with_a_brace_is_read_as_a_file(self, tmp_path):
        path = write_config(tmp_path, "cfg{1}.json", {"scenario": "admissibility", "trials": 3})
        assert load_config(str(path)) == load_config(path)
        out = tmp_path / "adm.json"
        assert main(["admissibility", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["config_sha256"] == load_config(path).digest()
        assert load_config('  {"trials": 3}', default_scenario="admissibility").trials == 3

    def test_bad_config_exits_three(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"scenario": "telepathy"})
        code = main(["coercivity-scan", "--config", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "schema" in capsys.readouterr().err

    def test_invalid_override_exits_three(self, tmp_path):
        code = main(["weak-observability", "--T", "0", "--out", str(tmp_path / "x.json")])
        assert code == 3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["coercivity-scan", "--T", "5"], "no time horizon"),
            (["resolvent-scan", "--seed", "-1"], "seed must be"),
            (["coercivity-scan", "--config", ""], "cannot read config file"),  # Path("") is "."
            (["coercivity-scan", "--config", "."], "cannot read config file"),
            (
                ["verify-cutoff", "--config", '{"system": {"type": "square", "n_max_eigenvalue": 10000}}'],
                "takes no system",
            ),
        ],
        ids=["T-without-horizon", "negative-seed", "empty-config-path", "config-directory", "system-without-one"],
    )
    def test_rejected_input_exits_three_without_report(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and err.startswith("obskit: ") and err.count("\n") == 1
        assert not out.exists()

    def test_config_file_not_utf8_exits_three(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"trials": 3, "output_path": "é"}'.encode("latin-1"))
        assert main(["coercivity-scan", "--config", str(path), "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert "cannot read config file" in err and err.count("\n") == 1

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        assert main(["verify-cutoff", "--out", str(tmp_path)]) == 3
        assert "cannot write report" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["weak-observability", "--T", "inf"],
            ["admissibility", "--T", "inf"],
            ["weak-observability", "--T", "1e308"],  # ½·T·(λ_max − λ_min) overflows
            ["admissibility", "--T", "1e308"],
            ["admissibility", "--config", '{"epsilon_cluster": Infinity}'],
            ["admissibility", "--config", '{"T": Infinity}'],
            ["coercivity-scan", "--config", CUSTOM_GRAM % ("NaN", "NaN")],
            ["coercivity-scan", "--config", CUSTOM_GRAM % ("Infinity", "Infinity")],
            ["coercivity-scan", "--config", CUSTOM_GRAM % ("[0, -Infinity]", "[0, Infinity]")],
            ["coercivity-scan", "--config", CUSTOM_GRAM % (("1" + "0" * 400,) * 2)],
        ],
        ids=["T-weak", "T-admissibility", "T-weak-phase", "T-admissibility-phase", "epsilon",
             "config-T", "gram-nan", "gram-inf", "gram-pair-inf", "gram-huge-int"],
    )
    def test_non_finite_input_exits_three(self, argv, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "finite" in err and err.startswith("obskit: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["structured", "csv"])
    @pytest.mark.parametrize(
        "poison, message",
        [
            (lambda b: b.constants.update(delta_hat=math.nan), "constant 'delta_hat' is nan"),
            (lambda b: b.tables[0].rows[1].__setitem__(2, -math.inf),
             "table 'clusters' row 1 column 'min_eig' is -inf"),
        ],
        ids=["nan-constant", "inf-cell"],
    )
    def test_non_finite_report_value_exits_four_without_report(
        self, poison, message, fmt, tmp_path, capsys, monkeypatch
    ):
        run = scenarios._RUNNERS["coercivity-scan"]

        def poisoned(cfg):
            bundle = run(cfg)
            poison(bundle)
            return bundle

        monkeypatch.setitem(scenarios._RUNNERS, "coercivity-scan", poisoned)
        out = tmp_path / "reports" / "x.json"
        assert main(["coercivity-scan", "--out", str(out), "--format", fmt]) == 4
        err = capsys.readouterr().err
        assert err.startswith("obskit: numeric failure: ") and err.count("\n") == 1
        assert message in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "scenario, at",
        [("admissibility", "0.99999999"), ("resolvent-scan", "0.999999995"), ("weak-observability", "0.999999995")],
    )
    def test_admissibility_past_the_float_range_exits_four(self, scenario, at, tmp_path, capsys):
        # ‖f_k‖² = 1e300 over distances of about 1e-8: the r×r product overflows before its eigensolve.
        system = {"type": "custom", "eigenvalues": [1, 2, 3], "gram": [[1e300, 0, 0], [0, 1e300, 0], [0, 0, 1e300]]}
        out = tmp_path / "x.json"
        config = json.dumps({"system": system, "epsilon_cluster": 1e-8})
        assert main([scenario, "--config", config, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"obskit: numeric failure: the admissibility sup at λ = {at} is past the float range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("eigenvalues", [[1, 1e200], [1e200, 2e200]])
    def test_huge_eigenvalues_scan_without_warning(self, eigenvalues, tmp_path, capsys):
        system = {"type": "custom", "eigenvalues": eigenvalues, "gram": [[1, 0], [0, 1]]}
        out = tmp_path / "x.json"
        assert main(["coercivity-scan", "--config", json.dumps({"system": system}), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text(encoding="utf-8"))["constants"]["envelope_p"] == 0.0

    @pytest.mark.parametrize(
        "scenario", ["admissibility", "resolvent-scan", "weak-observability", "assumption-ii-iii"]
    )
    def test_tiny_width_exits_three(self, scenario, tmp_path, capsys):
        # ε² underflows to 0 and every cluster edge λ_k ± ε rounds to λ_k
        out = tmp_path / "x.json"
        argv = [scenario, "--config", '{"epsilon_cluster": 1e-200}', "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("obskit: ") and "outside the float range" in err
        assert "1e-200" in err  # the configured width, even where its half is checked
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["resolvent-scan", "weak-observability"])
    def test_least_subnormal_width_exits_three(self, scenario, tmp_path, capsys):
        # The scan runs at 5e-324, and its half, the certificate's weak width, underflows to 0.
        out = tmp_path / "x.json"
        assert main([scenario, "--config", '{"epsilon_cluster": 5e-324}', "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "obskit: half of the cluster width 5e-324: cluster width must be positive, got 0.0\n"
        )
        assert not out.exists()

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["interpretive-dance"])
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "obskit" in capsys.readouterr().out

    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["resolvent-scan", "--seed", "-1", "--out", str(tmp_path / "x.json")]) == 3
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv, code",
        [(["--version"], 0), (["interpretive-dance"], 2), (["coercivity-scan", "--bogus"], 2)],
        ids=["version", "bad-subcommand", "bad-option"],
    )
    def test_reused_parser_exits_as_before(self, argv, code, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == code
        out, err = capsys.readouterr()
        text, line = (out, "obskit ") if code == 0 else (err, "usage: obskit")
        assert text.count(line) == 2

    def test_custom_gram_is_factored_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        factor_gram = SpectralSystem._factor_gram
        monkeypatch.setattr(
            SpectralSystem, "_factor_gram", lambda self, *a: calls.append(1) or factor_gram(self, *a)
        )
        config = CUSTOM_GRAM % ("[0.2, 0.1]", "[0.2, -0.1]")
        argv = ["resolvent-scan", "--config", config, "--trials", "3", "--out", str(tmp_path / "x.json")]
        assert main(argv) == 0
        assert len(calls) == 1


def square_doc(n_max):
    return json.dumps({"system": {"type": "square", "n_max_eigenvalue": n_max}})


class TestResourceGuard:
    def test_mode_count_matches_enumeration(self):
        # square_modes(n) is the prefix of square_modes(2000) with eigenvalue ≤ n
        eigenvalues = (square_modes(2000) ** 2).sum(axis=1).tolist()
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

    def test_trials_cap_boundary(self):
        assert load_config(json.dumps({"scenario": "resolvent-scan", "trials": MAX_TRIALS})).trials == MAX_TRIALS
        for make in (
            lambda: load_config(json.dumps({"scenario": "resolvent-scan", "trials": MAX_TRIALS + 1})),
            lambda: apply_overrides(default_config("resolvent-scan"), trials=MAX_TRIALS + 1),
        ):
            with pytest.raises(ConfigError, match="MAX_TRIALS") as info:
                make()
            assert info.value.kind == "invariant"

    def test_too_many_trials_exit_three_without_report(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a rejected input must run nothing")

        monkeypatch.setitem(scenarios._RUNNERS, "weak-observability", forbidden)
        out = tmp_path / "x.json"
        assert main(["weak-observability", "--trials", str(MAX_TRIALS + 1), "--out", str(out)]) == 3
        assert "MAX_TRIALS" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_exits_three_before_the_run(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a rejected input must run nothing")

        monkeypatch.setitem(scenarios._RUNNERS, "verify-cutoff", forbidden)
        monkeypatch.chdir(tmp_path)
        assert main(["verify-cutoff", "--out", ""]) == 3
        assert "output_path" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        with pytest.raises(ConfigError, match="output_path: expected a nonempty string") as info:
            apply_overrides(default_config("verify-cutoff"), output_path="")
        assert info.value.kind == "schema"

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
        assert coercivity_scan(build_square_system(300, GammaSpec.full_sides(Side.BOTTOM)), 0.5).centers.size == 101
        bottom = build_square_system(200, GammaSpec.full_sides(Side.BOTTOM))
        assert delta_gamma_fit(bottom)[1].centers.size == 68
