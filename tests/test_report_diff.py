"""tools/report_diff.py matches verdicts by name: a renamed verdict is one
removed and one added name, the other verdicts' moves still show, and a
change of order or of how often a name occurs is serious."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import report_diff  # noqa: E402


def report(verdicts: list[tuple[str, bool, str]]) -> dict:
    return {
        "scenario": "verify-cutoff",
        "seed": 7,
        "config_sha256": "0" * 64,
        "toolkit": {"name": "obskit", "version": "0"},
        "constants": {"kappa2": 6.0},
        "notes": [],
        "verdicts": [{"name": n, "passed": p, "detail": d} for n, p, d in verdicts],
        "tables": {},
    }


BEFORE = report([
    ("transform-value-at-zero", True, "chi_hat(0) = 0.5676676416183064"),
    ("transform-matches-quadrature", True, "max |closed - quadrature| = 1.0e-16"),
    ("sandwich-upper-bound", False, "max = 6.26957906189"),
])
AFTER = report([
    ("transform-value-at-zero", True, "chi_hat(0) = 0.5676676416183065"),
    ("transform-matches-real-form", True, "max |closed - real form| = 2.2e-16"),
    ("sandwich-upper-bound", False, "max = 6.26957906189"),
])


def test_renamed_verdict_is_removed_and_added_and_detail_moves_still_show():
    moves, serious = report_diff.report_moves(BEFORE, AFTER)
    where = {w: (text, rel) for w, text, rel in moves}
    assert where["verdict transform-matches-quadrature"] == ("removed", None)
    assert where["verdict transform-matches-real-form"] == ("added", None)
    text, rel = where["verdict transform-value-at-zero detail"]
    assert 0.0 < rel < 1e-15 and "0.5676676416183065" in text
    assert len(moves) == 3
    assert serious


def test_same_verdict_names_with_only_detail_moves_are_not_serious():
    moves, serious = report_diff.report_moves(BEFORE, report([
        ("transform-value-at-zero", True, "chi_hat(0) = 0.5676676416183065"),
        ("transform-matches-quadrature", True, "max |closed - quadrature| = 1.0e-16"),
        ("sandwich-upper-bound", False, "max = 6.26957906189"),
    ]))
    assert [w for w, _, _ in moves] == ["verdict transform-value-at-zero detail"]
    assert not serious


def test_cli_lists_both_names_and_exits_one(tmp_path, capsys):
    for side, doc in (("a", BEFORE), ("b", AFTER)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "verify-cutoff.json").write_text(json.dumps(doc))
    assert report_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "verify-cutoff.json: verdict transform-matches-quadrature: removed" in out
    assert "verify-cutoff.json: verdict transform-matches-real-form: added" in out
    assert out[-1] == "1 reports compared, 1 moved, largest relative move 1.96e-16"


def test_reordered_verdicts_are_a_serious_shape_move():
    rows = [tuple(v.values()) for v in BEFORE["verdicts"]]
    moves, serious = report_diff.report_moves(BEFORE, report([rows[1], rows[0], rows[2]]))
    assert [w for w, _, _ in moves] == ["verdict order"]
    assert serious


def test_a_repeated_name_is_matched_by_occurrence():
    rows = [tuple(v.values()) for v in BEFORE["verdicts"]]
    doubled = report([*rows, ("sandwich-upper-bound", True, "max = 1")])
    moves, serious = report_diff.report_moves(BEFORE, doubled)
    assert moves == [("verdict sandwich-upper-bound#2", "added", None)]
    assert serious
    moves, serious = report_diff.report_moves(doubled, report([*rows, ("sandwich-upper-bound", True, "max = 2")]))
    assert [w for w, _, _ in moves] == ["verdict sandwich-upper-bound#2 detail"]
    assert not serious
