"""tools/report_diff.py matches verdicts, constants, tables and columns by
name and notes by text: a renamed or dropped item is listed as removed (and
added), the moves of the items both sides share still show, and a change of
order or of how often a name occurs is serious.  CSV files are compared too,
as one table each, and one on one side only is listed."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import report_diff  # noqa: E402


def report(verdicts: list[tuple[str, bool, str]], constants=None, notes=(), tables=None) -> dict:
    return {
        "scenario": "verify-cutoff",
        "seed": 7,
        "config_sha256": "0" * 64,
        "toolkit": {"name": "obskit", "version": "0"},
        "constants": {"kappa2": 6.0} if constants is None else constants,
        "notes": list(notes),
        "verdicts": [{"name": n, "passed": p, "detail": d} for n, p, d in verdicts],
        "tables": tables or {},
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


def test_a_dropped_column_is_listed_and_moved_cells_still_show():
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    before = report([], tables={"obs": {"columns": ["t", "sup", "T"], "rows": rows}})
    after = report([], tables={"obs": {"columns": ["t", "T"], "rows": [[1.0, 3.5], [4.0, 6.0]]}})
    moves, serious = report_diff.report_moves(before, after)
    assert [(w, text) for w, text, _ in moves] == [
        ("table obs column sup", "removed"),
        ("table obs[0].T", "3.0 -> 3.5  rel=1.43e-01"),
    ]
    assert serious


def test_a_reordered_column_or_another_row_count_is_serious():
    before = report([], tables={"obs": {"columns": ["t", "T"], "rows": [[1.0, 3.0]]}})
    swapped = report([], tables={"obs": {"columns": ["T", "t"], "rows": [[3.0, 1.0]]}})
    assert report_diff.report_moves(before, swapped) == (
        [("table obs column order", "shape ['t', 'T'] -> ['T', 't']", None)], True
    )
    longer = report([], tables={"obs": {"columns": ["t", "T"], "rows": [[1.0, 3.0], [2.0, 4.0]]}})
    assert report_diff.report_moves(before, longer) == ([("table obs rows", "shape 1 -> 2", None)], True)


def test_a_dropped_table_is_listed_and_the_others_still_compare():
    a, b2, b3, c = ({"columns": [x], "rows": [[v]]} for x, v in (("x", 1), ("y", 2), ("y", 3), ("z", 4)))
    before = report([], tables={"a": a, "b": b2})
    after = report([], tables={"b": b3, "c": c})
    moves, serious = report_diff.report_moves(before, after)
    assert [(w, text) for w, text, _ in moves] == [
        ("table a", "removed"),
        ("table c", "added"),
        ("table b[0].y", "2 -> 3  rel=3.33e-01"),
    ]
    assert serious


def test_a_dropped_constant_is_listed_and_moved_constants_still_show():
    before = report([], constants={"theta0": 127.0, "theta1": 0.38, "theta1_variant": 0.14})
    after = report([], constants={"theta0": 127.5, "theta1": 0.38, "theta2": 1.25})
    moves, serious = report_diff.report_moves(before, after)
    assert [(w, text) for w, text, _ in moves] == [
        ("constants.theta1_variant", "removed"),
        ("constants.theta2", "added"),
        ("constants.theta0", "127.0 -> 127.5  rel=3.92e-03"),
    ]
    assert serious


def test_notes_are_matched_by_text():
    before = report([], notes=["n1", "n2", "shared"])
    cases = [
        (["n2", "shared"], [("note n1", "removed")]),
        (["n1", "n2!", "shared"], [("note n2", "removed"), ("note n2!", "added")]),
        (["shared", "n1", "n2"], [("note order", "shape ['n1', 'n2', 'shared'] -> ['shared', 'n1', 'n2']")]),
        (["n1", "n2", "shared", "shared"], [("note shared#2", "added")]),
    ]
    for notes, expected in cases:
        moves, serious = report_diff.report_moves(before, report([], notes=notes))
        assert [(w, text) for w, text, _ in moves] == expected
        assert serious


def test_cli_lists_a_dropped_column_and_its_neighbours_moves_and_exits_one(tmp_path, capsys):
    tables = ({"columns": ["t", "sup"], "rows": [[1.0, 2.0]]}, {"columns": ["t"], "rows": [[1.5]]})
    for side, table in zip("ab", tables):
        (tmp_path / side).mkdir()
        (tmp_path / side / "w.json").write_text(json.dumps(report([], tables={"obs": table})))
    assert report_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w.json: table obs column sup: removed",
        "w.json: table obs[0].t: 1.0 -> 1.5  rel=3.33e-01",
        "1 reports compared, 1 moved, largest relative move 3.33e-01",
    ]


def _write_sides(tmp_path, files: dict[str, tuple[str | None, str | None]]) -> tuple[str, str]:
    """Write each file's (A, B) text under tmp_path/a and tmp_path/b; None leaves it out."""
    for side, i in (("a", 0), ("b", 1)):
        (tmp_path / side).mkdir()
        for name, texts in files.items():
            if texts[i] is not None:
                (tmp_path / side / name).write_text(texts[i])
    return str(tmp_path / "a"), str(tmp_path / "b")


def test_cli_compares_csv_cells_by_column_name(tmp_path, capsys):
    a, b = _write_sides(tmp_path, {
        "r.clusters.csv": (
            "center,min_eig,label\n1.00000000000000000e+00,2.00000000000000000e+00,x\n",
            "center,min_eig,label\n1.00000000000000000e+00,2.00000000000000044e+00,x\n",
        ),
        "r.constants.csv": ("name,value\nc,3\n", "name,value\nc,3\n"),
    })
    assert report_diff.main([a, b]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "r.clusters.csv: table csv[0].min_eig: 2.0 -> 2.0000000000000004  rel=2.22e-16",
        "2 reports compared, 1 moved, largest relative move 2.22e-16",
    ]


def test_cli_lists_a_dropped_csv_column_a_flipped_verdict_and_a_one_sided_csv(tmp_path, capsys):
    a, b = _write_sides(tmp_path, {
        "r.obs.csv": ("t,sup\n1.0,2.0\n", "t\n1.5\n"),
        "r.verdicts.csv": ("name,passed,detail\nv,true,max = 6.2\n", "name,passed,detail\nv,false,max = 6.3\n"),
        "r.extra.csv": (None, "a\n1\n"),
    })
    assert report_diff.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "r.extra.csv: only in " + b,
        "r.obs.csv: table csv column sup: removed",
        "r.obs.csv: table csv[0].t: 1.0 -> 1.5  rel=3.33e-01",
        "r.verdicts.csv: table csv[0].passed: True -> False",
        "r.verdicts.csv: table csv[0].detail: 'max = 6.2' -> 'max = 6.3'  rel=1.59e-02",
        "2 reports compared, 2 moved, largest relative move 3.33e-01",
    ]
