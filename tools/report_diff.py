"""List every report value that moved between two directories of reports.

    python3 tools/report_diff.py [--by-item] A B

A and B hold JSON reports at the same relative paths, as
``tools/report_digests.py --keep`` writes them from two checkouts.  For each
pair of reports that differ it prints one line per moved item: a constant,
a table cell, a note, or a verdict matched by name (its pass/fail or its
detail text; a name on one side only is listed as added or removed).  A
number that moved carries its relative size |a − b|/max(|a|, |b|); a detail
text carries the largest relative move among the numbers in it.  With
``--by-item`` it prints instead one line per report name and item, over
all seed directories and table rows: how many values moved and the largest
relative move.  The last line counts the reports compared and moved and
gives the largest relative move.  Exit status 1 when a verdict's pass/fail
differs, a verdict or a report exists on one side only, the verdicts both
sides share come in another order, or the two sides differ in shape (keys,
table sizes); else 0.  A name repeated in one report is matched by its
occurrence, as ``name#2`` and so on.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def relative(a: float, b: float) -> float:
    """|a − b|/max(|a|, |b|); 0 when equal."""
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _value_move(a, b) -> tuple[str, float | None] | None:
    """How a leaf value moved: None if equal, else (text, relative size or None)."""
    if a == b and type(a) is type(b):
        return None
    if _is_number(a) and _is_number(b):
        rel = relative(float(a), float(b))
        return f"{a!r} -> {b!r}  rel={rel:.2e}", rel
    if isinstance(a, str) and isinstance(b, str):
        xs, ys = NUMBER.findall(a), NUMBER.findall(b)
        if len(xs) == len(ys) and NUMBER.sub("#", a) == NUMBER.sub("#", b):
            rel = max(relative(float(x), float(y)) for x, y in zip(xs, ys))
            return f"{a!r} -> {b!r}  rel={rel:.2e}", rel
    return f"{a!r} -> {b!r}", None


def _by_name(verdicts: list[dict]) -> dict[str, dict]:
    """The verdicts in order, keyed by name; a repeated name is keyed ``name#2``, ``name#3``, ..."""
    seen: Counter[str] = Counter()
    keyed = {}
    for verdict in verdicts:
        seen[verdict["name"]] += 1
        count = seen[verdict["name"]]
        keyed[verdict["name"] if count == 1 else f"{verdict['name']}#{count}"] = verdict
    return keyed


def report_moves(a: dict, b: dict) -> tuple[list[tuple[str, str, float | None]], bool]:
    """(moves, serious): each move is (location, text, relative size or None)."""
    moves = []
    serious = False

    def leaf(where: str, x, y) -> None:
        nonlocal serious
        move = _value_move(x, y)
        if move is not None:
            moves.append((where, *move))
            serious = serious or move[1] is None and not isinstance(x, str)

    def shape(where: str, x, y) -> bool:
        nonlocal serious
        if x != y:
            moves.append((where, f"shape {x!r} -> {y!r}", None))
            serious = True
        return x == y

    for key in ("scenario", "seed", "config_sha256", "toolkit"):
        leaf(key, a.get(key), b.get(key))
    ca, cb = a.get("constants", {}), b.get("constants", {})
    if shape("constants", sorted(ca), sorted(cb)):
        for key in ca:
            leaf(f"constants.{key}", ca[key], cb[key])
    na, nb = a.get("notes", []), b.get("notes", [])
    if shape("notes", len(na), len(nb)):
        for i, (x, y) in enumerate(zip(na, nb)):
            leaf(f"notes[{i}]", x, y)
    va, vb = _by_name(a.get("verdicts", [])), _by_name(b.get("verdicts", []))
    for side, names, other in (("removed", va, vb), ("added", vb, va)):
        for name in [name for name in names if name not in other]:
            moves.append((f"verdict {name}", side, None))
            serious = True
    shape("verdict order", [name for name in va if name in vb], [name for name in vb if name in va])
    for name in [name for name in va if name in vb]:
        x, y = va[name], vb[name]
        if x["passed"] != y["passed"]:
            moves.append((f"verdict {name}", f"passed {x['passed']} -> {y['passed']}", None))
            serious = True
        leaf(f"verdict {name} detail", x["detail"], y["detail"])
    ta, tb = a.get("tables", {}), b.get("tables", {})
    if shape("tables", sorted(ta), sorted(tb)):
        for name in ta:
            x, y = ta[name], tb[name]
            if not shape(f"table {name}", (x["columns"], len(x["rows"])), (y["columns"], len(y["rows"]))):
                continue
            for i, (rx, ry) in enumerate(zip(x["rows"], y["rows"])):
                for column, cx, cy in zip(x["columns"], rx, ry):
                    leaf(f"table {name}[{i}].{column}", cx, cy)
    return moves, serious


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--by-item", action="store_true", help="one line per report name and item")
    parser.add_argument("a", type=Path, metavar="A")
    parser.add_argument("b", type=Path, metavar="B")
    args = parser.parse_args(argv)
    groups: dict[tuple[str, str], list[float | None]] = defaultdict(list)
    names_a = {p.relative_to(args.a) for p in args.a.rglob("*.json")}
    names_b = {p.relative_to(args.b) for p in args.b.rglob("*.json")}
    status = 0
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {args.a if name in names_a else args.b}")
        status = 1
    moved, largest = 0, 0.0
    for name in sorted(names_a & names_b):
        raw_a, raw_b = (args.a / name).read_bytes(), (args.b / name).read_bytes()
        if raw_a == raw_b:
            continue
        moved += 1
        moves, serious = report_moves(json.loads(raw_a), json.loads(raw_b))
        status = max(status, int(serious))
        for where, text, rel in moves:
            if args.by_item:
                report = re.sub(r"^seed-\d+/", "", name.as_posix())
                groups[report, re.sub(r"\[\d+\]", "[*]", where)].append(rel)
            else:
                print(f"{name}: {where}: {text}")
            largest = max(largest, rel or 0.0)
        if not moves:
            print(f"{name}: bytes differ, values equal")
    for (report, where), rels in sorted(groups.items()):
        sizes = [rel for rel in rels if rel is not None]
        top = f"largest rel={max(sizes):.2e}" if sizes else "not numeric"
        print(f"{report}: {where}: {len(rels)} moved, {top}")
    common = len(names_a & names_b)
    print(f"{common} reports compared, {moved} moved, largest relative move {largest:.2e}")
    return status


if __name__ == "__main__":
    sys.exit(main())
