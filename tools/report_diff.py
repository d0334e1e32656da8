"""List every report value that moved between two directories of reports.

    python3 tools/report_diff.py [--by-item] A B

A and B hold JSON reports and CSV files at the same relative paths, as
``tools/report_digests.py --keep`` writes them from two checkouts.  For each
pair of files that differ it prints one line per moved item: a constant or
a table matched by name, a column matched by name within its table, a note
matched by its text, or a verdict matched by name (its pass/fail or its
detail text).  A CSV file is compared as one table named ``csv``: columns
matched by header name, each cell read back as the report wrote it
(``true``/``false`` as a pass/fail, a finite number as a number, anything
else as text).  An item on one side only is listed as added or removed, and
every item both sides share is still compared: a constant's value, each
cell of a shared column.  A number that moved carries its relative size
|a − b|/max(|a|, |b|); a detail text carries the largest relative move among
the numbers in it.  With ``--by-item`` it prints instead one line per file
name and item, over all seed directories and table rows: how many values
moved and the largest relative move.  The last line counts the files
compared and moved and gives the largest relative move.  Exit status 1 when
a verdict's pass/fail differs, a file, constant, note, verdict, table or
column exists on one side only, the notes, verdicts or columns both sides
share come in another order, or a shared table has another number of rows;
else 0.  A name or note repeated in one report is matched by its
occurrence, as ``name#2`` and so on.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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


def _keyed(names) -> dict[str, int]:
    """Each name's position, in order; a repeated name is keyed ``name#2``, ``name#3``, ..."""
    seen: Counter[str] = Counter()
    keyed = {}
    for i, name in enumerate(names):
        seen[name] += 1
        keyed[name if seen[name] == 1 else f"{name}#{seen[name]}"] = i
    return keyed


def _by_name(verdicts: list[dict]) -> dict[str, dict]:
    """The verdicts in order, keyed by name as ``_keyed`` keys them."""
    return {key: verdicts[i] for key, i in _keyed(v["name"] for v in verdicts).items()}


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

    def shared(where: str, x: dict, y: dict, order: bool = True) -> list[str]:
        """List the keys on one side only; return the shared keys in ``x``'s order."""
        nonlocal serious
        for side, keys, other in (("removed", x, y), ("added", y, x)):
            for key in [key for key in keys if key not in other]:
                moves.append((f"{where}{key}", side, None))
                serious = True
        keys = [key for key in x if key in y]
        if order:
            shape(f"{where.strip()} order", keys, [key for key in y if key in x])
        return keys

    for key in ("scenario", "seed", "config_sha256", "toolkit"):
        leaf(key, a.get(key), b.get(key))
    ca, cb = a.get("constants", {}), b.get("constants", {})
    for key in shared("constants.", ca, cb, order=False):
        leaf(f"constants.{key}", ca[key], cb[key])
    shared("note ", _keyed(a.get("notes", [])), _keyed(b.get("notes", [])))
    va, vb = _by_name(a.get("verdicts", [])), _by_name(b.get("verdicts", []))
    for name in shared("verdict ", va, vb):
        x, y = va[name], vb[name]
        if x["passed"] != y["passed"]:
            moves.append((f"verdict {name}", f"passed {x['passed']} -> {y['passed']}", None))
            serious = True
        leaf(f"verdict {name} detail", x["detail"], y["detail"])
    ta, tb = a.get("tables", {}), b.get("tables", {})
    for name in shared("table ", ta, tb, order=False):
        x, y = ta[name], tb[name]
        ka, kb = _keyed(x["columns"]), _keyed(y["columns"])
        columns = shared(f"table {name} column ", ka, kb)
        if not shape(f"table {name} rows", len(x["rows"]), len(y["rows"])):
            continue
        for i, (rx, ry) in enumerate(zip(x["rows"], y["rows"])):
            for column in columns:
                leaf(f"table {name}[{i}].{column}", rx[ka[column]], ry[kb[column]])
    return moves, serious


def _csv_value(text: str):
    """A CSV cell as the report wrote it: a bool, a finite float, or the text."""
    if text in ("true", "false"):
        return text == "true"
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def csv_report(raw: bytes) -> dict:
    """A CSV file as a report holding one table, ``csv``: its header and rows."""
    header, *rows = list(csv.reader(io.StringIO(raw.decode("utf-8")))) or [[]]
    return {"tables": {"csv": {"columns": header, "rows": [[_csv_value(c) for c in row] for row in rows]}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--by-item", action="store_true", help="one line per report name and item")
    parser.add_argument("a", type=Path, metavar="A")
    parser.add_argument("b", type=Path, metavar="B")
    args = parser.parse_args(argv)
    groups: dict[tuple[str, str], list[float | None]] = defaultdict(list)
    names_a = {p.relative_to(args.a) for suffix in ("json", "csv") for p in args.a.rglob(f"*.{suffix}")}
    names_b = {p.relative_to(args.b) for suffix in ("json", "csv") for p in args.b.rglob(f"*.{suffix}")}
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
        read = csv_report if name.suffix == ".csv" else json.loads
        moves, serious = report_moves(read(raw_a), read(raw_b))
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
