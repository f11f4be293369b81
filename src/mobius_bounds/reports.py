"""Report rows and serialization shared by all verification suites.

One row per checked instance.  Columns are fixed (documented in the README
and relied on by the CLI tests): theorem_id,X,q,param,lhs,bound,margin,
verdict.  Floats are written with repr (shortest round-trip form) so that
identical runs byte-reproduce their outputs; the numbers inside a param
label are written by label_num, short but never ambiguous.
"""
from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .util import cert_le

COLUMNS = ("theorem_id", "X", "q", "param", "lhs", "bound", "margin", "verdict")


@dataclass(frozen=True)
class BoundRow:
    """One verified instance of a named estimate."""

    theorem_id: str
    X: float
    q: int
    param: str
    lhs: float
    bound: float
    margin: float
    verdict: str


def bound_row(
    theorem_id: str,
    X: float,
    q: int,
    param: str,
    lhs: float,
    bound: float,
    lhs_err: float = 0.0,
    bound_err: float = 0.0,
    strict: bool = False,
) -> BoundRow:
    """Assemble a row, deriving margin and the three-way verdict."""
    from .util import Approx

    verdict = cert_le(Approx(lhs, lhs_err), Approx(bound, bound_err), strict=strict)
    return BoundRow(
        theorem_id=theorem_id,
        X=float(X),
        q=int(q),
        param=param,
        lhs=float(lhs),
        bound=float(bound),
        margin=float(bound) - float(lhs),
        verdict=verdict,
    )


def label_num(x: float, sign: str = "") -> str:
    """x for a param label: its short :g form when that reads back as x,
    else its repr, so rows at distinct values carry distinct labels.  sign
    "+" writes the sign of a positive x too."""
    text = format(x, sign + "g")
    return text if float(text) == x else format(x, sign)


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows: Sequence[BoundRow], header_lines: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in rows:
        writer.writerow([_cell(getattr(r, c)) for c in COLUMNS])
    return buf.getvalue()


def rows_to_jsonl(rows: Sequence[BoundRow]) -> str:
    import json

    out = []
    for r in rows:
        d = asdict(r)
        out.append(json.dumps(d, sort_keys=True))
    return "\n".join(out) + ("\n" if out else "")


def verdict_counts(rows: Iterable[BoundRow]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in rows:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    return counts

