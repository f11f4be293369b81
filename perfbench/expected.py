"""Expected verdicts, derived from the published claims and the acceptance
tests (tests/test_acceptance.py), never from the program's own output.

An operation fails when it raises, exits 64/65 (or any code other than
0/2/3), or returns a decisive verdict (pass/fail) opposite to the expected
one.  ``inconclusive`` is never a failure.  A report row (bound = +inf)
asserts nothing, so it carries no decisive verdict either.
"""

from __future__ import annotations

import csv
import io
import math

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class OutputError(ValueError):
    """The output cannot be checked: malformed, or an expected row is absent."""


# ----------------------------------------------------------------------
# certify: the delta-sign:certify claim set (acceptance 2 and the suite).
# (q, X0, expected outcome).  "fail@N=10" means: status fail with the
# witness in the interval N = 10 and a value in [5e-4, 1e-3].

CERTIFY_CLAIMS: tuple[tuple[int, float, str], ...] = (
    (1, 10.8, PASS),
    (1, 11.0, "fail@N=10"),
    (2, 41.0, PASS),
    (6, 41.0, PASS),
    (15, 41.0, PASS),
    (30, 41.0, PASS),
    (2310, 41.0, PASS),
)


def certificate_verdict(cert) -> str:
    """pass = certified, fail@N=<n> = failure witness in [5e-4, 1e-3] at
    interval n, fail = any other witness, inconclusive otherwise."""
    if cert.status == "certified_nonpositive":
        return PASS
    if cert.status == "fail":
        n, _, value = cert.failure
        return f"fail@N={n}" if 5e-4 <= value <= 1e-3 else FAIL
    return INCONCLUSIVE


# ----------------------------------------------------------------------
# scan: the acceptance predicates of checks 3, 6, 7 and 8.

GAMMA = 0.57721566490153286060651209008240243104


def _v(ok: bool) -> str:
    return PASS if ok else FAIL


def judge_easy(out) -> str:  # acceptance 3
    lo, _, margin, _ = out
    return _v(lo >= -1e-12 and margin >= 0.0)


def judge_mqeps(out) -> str:  # acceptance 6
    margin, _, floor_slack = out
    return _v(margin > 0.0 and floor_slack > 0.0)


def judge_margin(out) -> str:  # acceptance 6 (mcheckqeps, special), 7 (hanson)
    return _v(out[0] > 0.0)


def small_m_judge(n_max: int, q: int):
    """Acceptance 8: every envelope that applies on [1, n_max] holds; the
    q = 2 sqrt branch touches equality as X -> 3-, so it needs >= 0."""

    def judge(out: dict) -> str:
        strict = {"small-m-basemq": False}  # envelope -> margin must be > 0
        if q == 1 and n_max >= 617990:
            strict["small-m-update"] = True
        if q == 2:
            strict["small-m2-sqrt"] = False
            if n_max >= 5379:
                strict["small-m2-log"] = True
        missing = sorted(set(strict) - set(out))
        if missing:
            raise OutputError(f"missing envelopes {missing}")
        return _v(
            all(out[n][0] > 0.0 if s else out[n][0] >= 0.0 for n, s in strict.items())
        )

    return judge


def harmonic_judge(n_max: int):
    """Acceptance 7: every harmonic row passes and the small cases are listed."""

    def judge(rows) -> str:
        listed = {r.X for r in rows if r.param == ""}
        want = {x for x in (2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 11.0) if x <= n_max}
        if not want <= listed:
            raise OutputError(f"missing rows at X={sorted(want - listed)}")
        return _v(all(r.verdict == PASS for r in rows))

    return judge


def alpha_mass_judge(K: int):
    """Acceptance 7 / harmonic:defect: the negative alpha mass up to K is
    within 0.5/(K+1) of (1 - gamma)/2."""

    def judge(mass: float) -> str:
        return _v(abs(mass - (1.0 - GAMMA) / 2.0) <= 0.5 / (K + 1))

    return judge


# ----------------------------------------------------------------------
# cli: rows are matched by (theorem_id, X, q, param) and columns are read
# by header name, so an added column changes nothing here.  A rule applies
# when theorem_id matches and the first token of param is the name.
# Every other decisive row is expected to pass: suites and grids check
# published estimates inside their stated domains, and the raw
# two-integral identities are exact.

ROW_RULES: dict[tuple[str, str], str] = {
    # the printed bracket carries 1/t where the raw identity needs 1
    ("identity-printed", "euler_gamma"): FAIL,
    # the printed closed form deviates; the row is reported, bound = +inf
    ("identity-printed", "liouville"): FAIL,
    # the floor reading [y] of the square count [sqrt y] overshoots for
    # y >= 2, so the residual is at least log(X/2) > 0 for X >= e
    ("identity-alt", "liouville"): FAIL,
}


def param_name(param: str) -> str:
    return param.split(" ", 1)[0]


def expected_row(theorem_id: str, param: str) -> str:
    return ROW_RULES.get((theorem_id, param_name(param)), PASS)


def parse_csv(text: str) -> list[dict]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    for name in ("theorem_id", "X", "q", "param", "bound", "verdict"):
        if rows and name not in rows[0]:
            raise OutputError(f"CSV lacks column {name!r}")
    return rows


def row_key(row: dict) -> tuple[str, float, int, str]:
    return (row["theorem_id"], float(row["X"]), int(row["q"]), row["param"])


def judge_cli(code: int, stdout: str, required) -> tuple[list[str], int]:
    """Check one CLI call.  Returns (wrong rows, inconclusive row count).

    Raises OutputError when the output cannot be checked: unparseable CSV,
    an absent required row, or an exit code that disagrees with the rows.
    `required` lists (theorem_id, X, q, name) keys that must be present.
    """
    rows = parse_csv(stdout)
    if not rows:
        raise OutputError("no rows")
    present = {(t, x, q, param_name(p)) for t, x, q, p in map(row_key, rows)}
    absent = [k for k in required if k not in present]
    if absent:
        raise OutputError(f"absent rows {absent[:3]}")
    wrong = []
    verdicts = set()
    inconclusive = 0
    for row in rows:
        got = row["verdict"]
        verdicts.add(got)
        if got == INCONCLUSIVE:
            inconclusive += 1
            continue
        if float(row["bound"]) == math.inf:
            continue  # a report row asserts nothing
        want = expected_row(row["theorem_id"], row["param"])
        if got != want:
            t, x, q, p = row_key(row)
            wrong.append(f"{t} X={x!r} q={q} {param_name(p)}: expected {want}, got {got}")
    want_code = 2 if FAIL in verdicts else 3 if INCONCLUSIVE in verdicts else 0
    if code != want_code:
        raise OutputError(f"exit {code} but rows imply {want_code}")
    return wrong, inconclusive
