"""Batch front-end: build sieves, run verification suites, emit reports.

Exit codes: 0 when every emitted verdict passes, 2 when any row fails,
3 when the only non-passing verdicts are inconclusive, 64 for usage or
configuration errors, 65 when a computation exceeds the sieve or piece
capacity (the message names the limit).

The parsed namespace is the whole configuration: each subcommand binds one
handler that sizes its own sieve and returns its rows (delta-sign, which
writes certificates, returns its exit code).  `identity` emits the rows
that each report's CatalogReport.checks() decides, and names no identity
of its own.  `verify` takes exactly one of
--theorem, --suite and --list.  Grids and real flags take finite numbers
only, and --q/--k take integers only; anything else is a usage error before
any sieve is built.

Outputs are deterministic for a fixed invocation: grids iterate in the
order given, suites have fixed internal order, and the only
non-reproducible byte is the timestamp header, which --no-timestamp
drops.  Real-valued flags parse once from their decimal strings and are
echoed back verbatim in the config header, so boundary cases like
--X0 10.85 stay auditable.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .util import FAIL, INCONCLUSIVE, CapacityError, NearZeroError
from .reports import BoundRow, bound_row, rows_to_csv, rows_to_jsonl, verdict_counts

# suite prefix -> the module whose SUITES it addresses
_SUITE_MODULES = {"bounds": "bounds", "delta-sign": "delta_sign", "harmonic": "harmonic"}


def _module(name: str):
    """A submodule, imported on first use: each command loads only what it runs."""
    return importlib.import_module(f"{__package__}.{name}")


# ----------------------------------------------------------------------
# Parser.


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is a 64-style usage code
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


class _Choices:
    """The names in `module.attr`, imported when argparse first tests a value
    with `in` or lists them in help or in an invalid-choice message."""

    def __init__(self, module: str, attr: str) -> None:
        self.module, self.attr = module, attr

    def _names(self):
        return getattr(_module(self.module), self.attr)

    def __contains__(self, value: object) -> bool:
        return value in self._names()

    def __iter__(self):
        return iter(self._names())


def _number(text: str, parse, takes: str, ok=lambda value: True):
    """parse(text), which must pass ok; otherwise a usage error that says what
    the flag takes (argparse would name this type function instead)."""
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise argparse.ArgumentTypeError(f"must be {takes}, got {text!r}")
    return value


def _limit(text: str) -> int:
    return _number(text, int, "a positive integer", lambda value: value >= 1)


def _real(text: str) -> float:
    return _number(text, float, "a finite number", math.isfinite)


def _integral(text: str) -> float:
    return _number(text, float, "an integer", float.is_integer)


def _reals(text: str, item=_real) -> list[float]:
    """Comma list of decimals, each item either a scalar that item() accepts
    (a finite one by default) or lo..hi (inclusive integer range)."""
    out: list[float] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ".." in tok:
            lo, hi = _number(
                tok, lambda t: [int(v) for v in t.split("..", 1)], "an integer range lo..hi"
            )
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {tok!r}")
            out.extend(float(v) for v in range(lo, hi + 1))
        else:
            out.append(item(tok))
    if not out:
        raise argparse.ArgumentTypeError("empty grid")
    return out


def _ints(text: str) -> list[int]:
    return [int(v) for v in _reals(text, _integral)]


def _complexes(text: str) -> list[complex]:
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    out = [_number(tok, complex, "a complex number") for tok in toks]
    if not out:
        raise argparse.ArgumentTypeError("empty grid")
    return out


# verify's grid flags with their defaults, which apply to --theorem only:
# a suite runs on its own fixed grids.  Each default lies inside every
# theorem's domain (mcheckqeps takes eps <= 1/10).
_VERIFY_GRIDS = (
    ("--X", _reals, None),
    ("--q", _ints, [1]),
    ("--k", _ints, [1]),
    ("--sigma", _reals, [1.0]),
    ("--sigma0", _reals, [0.5]),
    ("--eps", _reals, [0.0, 0.05]),
    ("--s", _complexes, [complex(1.5)]),
)


def _grid_dest(flag: str) -> str:
    return f"{flag[2:].lower()}_values"


def build_parser() -> _Parser:
    parser = _Parser(prog="mobius-bounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--limit", type=_limit, help="sieve size")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--no-timestamp", action="store_true")
        return p

    p = command("sum", _sum, "evaluate restricted Mobius partial sums")
    p.add_argument("--kind", choices=("m", "mcheck"), default="m")
    p.add_argument("--X", dest="x_values", type=_reals, default=[10.0, 100.0])
    p.add_argument("--q", dest="q_values", type=_ints, default=[1])
    p.add_argument("--s", dest="s_values", type=_complexes, default=[complex(1.0)])

    p = command("identity", _identity, "check convolution identities")
    p.add_argument(
        "--name",
        required=True,
        choices=_Choices("identities", "CATALOG_NAMES"),
        metavar="NAME",
        help="one of %(choices)s",
    )
    p.add_argument("--X", dest="x_values", type=_reals, default=[2.5])
    p.add_argument("--s", dest="s_values", type=_complexes)

    p = command("verify", _verify, "run bound verifications on a grid")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--theorem",
        choices=_Choices("bounds", "THEOREMS"),
        metavar="THEOREM",
        help="one of %(choices)s",
    )
    mode.add_argument("--suite", help="canned suite, e.g. bounds:easy")
    mode.add_argument("--list", dest="list_suites", action="store_true")
    for flag, kind, _ in _VERIFY_GRIDS:
        p.add_argument(flag, dest=_grid_dest(flag), type=kind)

    p = command("delta-sign", _delta_sign, "certify nonpositivity of the defect")
    p.add_argument("--q", dest="q_values", type=_ints, default=[1])
    p.add_argument("--X0", dest="x0", type=_real, required=True)
    p.add_argument("--budget", type=_real, default=1e-9)
    p.add_argument("--eps-max", dest="eps_max", type=_real, default=1.0)
    p.add_argument("--cap", type=_real, default=0.0, help="the claimed cap; 0 is the sign claim")

    p = command("harmonic", _harmonic, "prime harmonic sum against log X")
    p.add_argument("--x-max", type=_real, required=True)

    return parser


# ----------------------------------------------------------------------
# Handlers: one per subcommand, each returning its rows or an exit code.


def _table(args: argparse.Namespace, needed: float, default: int = 1000):
    """The sieve for one call: --limit when given, else the larger of
    `default` and the largest X requested."""
    from .arith import build_table

    limit = args.limit if args.limit is not None else max(math.ceil(needed), default)
    if limit < needed:
        raise ValueError(f"--limit {limit} is below the largest X requested ({needed:g})")
    return build_table(limit)


def suite_registry() -> dict[str, object]:
    return {
        f"{prefix}:{key}": fn
        for prefix, name in _SUITE_MODULES.items()
        for key, fn in _module(name).SUITES.items()
    }


def _sum(args: argparse.Namespace) -> list[BoundRow]:
    from .arith import m_check_q_s, m_q_s

    table = _table(args, max(args.x_values))
    fn = m_q_s if args.kind == "m" else m_check_q_s
    rows = []
    for X in args.x_values:
        for q in args.q_values:
            for s in args.s_values:
                val = fn(table, X, q, s)
                lhs = val.real if s.imag == 0.0 else abs(val)
                tag = "" if s.imag == 0.0 else " abs"
                rows.append(
                    bound_row(
                        f"sum-{args.kind}",
                        X,
                        q,
                        f"s={s}{tag}",
                        lhs=lhs,
                        bound=float("inf"),
                    )
                )
    return rows


def _identity(args: argparse.Namespace) -> list[BoundRow]:
    from .identities import EXPONENT_NAME, catalog_check

    # catalog_check refuses it too, but only after the sieve is built
    if args.s_values is not None and args.name != EXPONENT_NAME:
        raise ValueError(f"--s applies to --name {EXPONENT_NAME} only, not {args.name!r}")
    table = _table(args, max(max(args.x_values), 100))
    return [
        bound_row(tid, X, 1, param, lhs=residual, bound=tol, lhs_err=radius)
        for X in args.x_values
        for s in args.s_values or [None]
        for tid, param, residual, tol, radius in catalog_check(table, args.name, X, s).checks()
    ]


def _verify(args: argparse.Namespace) -> list[BoundRow] | int:
    given = {flag: getattr(args, _grid_dest(flag)) for flag, _, _ in _VERIFY_GRIDS}
    if args.theorem is None:
        for flag, value in given.items():
            if value is not None:
                raise ValueError(f"{flag} applies to --theorem only, not to --suite or --list")
    if args.list_suites:
        for name in sorted(suite_registry()):
            print(name)
        return 0
    if args.suite is not None:
        # only the module that the suite's prefix names is imported
        prefix, _, key = args.suite.partition(":")
        suites = _module(_SUITE_MODULES[prefix]).SUITES if prefix in _SUITE_MODULES else {}
        if key not in suites:
            raise ValueError(f"unknown suite {args.suite!r}; try `verify --list`")
        return suites[key](_table(args, 0, 100_000))
    grid = {
        flag[2:].lower(): default if given[flag] is None else given[flag]
        for flag, _, default in _VERIFY_GRIDS
    }
    if not grid["x"]:
        raise ValueError("--theorem verification needs a non-empty --X grid")
    from . import bounds

    table = _table(args, max(grid["x"]))
    axes = bounds.THEOREMS[args.theorem][1]
    return bounds.grid_rows(table, args.theorem, [grid[axis.lower()] for axis in axes])


def _delta_sign(args: argparse.Namespace) -> int:
    """The output artifact is the certificates themselves, one JSON line per
    modulus; the return value is the exit code."""
    from . import delta_sign

    table = _table(args, max(args.x0, 47.0))
    docs = []
    statuses = []
    for q in args.q_values:
        cert = delta_sign.certify_sign(
            table, q, args.x0, error_budget=args.budget, eps_max=args.eps_max, cap=args.cap
        )
        docs.append(delta_sign.certificate_to_json(cert))
        statuses.append(cert.status)
        print(f"q={q} X0={args.x0:g}: {cert.status}", file=sys.stderr)
    _write(args.out, "\n".join(docs) + "\n")
    return _exit_code(delta_sign.FAILED in statuses, delta_sign.UNDECIDED in statuses)


def _harmonic(args: argparse.Namespace) -> list[BoundRow]:
    from .harmonic import verify_harmonic

    return verify_harmonic(_table(args, args.x_max), args.x_max)


# ----------------------------------------------------------------------
# Driver.


def _write(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _exit_code(failed: bool, undecided: bool) -> int:
    return 2 if failed else 3 if undecided else 0


def _emit(args: argparse.Namespace, rows: list[BoundRow]) -> None:
    header = []
    if not args.no_timestamp:
        header.append(datetime.now(timezone.utc).isoformat())
    header.append("mobius-bounds " + " ".join(args.argv))
    if args.fmt == "csv":
        text = rows_to_csv(rows, header_lines=header)
    else:
        text = rows_to_jsonl(rows)
    _write(args.out, text)


def run(args: argparse.Namespace) -> int:
    rows = args.handler(args)
    if isinstance(rows, int):
        return rows
    _emit(args, rows)
    counts = verdict_counts(rows)
    bad = counts.get(FAIL, 0)
    undecided = counts.get(INCONCLUSIVE, 0)
    total = len(rows)
    print(
        f"{total} rows: {total - bad - undecided} pass, {bad} fail, "
        f"{undecided} inconclusive",
        file=sys.stderr,
    )
    return _exit_code(bad > 0, undecided > 0)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = tuple(argv or sys.argv[1:])
    try:
        return run(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 65
    except (ValueError, NearZeroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
