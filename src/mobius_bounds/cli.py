"""Batch front-end: build sieves, run verification suites, emit reports.

Exit codes: 0 when every emitted verdict passes, 2 when any row fails,
3 when the only non-passing verdicts are inconclusive, 64 for usage or
configuration errors, 65 when a computation exceeds the sieve or piece
capacity (the message names the limit).

Outputs are deterministic for a fixed invocation: grids iterate in the
order given, suites have fixed internal order, and the only
non-reproducible byte is the timestamp header, which --no-timestamp
drops.  Real-valued flags parse once from their decimal strings and are
echoed back verbatim in the config header, so boundary cases like
--X0 10.85 stay auditable.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import bounds
from .util import FAIL, INCONCLUSIVE, CapacityError, NearZeroError
from .reports import BoundRow, bound_row, rows_to_csv, rows_to_jsonl, verdict_counts

_THEOREMS = tuple(bounds.THEOREMS)


# ----------------------------------------------------------------------
# Config.


@dataclass
class RunConfig:
    command: str
    limit: int | None = None
    x_values: list[float] = field(default_factory=list)
    q_values: list[int] = field(default_factory=list)
    s_values: list[complex] = field(default_factory=list)
    eps_values: list[float] = field(default_factory=list)
    k_values: list[int] = field(default_factory=list)
    sigma_values: list[float] = field(default_factory=list)
    sigma0_values: list[float] = field(default_factory=list)
    theorem: str | None = None
    suite: str | None = None
    list_suites: bool = False
    name: str | None = None
    kind: str = "m"
    x0: float | None = None
    budget: float = 1e-9
    eps_max: float = 1.0
    caps: bool = False
    out: str = "-"
    fmt: str = "csv"
    no_timestamp: bool = False
    argv: tuple[str, ...] = ()


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here is a 64-style usage code
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _reals(text: str) -> list[float]:
    """Comma list of decimals, each item either a scalar or lo..hi
    (inclusive integer range)."""
    out: list[float] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ".." in tok:
            lo_s, hi_s = tok.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {tok!r}")
            out.extend(float(v) for v in range(lo, hi + 1))
        else:
            out.append(float(tok))
    if not out:
        raise argparse.ArgumentTypeError("empty grid")
    return out


def _ints(text: str) -> list[int]:
    return [int(v) for v in _reals(text)]


def _complexes(text: str) -> list[complex]:
    out = [complex(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not out:
        raise argparse.ArgumentTypeError("empty grid")
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="mobius-bounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--limit", type=int, default=None, help="sieve size")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default="csv")
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("sum", help="evaluate restricted Mobius partial sums")
    common(p)
    p.add_argument("--kind", choices=("m", "mcheck"), default="m")
    p.add_argument("--X", dest="x_values", type=_reals, default=[10.0, 100.0])
    p.add_argument("--q", dest="q_values", type=_ints, default=[1])
    p.add_argument("--s", dest="s_values", type=_complexes, default=[complex(1.0)])

    p = sub.add_parser("identity", help="check convolution identities")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--X", dest="x_values", type=_reals, default=[2.5])
    p.add_argument("--s", dest="s_values", type=_complexes, default=None)

    p = sub.add_parser("verify", help="run bound verifications on a grid")
    common(p)
    p.add_argument("--theorem", choices=_THEOREMS, default=None)
    p.add_argument("--suite", default=None, help="canned suite, e.g. bounds:easy")
    p.add_argument("--list", dest="list_suites", action="store_true")
    p.add_argument("--X", dest="x_values", type=_reals, default=None)
    p.add_argument("--q", dest="q_values", type=_ints, default=[1])
    p.add_argument("--k", dest="k_values", type=_ints, default=[1])
    p.add_argument("--sigma", dest="sigma_values", type=_reals, default=[1.0])
    p.add_argument("--sigma0", dest="sigma0_values", type=_reals, default=[0.5])
    p.add_argument("--eps", dest="eps_values", type=_reals, default=[0.0, 0.5])
    p.add_argument("--s", dest="s_values", type=_complexes, default=[complex(1.5)])

    p = sub.add_parser("delta-sign", help="certify nonpositivity of the defect")
    common(p)
    p.add_argument("--q", dest="q_values", type=_ints, default=[1])
    p.add_argument("--X0", dest="x0", type=float, required=True)
    p.add_argument("--budget", type=float, default=1e-9)
    p.add_argument("--eps-max", dest="eps_max", type=float, default=1.0)
    p.add_argument("--caps", action="store_true", help="grid scan instead of certificates")

    p = sub.add_parser("harmonic", help="prime harmonic sum against log X")
    common(p)
    p.add_argument("--x-max", dest="x0", type=float, required=True)

    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command, argv=tuple(argv or sys.argv[1:]))
    for name, value in vars(args).items():
        if name != "command" and hasattr(cfg, name) and value is not None:
            setattr(cfg, name, value)
    return cfg


# ----------------------------------------------------------------------
# Row production.


def _require_limit(cfg: RunConfig, needed: float) -> int:
    limit = cfg.limit if cfg.limit is not None else max(math.ceil(needed), 1000)
    if limit < needed:
        raise ValueError(f"--limit {limit} is below the largest X requested ({needed:g})")
    return limit


def suite_registry() -> dict[str, object]:
    from . import bounds, delta_sign, harmonic

    reg: dict[str, object] = {}
    for mod_name, mod in (
        ("bounds", bounds),
        ("delta-sign", delta_sign),
        ("harmonic", harmonic),
    ):
        for key, fn in mod.SUITES.items():
            reg[f"{mod_name}:{key}"] = fn
    return reg


def _rows_sum(cfg: RunConfig, table) -> list[BoundRow]:
    from .arith import m_check_q_s, m_q_s

    fn = m_q_s if cfg.kind == "m" else m_check_q_s
    rows = []
    for X in cfg.x_values:
        for q in cfg.q_values:
            for s in cfg.s_values:
                val = fn(table, X, q, s)
                lhs = val.real if s.imag == 0.0 else abs(val)
                tag = "" if s.imag == 0.0 else " abs"
                rows.append(
                    bound_row(
                        f"sum-{cfg.kind}",
                        X,
                        q,
                        f"s={s}{tag}",
                        lhs=lhs,
                        bound=float("inf"),
                    )
                )
    return rows


def _rows_identity(cfg: RunConfig, table) -> list[BoundRow]:
    from .identities import CATALOG_NAMES, IdentitySpec, catalog_check

    if cfg.name not in CATALOG_NAMES:
        raise ValueError(f"--name must be one of {', '.join(sorted(CATALOG_NAMES))}")
    rows = []
    for X in cfg.x_values:
        h_spec = None
        if cfg.name == "daval_general" and cfg.s_values:
            h_spec = IdentitySpec(
                f_id="mobius", g_id="one", h_id="power", H_id="power", s=cfg.s_values[0]
            )
        rep = catalog_check(table, cfg.name, X, h_spec=h_spec)
        rows.append(
            bound_row(
                "identity-ofd",
                X,
                1,
                cfg.name,
                lhs=abs(rep.ofd_residual),
                bound=1e-9,
                lhs_err=rep.ofd_err,
            )
        )
        # the printed liouville form does not hold; its residual is
        # reported without being asserted against a tolerance
        printed_only = cfg.name == "liouville"
        rows.append(
            bound_row(
                "identity-printed",
                X,
                1,
                f"{cfg.name} reported only" if printed_only else cfg.name,
                lhs=abs(rep.residual),
                bound=float("inf") if printed_only else 1e-9,
            )
        )
        if rep.alt_residual is not None:
            rows.append(
                bound_row(
                    "identity-alt",
                    X,
                    1,
                    f"{cfg.name} {rep.note}".strip(),
                    lhs=abs(rep.alt_residual),
                    bound=1e-9,
                )
            )
    return rows


def _rows_verify(cfg: RunConfig, table) -> list[BoundRow]:
    if not cfg.x_values:
        raise ValueError("--theorem verification needs a non-empty --X grid")
    if cfg.theorem not in bounds.THEOREMS:
        raise ValueError("verify needs --theorem, --suite, or --list")
    axes = bounds.THEOREMS[cfg.theorem][1]
    grids = [getattr(cfg, f"{axis.lower()}_values") for axis in axes]
    return bounds.grid_rows(table, cfg.theorem, grids)


def _rows_caps(cfg: RunConfig, table) -> list[BoundRow]:
    from . import delta_sign

    rows = []
    for q in cfg.q_values:
        scan = delta_sign.caps_scan(table, q, cfg.x0, eps_max=cfg.eps_max)
        # ad-hoc scans report the grid maximum; the certified caps with
        # their published thresholds live in the delta-sign:caps suite
        detail = f" rigorous_cap={scan.rigorous_cap!r}"
        rows.append(delta_sign.caps_row(scan, float("inf"), detail))
    return rows


def _run_delta_certs(cfg: RunConfig, table) -> int:
    """Certificate mode: the output artifact is the JSON itself."""
    from . import delta_sign

    docs = []
    statuses = []
    for q in cfg.q_values:
        cert = delta_sign.certify_sign(
            table, q, cfg.x0, error_budget=cfg.budget, eps_max=cfg.eps_max
        )
        docs.append(delta_sign.certificate_to_json(cert))
        statuses.append(cert.status)
        print(f"q={q} X0={cfg.x0:g}: {cert.status}", file=sys.stderr)
    text = "\n".join(docs) + "\n"
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text)
    if delta_sign.FAILED in statuses:
        return 2
    if delta_sign.UNDECIDED in statuses:
        return 3
    return 0


# ----------------------------------------------------------------------
# Driver.


def _emit(cfg: RunConfig, rows: list[BoundRow]) -> None:
    header = []
    if not cfg.no_timestamp:
        header.append(datetime.now(timezone.utc).isoformat())
    header.append("mobius-bounds " + " ".join(cfg.argv))
    if cfg.fmt == "csv":
        text = rows_to_csv(rows, header_lines=header)
    else:
        text = rows_to_jsonl(rows)
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text)


def run(cfg: RunConfig) -> int:
    if cfg.command == "verify" and cfg.list_suites:
        for name in sorted(suite_registry()):
            print(name)
        return 0

    from .arith import build_table

    if cfg.command == "sum":
        table = build_table(_require_limit(cfg, max(cfg.x_values)))
        rows = _rows_sum(cfg, table)
    elif cfg.command == "identity":
        table = build_table(_require_limit(cfg, max(max(cfg.x_values), 100)))
        rows = _rows_identity(cfg, table)
    elif cfg.command == "verify":
        if cfg.suite:
            registry = suite_registry()
            if cfg.suite not in registry:
                raise ValueError(
                    f"unknown suite {cfg.suite!r}; try `verify --list`"
                )
            table = build_table(cfg.limit if cfg.limit else 100_000)
            rows = registry[cfg.suite](table)
        else:
            table = build_table(_require_limit(cfg, max(cfg.x_values or [1000.0])))
            rows = _rows_verify(cfg, table)
    elif cfg.command == "delta-sign":
        table = build_table(_require_limit(cfg, max(cfg.x0, 47.0)))
        if not cfg.caps:
            return _run_delta_certs(cfg, table)
        rows = _rows_caps(cfg, table)
    elif cfg.command == "harmonic":
        from .harmonic import verify_harmonic

        table = build_table(_require_limit(cfg, cfg.x0))
        rows = verify_harmonic(table, cfg.x0)
    else:
        raise ValueError(f"unknown command {cfg.command!r}")

    _emit(cfg, rows)
    counts = verdict_counts(rows)
    bad = counts.get(FAIL, 0)
    undecided = counts.get(INCONCLUSIVE, 0)
    total = len(rows)
    print(
        f"{total} rows: {total - bad - undecided} pass, {bad} fail, "
        f"{undecided} inconclusive",
        file=sys.stderr,
    )
    if bad:
        return 2
    if undecided:
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(cfg)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 65
    except (ValueError, NearZeroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
