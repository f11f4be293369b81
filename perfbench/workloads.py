"""The three workloads: certify, scan and cli.

Each workload imports the package and builds its fixtures (the set-up that
``setup_s`` times), then hands out passes: lists of operations in an order
drawn from the seed.  An operation calls the program through module
attributes looked up at call time, so a tracer that rebinds those
attributes sees every call.  The seed chooses only the order of operations
and members of input families whose expected verdict is known; the program
sees nothing but the generated inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable

import expected as ex
from tracer import SPANS_TAG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one BLAS thread: at most two busy processes (generator plus one CLI child)
# on a two-core host
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_TIMEOUT_S = 120.0


@dataclass
class Op:
    key: str
    call: Callable[[], Any]  # runs the program; its duration is the latency
    judge: Callable[[Any], str]  # verdict read from the output
    expect: str = ex.PASS
    kind: str = "op"


PRIMES_30030 = (2, 3, 5, 7, 11, 13)


def squarefree_divisors() -> list[int]:
    """The 64 squarefree divisors of 30030, sorted."""
    out = [1]
    for p in PRIMES_30030:
        out.extend([d * p for d in out])
    return sorted(out)


def _omega(q: int) -> int:
    return sum(1 for p in PRIMES_30030 if q % p == 0)


class Workload:
    name = ""
    # seconds one pass takes at the reference speed; a run of S seconds
    # makes round(S / pass_s) passes, at least one, so that every run of a
    # workload attempts the same operations
    pass_s = 20.0
    # how the workload's times follow the probe's slowdown s: they grow as
    # s ** elasticity, so they are divided by that (see probe.py).  1 for
    # interpreter-bound work, which slows exactly as the probe's kernel does
    elasticity = 1.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.rng = Random(seed)
        self.counts: Counter = Counter()  # counters the bench itself observes
        self.tracer = None  # set while a traced phase runs

    def load(self) -> None:
        """Import the package modules the workload calls."""

    def build(self) -> None:
        """Build fixtures (tables, warmed caches)."""

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# certify: produce, serialize, parse back and replay delta-sign certificates.


class Certify(Workload):
    """The delta-sign:certify claim set: each claim is certified, written
    to JSON, parsed back and replayed.  Certify and replay exercise the
    analytic layer two ways (produce vs audit)."""

    name = "certify"
    pass_s = 15.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        # tiny claims lie inside the published certified ranges
        claims = [(1, 4.0, ex.PASS), (2, 5.0, ex.PASS)] if tiny else list(ex.CERTIFY_CLAIMS)
        self.claims = claims
        # a certificate lives from its certify op to its replay op only, so
        # neither memory nor garbage-collection work depends on the order
        self.certs: dict[tuple[int, float], Any] = {}

    def load(self) -> None:
        from mobius_bounds import arith, delta_sign

        self.arith, self.ds = arith, delta_sign

    def build(self) -> None:
        self.table = self.arith.build_table(1_000 if self.tiny else 100_000)
        self.ds.derivative_bound(1, 1)  # fills the slope-envelope cache

    def pass_ops(self) -> list[Op]:
        claims = list(self.claims)
        if self.seed:
            self.rng.shuffle(claims)  # seed 0 keeps the published order
        ops = []
        for q, x0, want in claims:
            ops.append(
                Op(f"certify q={q} X0={x0!r}", self._certify(q, x0),
                   ex.certificate_verdict, want, "certify")
            )
            ops.append(
                Op(f"replay q={q} X0={x0!r}", self._audit(q, x0),
                   self._judge_audit, ex.PASS, "replay")
            )
        return ops

    def _certify(self, q: int, x0: float):
        def call():
            cert = self.ds.certify_sign(self.table, q, x0)
            self.certs[(q, x0)] = cert
            return cert

        return call

    def _audit(self, q: int, x0: float):
        def call():
            cert = self.certs.pop((q, x0))
            text = self.ds.certificate_to_json(cert)
            back = self.ds.certificate_from_json(text)
            return cert, back, self.ds.replay_certificate(self.table, back)

        return call

    @staticmethod
    def _judge_audit(out) -> str:
        cert, back, problems = out
        if back != cert:
            raise ex.OutputError("JSON round trip is not exact")
        return ex.PASS if not problems else ex.FAIL


# ----------------------------------------------------------------------
# scan: the full-range sweeps of acceptance 3, 6, 7 and 8.


class Scan(Workload):
    """Full-range sweeps over prefix arrays.  The sieve (write) is set-up;
    the prefix sweeps (read) are the pass."""

    name = "scan"
    pass_s = 4.5
    # numpy sweeps over arrays of up to 80 MB are partly memory-bound: when
    # the probe's kernel slows 1.9x they slow about 1.4x.  A least-squares
    # fit of log time on log s gave 0.49 in one process over a minute, and
    # 0.49 and 0.56 across two sets of scan runs
    elasticity = 0.5
    # moduli of acceptance 6, in strata of similar cost (one pick per stratum)
    EPS_STRATA = ((1, 2, 3), (6, 30), (210, 2310), (30030,))
    # omega(q) of the moduli drawn from the squarefree divisors of 30030
    EASY_OMEGAS = (0, 1, 2, 3, 3, 4, 5, 6)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.n5, self.n6, self.n7 = (1_000, 10_000, 100_000) if tiny else (10**5, 10**6, 10**7)
        self.alpha_k = 10**4 if tiny else 10**6
        by_omega: dict[int, list[int]] = {}
        for q in squarefree_divisors():
            by_omega.setdefault(_omega(q), []).append(q)
        omegas = (0, 6) if tiny else self.EASY_OMEGAS
        picks: list[int] = []
        for w in omegas:
            picks.append(self.rng.choice([q for q in by_omega[w] if q not in picks]))
        self.easy_q = picks
        strata = self.EPS_STRATA[-1:] if tiny else self.EPS_STRATA
        self.eps_q = [self.rng.choice(s) for s in strata]

    def load(self) -> None:
        from mobius_bounds import arith, bounds, harmonic

        self.arith, self.bounds, self.harmonic = arith, bounds, harmonic

    def build(self) -> None:
        self.t5 = self.arith.build_table(self.n5)
        self.t6 = self.arith.build_table(self.n6)
        self.t7 = self.arith.build_table(self.n7)
        self.t7.psi_prefix  # noqa: B018 -- fills the table's lazy psi cache

    def pass_ops(self) -> list[Op]:
        b, h = self.bounds, self.harmonic
        t5, t6, t7, n5, n6, n7 = self.t5, self.t6, self.t7, self.n5, self.n6, self.n7
        ops = []
        for q in self.easy_q:
            for k in (1, 2, 3):
                for sg in (1.0, 1.2, 1.5, 2.0):
                    ops.append(Op(f"easy_scan q={q} k={k} sigma={sg}",
                                  lambda q=q, k=k, sg=sg: b.easy_scan(t5, n5, q, k, sg),
                                  ex.judge_easy))
            ops.append(Op(f"small_m_scan n={n5} q={q}",
                          lambda q=q: b.small_m_scan(t5, n5, q),
                          ex.small_m_judge(n5, q)))
        for q in self.eps_q:
            for eps in (0.0, 0.01, 0.1, 0.5, 1.0):
                ops.append(Op(f"mqeps_scan q={q} eps={eps}",
                              lambda q=q, eps=eps: b.mqeps_scan(t6, n6, q, eps),
                              ex.judge_mqeps))
            for eps in (0.0, 0.02, 0.05, 0.1):
                ops.append(Op(f"mcheckqeps_scan q={q} eps={eps}",
                              lambda q=q, eps=eps: b.mcheckqeps_scan(t6, n6, q, eps),
                              ex.judge_margin))
        for sg in (1.0, 1.01, 1.04):
            ops.append(Op(f"special_scan sigma={sg}",
                          lambda sg=sg: b.special_scan(t6, n6, sg), ex.judge_margin))
        for q in (1, 2):
            ops.append(Op(f"small_m_scan n={n7} q={q}",
                          lambda q=q: b.small_m_scan(t7, n7, q), ex.small_m_judge(n7, q)))
        ops.append(Op(f"hanson_scan n={n7}", lambda: h.hanson_scan(t7, n7), ex.judge_margin))
        ops.append(Op(f"verify_harmonic n={n7}",
                      lambda: h.verify_harmonic(t7, float(n7)), ex.harmonic_judge(n7)))
        ops.append(Op(f"neg_alpha_integral K={self.alpha_k}",
                      lambda: h.neg_alpha_integral(self.alpha_k),
                      ex.alpha_mass_judge(self.alpha_k)))
        self.rng.shuffle(ops)
        return ops


# ----------------------------------------------------------------------
# cli: fresh interpreter per call, one call at a time.


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Cli(Workload):
    """Every verify --suite except delta-sign:certify (the certify workload
    covers it), all six identity names, one --theorem grid, one sum, one
    harmonic sweep and one identity call at X = 1e5."""

    name = "cli"
    SUITES = (
        "bounds:dex", "bounds:easy", "bounds:integral", "bounds:mcheckqeps",
        "bounds:mqeps", "bounds:small-m", "bounds:special", "delta-sign:caps",
        "harmonic:defect", "harmonic:harmonic",
    )
    IDENTITIES = ("meissel", "elmarraki", "macleod", "euler_gamma", "liouville", "daval_general")
    # X >= e keeps every expected deviation of ROW_RULES proven (see expected.py)
    IDENTITY_X = ("2.718281828459045", "10", "100", "1000")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.env = child_env()
        self.commands = self._commands()

    def load(self) -> None:
        import mobius_bounds  # noqa: F401
        import mobius_bounds.cli  # noqa: F401

    def _commands(self) -> list[tuple[list[str], list]]:
        """(argv, required row keys) for every call of one pass."""
        rng = self.rng
        cmds: list[tuple[list[str], list]] = []
        suites = ("bounds:integral",) if self.tiny else self.SUITES
        for s in suites:
            cmds.append((["verify", "--suite", s], []))
        names = ("meissel", "euler_gamma", "liouville") if self.tiny else self.IDENTITIES
        for name in names:
            xs = sorted(rng.sample(self.IDENTITY_X, 2), key=float)
            req = []
            for x in xs:
                req += [("identity-ofd", float(x), 1, name), ("identity-printed", float(x), 1, name)]
                if name in ("euler_gamma", "liouville"):
                    req.append(("identity-alt", float(x), 1, name))
            cmds.append((["identity", "--name", name, "--X", ",".join(xs)], req))
        top = 1_000 if self.tiny else 100_000
        divisors = squarefree_divisors()
        # easy estimate: X >= 1, k >= 1, sigma >= 1 (acceptance 3 grid values)
        xs = sorted(rng.sample(range(2, top), 3)) + [top]
        qs = sorted(rng.sample(divisors, 2))
        cmds.append(([
            "verify", "--theorem", "easy", "--X", ",".join(map(str, xs)),
            "--q", ",".join(map(str, qs)), "--k", "1,2,3", "--sigma", "1,1.5",
        ], [("easy", float(x), q, "k=1,sigma=1") for x in xs for q in qs]))
        xs = sorted(rng.sample(range(1, top), 2)) + [top]
        qs = sorted(rng.sample(divisors, 2))
        cmds.append(([
            "sum", "--kind", rng.choice(("m", "mcheck")), "--X", ",".join(map(str, xs)),
            "--q", ",".join(map(str, qs)), "--s", "1,1.5,2+1j",
        ], []))
        x_max = 10_000 if self.tiny else 1_000_000
        cmds.append((["harmonic", "--x-max", str(x_max)],
                     [("harmonic", x, 1, "") for x in (2.0, 3.0, 5.0, 11.0)]))
        # the X = 1e5 raw-identity row: a known tolerance defect stays in
        big = "1000" if self.tiny else "100000"
        cmds.append((["identity", "--name", "euler_gamma", "--X", big],
                     [("identity-ofd", float(big), 1, "euler_gamma")]))
        return [(argv + ["--no-timestamp"], req) for argv, req in cmds]

    def pass_ops(self) -> list[Op]:
        ops = [
            Op("mobius-bounds " + " ".join(argv), self._call(argv), self._judge(req))
            for argv, req in self.commands
        ]
        self.rng.shuffle(ops)
        return ops

    def _call(self, argv: list[str]):
        def call():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "mobius_bounds.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "child.py"), "cli",
                       repr(time.perf_counter()), *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            if self.tracer is not None and proc.returncode in (0, 2, 3):
                self._merge_spans(proc.stderr)
            return proc

        return call

    def _merge_spans(self, stderr: str) -> None:
        for line in reversed(stderr.splitlines()):
            if line.startswith(SPANS_TAG):
                self.tracer.merge(json.loads(line[len(SPANS_TAG):]))
                return
        raise ex.OutputError("traced child returned no spans")

    def _judge(self, required):
        def judge(proc) -> str:
            if proc.returncode not in (0, 2, 3):
                return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            wrong, inconclusive = ex.judge_cli(proc.returncode, proc.stdout, required)
            self.counts["cli.inconclusive_rows"] += inconclusive
            return ex.PASS if not wrong else "; ".join(wrong)

        return judge


WORKLOADS = {w.name: w for w in (Certify, Scan, Cli)}
