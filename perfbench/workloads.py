"""The four benchmark workloads: fixed job lists, their inputs and oracles.

A job is one user-level query.  ``run`` performs it through the public
extalg API and returns what a user would read off; ``check`` compares that
against a closed form (or a recorded report digest) and returns the list of
mismatches, empty when the job passed.  The benchmark seed only orders the
jobs; the library sees the generated inputs and its own default seed.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_DIGESTS = os.path.join(HERE, "cli_digests.json")

# Jobs of ``large_prime`` that fail at the commit this benchmark was defined
# on (wrong simples over GF(65521), StructureError over GF(101)).  They are
# attempted and counted as failed on every pass; a job outside this set that
# fails makes the run incorrect.  A later fix simply shrinks the failures.
KNOWN_FAILURES = frozenset({"A3@p101", "N(3,3)@p101", "A2@p65521",
                            "N(2,2)@p65521", "wild@p65521"})

CLI_COMMANDS = (
    ("validate",), ("check", "gp"), ("check", "gi"), ("check", "gf"),
    ("verify", "cor35"), ("verify", "cor45"), ("verify", "cor48"),
    ("verify", "thm52"), ("verify", "thm53"), ("verify", "thm54"),
    ("resolve", "pair", "--window", "3"),
    ("resolve", "copair", "--window", "3"),
)

# Every wild-algebra job passes an explicit bound: at default_bound (10) the
# syzygies reach dimension 3 * 2**10 and the run does not finish.
WILD_SYZYGY_BOUND = 5
WILD_LARGE_PRIME_BOUND = 3


@dataclass(frozen=True)
class Quiver:
    """A monomial quiver algebra and the family its oracle comes from."""
    name: str
    family: str            # "linear" | "nakayama" | "wild"
    vertices: int
    arrows: Tuple[Tuple[int, int], ...]
    relations: Tuple[Tuple[int, ...], ...]
    loewy: int = 0         # nakayama: length of every PIM


def linear(n: int) -> Quiver:
    """A_n: 0 -> 1 -> ... -> n-1, no relations (dim n(n+1)/2)."""
    return Quiver(f"A{n}", "linear", n,
                  tuple((i, i + 1) for i in range(n - 1)), ())


def nakayama(n: int, k: int) -> Quiver:
    """N(n,k): the cyclic quiver on n vertices modulo all paths of length k
    (dim n*k, self-injective)."""
    return Quiver(f"N({n},{k})", "nakayama", n,
                  tuple((i, (i + 1) % n) for i in range(n)),
                  tuple(tuple((s + j) % n for j in range(k))
                        for s in range(n)), loewy=k)


# k<x,y>/(x,y)^2: one vertex, two loops, every path of length 2 is zero.
WILD = Quiver("wild", "wild", 1, ((0, 0), (0, 0)),
              ((0, 0), (0, 1), (1, 0), (1, 1)))


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


# ---------------------------------------------------------------------------
# per-algebra job (quiver_ladder, large_prime)


def _build(q: Quiver, p: int):
    from extalg.algebra import monomial_quiver_algebra
    from extalg.linalg import FieldSpec
    return monomial_quiver_algebra(q.vertices, list(q.arrows),
                                   [list(r) for r in q.relations],
                                   FieldSpec(p))


def algebra_query(q: Quiver, p: int, bound: Optional[int]) -> dict:
    """Build the algebra, then its simples, PIMs, regime, and the projective
    dimension and Gorenstein projectivity of every simple."""
    from extalg.gorenstein import gorenstein_regime, gp_check
    from extalg.homology import pd_bounded
    from extalg.structure import projective_indecomposables, simples
    a = _build(q, p)
    ss = simples(a)
    pims = projective_indecomposables(a)
    regime = gorenstein_regime(a, bound)[0]
    return {
        "simple_dims": [s.dim for s in ss],
        "pim_dims": sorted(pm.dim for pm, _ in pims),
        "regime": regime,
        "pd": [(v.kind, v.value) for v in (pd_bounded(s, bound) for s in ss)],
        "gp": [gp_check(s, bound).answer for s in ss],
    }


def _expect(errors: List[str], what: str, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def check_algebra(q: Quiver, out: dict) -> List[str]:
    errors: List[str] = []
    n = q.vertices
    _expect(errors, "simple dims", out["simple_dims"], [1] * n)
    if q.family == "linear":
        # hereditary: the one projective simple is the only G-projective one
        _expect(errors, "pim dims", out["pim_dims"], list(range(1, n + 1)))
        _expect(errors, "regime", out["regime"], "iwanaga_gorenstein")
        projective = [i for i, v in enumerate(out["pd"]) if v == ("finite", 0)]
        _expect(errors, "projective simples", len(projective), 1)
        _expect(errors, "pd of the others",
                sorted(v for v in out["pd"] if v != ("finite", 0)),
                [("finite", 1)] * (n - 1))
        _expect(errors, "gp certified_yes at",
                [i for i, v in enumerate(out["gp"]) if v == "certified_yes"],
                projective)
        _expect(errors, "gp of the others",
                sorted(set(out["gp"]) - {"certified_yes"}), ["certified_no"])
    elif q.family == "nakayama":
        _expect(errors, "pim dims", out["pim_dims"], [q.loewy] * n)
        _expect(errors, "regime", out["regime"], "self_injective")
        _expect(errors, "pd finite",
                [v for v in out["pd"] if v[0] != "exceeds"], [])
        _expect(errors, "gp", out["gp"], ["certified_yes"] * n)
    else:
        # wild: one PIM of dim 3, S of infinite pd and not G-projective
        _expect(errors, "pim dims", out["pim_dims"], [3])
        _expect(errors, "regime", out["regime"], "unknown")
        _expect(errors, "pd finite",
                [v for v in out["pd"] if v[0] != "exceeds"], [])
        _expect(errors, "gp", out["gp"], ["certified_no"])
    return errors


def _algebra_job(q: Quiver, p: int, bound: Optional[int] = None) -> Job:
    return Job(f"{q.name}@p{p}", lambda: algebra_query(q, p, bound),
               lambda out: check_algebra(q, out))


# ---------------------------------------------------------------------------
# wild_syzygy


WILD_GP_CERTIFICATE = {"reason": "nonvanishing_ext_vs_regular", "index": 1,
                       "dim": 3, "side": "module"}


def wild_simple(p: int):
    """The wild algebra and its simple S, built directly: the vertex acts
    as the identity on a 1-dim space and both arrows act as 0."""
    from extalg.algebra import LeftModule
    from extalg.linalg import FpMatrix
    a = _build(WILD, p)
    action = [FpMatrix([[int(a.unit[i])]], a.field) for i in range(a.dim)]
    return a, LeftModule(a, action)


def _wild_resolution(p: int):
    from extalg.homology import minimal_projective_resolution
    _, s = wild_simple(p)
    res = minimal_projective_resolution(s, WILD_SYZYGY_BOUND)
    return [t.dim for t in res.terms]


def _wild_regime(p: int):
    from extalg.gorenstein import gorenstein_regime
    a, _ = wild_simple(p)
    return gorenstein_regime(a, WILD_SYZYGY_BOUND)[0]


def _wild_gp(p: int):
    from extalg.gorenstein import gp_check
    _, s = wild_simple(p)
    v = gp_check(s, WILD_SYZYGY_BOUND)
    return {"answer": v.answer, "certificate": v.certificate}


def _checker(want):
    def check(out):
        errors: List[str] = []
        _expect(errors, "result", out, want)
        return errors
    return check


def wild_syzygy_jobs() -> List[Job]:
    terms = [3 * 2 ** i for i in range(WILD_SYZYGY_BOUND + 1)]
    jobs = []
    for p in (2, 65521):
        jobs += [
            Job(f"resolution@p{p}", lambda p=p: _wild_resolution(p),
                _checker(terms)),
            Job(f"regime@p{p}", lambda p=p: _wild_regime(p),
                _checker("unknown")),
            Job(f"gp_check@p{p}", lambda p=p: _wild_gp(p),
                _checker({"answer": "certified_no",
                          "certificate": WILD_GP_CERTIFICATE})),
        ]
    return jobs


# ---------------------------------------------------------------------------
# cli_corpus


def cli_report(workspace: str, command: Tuple[str, ...]) -> dict:
    """Run ``extalg <command> <workspace>`` in process; returns the exit
    code and the report without its timing field."""
    from extalg import cli
    argv = list(command[:2]) + [workspace] + list(command[2:])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue()) if code == 0 else {}
    report.pop("timing_ms", None)
    return {"exit": code, "report": report}


def report_digest(report: dict) -> str:
    """sha256 of a report body in the CLI's own serialization."""
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def emit_workspace(directory: str) -> str:
    """Write the built-in workspace with ``extalg examples emit`` and
    return its path."""
    from extalg import cli
    path = os.path.join(directory, "workspace.json")
    if cli.main(["examples", "emit", "--out", path]) != 0:
        raise RuntimeError("extalg examples emit failed")
    return path


def cli_jobs(workspace: str) -> List[Job]:
    with open(CLI_DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    jobs = []
    for command in CLI_COMMANDS:
        name = " ".join(command[:2])

        def check(out, want=digests[name]):
            errors: List[str] = []
            _expect(errors, "exit code", out["exit"], 0)
            _expect(errors, "report sha256", report_digest(out["report"]),
                    want)
            return errors

        jobs.append(Job(name, lambda c=command: cli_report(workspace, c),
                        check))
    return jobs


# ---------------------------------------------------------------------------
# the workloads


def quiver_ladder_jobs() -> List[Job]:
    algebras = [linear(n) for n in (3, 4, 5, 6)] + [
        nakayama(3, 2), nakayama(3, 3), nakayama(4, 3)]
    return [_algebra_job(q, p) for p in (2, 3) for q in algebras]


def large_prime_jobs() -> List[Job]:
    return ([_algebra_job(q, 101) for q in (linear(2), linear(3),
                                           nakayama(2, 2), nakayama(3, 3))]
            + [_algebra_job(WILD, 101, WILD_LARGE_PRIME_BOUND)]
            + [_algebra_job(q, 65521) for q in (linear(2), nakayama(2, 2))]
            + [_algebra_job(WILD, 65521, WILD_LARGE_PRIME_BOUND)])


def make_jobs(workload: str, scratch: str) -> List[Job]:
    """The fixed job list of a workload; ``scratch`` is a directory for
    generated input files."""
    if workload == "cli_corpus":
        return cli_jobs(emit_workspace(scratch))
    return {"quiver_ladder": quiver_ladder_jobs,
            "wild_syzygy": wild_syzygy_jobs,
            "large_prime": large_prime_jobs}[workload]()
