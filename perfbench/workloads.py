"""Workloads of the plifs benchmark: the systems each one runs, the ops of
one pass, and the reference every answer is checked against.

Each workload is a closed loop with one client: one op completes before
the next starts, in a single-threaded child process.  The seed fixes the
inputs.  For dim-all it draws the batch of systems; the other two run
systems fixed by the paper and the test suite.  In every workload the
seed also picks where the cyclic order of the ops starts.  Passes repeat
that order, so each op follows the same neighbour whatever the seed, and
what one op leaves on the heap meets the same next op.

The module imports nothing from plifs at import time, so the child can
time the import of plifs as part of its set-up.
"""

from __future__ import annotations

import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

# Values printed in the source paper for its two-map example.
PAPER_ALPHA = 0.60304963
PUNCTURED_PRINTED = (0.55122823, 0.59223721, 0.60049601, 0.60242399, 0.60289492, 0.60301162)
NATURAL_PRINTED = (0.57913815, 0.58216737, 0.58451333, 0.58638426, 0.58791145, 0.58918180)
LOG23 = math.log(2) / math.log(3)

# Slack for comparisons between two values that are each solved by
# bisection to 1e-12.
ORDER_SLACK = 1e-11


@dataclass(frozen=True)
class Probe:
    """Sizes of the per-layer probe of the traced run: one call into each
    layer on the workload's primary system, deep where the workload is
    deep and shallow elsewhere, so every layer metric is measured."""

    deep_n: int
    punct_k: int
    chaos_n: int
    cli_level: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    min_passes: int
    warmup: str
    probe: Probe
    tiny_probe: Probe


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep-sweep",
            why="The level sweep and its aggregation do almost all the work "
            "and memory peaks here; Perron, chaos game, spec files and CLI "
            "are absent.",
            min_passes=8,
            warmup="natural cantor",
            probe=Probe(deep_n=22, punct_k=6, chaos_n=20_000, cli_level=4),
            tiny_probe=Probe(deep_n=12, punct_k=4, chaos_n=2_000, cli_level=4),
        ),
        Workload(
            name="punctured-ladder",
            why="Large sparse graphs solved by dense Perron power iteration "
            "inside a root bisection; the level sweep is negligible "
            "(k <= 10 gives <= 1024 words).",
            min_passes=4,
            warmup="punctured paper k=6",
            probe=Probe(deep_n=10, punct_k=10, chaos_n=20_000, cli_level=4),
            tiny_probe=Probe(deep_n=6, punct_k=5, chaos_n=2_000, cli_level=4),
        ),
        Workload(
            name="dim-all",
            why="Many small inputs through the CLI: chaos game, box count, "
            "q_root on 4x4 matrices, level-1 association, spec files; core "
            "and gdifs only shallow.",
            min_passes=6,
            warmup="",  # the first system of the batch
            probe=Probe(deep_n=11, punct_k=5, chaos_n=200_000, cli_level=5),
            tiny_probe=Probe(deep_n=8, punct_k=4, chaos_n=20_000, cli_level=4),
        ),
    )
}

# Batch of dim-all: this many systems of each kind, in this order.
DIM_ALL_KINDS = ("affine2", "affine3", "family")
DIM_ALL_PER_KIND = 4
DIM_ALL_LEVEL = 5  # punctured level: chaos game, not Perron, is the largest layer


# ---------------------------------------------------------------------------
# inputs (made by run.py, which writes them as spec files)


def fixed_systems() -> list[tuple[str, Any]]:
    """The paper example, the Cantor pair, the 3-map fixed-point family and
    the period-two system of tests/test_gdifs.py, as (name, system)."""
    from plifs import Cplifs, PLMap, build_fixed_point_family

    phi12 = 0.21 / 0.91  # fixed point of f_1 o f_2
    return [
        ("paper", Cplifs((PLMap((0.5,), (0.8, 0.2), 0.0), PLMap((), (0.1,), 0.9)))),
        ("cantor", Cplifs((PLMap((), (1 / 3,), 0.0), PLMap((), (1 / 3,), 2 / 3)))),
        ("family", build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system),
        ("period-two", Cplifs((
            PLMap((), (0.3,), 0.0),
            PLMap((), (0.3,), 0.7),
            PLMap((phi12,), (0.2, 0.25), 0.35),
        ))),
    ]


def _affine_system(rng: random.Random, m: int):
    """m increasing similarities onto pairwise disjoint subintervals of [0, 1]."""
    from plifs import Cplifs, PLMap, check_iosc

    while True:
        points = sorted(rng.uniform(0.0, 1.0) for _ in range(2 * m))
        widths = [points[2 * i + 1] - points[2 * i] for i in range(m)]
        gaps = [points[2 * i] - points[2 * i - 1] for i in range(1, m)]
        if min(widths) < 0.02 or min(gaps) < 0.02:
            continue
        F = Cplifs(tuple(PLMap((), (widths[i],), points[2 * i]) for i in range(m)))
        if check_iosc(F).ok:
            return F


def _family_system(rng: random.Random):
    """A 3-map system whose middle map breaks at its own fixed point."""
    from plifs import build_fixed_point_family
    from plifs.errors import PlifsError

    while True:
        slopes = [rng.uniform(0.1, 0.35) for _ in range(4)]
        if any(abs(a - b) < 1e-3 for a, b in zip(slopes, slopes[1:])):
            continue
        try:
            return build_fixed_point_family(tuple(slopes), (rng.uniform(0.25, 0.75),)).system
        except PlifsError:
            continue


def generated_systems(seed: int, per_kind: int) -> list[tuple[str, Any]]:
    """The seeded dim-all batch, kinds interleaved; each name ends in its kind."""
    rng = random.Random(seed)
    out = []
    for _ in range(per_kind):
        for kind in DIM_ALL_KINDS:
            F = _family_system(rng) if kind == "family" else _affine_system(rng, int(kind[-1]))
            out.append((f"sys{len(out):02d}-{kind}", F))
    return out


def make_systems(workload: str, seed: int, tiny: bool) -> list[tuple[str, Any]]:
    if workload == "dim-all":
        return generated_systems(seed, 1 if tiny else DIM_ALL_PER_KIND)
    wanted = {"deep-sweep": ("paper", "cantor", "family"),
              "punctured-ladder": ("paper", "period-two", "family")}[workload]
    return [s for s in fixed_systems() if s[0] in wanted]


# ---------------------------------------------------------------------------
# ops and their checks


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``call`` returns a JSON-able answer and
    ``check(answer, answers_of_the_pass)`` returns an error or None."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], str | None]


def moran_root(ratios) -> float:
    """The s with sum r_i^s = 1, by bisection in plain Python."""
    lo, hi = 0.0, 1.0
    while sum(r**hi for r in ratios) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(r**mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _unit_interval(values, first_n: int) -> str | None:
    for n, v in enumerate(values, first_n):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            return f"s_{n} = {v!r} is not a finite value in [0, 1]"
    return None


def _nonincreasing(bounds) -> str | None:
    for n, (a, b) in enumerate(zip(bounds, bounds[1:]), 2):
        if b > a:
            return f"L_{n} = {b!r} exceeds L_{n - 1} = {a!r}"
    return None


def _close(value, ref: float, tol: float, what: str) -> str | None:
    if value is None or not abs(value - ref) <= tol:
        return f"{what} = {value!r}, reference {ref!r} (tolerance {tol:g})"
    return None


def _deep_sweep(S: dict, files: dict, tiny: bool) -> list[Op]:
    from plifs import oracle, pressure

    n_paper, n_cantor, n_family = (12, 10, 8) if tiny else (22, 20, 14)

    def natural(name, lo, hi):
        return lambda: list(pressure.natural_dimension(S[name], lo, hi).roots)

    def lebesgue(name, n):
        return lambda: list(oracle.lebesgue_upper_bound(S[name], n))

    def paper_natural(roots, _):
        for n, (r, ref) in enumerate(zip(roots, NATURAL_PRINTED), 6):
            err = _close(r, ref, 1e-6, f"s_{n}")
            if err:
                return err
        # s_n past n = 11 is not pinned: cylinder-length cancellation
        # corrupts those digits today.
        return _unit_interval(roots[6:], 12)

    def cantor_natural(roots, _):
        for n, r in enumerate(roots, 1):
            err = _close(r, LOG23, 1e-10, f"s_{n}")
            if err:
                return err
        return None

    def cantor_lebesgue(bounds, _):
        for n, b in enumerate(bounds, 1):
            # relative 1e-9 covers rounding in summing up to 2^20 lengths
            err = _close(b, (2 / 3) ** n, 1e-9 * (2 / 3) ** n, f"L_{n}")
            if err:
                return err
        return _nonincreasing(bounds)

    return [
        Op("natural paper", natural("paper", 6, n_paper), paper_natural),
        Op("lebesgue paper", lebesgue("paper", n_paper), lambda b, _: _nonincreasing(b)),
        Op("natural cantor", natural("cantor", 1, n_cantor), cantor_natural),
        Op("lebesgue cantor", lebesgue("cantor", n_cantor), cantor_lebesgue),
        Op("natural family", natural("family", 6, n_family), lambda r, _: _unit_interval(r, 6)),
        Op("lebesgue family", lebesgue("family", n_family), lambda b, _: _nonincreasing(b)),
    ]


def _punctured_ladder(S: dict, files: dict, tiny: bool) -> list[Op]:
    from plifs import BreakCode, gdifs

    ladders = {"paper": range(3, 7 if tiny else 11),
               "period-two": range(3, 6 if tiny else 7),
               "family": range(3, 6 if tiny else 7)}
    phi = S["period-two"].maps[2].breaks[0]
    codes = {"paper": lambda: gdifs.auto_codes(S["paper"]),
             "period-two": lambda: (BreakCode(phi, (), (1, 2)),),
             "family": lambda: gdifs.auto_codes(S["family"])}
    family_root = gdifs.q_root(gdifs.detect_fixed_point_family(S["family"]))
    alpha_checks = {
        "paper": lambda a, _: _close(a, PAPER_ALPHA, 1e-6, "alpha"),
        "period-two": lambda a, _: None if 0.0 < a <= 1.0 else f"alpha = {a!r} not in (0, 1]",
        "family": lambda a, _: _close(a, family_root, 1e-9, "alpha vs q_root"),
    }

    def punctured(name, k):
        return lambda: gdifs.punctured_level(S[name], k).value

    def alpha(name):
        return lambda: gdifs.alpha(gdifs.associate_from_periodic(S[name], codes[name]()))

    def ladder_check(name, k):
        def check(t, answers):
            if name == "paper" and k <= 8:
                err = _close(t, PUNCTURED_PRINTED[k - 3], 1e-6, f"t_{k}")
                if err:
                    return err
            a = answers.get(f"alpha {name}")
            if a is None or t > a + ORDER_SLACK:
                return f"t_{k} = {t!r} is not <= alpha = {a!r}"
            prev = answers.get(f"punctured {name} k={k - 1}")
            if k > ladders[name].start and (prev is None or t < prev - ORDER_SLACK):
                return f"t_{k} = {t!r} is below t_{k - 1} = {prev!r}"
            return None
        return check

    ops = []
    for name, ks in ladders.items():
        ops.append(Op(f"alpha {name}", alpha(name), alpha_checks[name]))
        ops.extend(Op(f"punctured {name} k={k}", punctured(name, k), ladder_check(name, k))
                   for k in ks)
    return ops


_METHOD_LINE = re.compile(r"^(natural|gdifs|punctured|determinant|box): (\S+)  \[")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """plifs.cli.main in-process with its output captured."""
    from plifs import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _dim_all(S: dict, files: dict, tiny: bool) -> list[Op]:
    level = 4 if tiny else DIM_ALL_LEVEL

    def dim(name):
        def call():
            code, out, err = run_cli(["dim", files[name], "all", "--level", str(level)])
            answer = {"exit": code, "stderr": err.strip()}
            for line in out.splitlines():
                m = _METHOD_LINE.match(line)
                if m:
                    answer[m.group(1)] = float(m.group(2))
            return answer
        return call

    def check(name):
        F = S[name]
        moran = None if name.endswith("family") else moran_root([abs(f.slopes[0]) for f in F.maps])

        def check_answer(a, _):
            if a["exit"] != 0:
                return f"exit code {a['exit']}: {a['stderr']}"
            err = _unit_interval([a.get("natural", math.nan)], 11)
            if err:
                return err
            if moran is None:
                return _close(a.get("gdifs"), a.get("determinant", math.nan), 1e-9,
                              "gdifs vs determinant")
            return (_close(a.get("gdifs"), moran, 1e-9, "gdifs vs Moran root")
                    or _close(a.get("punctured"), moran, 1e-9, "punctured vs Moran root"))
        return check_answer

    return [Op(f"dim-all {name}", dim(name), check(name)) for name in S]


_OPS_BY_WORKLOAD = {
    "deep-sweep": _deep_sweep,
    "punctured-ladder": _punctured_ladder,
    "dim-all": _dim_all,
}


def build_ops(workload: str, systems: dict, files: dict, tiny: bool) -> list[Op]:
    """The ops of one pass.  References that need plifs itself (q_root of
    the family) are solved here, before any timing starts."""
    return _OPS_BY_WORKLOAD[workload](systems, files, tiny)


def probe_systems(workload: str, names: list[str]) -> tuple[str, str]:
    """(primary system, fixed-point family) for the per-layer probe."""
    if workload == "dim-all":
        family = next(n for n in names if n.endswith("family"))
        return family, family
    return "paper", "family"
