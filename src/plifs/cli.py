"""Command-line front end.

Commands: check, dim {natural|gdifs|punctured|determinant|box|all},
measure, render, esc, each run as cmd_<name>(system, budget, args).
Exit codes: 0 success, 2 malformed input or arguments (a bad system
file, budget, level range or depth, or a value a method rejects), 3
computation error, 4 budget exceeded.  The enumeration budget defaults
to 2^26 intervals; PLIFS_BUDGET overrides it and --budget overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import gdifs as gd
from . import oracle
from .core import (
    Cplifs,
    DEFAULT_BUDGET,
    check_iosc,
    check_small,
    cylinder_arrays,
    generated_ifs,
    index_word,
    invariant_interval,
    level_sweep,
    regularity_diagnostic,
    word_str,
)
from .errors import BudgetExceeded, ParseError, PlifsError
from .pressure import WINDOW, natural_dimension
from .specfile import fmt, parse_spec_file


def _parse_range(text: str) -> tuple[int, int]:
    a, sep, b = text.partition("..")
    try:
        lo, hi = int(a), int(b if sep else a)
    except ValueError:
        raise ValueError(f"level range {text!r} is not N or A..B") from None
    if lo > hi:
        raise ValueError(f"level range {text!r} has A > B")
    return lo, hi


def _budget(args) -> int:
    """--budget if given, else PLIFS_BUDGET if set, else the default; a
    given value must be a positive integer."""
    source, value = "--budget", args.budget
    if value is None:
        env = os.environ.get("PLIFS_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        source = "PLIFS_BUDGET"
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"PLIFS_BUDGET={env!r} is not an integer") from None
    if value < 1:
        raise ValueError(f"{source}={value} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plifs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="system description file")
        sp.add_argument("--budget", type=int, default=None, help="enumeration cap")

    c = sub.add_parser("check", help="structural report: type, injectivity, smallness, IOSC")
    common(c)
    c.add_argument("--depth", type=int, default=8, help="regularity certification depth")

    d = sub.add_parser("dim", help="dimension estimates")
    common(d)
    cfg = gd.DimConfig
    d.add_argument("method", choices=[*gd.METHODS, "all"])
    d.add_argument("--n", default=f"{cfg.n_min}..{cfg.n_max}",
                   help="level range A..B for the root sequence")
    d.add_argument("--level", type=int, default=cfg.punctured_k, help="punctured cylinder level")
    d.add_argument("--tol", type=float, default=cfg.agreement_tol,
                   help="cross-method agreement tolerance")
    d.add_argument("--csv", default=None, help="write method,param,value rows to this path")

    m = sub.add_parser("measure", help="cylinder-union measure bounds and verdict")
    common(m)
    m.add_argument("--n", default="1..12",
                   help="level range A..B (A >= 1) of the roots s_A..s_B; the bounds run L_1..L_B")
    m.add_argument("--tol", type=float, default=oracle.PLATEAU_TOL, help="plateau threshold")

    r = sub.add_parser("render", help="cylinder intervals as CSV rows or an SVG strip chart")
    common(r)
    r.add_argument("--depth", type=int, default=4)
    r.add_argument("--format", choices=["csv", "svg"], default="csv")
    r.add_argument("--csv", default=None, help="also write the artifact to this path")

    e = sub.add_parser("esc", help="finite-depth separation diagnostic of the generated system")
    common(e)
    e.add_argument("--level", type=int, default=4, help="maximal composition depth")

    return p


def cmd_check(F: Cplifs, budget: int, args) -> int:
    print(f"maps: {F.m}, type vector: {F.type_vector}")
    lo, hi = invariant_interval(F)
    print(f"invariant interval: [{fmt(lo)}, {fmt(hi)}]")
    for k, f in enumerate(F.maps, 1):
        print(f"map {k}: injective {'yes' if f.is_injective() else 'no'}, max ratio {fmt(f.max_ratio)}")
    small = check_small(F)
    if small.ok:
        print("small: yes")
    else:
        print(f"small: no (failing clauses: {', '.join(small.failing_clauses())})")
    iosc = check_iosc(F)
    print(f"IOSC: {'yes' if iosc.ok else 'no'} (gap {fmt(iosc.min_gap)})")
    breaks = F.breaking_points()
    if not breaks:
        print("regular: trivially (no breaking points)")
        return 0
    for st in regularity_diagnostic(F, args.depth, budget):
        if st.status == "CERTIFIED_OFF_ATTRACTOR":
            print(f"break {fmt(st.point)} (map {st.map_index}): CERTIFIED_OFF_ATTRACTOR at depth {st.depth}")
        else:
            words = ",".join(word_str(w) for w in st.witnesses[:8])
            more = "" if len(st.witnesses) <= 8 else f" (+{len(st.witnesses) - 8} more)"
            print(
                f"break {fmt(st.point)} (map {st.map_index}): UNDECIDED_AT_DEPTH {st.depth}; "
                f"containing words: {words}{more}"
            )
    return 0


def _write_csv(path: str | None, rows: list[tuple[str, str, str]]) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("method,param,value\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_dim(F: Cplifs, budget: int, args) -> int:
    n_min, n_max = _parse_range(args.n)
    cfg = gd.DimConfig(
        n_min=n_min, n_max=n_max, punctured_k=args.level, budget=budget,
        agreement_tol=args.tol,
    )
    rows: list[tuple[str, str, str]] = []
    if args.method == "all":
        report = gd.dim_report(F, cfg)
        for e in report.estimates:
            if e.value is None:
                print(f"{e.method}: unavailable ({e.error})")
            else:
                print(f"{e.method}: {fmt(e.value)}  [{e.detail}]")
                rows.append((e.method, "", fmt(e.value)))
        for flag in report.flags:
            print(f"  {flag}")
        print(f"consistent: {'yes' if report.consistent else 'NO'}")
        _write_csv(args.csv, rows)
        return 0
    # one method: the same table entry that dim_report runs, printed in full
    value, _, solved = gd.METHODS[args.method](F, cfg)
    if args.method == "natural":
        for n, s in zip(solved.levels, solved.roots):
            print(f"s_{n} = {fmt(s)}")
            rows.append(("natural", str(n), fmt(s)))
        print(f"estimate (max over last {WINDOW}): {fmt(value)}")
    elif args.method == "gdifs":
        g, codes = solved
        print(f"nodes: {g.q}, edges: {g.src.size}, codes: {len(codes)}")
        print(f"alpha = {fmt(value)}")
        rows.append(("gdifs", str(g.q), fmt(value)))
    elif args.method == "punctured":
        note = "" if solved.whole_graph_strongly_connected else f" (largest scc of {solved.scc_size} used)"
        print(f"kept {solved.kept}, dropped {len(solved.dropped)}{note}")
        print(f"t_{solved.level} = {fmt(value)}")
        rows.append(("punctured", str(solved.level), fmt(value)))
    elif args.method == "determinant":
        print(f"determinant root = {fmt(value)}")
        rows.append(("determinant", str(solved.m), fmt(value)))
    else:  # box
        fit = solved.fit
        print(f"box estimate = {fmt(value)} (raw {fmt(fit.raw_slope)}, rss {fmt(fit.residual)})")
        rows.append(("box", str(solved.nodes), fmt(value)))
    _write_csv(args.csv, rows)
    return 0


def cmd_measure(F: Cplifs, budget: int, args) -> int:
    n_min, n_max = args.levels
    bounds = oracle.lebesgue_upper_bound(F, n_max, budget)
    est = natural_dimension(F, n_min, n_max, budget=budget)
    verdict = oracle.measure_evidence(bounds, est.estimate, plateau_tol=args.tol)
    for n, v in enumerate(bounds, 1):
        print(f"L_{n} = {fmt(v)}")
    print(f"dimension estimate: {fmt(est.estimate)}")
    print(f"verdict: {verdict.classification} (evidence, not proof)")
    return 0


def _render_csv(F: Cplifs, depth: int, budget: int) -> str:
    lines = ["word,left,right"]
    lo, hi = cylinder_arrays(F, depth, budget)
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        lines.append(f"{word_str(index_word(i, F.m, depth))},{fmt(a)},{fmt(b)}")
    return "\n".join(lines) + "\n"


def _render_svg(F: Cplifs, depth: int, budget: int) -> str:
    lo0, hi0 = invariant_interval(F)
    span = max(hi0 - lo0, 1e-12)
    width, margin, row_h, bar_h = 840.0, 20.0, 26.0, 18.0
    height = 2 * margin + (depth + 1) * row_h

    def x(v: float) -> float:
        return margin + (width - 2 * margin) * (v - lo0) / span

    rects = []
    for level, chunks in enumerate(level_sweep(F, depth, budget)):
        y = margin + level * row_h
        lo, hi = chunks.join()
        for a, b in zip(lo.tolist(), hi.tolist()):
            rects.append(
                f'<rect x="{fmt(x(a))}" y="{fmt(y)}" '
                f'width="{fmt(max(0.0, x(b) - x(a)))}" height="{fmt(bar_h)}" '
                f'fill="#3b6ea5" fill-opacity="0.85"/>'
            )
    body = "\n".join(rects)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
    )


def cmd_render(F: Cplifs, budget: int, args) -> int:
    text = (
        _render_csv(F, args.depth, budget)
        if args.format == "csv"
        else _render_svg(F, args.depth, budget)
    )
    sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def cmd_esc(F: Cplifs, budget: int, args) -> int:
    sims = generated_ifs(F)
    print(f"generated similarities: {len(sims)}")
    for n in range(1, args.level + 1):
        rep = gd.esc_diagnostic(sims, n, budget)
        d = "inf" if rep.delta == float("inf") else fmt(rep.delta)
        r = "inf" if rep.delta_root == float("inf") else fmt(rep.delta_root)
        print(f"n={n}: delta={d} delta^(1/n)={r} ({rep.compositions} compositions)")
    print("finite-depth diagnostic only; not a separation proof")
    return 0


_DISPATCH = {
    "check": cmd_check,
    "dim": cmd_dim,
    "measure": cmd_measure,
    "render": cmd_render,
    "esc": cmd_esc,
}
_PARSER: argparse.ArgumentParser | None = None  # built by the first main call, then reused


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        F = parse_spec_file(args.file)
        budget = _budget(args)
        # values that the command would meet only after printing some lines
        # or sweeping its levels
        if args.command == "check" and args.depth < 0:
            raise ValueError(f"--depth={args.depth} is negative")
        if args.command == "esc" and args.level < 1:
            raise ValueError(f"--level={args.level} is below 1")
        if args.command == "measure":
            oracle.check_plateau_tol(args.tol)
            args.levels = n_min, n_max = _parse_range(args.n)
            if n_min < 1:
                raise ValueError("need 1 <= n_min <= n_max")
            oracle.check_bound_count(n_max)
        return _DISPATCH[args.command](F, budget, args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        # ValueError: a bad argument, caught here or by the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PlifsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
