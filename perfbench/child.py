"""Child process of the plifs benchmark: runs one workload as a closed loop
and writes its measurements to a JSON file.

    python3 child.py MANIFEST RESULT [--setup-only]

The runner (run.py) starts it with the BLAS and OpenMP pools pinned to
one thread and PYTHONPATH pointing at the checkout's src directory.
With ``--setup-only`` it stops after set-up and records only that time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import tracing
import workloads as wl
from tracing import COUNT, NAME, OP, PARENT


def setup(manifest: dict) -> tuple[float, dict]:
    """Import plifs, parse the workload's spec files and fill each
    system's invariant-interval cache."""
    start = perf_counter()
    import plifs
    import plifs.cli  # noqa: F401  (the CLI is part of the program)

    systems = {s["name"]: plifs.parse_spec_file(s["file"]) for s in manifest["systems"]}
    for F in systems.values():
        F.invariant_interval()
    return perf_counter() - start, systems


@dataclass
class Pass:
    wall: float
    times: list[float]
    answers: dict
    errors: dict


def run_pass(ops: list[wl.Op], tracer: tracing.Tracer | None = None) -> Pass:
    """One op after another; answers are checked after the last op, so
    checks that compare ops of the same pass see all of them."""
    answers, errors, times = {}, {}, []
    start = perf_counter()
    for op in ops:
        t = perf_counter()
        try:
            with tracer.op_span(op.name) if tracer else nullcontext():
                answers[op.name] = op.call()
        except Exception as exc:  # a failed op is counted, the loop goes on
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - t)
    wall = perf_counter() - start
    for op in ops:
        if op.name in answers:
            msg = op.check(answers[op.name], answers)
            if msg:
                errors[op.name] = msg
    return Pass(wall, times, answers, errors)


def run_probe(tracer: tracing.Tracer, S: dict, files: dict, primary: str, family: str,
              p: wl.Probe) -> dict:
    """Call each layer once on the primary system, inside a 'probe' op."""
    from plifs import core, gdifs, oracle, pressure, specfile

    F = S[primary]
    with tracer.op_span("probe"):
        core.cylinder_arrays(F, p.deep_n)
        profile = pressure.solve_level_root(F, p.deep_n)
        pressure.natural_dimension(F, min(6, p.deep_n), p.deep_n)
        oracle.lebesgue_upper_bound(F, p.deep_n)
        core.cylinders(F, p.punct_k)
        pl = gdifs.punctured_level(F, p.punct_k)
        gdifs.perron_root(pl.graph.spectral_matrix().at(pl.value))
        gdifs.associate_from_periodic(F, gdifs.auto_codes(F))
        gdifs.q_root(gdifs.detect_fixed_point_family(S[family]))
        cloud = oracle.chaos_game(F, p.chaos_n)
        lo, hi = core.invariant_interval(F)
        oracle.box_dimension(cloud, [(hi - lo) * 3.0**-j for j in range(2, 10)])
        specfile.parse_spec_file(files[primary])
        code, _, err = wl.run_cli(["dim", files[primary], "all", "--level", str(p.cli_level)])
        if code != 0:
            raise RuntimeError(f"probe: plifs dim all exited {code}: {err}")
    return {"pressure.zero_lengths": profile.zero_count,
            "gdifs.scc_nodes": pl.scc_size,
            "gdifs.edges": len(pl.graph.edges)}


def sweep_bytes_per_word(F, n: int) -> float:
    """tracemalloc peak of one cylinder_arrays call divided by its words."""
    from plifs import core

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lo, _ = core.cylinder_arrays(F, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / len(lo)


LAYERS = tuple(tracing.LAYER_CALLS)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer figures of one traced pass, probe included."""
    dur, child = tracing.durations(spans)

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[NAME] == name)

    def net(name, *minus):
        """Time in ``name`` less its direct children named in ``minus``."""
        value = total(name)
        for s, d in zip(spans, dur):
            if s[NAME] in minus and s[PARENT] is not None and spans[s[PARENT]][NAME] == name:
                value -= d
        return value

    def count(name):
        return sum(s[COUNT] for s in spans if s[NAME] == name)

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    probe_perron = [d for s, d in zip(spans, dur)
                    if s[NAME] == "gdifs.perron_root" and s[OP] == "probe"
                    and spans[s[PARENT]][NAME] == "op"]
    out = {
        "core.sweep_s": total("core.cylinder_arrays"),
        "core.sweep_words_per_s": count("core.cylinder_arrays") / total("core.cylinder_arrays"),
        "core.cylinders_s": net("core.cylinders", "core.cylinder_arrays"),
        "pressure.natural_s": total("pressure.natural_dimension"),
        "pressure.root_self_s": net("pressure.solve_level_root", "core.cylinder_arrays"),
        "oracle.lebesgue_s": total("oracle.lebesgue_upper_bound"),
        "gdifs.punctured_s": total("gdifs.punctured_level"),
        "gdifs.punctured_self_s": net("gdifs.punctured_level", "core.cylinders", "gdifs.alpha"),
        "gdifs.alpha_s": total("gdifs.alpha"),
        "gdifs.perron_solve_s": probe_perron[0],
        "gdifs.perron_calls": calls("gdifs.perron_root"),
        "gdifs.associate_s": total("gdifs.associate_from_periodic"),
        "gdifs.q_root_s": total("gdifs.q_root"),
        "gdifs.dim_report_s": total("gdifs.dim_report"),
        "oracle.chaos_game_s": total("oracle.chaos_game"),
        "oracle.chaos_samples_per_s": count("oracle.chaos_game") / total("oracle.chaos_game"),
        "oracle.box_count_s": total("oracle.box_dimension"),
        "specfile.parse_s": total("specfile.parse_spec_file"),
        "cli.self_s": net("cli.main", "gdifs.dim_report"),
    }
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s, d, c in zip(spans, dur, child):
        layer = s[NAME].split(".")[0]
        if layer in self_time:
            self_time[layer] += d - c
    out.update({f"self.{layer}_s": v for layer, v in self_time.items()})
    return out


def tail(samples: list[float], n_min: int) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    ten samples beyond it in a run of ``n_min`` samples.  The percentile
    is fixed by ``n_min``, the fewest samples a run takes, so runs that
    fit more passes report the same percentile."""
    beyond = min(10, n_min - 1)
    q = (n_min - beyond) / n_min
    ordered = sorted(samples)
    rank = -(-(n_min - beyond) * len(ordered) // n_min) - 1  # nearest rank
    return ordered[max(rank, 0)], 100.0 * q


def repeat(step, minimum: int, seconds: float) -> None:
    """Call ``step`` at least ``minimum`` times, then again while one more
    call, as long as the last, still ends within ``seconds``."""
    deadline = perf_counter() + seconds
    done = 0
    while True:
        start = perf_counter()
        step()
        done += 1
        now = perf_counter()
        if done >= minimum and now + (now - start) > deadline:
            return


def env_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def digest(answers: dict) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    manifest_path, result_path = argv[1], argv[2]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    setup_s, S = setup(manifest)
    if "--setup-only" in argv:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    w = wl.WORKLOADS[manifest["workload"]]
    tiny, trace = manifest["tiny"], manifest["trace"]
    min_passes = 1 if tiny else w.min_passes
    files = {s["name"]: s["file"] for s in manifest["systems"]}
    ops = wl.build_ops(w.name, S, files, tiny)
    warmup = next((op for op in ops if op.name == w.warmup), ops[0])
    start = manifest["seed"] % len(ops)
    ops = ops[start:] + ops[:start]
    try:
        warmup.call()
    except Exception:  # the same op fails, and is counted, in the timed passes
        pass

    result = {"setup_s": setup_s, "env": env_info(), "ops_per_pass": len(ops)}
    passes: list[Pass] = []
    if not trace:
        repeat(lambda: passes.append(run_pass(ops)), min_passes, manifest["seconds"])
        times = [t for p in passes for t in p.times]
        tail_s, pct = tail(times, min_passes * len(ops))
        result["metrics"] = {
            "wall_s": statistics.median(p.wall for p in passes),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
        }
        result["tail"] = {"percentile": pct, "samples": len(times),
                          "beyond": sum(t > tail_s for t in times)}
        result["digest"] = digest(passes[0].answers)
    else:
        primary, family = wl.probe_systems(w.name, list(S))
        probe = w.tiny_probe if tiny else w.probe
        bytes_per_word = sweep_bytes_per_word(S[primary], probe.deep_n)
        traced_walls, per_pass, all_spans = [], [], []

        def pair():
            plain = run_pass(ops)
            tracer = tracing.Tracer()
            with tracing.traced_layers(tracer):
                traced = run_pass(ops, tracer)
                counts = run_probe(tracer, S, files, primary, family, probe)
            for name, answer in traced.answers.items():
                if name in plain.answers and plain.answers[name] != answer:
                    traced.errors.setdefault(name, "traced answer differs from untraced")
            passes.extend((plain, traced))
            traced_walls.append(traced.wall)
            per_pass.append({**layer_metrics(tracer.spans), **counts})
            all_spans.append(tracer.spans)

        repeat(pair, 1 if tiny else 2, manifest["seconds"])
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["core.sweep_peak_bytes_per_word"] = bytes_per_word
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(p.wall for p in passes[::2]))
        result["metrics"] = metrics
        result["digest"] = digest(passes[1].answers)
        with open(os.path.join(os.path.dirname(result_path), "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "passes": all_spans}, fh)

    result["passes"] = len(passes)
    result["pass_walls"] = [p.wall for p in passes]
    result["attempted"] = sum(len(p.times) for p in passes)
    errors = [f"{name}: {msg}" for p in passes for name, msg in p.errors.items()]
    result["failed"] = len(errors)
    result["errors"] = sorted(set(errors))[:20]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
