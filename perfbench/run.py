"""Benchmark runner for plifs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner writes the workload's
systems as spec files, times set-up in fresh child processes, then runs
the workload in one single-threaded child: whole passes, at least the
workload's minimum, then more while another fits in S seconds.  It
prints a readable summary and, as the last line, one JSON object with
the metrics that BENCHMARK.json lists: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  Inputs, results and
spans are left in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # fresh set-ups besides the workload child's own
TIME_LIMIT = 170.0  # seconds for the whole run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(src: Path) -> dict:
    """One thread in every BLAS/OpenMP pool, no PLIFS_BUDGET override,
    and the checkout's plifs on the path."""
    env = {k: v for k, v in os.environ.items() if k != "PLIFS_BUDGET"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(manifest: Path, result: Path, env: dict, timeout: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(manifest), str(result), *extra]
    # the child's own output goes to stderr so the last stdout line stays ours
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(out: Path, args) -> Path:
    """The workload's systems as spec files, and the manifest naming them."""
    from plifs import format_spec

    systems = []
    for name, F in wl.make_systems(args.workload, args.seed, args.tiny):
        path = out / f"{name}.plifs"
        text = format_spec(F)
        path.write_text(text, encoding="utf-8")
        systems.append({"name": name, "file": str(path), "spec": text})
    manifest = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "tiny": args.tiny, "systems": systems}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return path


def summary(args, workload: wl.Workload, manifest: dict, res: dict, metrics: dict,
            units: dict, setups: list[float]) -> None:
    env = res["env"]
    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}{'  tiny' if args.tiny else ''}")
    print(f"why: {workload.why}")
    print(f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, threads {env['threads']}")
    print(f"systems (rerun with --seed {args.seed}):")
    for s in manifest["systems"]:
        print(f"  {s['name']}: " + " | ".join(s["spec"].strip().splitlines()))
    att, failed = res["attempted"], res["failed"]
    print(f"passes {res['passes']}, ops per pass {res['ops_per_pass']}, attempted {att}, "
          f"failed {failed}, fail_ratio {failed / att:.6g} (base {att} ops)")
    for err in res["errors"]:
        print(f"  FAILED {err}")
    print(f"answers sha256 {res['digest']}")
    notes = {"setup_s": f"median of {len(setups)} set-ups in fresh processes"}
    if "tail" in res:
        t = res["tail"]
        notes["op_tail_s"] = (f"p{t['percentile']:.1f} of {t['samples']} samples, "
                              f"{t['beyond']} beyond")
        notes["ok_ratio"] = f"1 - fail_ratio, base {att} ops"
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:.6g} {units[name]}{note}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    start = time.monotonic()
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = ROOT / "src"
    if not (src / "plifs" / "__init__.py").is_file():
        print(f"perfbench: no plifs package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    out = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    sys.path.insert(0, str(src))
    manifest_path = write_inputs(out, args)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    env = child_env(src)

    setup_result = out / "setup.json"
    run_child(manifest_path, setup_result, env, 60, "--setup-only")  # warms file caches
    setups = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        setups.append(run_child(manifest_path, setup_result, env, 60, "--setup-only")["setup_s"])
    res = run_child(manifest_path, out / "result.json", env,
                    TIME_LIMIT - (time.monotonic() - start))
    setups.append(res["setup_s"])

    measured = dict(res["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
        measured["peak_rss_mb"] = res["peak_rss_mb"]
        measured["ok_ratio"] = 1.0 - res["failed"] / res["attempted"]
    missing = set(units) - set(measured)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: measured[name] for name in units}
    summary(args, wl.WORKLOADS[args.workload], manifest, res, metrics, units, setups)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
