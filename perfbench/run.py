"""padic-potts benchmark: one workload per run, correctness-gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics (BENCHMARK.json ``end_to_end``); with
``--trace 1`` it carries the per-layer metrics (``per_layer``) of a separate
traced run.  ``--smoke`` runs a reduced cycle of every workload, untraced and
traced, with no timing bound, and exits 0 only if every output is correct.

The program is driven in process through ``padic_potts.cli.main(argv)`` by
one closed-loop client, inside a fresh interpreter per workload
(``worker.py``).  Set-up time is the median over several fresh interpreters.
Times are scaled to a fixed speed of the machine, measured with a reference
kernel next to every op (``speed.py``); the raw wall figures are printed too.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from speed import REF_MS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# fresh interpreters timed for setup_s on each side of the timed loop, after
# one unmeasured warm-up that lets the bytecode cache fill; probing on both
# sides spreads the samples over the machine's state during the whole run
SETUP_PROBES = 6
RUN_DEADLINE_S = 170


class BenchError(Exception):
    """A worker failed to produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed: int, seconds: float, timeout: float,
          smoke: bool = False) -> dict:
    """Run worker.py in a fresh interpreter; return its result document."""
    workdir = BUILD / f"inputs-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def metadata(workload: str, seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = {}
    for path in sorted((SRC / "padic_potts").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.name] = sum(1 for _ in fh)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def end_to_end(workload: str, seed: int, seconds: float, started: float) -> dict:
    def probes() -> list:
        return [spawn("setup", workload, seed, seconds, 60) for _ in range(SETUP_PROBES)]

    spawn("setup", workload, seed, seconds, 60)  # warm-up, not measured
    setups = probes()
    res = spawn("timed", workload, seed, seconds,
                RUN_DEADLINE_S - 15 - (time.monotonic() - started))
    setups += probes() + [res]
    res["metrics"] = {
        "setup_s": {"value": statistics.median(s["setup_s"] * REF_MS / s["setup_ref_ms"]
                                               for s in setups), "unit": "s"},
        "ops_per_s": {"value": res["ops"] / res["wall_s"], "unit": "1/s"},
        "op_p50_ms": {"value": res["p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": res["tail_ms"], "unit": "ms"},
        "ok_ratio": {"value": 1 - (res["failed"] + res["refused"]) / res["attempted"],
                     "unit": "ratio"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    res["note"] = (f"op_tail_ms is p{res['tail_percentile']} of {res['ops']} ops "
                   f"({res['cycles']} cycles); setup_s is the median of {len(setups)} "
                   f"fresh interpreters; times scaled to a kernel time of {REF_MS} ms, "
                   f"measured median {res['ref_p50_ms']:.4g} ms; raw wall figures: "
                   f"setup_s {statistics.median(s['setup_s'] for s in setups):.4g} s, "
                   f"ops_per_s {res['ops'] / res['raw_wall_s']:.4g}, "
                   f"op_p50_ms {res['raw_p50_ms']:.4g}, op_tail_ms {res['raw_tail_ms']:.4g}")
    return res


def traced(workload: str, seed: int, seconds: float, started: float) -> dict:
    res = spawn("traced", workload, seed, seconds,
                RUN_DEADLINE_S - (time.monotonic() - started))
    res["metrics"] = res.pop("per_layer")
    res["note"] = (f"per-layer counts and times are per op over {res['cycles']} traced "
                   f"cycles; {res['spans_kept']} of {res['spans_total']} spans kept")
    return res


def report(res: dict) -> dict:
    """Human lines on stdout; return the driver's result document."""
    for name, m in res["metrics"].items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    print(f"  ({res['note']}; {res['refused']} of {res['attempted']} ops refused, "
          f"by exit code: {res['refused_by_exit']})")
    for why in res["failures"][:10]:
        print(f"  FAILED {why}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def smoke() -> int:
    started = time.monotonic()
    ok = True
    for workload in WORKLOADS:
        for mode in ("timed", "traced"):
            res = spawn(mode, workload, DEFAULT_SEED, 0, 170, smoke=True)
            if mode == "timed":
                res["metrics"] = {"op_p50_ms": {"value": res["p50_ms"], "unit": "ms"}}
                res["note"] = f"{res['ops']} ops"
            else:
                res["metrics"] = res.pop("per_layer")
                res["note"] = f"{res['spans_total']} spans"
            print(f"{workload} {mode}:")
            doc = report(res)
            ok = ok and doc["correct"]
    print(json.dumps({"smoke": "ok" if ok else "FAILED",
                      "seconds": round(time.monotonic() - started, 1)}))
    return 0 if ok else 1


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "padic_potts" / "cli.py").is_file():
        print(f"error: no padic_potts sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    BUILD.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"meta": metadata(args.workload, args.seed)}))
    try:
        run = traced if args.trace else end_to_end
        res = run(args.workload, args.seed, args.seconds, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
