"""One workload in one fresh interpreter: set up, run the closed loop, check.

Started by ``run.py`` with ``src`` on PYTHONPATH; never run by hand except for
debugging.  Modes:

- ``setup``  import the package, build the parser, write the first cycle's
  inputs, report the time since the parent spawned this process, exit;
- ``timed``  the same set-up, then whole cycles of ops, tracing off, until
  ``--seconds`` have passed, with one run of the speed kernel before each op
  (``speed.py``); end-to-end figures, raw and scaled to the kernel's speed;
- ``traced`` per cycle, one untraced and one traced pass over the same ops
  (alternating which goes first), until ``--seconds`` have passed; per-layer
  figures, and every traced stdout must equal its untraced twin.

Both ``timed`` and ``traced`` then replay the run's first cycle (each op must
repeat its earlier stdout byte for byte) and the default seed's first cycle
(each op must match the golden table).  The last line of stdout is one JSON
document for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import DEFAULT_SEED, ERROR_EXITS, OpStream, check_output  # noqa: E402

# kernel samples taken right after set-up, whose median scales setup_s
SETUP_SAMPLES = 5


def tail_stat(values: list) -> tuple[int, float]:
    """(P, value): the highest whole percentile with >= 10 samples beyond it.

    Nearest-rank: the value is the ceil(P/100 * n)-th smallest sample, so at
    least n - that rank >= 10 samples lie above it.
    """
    n = len(values)
    ordered = sorted(values)
    best = (50, statistics.median(ordered))
    for P in range(51, 100):
        rank = -(-P * n // 100)  # ceil
        if n - rank < 10:
            break
        best = (P, ordered[rank - 1])
    return best


class Runner:
    """Runs ops through ``cli.main`` in process and keeps the gate's tally."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.refused = Counter()
        self.stdout_bytes = 0
        self.configs = 0

    def write_inputs(self, ops, tag: str) -> list:
        """Write each op's files; return the resolved argv lists."""
        out = []
        for i, op in enumerate(ops):
            paths = {}
            for name, text in op.files.items():
                path = self.workdir / f"{tag}-{i}-{name}.json"
                path.write_text(text, encoding="utf-8")
                paths[name] = str(path)
            out.append(op.resolve(paths))
        return out

    def run(self, op, argv, traced: bool = False):
        """Run one op; return (latency_s, exit code, sha256 of stdout)."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        if traced:
            self.tracer.begin_op(self.attempted)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an op that raises counts as failed
            rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        text = out.getvalue()
        if traced:
            self.tracer.end_op()
            self.configs += op.configs
            self.stdout_bytes += len(text.encode())
        why = rc if isinstance(rc, str) else check_output(op, rc, text, err.getvalue())
        if why is not None:
            self.fail(op, why)
        elif rc in ERROR_EXITS:
            self.refused[rc] += 1
        return dt, rc, hashlib.sha256(text.encode()).hexdigest()

    def fail(self, op, why: str) -> None:
        """Mark the op run last as failed."""
        self.failed_ops.add(self.attempted)
        self.failures.append(f"{op.shape} [{op.key()}]: {why}")


def load_goldens() -> dict:
    with open(HERE / "goldens.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def replay(runner: Runner, ops, argvs, before: list, goldens: dict | None) -> None:
    """Re-run ops; each must repeat ``before`` (if given) and match its golden."""
    for i, (op, argv) in enumerate(zip(ops, argvs)):
        _, rc, sha = runner.run(op, argv)
        if before is not None and (rc, sha) != before[i]:
            runner.fail(op, f"repetition differs: {before[i]} then {(rc, sha)}")
        if goldens is not None:
            want = goldens.get(op.key())
            if want is None:
                runner.fail(op, "no golden for this default-seed op")
            elif [rc, sha] != want:
                runner.fail(op, f"golden {want} but got {[rc, sha]}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before it started us")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    # -- set-up: everything before the first op can be issued ----------------
    from padic_potts import cli

    src = HERE.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"padic_potts imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    cli.build_parser()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    stream = OpStream(args.workload, args.seed, smoke=args.smoke)
    runner = Runner(cli, workdir)
    first = stream.next_cycle()
    first_argv = runner.write_inputs(first, "c0")
    setup_s = time.monotonic() - args.spawned
    setup_ref = statistics.median(speed.sample_ms() for _ in range(SETUP_SAMPLES))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_ms": setup_ref}))
        return 0

    # -- closed loop: whole cycles until the deadline -------------------------
    from tracing import Tracer

    tracer = Tracer() if args.mode == "traced" else None
    runner.tracer = tracer
    latencies, samples = [], []
    wall = {False: 0.0, True: 0.0}
    first_results = None
    ops, argvs = first, first_argv
    cycle = 0
    deadline = time.monotonic() + args.seconds
    while True:
        if args.mode == "timed":
            results = []
            for op, argv in zip(ops, argvs):
                samples.append(speed.sample_ms())
                results.append(runner.run(op, argv))
            latencies += [dt for dt, _, _ in results]
        else:
            order = (False, True) if cycle % 2 == 0 else (True, False)
            passes = {}
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    passes[traced] = [runner.run(op, argv, traced) for op, argv in zip(ops, argvs)]
                finally:
                    tracer.uninstall()
                wall[traced] += sum(dt for dt, _, _ in passes[traced])
            for op, a, b in zip(ops, passes[False], passes[True]):
                if a[1:] != b[1:]:
                    runner.fail(op, f"traced stdout differs from untraced: {a[1:]} vs {b[1:]}")
            results = passes[False]
        if first_results is None:
            first_results = [r[1:] for r in results]
        else:
            for f in workdir.glob(f"c{cycle}-*"):
                f.unlink()
        cycle += 1
        if time.monotonic() >= deadline:
            break
        ops = stream.next_cycle()
        argvs = runner.write_inputs(ops, f"c{cycle}")

    if args.mode == "timed":
        samples.append(speed.sample_ms())  # the one after the last op

    # -- correctness replays, untimed and untraced ----------------------------
    goldens = load_goldens()
    replay(runner, first, first_argv, first_results,
           goldens if args.seed == DEFAULT_SEED else None)
    if args.seed != DEFAULT_SEED:
        default = OpStream(args.workload, DEFAULT_SEED, smoke=args.smoke).next_cycle()
        replay(runner, default, runner.write_inputs(default, "golden"), None, goldens)
    shutil.rmtree(workdir, ignore_errors=True)

    doc = {
        "setup_s": setup_s,
        "setup_ref_ms": setup_ref,
        "cycles": cycle,
        "attempted": runner.attempted,
        "failed": len(runner.failed_ops),
        "refused": sum(runner.refused.values()),
        "refused_by_exit": dict(runner.refused),
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.mode == "timed":
        scaled = speed.scale_all(latencies, samples)
        P, tail = tail_stat(scaled)
        doc.update({
            "ops": len(latencies),
            "wall_s": sum(scaled),
            "p50_ms": statistics.median(scaled) * 1e3,
            "tail_ms": tail * 1e3,
            "tail_percentile": P,
            "raw_wall_s": sum(latencies),
            "raw_p50_ms": statistics.median(latencies) * 1e3,
            "raw_tail_ms": tail_stat(latencies)[1] * 1e3,
            "ref_p50_ms": statistics.median(samples),
        })
    else:
        traced_ops = cycle * len(first)
        doc["per_layer"] = tracer.layer_metrics(
            traced_ops, runner.configs, runner.stdout_bytes,
            wall[True] / wall[False] if wall[False] else 0.0)
        doc["spans_kept"] = len(tracer.spans)
        doc["spans_total"] = tracer.seq
        trace_dir = Path(args.workdir).parent
        tracer.write_spans(trace_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
