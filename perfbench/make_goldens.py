"""Write goldens.json: (exit code, sha256 of stdout) per default-seed op.

    python3 perfbench/make_goldens.py

Covers the first cycle of every workload at the default seed, which every
benchmark run replays.  Run it only on a commit whose outputs are trusted;
the table in the repository was made at the commit that introduced the
benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from padic_potts import cli  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, OpStream  # noqa: E402


def main() -> int:
    table = {}
    build = HERE.parent / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        runner = Runner(cli, Path(tmp))
        for workload in WORKLOADS:
            ops = OpStream(workload, DEFAULT_SEED).next_cycle()
            for op, argv in zip(ops, runner.write_inputs(ops, workload)):
                _, rc, sha = runner.run(op, argv)
                table[op.key()] = [rc, sha]
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
    with open(HERE / "goldens.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED}, "ops": {{\n{rows}\n}}}}\n')
    print(f"{len(table)} goldens written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
