"""Record the golden exit code and output digest of every job.

Runs one pass of each workload's jobs for every input variant, checks
each exit code against the one the generator expects, and writes
``golden/<workload>.json``.  Run it from the root of the repository
only when the expected outputs are meant to change:

    python3 perfbench/record_golden.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def record(cli, workload_name: str) -> dict[str, dict[str, list]]:
    import inputs

    golden = {}
    for variant in range(inputs.VARIANTS):
        with run.work_dir(f"golden-{workload_name}-v{variant}"):
            workload = inputs.build(workload_name, variant, Path("in"))
            bench = run.Bench(cli.main, workload, golden=None)
            bench.run_pass()
        if bench.failures:
            raise SystemExit(f"{workload_name} variant {variant}: " + "; ".join(bench.failures))
        golden[str(variant)] = {job: list(result) for job, result in sorted(bench.first.items())}
        print(f"{workload_name} variant {variant}: {len(bench.first)} jobs", flush=True)
    return golden


def main(argv: list[str]) -> int:
    cli = run.load_cli()
    for name in argv or run.WORKLOADS:
        golden = record(cli, name)
        run.GOLDEN_DIR.mkdir(exist_ok=True)
        text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
        (run.GOLDEN_DIR / f"{name}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
