"""Benchmark of the ``hom3lie`` command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, no threads: each job is a ``hom3lie.cli.main([...])`` call
in this process with its output captured, and the workloads are closed
loops with one client, which sends the next job only after the
previous one returned.  Inputs come from ``inputs.py`` and the seed.
After one warm-up pass the job list is run again and again for about
``--seconds`` seconds (at least three passes); within a pass a short
job runs several times back to back, so that every job has enough
samples for a steady median.  While the jobs run, a timer signal times
a short reference loop every few milliseconds, and each job time is
scaled by the speed these samples show (``speed.py``).

Every job's exit code and the sha256 of its ``--json`` stdout and the
files it wrote are compared with the golden values in ``golden/``
(``record_golden.py`` writes them) and with the exit code the input
generator expects; a mismatch counts as a failed job.

With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` passes alternate between traced and untraced, and the
per-layer metrics of ``tracing.py`` are printed instead, their counters
checked to repeat exactly between passes and between runs.  Every line
but the last is for people; the last is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import tracing
from speed import REF_SECONDS, SpeedSampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
GOLDEN_DIR = BENCH_DIR / "golden"

WORKLOADS = ("verify-sweep", "derivations-solve", "reconstruct-metric", "extend-check")
MIN_PASSES = 3
# A pass runs each job until it has taken about this long, at least once.
MIN_JOB_SECONDS = 0.4
SETUP_REPEATS = 11
END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_max_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


Samples = dict[str, list[tuple[float, float]]]  # job id -> (start, end) of each run


class SourceMissing(RuntimeError):
    """The hom3lie sources are not where the benchmark expects them."""


def load_cli() -> Any:
    """Import ``hom3lie.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hom3lie" / "cli.py").is_file():
        raise SourceMissing(f"no hom3lie sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hom3lie.cli

    if Path(hom3lie.cli.__file__).resolve().parent != (SRC / "hom3lie").resolve():
        raise SourceMissing(f"hom3lie was imported from {hom3lie.cli.__file__}, not {SRC}")
    return hom3lie.cli


def digest(stdout: str, outputs: tuple[str, ...]) -> tuple[str, int]:
    """sha256 and byte count of a job's stdout followed by the files it wrote."""
    data = stdout.encode()
    h = hashlib.sha256(data)
    size = len(data)
    for out in outputs:
        path = Path(out)
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            try:
                content = f.read_bytes()
            except FileNotFoundError:
                return "missing:" + str(f), size
            h.update(b"\0" + str(f).encode() + b"\0" + content)
            size += len(content)
    return h.hexdigest(), size


class Bench:
    """Runs passes over a workload's jobs and checks every result."""

    def __init__(self, main: Callable[[list[str]], int], workload: Any,
                 golden: Optional[dict[str, list]]) -> None:
        self.main = main
        self.jobs = workload.jobs
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[str, tuple[int, str]] = {}

    def _execute(self, argv: list[str], job_id: str,
                 tracer: Any) -> tuple[int, str, float, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = tracer.call(job_id, self.main, argv) if tracer else self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = -1
                traceback.print_exc()
            end = perf_counter()
        if code not in (0, 1):
            sys.stderr.write(f"{job_id}: exit {code}\n{err.getvalue()}")
        return code, out.getvalue(), start, end

    def _check(self, job: Any, code: int, sha: str) -> None:
        self.attempted += 1
        problems = []
        if code != job.expect_exit:
            problems.append(f"exit {code}, expected {job.expect_exit}")
        first = self.first.setdefault(job.id, (code, sha))
        if (code, sha) != first:
            problems.append("output differs from the first pass")
        if self.golden is not None:
            want = self.golden.get(job.id)
            if want is None:
                problems.append("no golden record")
            elif [code, sha] != want:
                problems.append(f"golden {want}, got {[code, sha]}")
        if problems:
            self.failed += 1
            self.failures.append(f"{job.id}: " + "; ".join(problems))

    def run_pass(self, tracer: Any = None, reps: Optional[dict[str, int]] = None) -> Samples:
        """Run every job, ``reps[job.id]`` times back to back (once by default).

        Returns the start and end of every run.
        """
        shutil.rmtree("out", ignore_errors=True)
        os.mkdir("out")
        gc.collect()
        samples: Samples = {}
        bytes_out = 0
        for job in self.jobs:
            runs = samples[job.id] = []
            for _ in range(reps[job.id] if reps else 1):
                code, stdout, start, end = self._execute(list(job.argv), job.id, tracer)
                sha, size = digest(stdout, job.outputs)
                bytes_out += size
                runs.append((start, end))
                self._check(job, code, sha)
        if tracer is not None:
            tracer.counts["io.bytes_out"] += bytes_out
        return samples


def measure_setup(workload: Any) -> tuple[float, float]:
    """Time a fresh interpreter importing the CLI and loading every input.

    Each interpreter samples its own speed (``load_inputs.py``); its
    time less sampling is scaled like a job's.  Returns the median of
    SETUP_REPEATS times, as measured and as scaled.
    """
    cmd = [sys.executable, str(BENCH_DIR / "load_inputs.py"), str(SRC)]
    cmd += [f"{kind}:{path}" for kind, path in workload.inputs]
    # No timeout: with one, the wait polls with sleeps of up to 50 ms,
    # which would quantize the times measured here.
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)  # writes bytecode caches
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        seconds = perf_counter() - start
        sampling, reference = map(float, done.stdout.split())
        raw.append(seconds - sampling)
        scaled.append(raw[-1] * REF_SECONDS / reference)
    return statistics.median(raw), statistics.median(scaled)


@contextlib.contextmanager
def work_dir(name: str) -> Iterator[Path]:
    """A fresh directory under ``.bench_out``, the working directory until exit."""
    work = OUT_ROOT / f"{name}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)  # job paths are relative, so outputs do not name the run
        yield work
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def load_golden(workload: str, variant: int) -> dict[str, list]:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(str(variant), {})


def _enough(passes: int, started: float, last: float, seconds: float) -> bool:
    return passes >= MIN_PASSES and perf_counter() - started + last > seconds


def _job_metrics(per_job: dict[str, float]) -> dict[str, float]:
    return {
        "wall_s": sum(per_job.values()),
        "job_p50_s": statistics.median(per_job.values()),
        "job_max_s": max(per_job.values()),
    }


def plain_run(bench: Bench, seconds: float,
              workload: Any) -> tuple[dict[str, float], list[str]]:
    sampler = SpeedSampler()
    samples: Samples = {}
    walls: list[float] = []
    with sampler.running():
        warm = bench.run_pass()
        reps = {j: max(1, round(MIN_JOB_SECONDS / (end - start)))
                for j, [(start, end)] in warm.items()}
        started = perf_counter()
        last = 0.0
        while not _enough(len(walls), started, last, seconds):
            t = perf_counter()
            for j, runs in bench.run_pass(reps=reps).items():
                samples.setdefault(j, []).extend(runs)
            last = perf_counter() - t
            walls.append(last)
    times = {j: [sampler.job_time(*run) for run in runs] for j, runs in samples.items()}
    per_job_raw = {j: statistics.median(raw for raw, _ in t) for j, t in times.items()}
    per_job = {j: statistics.median(scaled for _, scaled in t) for j, t in times.items()}
    metrics = _job_metrics(per_job)
    setup, metrics["setup_s"] = measure_setup(workload)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref = statistics.median(loop for _, _, loop in sampler.samples)
    notes = [
        f"passes: {len(walls)} measured after one warm-up, taking "
        + ", ".join(f"{w:.3f}" for w in walls) + " s; wall_s sums each job's median",
        f"job times are medians of each job's samples; job_p50_s is the median of"
        f" {len(per_job)} job times; slowest job {max(per_job, key=per_job.__getitem__)}",
        f"reference loop: median {ref * 1000:.3f} ms of {len(sampler.samples)} samples;"
        f" job times are scaled to {REF_SECONDS * 1000:.3f} ms",
        "unscaled: " + ", ".join(f"{name} {value:.4f} s"
                                 for name, value in _job_metrics(per_job_raw).items())
        + f", setup_s {setup:.4f} s",
    ] + [f"  {job:40s} {per_job_raw[job]:.4f} s unscaled, {per_job[job]:.4f} s scaled,"
         f" median of {len(samples[job])}" for job in sorted(per_job)]
    return metrics, notes


def _pass_seconds(sampler: SpeedSampler, samples: Samples) -> float:
    """A pass's job time, scaled like the job times of an untraced run."""
    return sum(sampler.job_time(*run)[1] for runs in samples.values() for run in runs)


def traced_run(bench: Bench, seconds: float, workload: Any,
               seed: int) -> tuple[dict[str, float], list[str]]:
    tracer = tracing.Tracer()
    # Sampling in traced passes too lets the overhead compare scaled
    # times; the spans then include the sampler's share of the time.
    sampler = SpeedSampler()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    spans: list[list] = []
    with sampler.running():
        bench.run_pass()  # warm-up
        started = perf_counter()
        last = 0.0
        while len(traced) < 2 or not plain or not _enough(len(traced) + len(plain), started,
                                                          last, seconds):
            t = perf_counter()
            if len(traced) <= len(plain):
                tracer.reset()
                with tracer.installed():
                    traced.append(_pass_seconds(sampler, bench.run_pass(tracer)))
                layers.append(tracer.pass_metrics())
                spans += tracer.span_records(len(layers) - 1)
            else:
                plain.append(_pass_seconds(sampler, bench.run_pass()))
            last = perf_counter() - t

    counters = {name: layers[0][name] for name in tracing.DETERMINISTIC}
    for name in tracing.DETERMINISTIC:
        if any(p[name] != counters[name] for p in layers):
            bench.failures.append(f"counter {name} differs between traced passes")
    cache = OUT_ROOT / "counters" / f"{workload.name}-v{workload.variant}.json"
    if cache.is_file():
        earlier = json.loads(cache.read_text())
        for name, value in counters.items():
            if earlier.get(name) != value:
                bench.failures.append(f"counter {name} is {value}, an earlier run had "
                                      f"{earlier.get(name)}")
    else:
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps(counters, indent=1, sort_keys=True))

    metrics = tracing.summarize(layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    trace_file = OUT_ROOT / f"trace-{workload.name}-s{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "variant": workload.variant,
        "span_fields": ["name", "start", "end", "parent", "job", "pass"],
        "spans": spans, "passes": layers,
    }))
    notes = [
        f"passes: {len(traced)} traced, {len(plain)} untraced after one warm-up",
        f"spans written to {trace_file.relative_to(ROOT)}",
    ]
    return metrics, notes


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of the hom3lie command line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    try:
        cli = load_cli()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import inputs

    with work_dir(f"{args.workload}-s{args.seed}"):
        workload = inputs.build(args.workload, args.seed, Path("in"))
        bench = Bench(cli.main, workload, load_golden(args.workload, workload.variant))
        if args.trace:
            metrics, notes = traced_run(bench, args.seconds, workload, args.seed)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            metrics, notes = plain_run(bench, args.seconds, workload)
            units = END_TO_END_UNITS

    print(f"workload {args.workload}, seed {args.seed} (input variant {workload.variant}), "
          f"{len(workload.jobs)} jobs, closed loop with one client")
    for note in notes:
        print(note)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(f"{'failed_ratio':40s} {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} jobs attempted)")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
