"""Seeded end-to-end benchmark of genoq: one workload per invocation.

    python3 bench/run.py --workload sampling --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from --seed and written under
``.bench_out/`` in the checkout. One client runs the workload's pass (a fixed
list of jobs: CLI subcommands through ``genoq.cli.main`` in-process, or public
genoq functions) closed-loop, one job after another, in whole passes for
about --seconds, after one untimed pass. Every output is checked after the
timed region; a failed check, an exception or a nonzero exit counts as a
failed operation.

wall_s is the mean time of a pass. The host's speed swings by up to half for
tenths of a second to minutes at a time, so a mean over the whole run is
steadier than any one pass or a fastest-of estimate, and it carries no bias
that depends on how many passes fit.

Set-up is timed cold: setup_once.py imports genoq, builds the inputs and
warms up in a fresh interpreter, SETUP_REPEATS times, two ahead of each pass,
and setup_s is the median.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs untraced
passes for half of --seconds, then passes with spans around every
layer-boundary function (see spans.py) for the other half, and prints the
per-layer metrics plus the tracing overhead; its spans go to
``.bench_out/spans-<workload>-seed<seed>.json``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Without the genoq
sources next to this directory the command exits 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the benchmark is one client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
SETUPS_PER_PASS = 2
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3  # per phase of a traced run, too
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it

# The end-to-end metrics of the result line, as in BENCHMARK.json. job_s_p50,
# job_s_tail and failed_ops are printed only: the first two are the times of
# single jobs, which the host's load swings by more than any bound, and
# failed_ops can read 0.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# --------------------------------------------------------------------------
# Environment


def cache_bytes(level: int) -> int | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            lvl = int(Path(index, "level").read_text())
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if lvl == level and kind in ("Unified", "Data"):
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np) -> int | str:
    """Threads of numpy's bundled OpenBLAS, asked of the library itself."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def environment(np, seed: int) -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "l2_bytes": cache_bytes(2), "l3_bytes": cache_bytes(3),
        "blas_threads": _blas_threads(np), "seed": seed,
    }


# --------------------------------------------------------------------------
# Running jobs


class Outcomes:
    """Per-job outputs of every pass, kept once per distinct output."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.records: list[tuple[int, float, str]] = []  # (job, seconds, output key)
        self.distinct: dict[tuple[int, str], object] = {}
        self.errors: dict[tuple[int, str], list[str]] = {}

    def run(self, j: int) -> float:
        job = self.jobs[j]
        start = time.perf_counter()
        try:
            value = job.run()
        except (Exception, SystemExit):  # e.g. the CLI's argument errors exit 3
            seconds = time.perf_counter() - start
            self._record(j, seconds, "raised", error=traceback.format_exc(limit=3))
            return seconds
        seconds = time.perf_counter() - start
        output = job.output(value)
        key = hashlib.sha256(repr(output).encode()).hexdigest()
        self._record(j, seconds, key, output=output)
        return seconds

    def _record(self, j, seconds, key, output=None, error=None):
        self.records.append((j, seconds, key))
        if error is not None:
            self.errors.setdefault((j, key), [error.strip().splitlines()[-1]])
        elif (j, key) not in self.distinct:
            self.distinct[(j, key)] = output

    def check(self) -> None:
        """Check each distinct output once; repeats of it share the verdict."""
        for (j, key), output in self.distinct.items():
            try:
                problems = self.jobs[j].check(output)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=2)
                            .strip().splitlines()[-1]]
            if problems:
                self.errors[(j, key)] = problems

    def failed(self) -> int:
        return sum((j, key) in self.errors for j, _, key in self.records)

    def digests(self) -> dict[str, str]:
        out = {}
        for (j, key), output in self.distinct.items():
            job = self.jobs[j]
            if job.digest is not None and (j, key) not in self.errors:
                out[job.label] = hashlib.sha256(job.digest(output).encode()).hexdigest()
        return out


def run_passes(outcomes: Outcomes, seconds: float, tracer=None,
               between=lambda: None) -> list[list[float]]:
    """Closed loop: whole passes, one job after another, for about ``seconds``.

    A pass starts only if one more pass of the mean length so far still ends
    within ``seconds``, and at least MIN_PASSES run. ``between`` is an untimed
    call made ahead of each pass. Returns the timed seconds of every job, one
    list per pass.
    """
    passes: list[list[float]] = []
    elapsed = 0.0
    while len(passes) < MIN_PASSES or elapsed + elapsed / len(passes) <= seconds:
        between()
        times = []
        for j in range(len(outcomes.jobs)):
            if tracer is not None:
                tracer.job = len(outcomes.records)
            times.append(outcomes.run(j))
        passes.append(times)
        elapsed += sum(times)
    return passes


def mean_pass(passes: list[list[float]]) -> float:
    return statistics.mean(map(sum, passes))


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond) of the highest percentile that keeps
    at least TAIL_BEYOND jobs beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# --------------------------------------------------------------------------
# Main


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_genoq() -> bool:
    """Import genoq from this checkout's sources; False if they are missing."""
    src = ROOT / "src"
    if not (src / "genoq" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import genoq.cli  # noqa: F401  (numpy loads here too)
    return Path(genoq.cli.__file__).resolve().parent == src / "genoq"


def warm_up(plan) -> None:
    """Run the first job of each kind once, untimed and unchecked."""
    warm = Outcomes(plan.jobs)
    for kind in dict.fromkeys(job.kind for job in plan.jobs):
        warm.run(next(j for j, job in enumerate(plan.jobs) if job.kind == kind))


def cold_setup(workload: str, seed: int, work: Path) -> float:
    """Seconds of one set-up in a fresh interpreter (see setup_once.py)."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload, str(seed),
             str(work)], capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return float(done.stdout.split()[-1])


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:32s} {value:>14.6g} {unit:6s} {note}".rstrip()


def main(argv=None) -> int:
    args = _parse(argv)
    if not import_genoq():
        sys.stderr.write(f"bench: genoq sources not found under {ROOT / 'src'}\n")
        return 2
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    build = workloads.WORKLOADS[args.workload]
    env = environment(np, args.seed)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        return _run(args, build, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, build, env, work) -> int:
    plan = build(args.seed, work, env["l2_bytes"] or 1)
    # One whole untimed pass first. It fills the program's in-process caches
    # (the simulator's index tables, one per register size and target) for
    # every job, so the first timed pass does not run slower than the rest.
    warm = Outcomes(plan.jobs)
    for j in range(len(plan.jobs)):
        warm.run(j)

    # setup_s: import genoq, generate and write the inputs, then warm up on
    # the first job of each kind, cold, in a fresh interpreter. The set-ups
    # run between the passes, so their median and the passes' mean sample
    # the same stretch of the host's load.
    setups: list[float] = []
    setup_work = work.with_name(work.name + "-setup")

    def cold(count: int) -> None:
        for _ in range(min(count, SETUP_REPEATS - len(setups))):
            setups.append(cold_setup(args.workload, args.seed, setup_work))

    outcomes = Outcomes(plan.jobs)
    tracer = None
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(outcomes, seconds, between=lambda: cold(SETUPS_PER_PASS))
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(outcomes, seconds, tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cold(SETUP_REPEATS)
    setup_s = statistics.median(setups)

    outcomes.check()
    probes = Outcomes(plan.probes)
    for j in range(len(plan.probes)):
        probes.run(j)
    probes.check()

    times = [t for pass_times in passes for t in pass_times]
    tail_s, tail_pct, beyond = tail(times)
    attempted, failed = len(outcomes.records), outcomes.failed()
    probe_attempted, probe_failed = len(probes.records), probes.failed()
    all_attempted = attempted + probe_attempted
    all_failed = failed + probe_failed
    metrics = {
        "setup_s": setup_s,
        "wall_s": mean_pass(passes),
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind: dict[str, float] = {}
    for j, job in enumerate(plan.jobs):
        mean_s = statistics.mean(p[j] for p in passes)
        by_kind[job.kind] = by_kind.get(job.kind, 0.0) + mean_s

    print(f"genoq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"pass: {len(plan.jobs)} jobs, closed loop, one client "
          f"(mean / fastest time per job over {len(passes)} passes)")
    for j, job in enumerate(plan.jobs):
        mean_s = statistics.mean(p[j] for p in passes)
        fastest_s = min(p[j] for p in passes)
        extra = " ".join(f"{k}={v}" for k, v in job.info.items())
        print(f"  {mean_s:8.4f} {fastest_s:8.4f} s  {job.kind:20s} {job.label}  "
              f"{extra}".rstrip())
    print("end-to-end (tracing off):")
    print(_line("setup_s", setup_s, "s",
                f"median of {SETUP_REPEATS} cold set-ups (import + input build "
                f"+ warm-up): " + " ".join(f"{s:.4f}" for s in setups)))
    print(_line("wall_s", metrics["wall_s"], "s",
                f"mean of {len(passes)} passes: "
                + " ".join(f"{sum(p):.4f}" for p in passes)))
    for kind, mean_s in by_kind.items():
        print(_line(f"  of which {kind}", mean_s, "s"))
    print(_line("job_s_p50", statistics.median(times), "s",
                f"median of all {len(times)} jobs run"))
    print(_line("job_s_tail", tail_s, "s",
                f"p{tail_pct:.1f} of all {len(times)} jobs run, {beyond} beyond"))
    print(_line("failed_ops", all_failed / all_attempted, "ratio",
                f"{all_failed} failed / {all_attempted} attempted "
                f"(pass jobs {failed}/{attempted}, "
                f"build->solve probes {probe_failed}/{probe_attempted})"))
    print(_line("peak_rss_mb", peak_rss_mb, "MB"))
    for ran in (outcomes, probes):
        for (j, _), problems in ran.errors.items():
            print(f"  FAILED {ran.jobs[j].label}: {'; '.join(problems)[:300]}")
    print("digests " + json.dumps(outcomes.digests(), sort_keys=True))

    result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
              for name, value in metrics.items()}
    if tracer is not None:
        overhead = mean_pass(traced) - metrics["wall_s"]
        layer = spans.per_layer(tracer, len(traced), overhead)
        print(f"per layer (traced, mean per pass over {len(traced)} passes):")
        for name, (value, unit) in layer.items():
            print(_line(name, float(value), unit))
        result = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in layer.items()}
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
