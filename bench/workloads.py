"""The benchmark's two workloads: seeded inputs, the jobs of one pass, checks.

Each workload joins two of four job families (grover_search, cost_model,
tts_scan, qubo_exact; see WORKLOADS). A family builds its inputs from the
workload seed, writes them under a work directory and returns a Plan: the jobs
of one closed-loop pass (run in order, one after another, by one client) and
the probes run once per benchmark run.
The program only ever sees the generated files and the seeds on the command
lines built here.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from genoq import cli, genome, grover, qubo

T_GRID = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class CliOutput:
    rc: int
    text: str


@dataclass
class Job:
    """One operation: ``run`` is timed; ``output`` and ``check`` are not."""

    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    output: Callable[[object], object] = lambda value: value
    # Canonical text that must stay byte-identical across commits, if any.
    digest: Callable[[object], str] | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    jobs: list[Job]
    probes: list[Job] = field(default_factory=list)


def _collect(out: Path, rc: int) -> CliOutput:
    """Read and remove a CLI output file, so a later failing run cannot see it."""
    text = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    return CliOutput(rc, text)


def cli_job(label: str, kind: str, argv: list[str], out: Path,
            check: Callable[[int, str], list[str]],
            digest: Callable[[str], str] | None = None, **info) -> Job:
    """A ``genoq`` subcommand run in-process through ``genoq.cli.main``."""
    full = argv + ["--no-timestamp", "--out", str(out)]
    return Job(
        label=label, kind=kind,
        run=lambda: cli.main(full),  # resolved per call, so tracing can wrap it
        output=lambda rc: _collect(out, rc),
        check=lambda o: check(o.rc, o.text),
        digest=(lambda o: digest(o.text)) if digest else None,
        info=info,
    )


def _write_fasta(path: Path, name: str, seq: str) -> None:
    lines = [seq[i : i + 60] for i in range(0, len(seq), 60)]
    path.write_text(f">{name}\n" + "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# grover_search: sim.apply_gate carries the time; statevectors from 32 KB to
# 8 MB straddle the per-core L2.

# (register shape, genome length, key length, key class, forced iterations)
GROVER_SHAPES = (
    ("wide-index", 128, 2, "repeated", None),  # 12 qubits
    ("wide-index", 256, 2, "repeated", None),  # 13
    ("wide-index", 512, 2, "repeated", None),  # 14
    ("wide-index", 256, 3, "repeated", 1),     # 15; optimal k would be >= 4
    ("wide-index", 32, 3, "unique", None),     # 12
    ("wide-index", 64, 3, "unique", None),     # 13
    ("wide-index", 16, 3, "absent", None),     # 11, search_unknown_count
    ("wide-index", 32, 3, "absent", None),     # 12, search_unknown_count
    ("wide-data", 14, 7, "unique", None),      # 17
    ("wide-data", 11, 7, "unique", None),      # 18
    ("wide-data", 15, 8, "unique", None),      # 19
    ("wide-data", 14, 7, "repeated", None),    # 17, key planted twice
)


def _random_genome(rng, length: int) -> str:
    return "".join(rng.choice(list("ATGC"), size=length))


def _mean_load(seq: str, m: int) -> bool:
    """True when the genome's table load sits at its mean over random genomes.

    State preparation applies one multicontrolled X per set data bit per slot
    (padding slots repeat window 0), and a random base has one set bit on
    average (A=00 T=01 G=10 C=11). Holding the load at m bits per slot keeps a
    job's gate count, and with it its cost, from swinging with the seed; for
    8 windows of 16 bits it would otherwise vary by about a third.
    """
    count = len(seq) - m + 1
    pops = [checks.BASE_POPCOUNT[b] for b in seq]
    windows = [sum(pops[i : i + m]) for i in range(count)]
    padding = (1 << (count - 1).bit_length()) - count
    load = sum(windows) + padding * windows[0]
    target = m * (count + padding)
    return abs(load - target) <= target // 200


def _grover_input(rng, length: int, m: int, key_class: str) -> tuple[str, str]:
    """A genome at its mean load and a key occurring once, more than once, or
    never in it.

    Repeated keys are the most frequent window, so the optimal iteration count
    (and with it the job's cost) does not swing with the seed either.
    """
    while True:
        if key_class == "repeated" and length == 2 * m:
            half = _random_genome(rng, m)
            seq, planted = half + half, half
        else:
            seq, planted = _random_genome(rng, length), None
        if not _mean_load(seq, m):
            continue
        if planted:
            return seq, planted
        counts: dict[str, int] = {}
        for i in range(length - m + 1):
            counts[seq[i : i + m]] = counts.get(seq[i : i + m], 0) + 1
        if key_class == "repeated":
            top = max(counts.values())
            if top >= 2:
                return seq, min(k for k, c in counts.items() if c == top)
        elif key_class == "unique":
            unique = sorted(k for k, c in counts.items() if c == 1)
            if unique:
                return seq, unique[int(rng.integers(len(unique)))]
        else:
            absent = sorted({"".join(p) for p in itertools.product("ATGC", repeat=m)}
                            - set(counts))
            if absent:
                return seq, absent[int(rng.integers(len(absent)))]


def _absent_search(fasta: Path, key: str, seed: int):
    text = genome.parse_sequence(fasta.read_text())
    problem = grover.make_problem(genome.build_window_db(text, len(key)), key)
    return grover.search_unknown_count(problem, seed=seed)


def grover_search(seed: int, work: Path, l2_bytes: int) -> Plan:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for j, (shape, length, m, key_class, iters) in enumerate(GROVER_SHAPES):
        seq, key = _grover_input(rng, length, m, key_class)
        fasta = work / f"genome{j}.fa"
        _write_fasta(fasta, f"{shape}-{j}", seq)
        job_seed = int(rng.integers(0, 2**31))
        qubits = genome.layout_for(length, m).total
        info = {"qubits": qubits, "statevector_bytes": 16 << qubits,
                "statevector_over_l2": round((16 << qubits) / l2_bytes, 4)}
        label = f"{shape} L={length} m={m} {key_class} ({qubits} qubits)"
        if key_class == "absent":
            jobs.append(Job(
                label=label, kind="search_unknown_count",
                run=lambda f=fasta, k=key, s=job_seed: _absent_search(f, k, s),
                check=checks.absent_key, info=info))
            continue
        argv = ["grover-search", "--genome", str(fasta), "--key", key,
                "--seed", str(job_seed)]
        if iters is not None:
            argv += ["--iterations", str(iters)]
        jobs.append(cli_job(
            label, "grover-search", argv, work / f"search{j}.json",
            lambda rc, text, g=seq, k=key, it=iters:
                checks.grover_search(rc, text, g, k, it),
            **info))
    return Plan(jobs)


# --------------------------------------------------------------------------
# cost_model: circuits are built and counted, never run.

LOADING_SCANS = (
    (8, (64, 128, 256, 512, 1024)),
    (2, (64, 128, 256, 512, 1024, 2048, 4096)),
    (8, (512, 1024, 2048, 4096)),
    (2, (2048, 4096, 8192, 16384)),
    (8, (4096, 8192, 16384)),
)
RUNTIME_JOBS = 4
PROFILE_HZ = {"surface-10kHz": 1e4, "optimistic-10MHz": 1e7}
CLASSICAL_SECONDS = 60.0  # the CLI default


def cost_model(seed: int, work: Path, l2_bytes: int) -> Plan:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for j, (window, sizes) in enumerate(LOADING_SCANS):
        scan_seed = int(rng.integers(0, 2**31))
        argv = ["loading-scan", "--sizes", ",".join(map(str, sizes)),
                "--window", str(window), "--seed", str(scan_seed)]
        jobs.append(cli_job(
            f"loading-scan w={window} N={sizes[0]}..{sizes[-1]}", "loading-scan",
            argv, work / f"scan{j}.csv",
            lambda rc, text, s=sizes, w=window, sd=scan_seed:
                checks.loading_scan(rc, text, list(s), w, sd),
            digest=lambda text: text))
    for j in range(RUNTIME_JOBS):
        n = int(10 ** rng.uniform(6.0, 10.0))
        budget = float(rng.integers(60, 3600))
        profile = sorted(PROFILE_HZ)[j % 2]
        sweep = sorted(int(10 ** e) for e in rng.uniform(3.0, 12.0, size=4))
        argv = ["runtime", "--N", str(n), "--budget", str(budget), "--profile",
                profile, "--sweep", ",".join(map(str, sweep))]
        jobs.append(cli_job(
            f"runtime N={n} {profile}", "runtime", argv, work / f"runtime{j}.csv",
            lambda rc, text, n=n, b=budget, f=PROFILE_HZ[profile], sw=sweep:
                checks.runtime(rc, text, n, b, f, CLASSICAL_SECONDS, sw),
            digest=lambda text: text))
    return Plan(jobs)


# --------------------------------------------------------------------------
# tts_scan: SA flip attempts plus one brute force per planted instance.

TTS_SCANS = ((14,), (15,), (16,), (17,), (18,), (20,), (8, 10, 12), (9, 11, 13))
TTS_RUNS = 16
TTS_DENSITY = 0.5  # the CLI default
TTS_TARGET_P = 0.9  # the CLI default


def _tts_check(rc: int, text: str, sizes, scan_seed: int) -> list[str]:
    problems = checks.tts_scan(rc, text, list(sizes), list(T_GRID), TTS_RUNS,
                               TTS_TARGET_P)
    for n in sizes:
        problems += checks.planted_ground(n, TTS_DENSITY, scan_seed + n)
    return problems


def tts_scan(seed: int, work: Path, l2_bytes: int) -> Plan:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for j, sizes in enumerate(TTS_SCANS):
        scan_seed = int(rng.integers(0, 2**30))
        argv = ["tts-scan", "--sizes", ",".join(map(str, sizes)),
                "--t-grid", ",".join(map(str, T_GRID)), "--runs", str(TTS_RUNS),
                "--seed", str(scan_seed)]
        jobs.append(cli_job(
            f"tts-scan N={','.join(map(str, sizes))}", "tts-scan", argv,
            work / f"tts{j}.csv",
            lambda rc, text, s=sizes, sd=scan_seed: _tts_check(rc, text, s, sd)))
    return Plan(jobs)


# --------------------------------------------------------------------------
# qubo_exact: exact solving at 16-20 variables, then a short SA.

# (problem, size, edge count); knapsack size counts items (+7 slack bits),
# assembly size counts reads (n^2 variables).
QUBO_INSTANCES = (
    ("assembly-path", 4, 0), ("knapsack", 9, 0), ("max-cut", 17, 40),
    ("phasing", 16, 38), ("mis", 18, 40),
    ("assembly-path", 4, 0), ("knapsack", 11, 0), ("max-cut", 20, 50),
    ("phasing", 19, 45), ("mis", 20, 45),
)
SA_SWEEPS = 200
ENCODERS = {  # looked up on the module per call, so tracing can wrap them
    "max-cut": "maxcut_to_ising",
    "phasing": "phasing_to_ising",
    "mis": "mis_to_qubo",
    "knapsack": "knapsack_to_qubo",
    "assembly-path": "assembly_to_qubo",
}


def _encode(kind: str, inst):
    return getattr(qubo, ENCODERS[kind])(inst)


def _edges(rng, n: int, m: int, signed: bool) -> list[list]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = []
    for k in sorted(rng.choice(len(pairs), size=m, replace=False)):
        w = int(rng.integers(1, 10)) * (int(rng.choice([-1, 1])) if signed else 1)
        edges.append([*pairs[k], w])
    return edges


def _qubo_instance(rng, kind: str, size: int, m: int) -> tuple[dict, object]:
    """Instance JSON (the CLI's input shape) and the native instance."""
    if kind == "knapsack":
        obj = {"values": [int(v) for v in rng.integers(1, 30, size=size)],
               "weights": [int(w) for w in rng.integers(1, 20, size=size)],
               "capacity": int(rng.integers(64, 128))}
        return obj, qubo.knapsack_from_json(json.dumps(obj))
    if kind == "assembly-path":
        obj = {"n": size, "overlaps": [[u, v, int(rng.integers(0, 10))]
                                       for u in range(size) for v in range(size)
                                       if u != v]}
        return obj, qubo.overlap_from_json(json.dumps(obj))
    obj = {"n": size, "edges": _edges(rng, size, m, signed=kind == "phasing")}
    if kind == "phasing":
        return obj, qubo.fragment_graph_from_json(json.dumps(obj))
    return obj, qubo.weighted_graph_from_json(json.dumps(obj))


def _solve(model_path: Path, out: Path, *flags: str) -> int:
    return cli.main(["qubo-solve", "--model", str(model_path), *flags,
                     "--no-timestamp", "--out", str(out)])


def _probe(inst_path: Path, kind: str, model_path: Path, out: Path):
    """The README pipeline: ``qubo-build --out m.qubo``, then ``qubo-solve``."""
    rc = cli.main(["qubo-build", "--problem", kind, "--input", str(inst_path),
                   "--no-timestamp", "--out", str(model_path)])
    if rc != 0:
        return CliOutput(rc, "")
    return _collect(out, _solve(model_path, out, "--solver", "brute"))


def qubo_exact(seed: int, work: Path, l2_bytes: int) -> Plan:
    """One job per instance: encode, write_model/read_model round trip, then
    ``qubo-solve`` by brute force and by a short SA on the model file."""
    rng = np.random.default_rng([seed, 4])
    plan = Plan([])
    probed = set()
    for j, (kind, size, m) in enumerate(QUBO_INSTANCES):
        obj, inst = _qubo_instance(rng, kind, size, m)
        inst_path = work / f"instance{j}.json"
        inst_path.write_text(json.dumps(obj))
        encoding = _encode(kind, inst)
        model_path = work / f"model{j}.qubo"
        model_path.write_text(qubo.write_model(encoding.model))
        brute_out, sa_out = work / f"brute{j}.json", work / f"sa{j}.json"
        sa_flags = ("--solver", "sa", "--sweeps", str(SA_SWEEPS),
                    "--seed", str(int(rng.integers(0, 2**31))))
        optimum: list = []  # native optimum, computed once on first check

        def native(kind=kind, inst=inst, optimum=optimum):
            if not optimum:
                optimum.append(checks.native_optimum(kind, inst))
            return optimum[0]

        def run(kind=kind, inst=inst, model_path=model_path, brute_out=brute_out,
                sa_out=sa_out, sa_flags=sa_flags):
            model = _encode(kind, inst).model
            read_back = qubo.read_model(qubo.write_model(model))
            return (model, read_back,
                    _solve(model_path, brute_out, "--solver", "brute"),
                    _solve(model_path, sa_out, *sa_flags))

        def check(o, encoding=encoding, kind=kind, native=native):
            model, read_back, brute, sa = o
            return (checks.model_roundtrip(model, read_back)
                    + checks.qubo_brute(brute.rc, brute.text, encoding, kind, native())
                    + checks.qubo_sa(sa.rc, sa.text, encoding.model, native()[0]))

        plan.jobs.append(Job(
            label=f"{kind} #{j} n={encoding.model.n}", kind="qubo-instance",
            run=run, check=check,
            output=lambda v, b=brute_out, s=sa_out: (
                v[0], v[1], _collect(b, v[2]), _collect(s, v[3])),
            digest=lambda o: checks.optima_digest_text(o[2].text)))
        if kind not in probed:
            probed.add(kind)
            plan.probes.append(Job(
                label=f"qubo-build --out -> qubo-solve {kind}", kind="probe",
                run=lambda p=inst_path, k=kind, j=j: _probe(
                    p, k, work / f"built{j}.qubo", work / f"built{j}.json"),
                check=lambda o, e=encoding, k=kind, nat=native:
                    checks.qubo_brute(o.rc, o.text, e, k, nat())))
    return plan


def _combined(*parts: Callable[[int, Path, int], Plan]):
    """A workload whose pass runs the jobs of each part in turn."""
    def build(seed: int, work: Path, l2_bytes: int) -> Plan:
        plans = [part(seed, work, l2_bytes) for part in parts]
        return Plan([job for plan in plans for job in plan.jobs],
                    [probe for plan in plans for probe in plan.probes])
    return build


# Two workloads, so that each run is long enough to average over the host's
# speed swings. Each planned optimisation is exercised by one and bypassed by
# the other: fused Grover operators speed up grover_search in "sampling", not
# cost_model in "exact"; closed-form gate counts the reverse; batched SA and a
# tts-scan without its brute force speed up tts_scan in "sampling" more than
# the short SA of qubo_exact in "exact". "exact" holds every output that must
# stay byte-identical.
WORKLOADS = {
    "sampling": _combined(grover_search, tts_scan),
    "exact": _combined(cost_model, qubo_exact),
}
