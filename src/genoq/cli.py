"""Command-line entry point: reproducible, seeded experiments with CSV/JSON output.

The library returns plain values; this module alone builds CSV and JSON.

Exit codes: 0 success, 1 domain failure, 2 capacity, 3 parse/config error.
Each key=value line of a --config file becomes the flag it names, placed
right after the subcommand, so flags given on the command line override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

from . import __version__, grover, qubo, runtime, solvers, tts
from .errors import CapacityError, ParseError, SequenceParseError
from .genome import build_window_db, parse_sequence, upper_bases

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CAPACITY = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _load_config(path: str) -> dict:
    config = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = value.strip()
    return config


_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}


def _with_config(argv: list[str],
                 options: dict[str, dict[str, argparse.Action]]) -> list[str]:
    """``argv`` with each line of its last ``--config`` file inserted right
    after the subcommand as the flag it names: ``--key=value``, or the bare
    on/off flag when its word (a _BOOLEANS key, any case) is true. Flags
    given after the subcommand come later, so they win. A key that only
    another subcommand takes is skipped. ValueError for ``--config`` without
    a path, a key that no subcommand takes, or a word outside its flag's
    choices."""
    path, at = None, 0
    while at < len(argv) and argv[at] not in options:
        if argv[at] == "--config":
            at += 1
            if at == len(argv):
                raise ValueError("--config needs a file path")
            path = argv[at]
        elif argv[at].startswith("--config="):
            path = argv[at].split("=", 1)[1]
        at += 1
    if path is None:
        return argv
    takes = options[argv[at]] if at < len(argv) else {}
    flags = []
    for key, value in _load_config(path).items():
        if not any(key in taken for taken in options.values()):
            raise ValueError(f"{path}: no subcommand takes the key {key!r}")
        if key not in takes:
            continue
        action = takes[key]
        on_off = action.nargs == 0
        word = value.lower() if on_off else value
        words = _BOOLEANS if on_off else action.choices
        if words is not None and word not in words:
            raise ValueError(f"config value {key}={value!r} is not one of "
                             + ", ".join(map(repr, words)))
        if not on_off:
            flags.append(f"{action.option_strings[0]}={value}")
        elif _BOOLEANS[word]:
            flags.append(action.option_strings[0])
    return argv[:at + 1] + flags + argv[at + 1:]


def _meta(args) -> dict:
    meta = {"version": __version__, "command": args.command}
    params = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("command", "func", "config", "out", "no_timestamp")
        and v is not None
    }
    meta["parameters"] = params
    if not getattr(args, "no_timestamp", False):
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at ``indent``,
    byte for byte, for string-keyed dicts, without the far slower
    pure-Python encoder that ``indent`` selects: strings and keys go through
    json's C escaper, ints through ``str`` and other scalars through
    ``json.dumps``, which uses the C encoder."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        keys, values = zip(*sorted(value.items()))
        items = [f"{encode_basestring_ascii(k)}: {text}"
                 for k, text in zip(keys, _json_items(values, inner))]
    elif isinstance(value, (list, tuple)) and value:
        items = _json_items(value, inner)
    elif isinstance(value, str):
        return encode_basestring_ascii(value)
    else:
        return str(value) if type(value) is int else json.dumps(value)
    left, right = "{}" if isinstance(value, dict) else "[]"
    body = f",\n{inner}".join(items)
    return f"{left}\n{inner}{body}\n{indent}{right}"


def _json_items(values, indent: str) -> list[str]:
    """The texts of ``values`` nested at ``indent``. No number's text holds
    ", ", so one call encodes values that are all ints and floats."""
    if set(map(type, values)) <= {int, float}:
        return json.dumps(values)[1:-1].split(", ")
    return [_json_text(x, indent) for x in values]


def _emit_json(args, payload: dict) -> None:
    payload = {"meta": _meta(args), **payload}
    _emit(args, _json_text(payload) + "\n")


def _csv_header(args) -> list[str]:
    meta = _meta(args)
    params = meta.pop("parameters")
    return ([f"# {k}={_fmt(v)}" for k, v in sorted(meta.items())]
            + [f"# param.{k}={_fmt(v)}" for k, v in sorted(params.items())])


def _emit_csv(args, body: str) -> None:
    _emit(args, "\n".join(_csv_header(args)) + "\n" + body)


def _number(flag: str, text, cast):
    """``cast(text)``; a value that ``cast`` rejects is a ParseError naming
    the flag."""
    try:
        return cast(text)
    except (ValueError, OverflowError):
        raise ParseError(f"bad {flag} value {text!r}") from None


def _numbers(flag: str, text, cast) -> list:
    """The comma-separated values of ``flag``, each through ``_number``."""
    return [_number(flag, item, cast) for item in str(text).split(",")]


def _at_least_one(flag: str, values: list[int]) -> list[int]:
    """``values``, or a ValueError naming ``flag`` when one is below 1."""
    if min(values) < 1:
        raise ValueError(f"{flag} must be >= 1, got {min(values)}")
    return values


def _sizes(text) -> list[int]:
    """The --sizes values: whole numbers >= 1, none repeated."""
    sizes = _at_least_one("--sizes", _numbers("--sizes", text, int))
    for i, n in enumerate(sizes):
        if n in sizes[:i]:
            raise ValueError(f"--sizes repeats {n}")
    return sizes


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return seed


def _whole(text: str) -> int:
    """A size written as an integer or in float notation (3e9); ValueError
    unless it is a whole number."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not a whole number")
    return int(value)


def _require_seed(args) -> None:
    if getattr(args, "seed", None) is None:
        raise ValueError("--seed is required (no silent entropy)")


# --------------------------------------------------------------------------
# Subcommands


def _matches(db, run: grover.GroverRun) -> list[dict]:
    return [{"index": i, "window": db.window_string(i)}
            for i in run.matched_indices]


def cmd_grover_demo(args) -> int:
    _require_seed(args)
    db = build_window_db("TATG", 1)
    problem = grover.make_problem(db, "A")
    state_prep, oracle, diffusion = grover.prepare_circuits(problem)
    run = grover.run_search(problem, iterations=args.iterations,
                            shots=args.shots, seed=args.seed)
    index = run.top_slot
    payload = {
        "circuit": {
            "state_prep": state_prep.dump().splitlines(),
            "oracle": oracle.dump().splitlines(),
            "diffusion_gates": len(diffusion),
        },
        "iterations": args.iterations,
        "p_exact": run.p_exact,
        "histogram": run.histogram,
        "top_outcome": max(run.histogram, key=run.histogram.get),
        "decoded": {"index": index, "base": db.window_string(index)},
        "matches": _matches(db, run),
    }
    _emit_json(args, payload)
    ok = run.p_exact >= 0.999 and index == 1
    return EXIT_OK if ok else EXIT_DOMAIN


def _parse_key(text: str) -> str:
    """The --key bases, uppercased; rejected like a bad genome base."""
    if not text:
        raise SequenceParseError("empty --key", 0)
    return upper_bases(text, " of --key")


def cmd_grover_search(args) -> int:
    _require_seed(args)
    with open(args.genome) as fh:
        genome = parse_sequence(fh.read())
    key = _parse_key(args.key)
    db = build_window_db(genome, len(key))
    problem = grover.make_problem(db, key)
    scan = grover.classical_scan(db, key)
    iterations = args.iterations
    if iterations is None:
        iterations = grover.optimal_iterations(db.count, max(1, len(scan)))
    run = grover.run_search(problem, iterations=iterations,
                            shots=args.shots, seed=args.seed)
    payload = {
        "iterations": iterations,
        "p_exact": run.p_exact,
        "histogram": run.histogram,
        "matches": _matches(db, run),
        "classical_scan": scan,
        "agreement": run.matched_indices == scan,
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_loading_scan(args) -> int:
    _require_seed(args)
    rows, prep_exponent, total_exponent = grover.loading_cost_scan(
        _sizes(args.sizes), args.window, args.seed)
    lines = ["N,prep_gates,iter_gates,total_gates"]
    lines += [",".join(map(str, row)) for row in rows]
    lines.append(f"# prep_exponent={_fmt(prep_exponent)}")
    lines.append(f"# total_exponent={_fmt(total_exponent)}")
    _emit_csv(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_freq(text: str) -> float:
    units = {"khz": 1e3, "mhz": 1e6, "ghz": 1e9, "hz": 1.0}
    low = text.strip().lower()
    for suffix, mult in units.items():
        if low.endswith(suffix):
            return float(low[: -len(suffix)]) * mult
    return float(low)


def cmd_runtime(args) -> int:
    if args.freq is not None:
        hw = runtime.HardwareProfile(
            args.profile, _number("--freq", args.freq, _parse_freq))
    else:
        hw = runtime.BUILTIN_PROFILES[args.profile]
    n = _number("--N", args.N, _whole)
    _at_least_one("--N", [n])
    sweep_sizes = ([n] if args.sweep is None
                   else _numbers("--sweep", args.sweep, _whole))
    _at_least_one("--sweep", sweep_sizes)
    depth = runtime.max_depth_per_call(n, args.budget, hw)
    calls, seconds_per_call = runtime.quantum_runtime(n, depth, hw)
    classical = runtime.PowerLawModel(args.classical_seconds / n, 1.0)
    quantum = runtime.PowerLawModel(depth / hw.logical_gate_frequency, 0.5)
    lines = ["N,T_classical,T_quantum,crossover_flag"]
    for size, t_classical, t_quantum, crossover in runtime.runtime_sweep(
            sweep_sizes, classical, quantum):
        lines.append(f"{size},{_fmt(t_classical)},{_fmt(t_quantum)},"
                     f"{int(crossover)}")
    lines.append(f"# max_depth_per_call={depth}")
    lines.append(f"# calls={calls}")
    lines.append(f"# seconds_per_call={_fmt(seconds_per_call)}")
    lines.append(f"# seconds_total={_fmt(calls * seconds_per_call)}")
    _emit_csv(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _build_encoding(args) -> qubo.Encoding:
    problem = args.problem
    if args.input is not None:
        with open(args.input) as fh:
            text = fh.read()
    elif problem not in ("assembly-path", "tsp-path"):
        raise ValueError(f"{problem} builds need --input")
    else:
        text = None
    if problem == "max-cut":
        return qubo.maxcut_to_ising(qubo.weighted_graph_from_json(text))
    if problem == "phasing":
        return qubo.phasing_to_ising(qubo.fragment_graph_from_json(text))
    if problem == "mis":
        return qubo.mis_to_qubo(qubo.weighted_graph_from_json(text))
    if problem == "knapsack":
        return qubo.knapsack_to_qubo(qubo.knapsack_from_json(text))
    # assembly-path or tsp-path
    if text is not None:
        return qubo.assembly_to_qubo(qubo.overlap_from_json(text))
    if args.n is None:
        raise ValueError("assembly/tsp builds need --input or --n")
    if args.n > qubo.ASSEMBLY_NODE_CAP:
        raise CapacityError(f"{args.n} reads exceeds the "
                            f"{qubo.ASSEMBLY_NODE_CAP}-read cap")
    _require_seed(args)
    import numpy as np

    rng = np.random.default_rng(args.seed)
    overlaps = {
        (u, v): float(rng.integers(1, 10))
        for u in range(args.n) for v in range(args.n) if u != v
    }
    return qubo.assembly_to_qubo(qubo.OverlapInstance(args.n, overlaps))


def cmd_qubo_build(args) -> int:
    enc = _build_encoding(args)
    text = qubo.write_model(enc.model)
    info = "".join(f"# {k}={_fmt(v)}\n" for k, v in sorted(enc.info.items()))
    _emit(args, text + info)
    return EXIT_OK


def cmd_qubo_solve(args) -> int:
    with open(args.model) as fh:
        model = qubo.read_model(fh.read())
    if args.solver == "brute":
        best_e, assignments = solvers.brute_force(model)
        payload = {
            "solver": "brute",
            "best_energy": best_e,
            "optimal_assignments": assignments,
        }
    else:
        _require_seed(args)
        schedule = solvers.AnnealSchedule(
            sweeps=args.sweeps, beta_start=args.beta_start,
            beta_end=args.beta_end)
        run = solvers.simulated_annealing(model, schedule, args.seed)
        payload = {
            "solver": "sa",
            "best_energy": run.best_energy,
            "best_assignment": run.best_assignment,
            "trace": run.trace,
            "sweeps": args.sweeps,
        }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_tts_scan(args) -> int:
    _require_seed(args)
    sizes = _sizes(args.sizes)
    t_grid = _numbers("--t-grid", args.t_grid, qubo._finite)
    rows = ["N,t,p_hat,R,TTS"]
    star_rows = ["N,TTS_star,t_star,boundary_flag"]
    tts_star: dict[float, float] = {}
    if args.stub_tau is not None and not 0 < args.stub_tau < math.inf:
        raise ValueError(
            f"--stub-tau must be positive and finite, got {args.stub_tau!r}")
    for n in sizes:
        if args.stub_tau is not None:
            # Closed-form stub p(t) = 1 - exp(-t / (tau * N)) for protocol checks.
            tau = args.stub_tau * n
            estimator = lambda t, tau=tau: 1.0 - math.exp(-t / tau)
        else:
            size_seed = (args.seed, n)  # and (seed, n, t) for the estimate at t
            model = solvers.planted_ferromagnet(n, args.density, size_seed)
            # Certified ground: the planted state satisfies every +-1 coupling.
            ground = -float(len(model.J))
            estimator = tts.sa_probability_estimator(
                model, threshold=ground, runs=args.runs, seed=size_seed)
        curve = tts.tts_curve(estimator, t_grid, args.target_p)
        for p in curve.points:
            rows.append(
                f"{n},{_fmt(p.t)},{_fmt(p.p_hat)},"
                f"{p.repetitions if p.repetitions is not None else 'excluded'},"
                f"{_fmt(p.tts) if p.tts is not None else 'excluded'}"
            )
        best = tts.optimal_tts(curve)
        boundary = tts.optimum_at_boundary(curve)
        star_rows.append(f"{n},{_fmt(best.tts)},{_fmt(best.t)},{int(boundary)}")
        tts_star[float(n)] = best.tts
    body = "\n".join(rows) + "\n" + "\n".join(star_rows) + "\n"
    if len(tts_star) >= 3:
        power_law, exponential = tts.scaling_fit(tts_star)
        body += (
            f"# power_law_exponent={_fmt(power_law.rate)}\n"
            f"# power_law_stderr={_fmt(power_law.rate_stderr)}\n"
            f"# exponential_base={_fmt(exponential.base)}\n"
            f"# exponential_stderr={_fmt(exponential.rate_stderr)}\n"
        )
    _emit_csv(args, body)
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=_seed,
                   help="RNG seed, a non-negative integer (required when "
                        "stochastic)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress the timestamp metadata field")


@functools.cache
def build_parser() -> tuple[_Parser, dict[str, dict[str, argparse.Action]]]:
    """The parser, and for each subcommand the actions of its flags by
    config key (the flag's dest). Built once per process, as parsing never
    changes either."""
    parser = _Parser(prog="genoq", allow_abbrev=False,
                     description="Quantum-search and QUBO workbench for genomics")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        _add_common(p)
        return p

    p = command("grover-demo", cmd_grover_demo,
                "4-element toy database search, key 'A'")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--shots", type=int, default=256)

    p = command("grover-search", cmd_grover_search,
                "search a genome file for a key string")
    p.add_argument("--genome", required=True, help="plain or FASTA sequence file")
    p.add_argument("--key", required=True, help="key string of bases")
    p.add_argument("--iterations", type=int,
                   help="Grover iterations (default: optimal for scan count)")
    p.add_argument("--shots", type=int, default=1024)

    p = command("loading-scan", cmd_loading_scan,
                "gate-count scaling sweep over genome sizes")
    p.add_argument("--sizes", default="64,128,256,512,1024,2048,4096",
                   help="comma-separated genome lengths")
    p.add_argument("--window", type=int, default=2)

    p = command("runtime", cmd_runtime,
                "quantum vs classical runtime and depth budgets")
    p.add_argument("--N", required=True, help="problem size (accepts 3e9)")
    p.add_argument("--budget", type=float, default=60.0,
                   help="total runtime budget in seconds")
    p.add_argument("--freq", help="logical gate frequency, e.g. 10kHz")
    p.add_argument("--profile", default="surface-10kHz",
                   choices=sorted(runtime.BUILTIN_PROFILES))
    p.add_argument("--classical-seconds", type=float,
                   default=runtime.DEFAULT_CLASSICAL_SECONDS)
    p.add_argument("--sweep", help="comma-separated N values for the CSV sweep")

    p = command("qubo-build", cmd_qubo_build, "encode a native instance")
    p.add_argument("--problem", required=True,
                   choices=("max-cut", "phasing", "assembly-path",
                            "tsp-path", "knapsack", "mis"))
    p.add_argument("--input", help="native instance as JSON")
    p.add_argument("--n", type=int, help="random instance size (tsp/assembly)")

    p = command("qubo-solve", cmd_qubo_solve, "solve a serialized model")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--solver", choices=("brute", "sa"), default="brute")
    p.add_argument("--sweeps", type=int, default=100)
    p.add_argument("--beta-start", type=float, default=solvers.DEFAULT_BETA_START)
    p.add_argument("--beta-end", type=float, default=solvers.DEFAULT_BETA_END)

    p = command("tts-scan", cmd_tts_scan, "TTS curves and scaling fits")
    p.add_argument("--sizes", default="8,12,16,20,24")
    p.add_argument("--t-grid", default="1,2,4,8,16,32,64")
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--target-p", type=float, default=0.9)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--stub-tau", type=float,
                   help="use the closed-form stub p(t)=1-exp(-t/(tau*N))")

    options = {name: {a.dest: a for a in p._actions if a.dest != "help"}
               for name, p in sub.choices.items()}
    return parser, options


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, options = build_parser()
    try:
        argv = _with_config(argv, options)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"genoq: config error: {exc}\n")
        return EXIT_CONFIG
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, MemoryError) as exc:
        sys.stderr.write(f"genoq: capacity error: {str(exc) or 'out of memory'}\n")
        return EXIT_CAPACITY
    except (ParseError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"genoq: parse error: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"genoq: error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
