"""Ising/QUBO encoders for genomics optimization problems.

All encoders target a common quadratic model over spins (+-1) or bits (0/1),
with exact conversion between the two conventions. Constraint penalties use
A = 1 + sum(|objective coefficients|) for the relevant family, a sufficient
(not minimal) separation bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, ClassVar, Sequence

from .errors import CapacityError, ParseError, ShapeError

ASSEMBLY_NODE_CAP = 6  # keeps n^2-variable models brute-force verifiable
# Largest model read or encoded, checked before anything of its size is
# allocated. Knapsack models couple every pair of their variables, so for
# them it bounds the couplings.
MODEL_MAX_VARS = 1 << 20


def _model_size(n: int) -> int:
    """``n``, or CapacityError when a model of n variables is past the cap."""
    if n > MODEL_MAX_VARS:
        raise CapacityError(
            f"{n} variables exceeds the model-size cap {MODEL_MAX_VARS}")
    return n


@dataclass(frozen=True)
class Model:
    """E(x) = sum h_i x_i + sum_{i<j} J_ij x_i x_j + offset, where x_i is a
    spin in {-1,+1} when the class's ``spin`` is true and a bit in {0,1}
    otherwise."""

    spin: ClassVar[bool]
    n: int
    h: tuple[float, ...]
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("model needs at least one variable")
        if len(self.h) != self.n:
            raise ShapeError(f"h has {len(self.h)} entries for {self.n} variables")
        for (i, j) in self.J:
            if not (0 <= i < j < self.n):
                raise ValueError(f"coupling key {(i, j)} must satisfy 0 <= i < j < n")


class IsingModel(Model):
    spin = True


class BinaryModel(Model):
    spin = False


def energy(model: Model, assignment: Sequence[int]) -> float:
    if len(assignment) != model.n:
        raise ShapeError(
            f"assignment has {len(assignment)} values for {model.n} variables"
        )
    allowed = {-1, 1} if model.spin else {0, 1}
    if not set(assignment) <= allowed:
        raise ShapeError(f"assignment values must be in {sorted(allowed)}")
    e = model.offset
    for i, hi in enumerate(model.h):
        e += hi * assignment[i]
    for (i, j), jij in model.J.items():
        e += jij * assignment[i] * assignment[j]
    return e


def binary_to_ising(model: BinaryModel) -> IsingModel:
    """Exact change of variables x = (1 + s) / 2."""
    h = [a / 2.0 for a in model.h]
    offset = model.offset + sum(model.h) / 2.0
    J = {}
    for (i, j), b in model.J.items():
        J[(i, j)] = b / 4.0
        h[i] += b / 4.0
        h[j] += b / 4.0
        offset += b / 4.0
    return IsingModel(model.n, tuple(h), J, offset)


def ising_to_binary(model: IsingModel) -> BinaryModel:
    """Exact change of variables s = 2x - 1."""
    h = [2.0 * hi for hi in model.h]
    offset = model.offset - sum(model.h)
    J = {}
    for (i, j), jij in model.J.items():
        J[(i, j)] = 4.0 * jij
        h[i] -= 2.0 * jij
        h[j] -= 2.0 * jij
        offset += jij
    return BinaryModel(model.n, tuple(h), J, offset)


def spins_to_bits(spins: Sequence[int]) -> list[int]:
    return [(s + 1) // 2 for s in spins]


# --------------------------------------------------------------------------
# Native instances


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    edges: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), w in self.edges.items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge {(i, j)} must satisfy 0 <= i < j < n")
            if not math.isfinite(w):
                raise ValueError("edge weights must be finite")


@dataclass(frozen=True)
class KnapsackInstance:
    values: tuple[int, ...]
    weights: tuple[int, ...]
    capacity: int

    def __post_init__(self):
        if len(self.values) != len(self.weights):
            raise ShapeError("values and weights must have equal length")
        if any(not isinstance(w, int) or w <= 0 for w in self.weights):
            raise ValueError("weights must be positive integers (pre-scale reals)")
        if any(not isinstance(v, int) or v <= 0 for v in self.values):
            raise ValueError("values must be positive integers")
        if not isinstance(self.capacity, int) or self.capacity <= 0:
            raise ValueError("capacity must be a positive integer")


@dataclass(frozen=True)
class OverlapInstance:
    """Directed read-overlap weights; assembly = best Hamiltonian path."""

    n: int
    overlaps: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("overlap graph needs at least one read")
        for (u, v), w in self.overlaps.items():
            if u == v:
                raise ValueError("overlap graph must be loop-free")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"overlap {(u, v)} out of range")
            if w < 0 or not math.isfinite(w):
                raise ValueError("overlap weights must be finite and >= 0")


@dataclass
class Encoding:
    """A built model plus the decoder back to the native solution."""

    model: Model
    decode: Callable[[Sequence[int]], object]
    info: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Encoders


def cut_weight(g: WeightedGraph, side: Sequence[int]) -> float:
    """Total weight of edges crossing the 0/1 partition ``side``."""
    return sum(w for (i, j), w in g.edges.items() if side[i] != side[j])


def maxcut_to_ising(g: WeightedGraph) -> Encoding:
    """Ground energy = -(max cut weight); argmin spins give the partition."""
    J = {e: w / 2.0 for e, w in g.edges.items()}
    offset = -sum(g.edges.values()) / 2.0
    model = IsingModel(g.n, (0.0,) * g.n, J, offset)

    def decode(spins: Sequence[int]) -> tuple[int, ...]:
        return tuple(spins_to_bits(spins))

    return Encoding(model, decode, {"problem": "max-cut"})


def phasing_to_maxcut(g: WeightedGraph) -> WeightedGraph:
    """Negate evidence weights so maximizing the cut places different-haplotype
    pairs across the partition and same-haplotype pairs within it."""
    return WeightedGraph(g.n, {e: -w for e, w in g.edges.items()})


def phasing_to_ising(g: WeightedGraph) -> Encoding:
    """Haplotype phasing over heterozygous sites, as max-cut of the negated
    evidence graph. Edge weight > 0 is same-haplotype evidence, < 0 is
    different-haplotype evidence. The decoded bits are one haplotype label
    per site; complementary labelings are equivalent."""
    enc = maxcut_to_ising(phasing_to_maxcut(g))
    return Encoding(enc.model, enc.decode, {"problem": "haplotype-phasing"})


def phasing_agreement(g: WeightedGraph, labels: Sequence[int]) -> float:
    """Signed evidence satisfied by a haplotype labeling (higher is better)."""
    total = 0.0
    for (i, j), w in g.edges.items():
        total += w if labels[i] == labels[j] else -w
    return total


def _couple(J: dict[tuple[int, int], float], i: int, j: int, w: float) -> None:
    """Add w to the coupling of variables i != j."""
    key = (i, j) if i < j else (j, i)
    J[key] = J.get(key, 0.0) + w


def assembly_to_qubo(o: OverlapInstance) -> Encoding:
    """Position-based Hamiltonian-path encoding with exactly n^2 variables.

    x[v*n + p] = 1 iff read v sits at path position p. Penalties enforce one
    read per position and one position per read; the objective rewards
    overlaps between consecutive positions.
    """
    n = o.n
    if n > ASSEMBLY_NODE_CAP:
        raise CapacityError(f"{n} reads exceeds the {ASSEMBLY_NODE_CAP}-read cap")
    nv = n * n
    var = lambda v, p: v * n + p
    h = [0.0] * nv
    J: dict[tuple[int, int], float] = {}
    obj_weight = sum(abs(w) for w in o.overlaps.values()) * max(1, n - 1)
    penalty = 1.0 + obj_weight
    offset = 0.0
    # Objective: reward overlap w(u,v) when u at p and v at p+1.
    for (u, v), w in o.overlaps.items():
        for p in range(n - 1):
            _couple(J, var(u, p), var(v, p + 1), -w)
    # One read per position, one position per read: penalty * (sum - 1)^2.
    groups = [[var(v, p) for v in range(n)] for p in range(n)]
    groups += [[var(v, p) for p in range(n)] for v in range(n)]
    for grp in groups:
        offset += penalty
        for a_i, i in enumerate(grp):
            h[i] -= penalty
            for j in grp[a_i + 1 :]:
                _couple(J, i, j, 2.0 * penalty)
    model = BinaryModel(nv, tuple(h), J, offset)

    def decode(bits: Sequence[int]) -> tuple[int, ...]:
        path = []
        for p in range(n):
            chosen = [v for v in range(n) if bits[var(v, p)] == 1]
            if len(chosen) != 1:
                raise ValueError(f"infeasible assignment at position {p}")
            path.append(chosen[0])
        if len(set(path)) != n:
            raise ValueError("infeasible assignment: repeated read")
        return tuple(path)

    return Encoding(model, decode, {"problem": "assembly-path", "reads": n,
                                    "penalty": penalty})


def path_overlap(o: OverlapInstance, path: Sequence[int]) -> float:
    return sum(
        o.overlaps.get((path[p], path[p + 1]), 0.0) for p in range(len(path) - 1)
    )


def best_assembly_path(o: OverlapInstance) -> tuple[float, tuple[int, ...]]:
    """Brute-force Hamiltonian-path optimum (native oracle)."""
    best = max(permutations(range(o.n)), key=lambda p: path_overlap(o, p))
    return path_overlap(o, best), tuple(best)


def knapsack_to_qubo(k: KnapsackInstance) -> Encoding:
    """Item bits plus ceil(log2(capacity+1)) slack bits encoding the
    remaining capacity; argmin decodes an optimal feasible item set."""
    n_items = len(k.values)
    n_slack = math.ceil(math.log2(k.capacity + 1))
    nv = n_items + n_slack
    pairs = nv * (nv - 1) // 2
    if pairs > MODEL_MAX_VARS:
        raise CapacityError(f"knapsack model of {nv} variables has {pairs} "
                            f"couplings, over the model-size cap {MODEL_MAX_VARS}")
    # Coefficient of each bit in (sum w_i x_i + sum 2^b y_b - capacity).
    coeff = list(k.weights) + [1 << b for b in range(n_slack)]
    # No coefficient below exceeds penalty * (capacity + sum(coeff))^2 in size;
    # bounding that in exact integers keeps their float arithmetic finite.
    if (1 + sum(k.values)) * (k.capacity + sum(coeff)) ** 2 > 2.0**1000:
        raise ValueError("knapsack numbers are too large for float model "
                         "coefficients")
    penalty = 1.0 + sum(k.values)
    h = [0.0] * nv
    J: dict[tuple[int, int], float] = {}
    offset = penalty * k.capacity**2
    for i, ci in enumerate(coeff):
        h[i] += penalty * (ci * ci - 2 * k.capacity * ci)
        for j in range(i + 1, nv):
            J[(i, j)] = 2.0 * penalty * ci * coeff[j]
    for i, v in enumerate(k.values):
        h[i] -= v
    model = BinaryModel(nv, tuple(h), J, offset)

    def decode(bits: Sequence[int]) -> tuple[int, ...]:
        return tuple(i for i in range(n_items) if bits[i] == 1)

    return Encoding(model, decode, {"problem": "knapsack", "items": n_items,
                                    "slack_bits": n_slack, "penalty": penalty})


def best_knapsack(k: KnapsackInstance) -> tuple[int, set[tuple[int, ...]]]:
    """Brute-force optimum value and all optimal feasible item sets."""
    n = len(k.values)
    best_val, best_sets = -1, set()
    for mask in range(1 << n):
        items = tuple(i for i in range(n) if mask >> i & 1)
        if sum(k.weights[i] for i in items) > k.capacity:
            continue
        val = sum(k.values[i] for i in items)
        if val > best_val:
            best_val, best_sets = val, {items}
        elif val == best_val:
            best_sets.add(items)
    return best_val, best_sets


def mis_to_qubo(g: WeightedGraph) -> Encoding:
    """-sum x_i plus an edge penalty; sparsity pattern equals the edge set."""
    penalty = 1.0 + g.n  # 1 + sum of |objective coefficients|
    h = (-1.0,) * g.n
    J = {e: penalty for e in g.edges}
    model = BinaryModel(g.n, h, J, 0.0)

    def decode(bits: Sequence[int]) -> frozenset[int]:
        return frozenset(i for i in range(g.n) if bits[i] == 1)

    return Encoding(model, decode, {"problem": "mis", "penalty": penalty})


def is_independent_set(g: WeightedGraph, vertices: frozenset[int]) -> bool:
    return all(not (i in vertices and j in vertices) for (i, j) in g.edges)


# --------------------------------------------------------------------------
# Serialization


def write_model(model: Model) -> str:
    """Bit-exact text format: header ``QUBO n offset convention``, then one
    line per term ``i i h_i`` / ``i j J_ij`` (i < j, 17 significant digits)."""
    convention = "spin" if model.spin else "binary"
    lines = [f"QUBO {model.n} {model.offset:.17g} {convention}"]
    for i, hi in enumerate(model.h):
        if hi != 0.0:
            lines.append(f"{i} {i} {hi:.17g}")
    for (i, j) in sorted(model.J):
        lines.append(f"{i} {j} {model.J[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def read_model(text: str) -> Model:
    """Parse ``write_model`` text; blank lines and ``#`` comment lines are skipped.

    Anything else that ``write_model`` cannot have written raises ParseError:
    a bad header, a term line that is not ``i j value`` with 0 <= i <= j < n,
    a repeated term, a non-finite number, or a non-ASCII character or ``_``
    outside a comment (``int`` and ``float`` read ``1_0`` as 10 and take
    non-ASCII digits).
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not text.isascii() or "_" in text:
        for no, ln in lines:
            if not ln.isascii() or "_" in ln:
                raise ParseError(f"line {no}: only ASCII characters other "
                                 f"than '_' may appear outside a comment")
    lines = [(no, ln.split()) for no, ln in lines]
    if not lines:
        raise ParseError("empty model file")
    no, header = lines[0]
    try:
        if len(header) != 4 or header[0] != "QUBO":
            raise ValueError("expected 'QUBO n offset convention'")
        n, offset, convention = int(header[1]), _finite(header[2]), header[3]
        if n < 1:
            raise ValueError("model needs at least one variable")
        if convention not in ("spin", "binary"):
            raise ValueError(f"unknown convention {convention!r}")
    except ValueError as exc:
        raise ParseError(f"line {no}: bad model header: {exc}") from exc
    h = [0.0] * _model_size(n)
    J: dict[tuple[int, int], float] = {}
    seen: set[tuple[int, int]] = set()
    for no, fields in lines[1:]:
        try:
            if len(fields) != 3:
                raise ValueError("expected 'i j value'")
            i, j, v = int(fields[0]), int(fields[1]), _finite(fields[2])
            if not 0 <= i <= j < n:
                raise ValueError(f"need 0 <= i <= j < {n}, got {i} {j}")
            if (i, j) in seen:
                raise ValueError(f"repeated term {i} {j}")
        except ValueError as exc:
            raise ParseError(f"line {no}: bad term: {exc}") from exc
        seen.add((i, j))
        if i == j:
            h[i] = v
        else:
            J[(i, j)] = v
    cls = IsingModel if convention == "spin" else BinaryModel
    return cls(n, tuple(h), J, offset)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _int(value) -> int:
    """A JSON integer; a float, string or boolean is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _edge_dict(pairs) -> dict[tuple[int, int], float]:
    out = {}
    for i, j, w in pairs:
        i, j = _int(i), _int(j)
        key = (min(i, j), max(i, j))
        out[key] = out.get(key, 0.0) + float(w)
    return out


def _from_json(text: str, build: Callable[[dict], object]):
    """``build`` applied to the parsed instance; a malformed one is a ParseError."""
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise TypeError("expected a JSON object")
        return build(obj)
    except CapacityError:
        raise
    except KeyError as exc:
        raise ParseError(f"bad instance JSON: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad instance JSON: {exc}") from exc


def weighted_graph_from_json(text: str) -> WeightedGraph:
    return _from_json(text, lambda obj: WeightedGraph(
        _model_size(_int(obj["n"])), _edge_dict(obj.get("edges", []))))


def fragment_graph_from_json(text: str) -> WeightedGraph:
    """A phasing instance: a graph whose signed weights are haplotype evidence."""
    return weighted_graph_from_json(text)


def knapsack_from_json(text: str) -> KnapsackInstance:
    return _from_json(text, lambda obj: KnapsackInstance(
        tuple(_int(v) for v in obj["values"]),
        tuple(_int(w) for w in obj["weights"]),
        _int(obj["capacity"]),
    ))


def _overlap_dict(triples) -> dict[tuple[int, int], float]:
    out = {}
    for u, v, w in triples:
        key = (_int(u), _int(v))
        if key in out:
            raise ValueError(f"repeated overlap {key[0]} {key[1]}")
        out[key] = float(w)
    return out


def overlap_from_json(text: str) -> OverlapInstance:
    return _from_json(text, lambda obj: OverlapInstance(
        _int(obj["n"]), _overlap_dict(obj.get("overlaps", []))))
