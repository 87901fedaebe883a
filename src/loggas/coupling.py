"""Coupling matrices, charge vectors and the JSON input format.

All indices are 0-based in the API; reports render 1-based labels.  Exact
rational entries (Fractions) are kept alongside the float matrix whenever the
input was given as integer/ratio literals; float inputs never promote.
Random sampling uses numpy's Philox counter-based generator with an explicit
seed, never the global RNG.

This module alone turns an input into the matrix a command reads.
``load_system`` refuses a particle count past the command's cap before any
entry is parsed.  A charges, two_component or graph input stays a model:
only ``SystemInput.matrix``, which picks the matrix of a mode (exact, float
or auto), builds its grid.  ``_float_matrix`` is the one gate on the float
range, for a float grid as it is built and for the float view of a
rational grid in ``matrix``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InputError, SizeLimitError
from .rational import Real, all_exact, parse_number, tolerance

SYMMETRY_RTOL = 1e-12
MAX_PARTICLES = 2048  # closed-form's cap, the largest n any command accepts
UNDERFLOW = "the couplings underflow the float range: each is 0.0 as a float"


def _check_count(n: int, context: str, cap: int):
    """Refuse a particle count past ``cap`` before anything n x n exists."""
    if n > cap:
        raise SizeLimitError(f"{context}: n={n} exceeds the cap {cap}")


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric n x n coupling data with zero diagonal.

    ``entries`` is a read-only float array; ``exact_entries`` is a parallel
    Fraction grid, present iff every input entry was exactly rational.
    """

    n: int
    entries: np.ndarray
    exact_entries: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"need at least 2 particles, got n={self.n}")
        self.entries.setflags(write=False)

    @property
    def is_exact(self) -> bool:
        return self.exact_entries is not None

    @property
    def scale(self) -> float:
        """The largest |c_ij| of the float grid, the scale of ``tolerance``."""
        return float(np.abs(self.entries).max())


@dataclass(frozen=True)
class ChargeVector:
    """Nonzero particle charges (vorticities)."""

    values: tuple

    def __post_init__(self):
        if len(self.values) < 2:
            raise InputError("need at least 2 charges")
        for i, k in enumerate(self.values):
            if k == 0:
                raise InputError(f"charge k[{i}] is zero")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.values)

    def as_floats(self) -> np.ndarray:
        """The float view of the charges; a charge beyond the float range is
        an InputError naming it."""
        return _floats(self.values, "charge k[{}]")


@dataclass(frozen=True)
class TwoComponentSpec:
    """Two species: n1 particles of charge +z1, n2 of charge -z2."""

    n1: int
    n2: int
    z1: Real
    z2: Real

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise InputError("need n1 >= 1 and n2 >= 1")
        if not (self.z1 > 0 and self.z2 > 0):
            raise InputError("charge magnitudes must be positive")

    @property
    def is_exact(self) -> bool:
        return all_exact((self.z1, self.z2))

    def charges(self) -> ChargeVector:
        return ChargeVector(tuple([self.z1] * self.n1 + [-self.z2] * self.n2))


@dataclass(frozen=True)
class GraphSpec:
    """Undirected simple graph: vertex count and 0-based edge list."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 2:
            raise InputError("need at least 2 vertices")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise InputError(f"edge {e!r} is not a pair")
            i, j = e
            if not (0 <= i < j < self.n):
                raise InputError(f"edge ({i},{j}) violates 0 <= i < j < n")
            if (i, j) in seen:
                raise InputError(f"duplicate edge ({i},{j})")
            seen.add((i, j))


def from_matrix(raw, cap: int = MAX_PARTICLES) -> CouplingMatrix:
    """Validate a square array of couplings.

    Symmetry is checked, never repaired by averaging: when every entry is
    exactly rational, c(i,j) and c(j,i) must be equal, otherwise their floats
    must agree within ``tolerance(1e-12, c(i,j), s)``, s the largest |c| of
    the float grid: 1e-12 * max(min(1, s), |c(i,j)|).  Integer/Fraction/"p/q"
    entries produce an exact rational grid alongside the floats; a float
    input is stored as its upper triangle mirrored by index, so a -0.0
    coupling keeps its sign, and goes through ``_float_matrix``.  A row
    count past ``cap`` is refused before any row is read.
    """
    arrays = (list, tuple, np.ndarray)
    if not (isinstance(raw, arrays) and all(isinstance(r, arrays) for r in raw)):
        raise InputError("matrix must be an array of rows")
    _check_count(len(raw), "matrix", cap)
    rows = raw.tolist() if isinstance(raw, np.ndarray) else [list(r) for r in raw]
    n = len(rows)
    if n < 2:
        raise InputError(f"need at least 2 particles, got n={n}")
    if any(len(r) != n for r in rows):
        raise InputError("matrix is not square")

    parsed = [[parse_number(v) for v in r] for r in rows]
    exact_mode = all(all_exact(r) for r in parsed)
    # mixed or float input is checked on its one float cast
    floats = None if exact_mode else _floats(parsed, "coupling ({},{})")
    grid, rtol, scale = ((parsed, 0, 0.0) if exact_mode else
                         (floats.tolist(), SYMMETRY_RTOL, float(np.abs(floats).max())))
    for i in range(n):
        if parsed[i][i] != 0:
            raise InputError(f"entry ({i},{i}) = {parsed[i][i]} is nonzero")
        for j in range(i + 1, n):
            a, b = grid[i][j], grid[j][i]
            if abs(a - b) > tolerance(rtol, a, scale):
                raise InputError(f"entries ({i},{j}) and ({j},{i}) differ: {a} vs {b}")

    if exact_mode:  # exactly symmetric with a zero diagonal already
        return _exact_matrix(tuple(tuple(r) for r in parsed))
    lower = np.tril_indices(n, -1)
    floats[lower] = floats.T[lower]
    np.fill_diagonal(floats, 0.0)
    return _float_matrix(floats, nonzero=False)


def _float_matrix(floats: np.ndarray, nonzero: bool) -> CouplingMatrix:
    """The float-only matrix of a symmetric grid with zero diagonal.

    The one gate on the float range, refusing in this order: the first
    infinite coupling in row-major order, named; a grid of ``nonzero``
    couplings whose floats are all 0.0 (``UNDERFLOW``), which would be
    solved as the zero matrix; a sum of |c_ij| over pairs beyond the float
    range.  Every subset sum the solver forms and every eigenvalue is
    bounded by that sum, so a grid that passes has none that overflows."""
    infinite = np.argwhere(np.isinf(floats))
    if infinite.size:
        i, j = infinite[0]
        raise InputError(f"coupling ({i},{j}) is beyond the float range")
    if nonzero and not floats.any():
        raise InputError(UNDERFLOW)
    with np.errstate(over="ignore"):
        # half the sum over the whole grid, so a pair sum that fits is not
        # refused because its double does not
        total = np.sum(np.ldexp(np.abs(floats), -1))
    if np.isinf(total):
        raise InputError("the sum of |c_ij| over pairs i < j is beyond the float range")
    return CouplingMatrix(len(floats), floats)


def _floats(values, name: str) -> np.ndarray:
    """``np.array(values, dtype=float)``; a value whose float is out of range
    is an InputError naming the first one, ``name`` formatted with its
    0-based index, row-major."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        held = np.array(values, dtype=object)
        for index in np.ndindex(held.shape):
            try:
                float(held[index])
            except OverflowError:
                raise InputError(f"{name.format(*index)} is beyond the float range") from None
        raise


def _exact_matrix(exact: tuple) -> CouplingMatrix:
    """A Fraction grid with its floats; float(Fraction) is correctly rounded."""
    return CouplingMatrix(len(exact), _floats(exact, "coupling ({},{})"), exact)


def from_charges(k: ChargeVector) -> CouplingMatrix:
    """Coupling c(i,j) = k_i * k_j off the diagonal.

    Float products go through ``_float_matrix``, which refuses them as the
    float view of exact ones is refused: the first infinite coupling named,
    products that all underflow to 0.0, a pair sum beyond the float range."""
    if k.is_exact:
        kq = [Fraction(v) for v in k.values]
        return _exact_matrix(tuple(tuple(a * b if i != j else Fraction(0) for j, b in enumerate(kq))
                                   for i, a in enumerate(kq)))
    kf = k.as_floats()
    with np.errstate(over="ignore", under="ignore"):
        floats = np.outer(kf, kf)
    np.fill_diagonal(floats, 0.0)
    return _float_matrix(floats, nonzero=True)


def from_two_component(spec: TwoComponentSpec) -> CouplingMatrix:
    """Block couplings: z1^2 within species 1, z2^2 within species 2,
    -z1*z2 across.  Identical to from_charges on (z1,..,-z2,..)."""
    return from_charges(spec.charges())


def from_graph(g: GraphSpec) -> CouplingMatrix:
    """Adjacency matrix as couplings: 1 on edges, 0 elsewhere (exact)."""
    exact = [[Fraction(0)] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        exact[i][j] = exact[j][i] = Fraction(1)
    return _exact_matrix(tuple(tuple(r) for r in exact))


def _philox(seed: int) -> np.random.Generator:
    # Philox: explicit counter-based generator, reproducible across runs.
    return np.random.Generator(np.random.Philox(seed))


def sample_gaussian_couplings(n: int, variance: float, seed: int) -> CouplingMatrix:
    """i.i.d. normal off-diagonal couplings, mean 0 and the given variance."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if not 0 < variance < math.inf:
        raise ValueError("variance must be positive and finite")
    rng = _philox(seed)
    draws = rng.standard_normal(n * (n - 1) // 2) * float(np.sqrt(variance))
    floats = np.zeros((n, n), dtype=float)
    iu = np.triu_indices(n, k=1)
    floats[iu] = draws
    floats = floats + floats.T
    return CouplingMatrix(n, floats)


def sample_gaussian_charges(n: int, seed: int) -> ChargeVector:
    """n i.i.d. standard normal charges; exact-zero draws are resampled."""
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    rng = _philox(seed)
    k = rng.standard_normal(n)
    while np.any(k == 0.0):  # probability-zero event, guards exact zeros
        zeros = k == 0.0
        k[zeros] = rng.standard_normal(int(np.sum(zeros)))
    return ChargeVector(tuple(float(v) for v in k))


# ---------------------------------------------------------------------------
# JSON input format
# ---------------------------------------------------------------------------

_INPUT_KEYS = ("matrix", "charges", "two_component", "graph", "random")


@dataclass(frozen=True)
class SystemInput:
    """A parsed input file: the grid of a matrix or random-couplings input,
    or the model (charges, a plasma with its charges, a graph) it came from."""

    coupling: Optional[CouplingMatrix] = None
    charges: Optional[ChargeVector] = None
    two_component: Optional[TwoComponentSpec] = None
    graph: Optional[GraphSpec] = None

    def matrix(self, mode: str) -> CouplingMatrix:
        """The matrix a command reads under ``mode`` (exact, float or auto).

        A model's grid is built here, on each call.  Exact and auto read a
        rational grid as it is; exact refuses a float one.  Float and auto
        read a float grid as it is: ``_float_matrix`` passed it when it was
        built, or it was sampled, with draws far inside the float range.
        Float reads a rational grid's floats through ``_float_matrix``."""
        c = self.coupling
        if c is None:
            c = from_graph(self.graph) if self.graph else from_charges(self.charges)
        if mode == "exact" and not c.is_exact:
            raise InputError("exact mode requires rational-expressible input")
        if mode == "float" and c.is_exact:
            return _float_matrix(c.entries, nonzero=any(map(any, c.exact_entries)))
        return c


def _require_keys(obj, allowed: set, context: str) -> dict:
    if not isinstance(obj, dict):
        raise InputError(f"{context} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown keys in {context}: {sorted(unknown)}")
    return obj


def _integer(value, context: str) -> int:
    if type(value) is not int:  # JSON true/false are not counts
        raise InputError(f"{context} must be an integer, got {value!r}")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{context} must be an array, got {value!r}")
    return value


def parse_system(obj: dict, cap: int = MAX_PARTICLES) -> SystemInput:
    """Parse the input schema: exactly one of matrix / charges /
    two_component / graph / random.  Unknown keys are rejected, and a
    particle count past ``cap`` before any entry is parsed."""
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    _require_keys(obj, set(_INPUT_KEYS), "input")
    present = [k for k in _INPUT_KEYS if k in obj]
    if len(present) != 1:
        raise InputError(f"exactly one of {_INPUT_KEYS} required, got {present}")
    kind = present[0]

    if kind == "matrix":
        return SystemInput(from_matrix(obj["matrix"], cap))

    if kind == "charges":
        values = _list(obj["charges"], "charges")
        _check_count(len(values), "charges", cap)
        return SystemInput(charges=ChargeVector(tuple(parse_number(v) for v in values)))

    if kind == "two_component":
        tc = _require_keys(obj["two_component"], {"n1", "n2", "z1", "z2"}, "two_component")
        for key in ("n1", "n2", "z1", "z2"):
            if key not in tc:
                raise InputError(f"two_component missing {key!r}")
        n1, n2 = _integer(tc["n1"], "two_component.n1"), _integer(tc["n2"], "two_component.n2")
        _check_count(n1 + n2, "two_component", cap)
        spec = TwoComponentSpec(n1, n2, parse_number(tc["z1"]), parse_number(tc["z2"]))
        return SystemInput(charges=spec.charges(), two_component=spec)

    if kind == "graph":
        gobj = _require_keys(obj["graph"], {"n", "edges"}, "graph")
        if "n" not in gobj or "edges" not in gobj:
            raise InputError("graph needs 'n' and 'edges'")
        n = _integer(gobj["n"], "graph.n")
        _check_count(n, "graph", cap)
        edges = tuple(tuple(_integer(v, "graph edge end") for v in _list(e, "graph edge"))
                      for e in _list(gobj["edges"], "graph.edges"))
        return SystemInput(graph=GraphSpec(n, edges))

    robj = _require_keys(obj["random"], {"model", "n", "variance", "seed"}, "random")
    model = robj.get("model")
    if model not in ("couplings", "charges"):
        raise InputError("random.model must be 'couplings' or 'charges'")
    if "n" not in robj or "seed" not in robj:
        raise InputError("random needs 'n' and 'seed'")
    n, seed = _integer(robj["n"], "random.n"), _integer(robj["seed"], "random.seed")
    if seed < 0:
        raise InputError(f"random.seed must be non-negative, got {seed}")
    _check_count(n, "random", cap)
    if model == "couplings":
        try:
            variance = float(parse_number(robj.get("variance", 1.0)))
        except OverflowError:
            raise InputError(f"random.variance {robj['variance']} is beyond the float "
                             "range") from None
        return SystemInput(sample_gaussian_couplings(n, variance, seed))
    if "variance" in robj:
        raise InputError("random charges are standard normal; 'variance' not allowed")
    return SystemInput(charges=sample_gaussian_charges(n, seed))


def load_system(path, cap: int = MAX_PARTICLES) -> SystemInput:
    """Read and parse an input JSON file, refusing more than ``cap``
    particles (``parse_system``); JSON nested too deeply is invalid too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return parse_system(obj, cap)
