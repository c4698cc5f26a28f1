"""QUBO/Ising models, penalty encodings, solvers, and file export.

Minimisation convention throughout: the ground state is the assignment of
lowest energy.  The smallest-exact-cover encoding puts one binary variable
on each candidate subset; expanding Lucas's per-element constraint
A * sum_u (1 - sum_{i covers u} x_i)^2 (arXiv:1302.5843, section 4.1)
with x_i^2 = x_i, plus B per subset, gives

    offset     = A * n                 (n universe elements)
    linear_i   = -A * d_i + B          (d_i = |covered(i)|)
    quad_{ij}  = 2 * A * o_ij          (o_ij = |covered(i) & covered(j)|)

which is zero-constraint-violating exactly on exact covers; with A > n*B
the global minimum is a smallest exact cover whenever one exists.  The
maximum-clique encoding uses the complement-graph independent-set form:
reward -A per chosen vertex, penalty +B on every non-edge, with B > A so
dropping a violating vertex always pays.

This module is the one home of the penalty defaults (cover: B = 1 and
A = n*B + 1, resolved by ``cover_penalties``, which requires B > 0; max
clique: A = 1, B = 2), of the exhaustive solver's ``EXACT_LIMIT`` and of
the annealer's ``SA_TABLE_LIMIT``; callers pass None for a default.  Every
penalty, coefficient and offset must be finite.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, ParameterError, check_seed
from .cover import CoverInstance
from .graph import IntersectionGraph

EXACT_LIMIT = 30  # exhaustive search refuses models larger than this
SA_TABLE_LIMIT = 2**30  # bytes an annealing run may hold (``sa_table_bytes``)


def _canonical_terms(n, linear, quadratic, offset):
    """Merged non-zero terms in index order and the offset; all finite."""
    if n < 0:
        raise ValueError(f"model size must be non-negative, got n={n}")
    lin: dict[int, float] = {}
    for i, v in (linear or {}).items():
        i = int(i)
        if not 0 <= i < n:
            raise ValueError(f"linear index {i} out of range for n={n}")
        lin[i] = lin.get(i, 0.0) + float(v)
    quad: dict[tuple[int, int], float] = {}
    for (i, j), v in (quadratic or {}).items():
        i, j = int(i), int(j)
        if i == j:
            raise ValueError("quadratic terms need two distinct indices")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"quadratic index ({i},{j}) out of range for n={n}")
        key = (i, j) if i < j else (j, i)
        quad[key] = quad.get(key, 0.0) + float(v)
    offset = float(offset)
    if not all(map(math.isfinite, [offset, *lin.values(), *quad.values()])):
        raise ValueError("coefficients and offset must be finite")
    return (
        {i: v for i, v in sorted(lin.items()) if v != 0.0},
        {k: v for k, v in sorted(quad.items()) if v != 0.0},
        offset,
    )


@dataclass(frozen=True, eq=False)
class Qubo:
    """offset + sum_i linear_i x_i + sum_{i<j} quad_ij x_i x_j over x in {0,1}^n."""

    n: int
    linear: dict
    quadratic: dict
    offset: float = 0.0

    def __post_init__(self):
        lin, quad, offset = _canonical_terms(self.n, self.linear, self.quadratic,
                                             self.offset)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "offset", offset)

    def max_abs_coefficient(self) -> float:
        vals = [abs(v) for v in self.linear.values()]
        vals += [abs(v) for v in self.quadratic.values()]
        return max(vals, default=0.0)


@dataclass(frozen=True, eq=False)
class IsingModel:
    """offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j over s in {-1,+1}^n."""

    n: int
    h: dict
    J: dict
    offset: float = 0.0

    def __post_init__(self):
        h, J, offset = _canonical_terms(self.n, self.h, self.J, self.offset)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "offset", offset)


def _checked(vals: list[int], n: int, allowed: tuple[int, int], kind: str) -> list[int]:
    if len(vals) != n:
        raise ValueError(f"{kind} length {len(vals)} != n={n}")
    if any(v not in allowed for v in vals):
        raise ValueError(f"{kind} entries must be {allowed[0]} or {allowed[1]}")
    return vals


def _energy(offset, linear, quadratic, vals) -> float:
    e = offset
    for i, v in linear.items():
        e += v * vals[i]
    for (i, j), v in quadratic.items():
        e += v * vals[i] * vals[j]
    return float(e)


def qubo_energy(q: Qubo, x) -> float:
    bits = _checked([int(v) for v in x], q.n, (0, 1), "assignment")
    return _energy(q.offset, q.linear, q.quadratic, bits)


def ising_energy(m: IsingModel, s) -> float:
    spins = _checked([int(v) for v in s], m.n, (-1, 1), "spin")
    return _energy(m.offset, m.h, m.J, spins)


def _substitute(offset, linear, quadratic, a: float, b: float):
    """Terms of offset + sum c_i u_i + sum c_ij u_i u_j after u = a*v + b."""
    lin: dict[int, float] = {}
    quad: dict[tuple[int, int], float] = {}
    for i, c in linear.items():
        lin[i] = lin.get(i, 0.0) + c * a
        offset += c * b
    for (i, j), c in quadratic.items():
        quad[(i, j)] = c * (a * a)
        lin[i] = lin.get(i, 0.0) + c * (a * b)
        lin[j] = lin.get(j, 0.0) + c * (a * b)
        offset += c * (b * b)
    return lin, quad, offset


def qubo_to_ising(q: Qubo) -> IsingModel:
    """Substitute x = (1 + s) / 2; energies match pointwise under the bijection."""
    return IsingModel(q.n, *_substitute(q.offset, q.linear, q.quadratic, 0.5, 0.5))


def ising_to_qubo(m: IsingModel) -> Qubo:
    """Substitute s = 2x - 1, the inverse of qubo_to_ising."""
    return Qubo(m.n, *_substitute(m.offset, m.h, m.J, 2.0, -1.0))


# ---------------------------------------------------------------------------
# Problem encodings
# ---------------------------------------------------------------------------

def cover_penalties(
    instance: CoverInstance, A: float | None = None, B: float | None = None
) -> tuple[float, float]:
    """The cover encoding's (A, B): B defaults to 1 and A to n*B + 1.

    Raises ParameterError unless both are finite and B > 0: a free or
    rewarded subset no longer makes the ground state a smallest cover.
    """
    B = _finite_penalty("B", 1.0 if B is None else B)
    if not B > 0:
        raise ParameterError(f"cover cost per subset needs B > 0, got B={B}")
    return _finite_penalty("A", len(instance.universe) * B + 1.0 if A is None else A), B


def _finite_penalty(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ParameterError(f"penalty {name} must be finite, got {name}={value}")
    return value


def build_cover_qubo(
    instance: CoverInstance, A: float | None = None, B: float | None = None
) -> tuple[Qubo, tuple[str, ...]]:
    """Smallest-exact-cover QUBO; variable i selects candidate i.

    Penalties left as None take ``cover_penalties``' defaults; the A > n*B
    encoding condition (n = universe size) is enforced.  Any number of
    candidates is encoded, since ``csgc qubo export`` hands off models of
    any size; a solver's limits are checked by ``check_exact_size`` and
    ``check_sa_memory``, which take the variable count alone.
    """
    n = len(instance.universe)
    A, B = cover_penalties(instance, A, B)
    if A <= n * B:
        raise ParameterError(
            f"cover encoding needs A > n*B (A={A}, n={n}, B={B})"
        )
    linear = {i: -A * len(c.covered) + B for i, c in enumerate(instance.candidates)}
    quadratic = {}
    for i, c in enumerate(instance.candidates):
        # o_ij for each later j: one count per element of i that j also covers.
        later = Counter(j for e in c.covered for j in instance.holders[e] if j > i)
        quadratic.update(((i, j), 2.0 * A * later[j]) for j in sorted(later))
    names = tuple(c.name for c in instance.candidates)
    try:
        return Qubo(len(names), linear, quadratic, A * n), names
    except ValueError as exc:  # finite penalties whose products overflow
        raise ParameterError(f"cover penalties A={A}, B={B}: {exc}") from exc


def build_max_clique_qubo(
    graph: IntersectionGraph, A: float | None = None, B: float | None = None
) -> tuple[Qubo, tuple[str, ...]]:
    """Maximum-clique QUBO; variable i selects vertex i (graph.vertices order).

    Ground states are exactly the maximum-clique indicator vectors when
    B > A > 0 (every non-edge among selected vertices costs more than a
    vertex earns).  Penalties left as None default to A = 1 and B = 2.
    """
    A = _finite_penalty("A", 1.0 if A is None else A)
    B = _finite_penalty("B", 2.0 if B is None else B)
    if not (B > A > 0):
        raise ParameterError(f"max-clique encoding needs B > A > 0 (A={A}, B={B})")
    verts = graph.vertices
    vid = {v: i for i, v in enumerate(verts)}
    linear = {i: -float(A) for i in range(len(verts))}
    quadratic = {}
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if not graph.has_edge(verts[i], verts[j]):
                quadratic[(i, j)] = float(B)
    return Qubo(len(verts), linear, quadratic, 0.0), tuple(verts)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric temperature decay from t_start down to t_end."""

    t_start: float
    t_end: float
    sweeps: int
    restarts: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ParameterError(
                f"t_start and t_end must be finite (got {self.t_start}, {self.t_end})"
            )
        if not (self.t_start > 0 and 0 < self.t_end < self.t_start):
            raise ParameterError(
                f"need t_start > t_end > 0 (got {self.t_start}, {self.t_end})"
            )
        for field in ("sweeps", "restarts"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{field} must be an integer, got {value!r}")
        if self.sweeps < 1 or self.restarts < 1:
            raise ParameterError("sweeps and restarts must be >= 1")

    def temperatures(self) -> np.ndarray:
        if self.sweeps == 1:
            return np.array([self.t_start])
        ratio = self.t_end / self.t_start
        return self.t_start * ratio ** (np.arange(self.sweeps) / (self.sweeps - 1))


def default_schedule(q: Qubo) -> AnnealSchedule:
    """t_start = max |coefficient|, t_end = 0.01, sweeps = 30 n, 256 restarts.

    One sweep is one single-flip Metropolis attempt.  For models whose
    coefficients are all below the 0.01 floor, t_start falls back to 1.

    The restarts run in lockstep, so a run's time grows with sweeps x
    restarts.  It is the fastest point of the ``tools/sa_tts.py`` grid
    (``BENCH_sa_schedule.json``) whose single run reaches the optimum with
    estimated probability at least 0.99 on the reference-scene, 6-sphere
    and 12-sphere chain cover QUBOs (19, 25 and 55 variables).  On the
    12-sphere chain one run sits at that line (p = 0.017 per restart at
    10 n to 30 n sweeps); the tool's rule, which asks a 95% lower bound on
    that probability to clear 0.99, picks 10 n x 512 instead.  The largest
    model the ``anneal`` benchmark anneals has 25 variables, where one
    restart succeeds with p = 0.15-0.20 and one run fails with probability
    below 1e-18.
    """
    t_start = q.max_abs_coefficient()
    if t_start <= 0.01:
        t_start = 1.0
    return AnnealSchedule(t_start, 0.01, *default_run_length(q.n))


def default_run_length(n: int) -> tuple[int, int]:
    """``default_schedule``'s (sweeps, restarts) on n variables."""
    return 30 * max(n, 1), 256


@dataclass(frozen=True)
class SolveResult:
    """An assignment with its re-evaluated energy and solver provenance."""

    assignment: str
    energy: float
    solver: str
    seed: int = 0
    sweeps: int = 0
    restarts: int = 0


def _dense(q: Qubo) -> tuple[np.ndarray, np.ndarray]:
    lin = np.zeros(q.n)
    for i, v in q.linear.items():
        lin[i] = v
    W = np.zeros((q.n, q.n))
    for (i, j), v in q.quadratic.items():
        W[i, j] = W[j, i] = v
    return lin, W


def _bitstring(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def _assignments(n: int) -> np.ndarray:
    """All 2^n 0/1 rows of n variables in lexicographic order, x_0 first."""
    ks = np.arange(1 << n)
    return ((ks[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def check_exact_size(n: int) -> None:
    """Raise ParameterError if ``solve_exact`` refuses n variables."""
    if n > EXACT_LIMIT:
        raise ParameterError(f"exact solver limited to n <= {EXACT_LIMIT}, got {n}")


# Energy cells per row block of solve_exact's table: 2^18 floats, 2 MB.
_BLOCK_CELLS = 1 << 18


def solve_exact(q: Qubo) -> SolveResult:
    """Exhaustive minimum over all 2^n assignments (n <= 30).

    The variables split into a high block x_0..x_{h-1} (h = ceil(n/2)) and
    a low block of l = n - h.  Each block's own energy is tabulated once
    (2^h and 2^l entries, the offset in the high one), as is the coupling
    W[:h, h:] @ X_lo.T (h x 2^l).  The 2^h x 2^l energy table
    E[hi, lo] = X_hi[hi] @ cross[:, lo] + E_hi[hi] + E_lo[lo] is then
    streamed in row blocks of at most ``_BLOCK_CELLS`` cells (2 MB), so the
    largest buffers are the half tables and the coupling, about 4 MB each
    at n = 30.

    The flat row-major index hi * 2^l + lo has x_0 as its most significant
    bit, so it runs in lexicographic order: a block's last argmin is its
    tie-break, and a later block wins on an equal energy too.  Ties
    therefore break toward the lexicographically largest bitstring, x_0
    first.  On a cover QUBO every tied minimum selects the same number of
    subsets, and among those the largest bitstring is the smallest sorted
    index tuple, the tie-break of ``solve_cover_dlx``.  The winner's energy
    is re-evaluated with ``qubo_energy``, as ``solve_sa`` does, so the two
    solvers agree to the bit on the same assignment.
    """
    check_exact_size(q.n)
    lin, W = _dense(q)
    h = (q.n + 1) // 2
    X_hi, X_lo = _assignments(h), _assignments(q.n - h)

    def own_energy(X, block):
        return X @ lin[block] + 0.5 * np.einsum("ki,ki->k", X @ W[block, block], X)

    E_hi = q.offset + own_energy(X_hi, slice(0, h))
    E_lo = own_energy(X_lo, slice(h, q.n))
    cross = W[:h, h:] @ X_lo.T
    # Both block sizes are powers of two, so every row block is full.
    rows = min(len(X_hi), max(1, _BLOCK_CELLS // len(X_lo)))
    E = np.empty((rows, len(X_lo)))
    best_e, best_k = math.inf, 0
    for start in range(0, len(X_hi), rows):
        np.matmul(X_hi[start:start + rows], cross, out=E)
        E += E_hi[start:start + rows, None]
        E += E_lo
        k = E.size - 1 - int(np.argmin(E.ravel()[::-1]))
        if E.flat[k] <= best_e:
            best_e, best_k = E.flat[k], start * len(X_lo) + k
    assignment = format(best_k, f"0{q.n}b") if q.n else ""
    return SolveResult(assignment, qubo_energy(q, assignment), "exact")


# Proposals each restart scores per round of ``_anneal``, and the padding,
# never accepted, that keeps a round inside its proposal row.  It changes no
# trajectory; on chain cover QUBOs run time is level from 16 to 128
# (``BENCH_sa_working_set.json``), while the working set grows with it.
_BLOCK = 16
# Restarts whose uniforms are drawn in one call: a chunk of rows is all the
# uniform buffer ever holds.
_DRAW_ROWS = 8


def sa_table_bytes(n: int, sweeps: int, restarts: int) -> int:
    """Bytes of arrays an annealing run of ``solve_sa`` holds, as an upper bound.

    With R restarts and S sweeps on n variables, ``_anneal`` holds

    * two 8-byte proposal tables of R x (S + ``_BLOCK``) entries, flat
      flip index and threshold;
    * one chunk of at most ``_DRAW_ROWS`` rows of n + 2 S uniforms;
    * the temperature ladder, three S-vectors while it is built;
    * one round's gathers, four 8-byte arrays of R x ``_BLOCK``;
    * the state: seven R x n float arrays (start bits, fields, spins, flip
      costs, best spins and the field update's two temporaries) and
      sixteen R-vectors;
    * the dense couplings, n x n floats;
    * 256 KiB for numpy's cast buffers and the run's Python objects.

    Their sum bounds the run's peak, which never holds all of them at once.
    """
    R, S = restarts, sweeps
    return (16 * R * (S + _BLOCK)
            + 8 * min(R, _DRAW_ROWS) * (n + 2 * S)
            + 24 * S
            + 32 * R * _BLOCK
            + 8 * R * (7 * n + 16)
            + 8 * n * n
            + (1 << 18))


def check_sa_memory(n: int, schedule: AnnealSchedule | None = None) -> None:
    """Raise ParameterError if ``solve_sa`` refuses to anneal n variables.

    It refuses when the run's ``sa_table_bytes`` exceed ``SA_TABLE_LIMIT``;
    an empty model anneals nothing and is never refused.  A schedule of
    None stands for the default's sweeps and restarts
    (``default_run_length``), which do not depend on the coefficients.
    """
    S, R = (default_run_length(n) if schedule is None
            else (schedule.sweeps, schedule.restarts))
    table_bytes = sa_table_bytes(n, S, R)
    if n and table_bytes > SA_TABLE_LIMIT:
        raise ParameterError(
            f"the annealing schedule needs {table_bytes} bytes of working memory, "
            f"above SA_TABLE_LIMIT = {SA_TABLE_LIMIT}; use fewer sweeps or restarts"
        )


def solve_sa(
    q: Qubo, schedule: AnnealSchedule | None = None, seed: int = 0
) -> SolveResult:
    """Single-flip Metropolis annealing with geometric cooling and restarts.

    One generator, ``default_rng(seed)``, feeds the whole run: restart r
    takes the r-th row of n + 2 sweeps uniforms (``_anneal``), so results
    do not depend on how restarts are executed, and a run of R restarts is
    the first R restarts of any wider run with the same seed.  The
    reduction takes the lowest energy and breaks ties by the lowest
    restart index.  Raises ParameterError, before allocating anything,
    when the run's arrays (``sa_table_bytes``: proposal tables, uniforms,
    block gathers and state) would exceed ``SA_TABLE_LIMIT`` bytes.
    """
    check_seed(seed)
    if schedule is None:
        schedule = default_schedule(q)
    R, S = schedule.restarts, schedule.sweeps
    if q.n == 0:
        return SolveResult("", q.offset, "sa", int(seed), S, R)
    check_sa_memory(q.n, schedule)
    best_E, best_bits = _anneal(q, schedule, seed)
    r_best = int(np.argmin(best_E))  # argmin returns the first = lowest index
    assignment = _bitstring(best_bits[r_best])
    return SolveResult(
        assignment,
        qubo_energy(q, assignment),
        "sa",
        int(seed),
        S,
        R,
    )


def _proposals(u, first, neg_temps, X, flat_flips, thresholds):
    """Fill restarts first, first + 1, ... from their rows of uniforms u.

    A row is n start bits (1 where u < 0.5), then S flip indices
    floor(u n), stored as flat indices into the raveled (restarts, n)
    state, then S thresholds -T_j ln u.  Metropolis acceptance
    u < exp(-delta/T) is rewritten as delta <= -T ln u, which also admits
    every non-positive delta and keeps the loop free of exp calls; u = 0
    gives an infinite threshold.  X, flat_flips and thresholds are the
    rows' slices of ``_anneal``'s tables.
    """
    n, S = X.shape[1], len(neg_temps)
    X[:] = u[:, :n] < 0.5
    flips = flat_flips[:, :S]
    # The cast to the integer table truncates: floor of u n < n.
    np.multiply(u[:, n:n + S], n, out=flips, casting="unsafe")
    flips += (first + np.arange(len(u)))[:, None] * n
    t = thresholds[:, :S]
    with np.errstate(divide="ignore"):
        np.log(u[:, n + S:], out=t)
    t *= neg_temps


def _anneal(q: Qubo, schedule: AnnealSchedule, seed: int):
    """Each restart's lowest energy and the 0/1 assignment that first reached it.

    The run draws from one stream, ``default_rng(seed)``: restart r reads
    the r-th row of n + 2 sweeps uniforms (``_proposals``).  The rows are
    drawn ``_DRAW_ROWS`` restarts at a time, and a chunk is the same
    stretch of the stream as the rows of a one-shot draw.

    Each restart keeps its local fields G = X W and its flip costs
    D = spins * (lin + G), the expression a step-by-step walk evaluates,
    and refreshes both after every round that accepts.  Each round, every
    restart scores its next ``_BLOCK`` proposals with one gather from D
    against its frozen state, only the first accepted one is applied, and
    that restart resumes right after it.  A restart without an acceptance
    takes a zero step and moves past the block.  Rejections never change
    state, so nothing diverges from stepping one proposal at a time, and
    ``_BLOCK`` does not change any trajectory.  The proposals take two
    tables of restarts x (sweeps + ``_BLOCK``) entries, flat flip index and
    threshold; ``sa_table_bytes`` counts them and the rest of the run.
    """
    lin, W = _dense(q)
    R, S, n = schedule.restarts, schedule.sweeps, q.n
    # The padding, -inf thresholds on each restart's own first variable, is
    # never accepted.
    width = S + _BLOCK
    rows = np.arange(R)
    X = np.empty((R, n))
    flat_flips = np.empty((R, width), dtype=np.int64)
    flat_flips[:, S:] = (rows * n)[:, None]
    thresholds = np.empty((R, width))
    thresholds[:, S:] = -np.inf
    neg_temps = -schedule.temperatures()
    rng = np.random.default_rng(int(seed))
    u = np.empty((min(R, _DRAW_ROWS), n + 2 * S))
    for r in range(0, R, len(u)):
        chunk = u[:R - r]
        rng.random(out=chunk)
        stop = r + len(chunk)
        _proposals(chunk, r, neg_temps, X[r:stop], flat_flips[r:stop],
                   thresholds[r:stop])
    flat_flips, thresholds = flat_flips.ravel(), thresholds.ravel()

    G = X @ W
    E = q.offset + X @ lin + 0.5 * np.einsum("ri,ri->r", G, X)
    spins = 1.0 - 2.0 * X
    D = spins * (lin + G)
    Sf, Df = spins.ravel(), D.ravel()
    best_E = E.copy()
    best_spins = spins.copy()
    offsets = np.arange(_BLOCK)
    pos = rows * width  # flat index of each restart's next proposal
    end = pos + S
    while True:
        idx = pos[:, None] + offsets
        delta = Df[flat_flips[idx]]
        acc = delta <= thresholds[idx]
        first = acc.argmax(axis=1)
        pick = rows * _BLOCK + first
        hit = acc.ravel()[pick]
        if np.count_nonzero(hit):
            at = flat_flips[pos + first]
            step = Sf[at] * hit  # +-1 where accepted, 0 elsewhere
            Sf[at] -= 2.0 * step
            E += delta.ravel()[pick] * hit
            G += step[:, None] * W[at - rows * n]
            np.add(lin, G, out=D)
            D *= spins
            better = E < best_E
            if np.count_nonzero(better):
                best_E[better] = E[better]
                best_spins[better] = spins[better]
            pos += np.where(hit, first + 1, _BLOCK)
        else:
            pos += _BLOCK
            # A finished restart sits at its end, in the padding, so only
            # a round without acceptances can be the last.
            if not np.count_nonzero(pos < end):
                break
        np.minimum(pos, end, out=pos)
    return best_E, (best_spins < 0).astype(int)


def selection_from_result(result: SolveResult) -> tuple[int, ...]:
    """Indices of the variables set to 1."""
    return tuple(i for i, ch in enumerate(result.assignment) if ch == "1")


# ---------------------------------------------------------------------------
# qbsolv-style text format.
#   c <comment>                    ('c offset <real>' carries the offset)
#   p qubo 0 <maxNodes> <nNodes> <nCouplers>
#   <i> <i> <value>                nNodes diagonal (linear) lines
#   <i> <j> <value>                nCouplers coupler lines, i < j
# ---------------------------------------------------------------------------

def export_qubo(q: Qubo, path, names: tuple[str, ...] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c qubo model written by csgcompress\n")
        if q.offset:
            fh.write(f"c offset {q.offset:.17g}\n")
        if names:
            for i, name in enumerate(names):
                fh.write(f"c var {i} {name}\n")
        fh.write(f"p qubo 0 {q.n} {len(q.linear)} {len(q.quadratic)}\n")
        for i, v in q.linear.items():
            fh.write(f"{i} {i} {v:.17g}\n")
        for (i, j), v in q.quadratic.items():
            fh.write(f"{i} {j} {v:.17g}\n")


def import_qubo(path) -> Qubo:
    n = None
    n_nodes = n_couplers = 0
    offset = 0.0
    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("c"):
                fields = line.split()
                if len(fields) >= 3 and fields[1] == "offset":
                    try:
                        offset = float(fields[2])
                    except ValueError as exc:
                        raise FileFormatError(
                            f"{path}:{lineno}: bad offset value"
                        ) from exc
                continue
            if line.startswith("p"):
                fields = line.split()
                if len(fields) != 6 or fields[1] != "qubo":
                    raise FileFormatError(
                        f"{path}:{lineno}: malformed program line"
                    )
                try:
                    n = int(fields[3])
                    n_nodes = int(fields[4])
                    n_couplers = int(fields[5])
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
                continue
            if n is None:
                raise FileFormatError(
                    f"{path}:{lineno}: data before the program line"
                )
            fields = line.split()
            if len(fields) != 3:
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'i j value'"
                )
            try:
                i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            if i == j:
                if i in linear:
                    raise FileFormatError(
                        f"{path}:{lineno}: duplicate node line for {i}"
                    )
                linear[i] = v
            else:
                if i >= j:
                    raise FileFormatError(
                        f"{path}:{lineno}: couplers need i < j"
                    )
                if (i, j) in quadratic:
                    raise FileFormatError(
                        f"{path}:{lineno}: duplicate coupler line for {i} {j}"
                    )
                quadratic[(i, j)] = v
    if n is None:
        raise FileFormatError(f"{path}: missing program line")
    if len(linear) != n_nodes or len(quadratic) != n_couplers:
        raise FileFormatError(
            f"{path}: program line declares {n_nodes} nodes/{n_couplers} couplers, "
            f"found {len(linear)}/{len(quadratic)}"
        )
    try:
        return Qubo(n, linear, quadratic, offset)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
