"""Critical inverse temperatures via discrete subset-ratio optimization.

For a symmetric coupling matrix the two optimization targets are the extrema
over subsets S (|S| >= 2) of the ratio  sum_{i<j in S} c(i,j) / (|S|-1).
T+ is minus the minimum, T- is minus the maximum; the partition function is
finite exactly on (beta-, beta+) with beta+ = 1/T+ when T+ > 0 (else +inf)
and beta- = 1/T- when T- < 0 (else -inf).  Equivalently, Z is finite iff
beta * a_S + |S| - 1 > 0 for every subset S, where a_S is the sum of
c(i,j) over the pairs inside S.

One numpy kernel scans all 2^n subsets.  It builds the table of subset sums
by doubling, s[mask | 1<<k] = s[mask] + L_k[mask], with L_k the doubling
table of row k over the bits below k, and reduces the minimum and maximum
sum a_k of each subset size k.  Each optimum is then the best a_k/(k-1) over
at most n-1 sizes, and its family is read off the winning sizes only.  The
table is built in blocks of at most 2^16 low-bit masks; the fixed high bits
of a block add one vector, so memory stays at a few MB up to the n = 26
cap.

The matrix alone picks the arithmetic: exact mode when it holds rational
entries (``is_exact``), float mode otherwise; callers wanting float mode on
rational input pass a float-only copy.  Exact mode scales the entries to
integers over their common denominator.  The sums are int64 when the
absolute entries sum below 2^62 and Python ints (dtype=object) otherwise,
and sizes are compared as exact fractions, so ties are exact.  Float mode
ties a ratio to the optimum r within ``rational.tolerance(tie_tol, r, s)``,
s the largest |c_ij|, that is tie_tol * max(min(1, s), |r|); below scale 1
the rule scales with C, so a small grid ties no more subsets than the same
grid scaled up (``tie_tol`` is keyword-only).  Its reported optimum is the
fsum of the pairs of the first optimizer in (size, mask) order over |S|-1,
so it does not depend on the summation order.

kappa, the size of the largest pairwise-nested subfamily of an optimizer
family, and the maximal nests themselves come from one depth-first search
over the family's compatibility bitmask (``max_nest``).  A nest is a clique
of the "nested" graph, so a greedy colouring bounds each branch (Tomita &
Seki 2003): a nest holds at most one member of each class of pairwise
crossing candidates.  A nest is the sorted tuple of its members' ranks in
``NestSearch.members``, the family in report order: the search only extends
a nest by members compatible with all of it, so every nest it returns is
pairwise nested.
``critical_interval`` returns the solver's own results, the two
``OptResult`` and the two ``NestSearch``; the CLI renders them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coupling import CouplingMatrix
from .errors import SizeLimitError
from .rational import TIE_TOL, Real, tolerance

_BLOCK_BITS = 16  # a block of the subset-sum table spans 2^16 low-bit masks
_MAX_N = 26  # largest instance the 2^n scan accepts
_COLLECT_CAP = 1_000_000
_NEST_CAP = 10_000  # maximum nests enumerated before the truncated flag is set
_FAMILY_CAP = 4096  # largest optimizer family max_nest accepts
_MEMO_BITS = 1 << 16  # candidate-mask bits of the bounds one max_nest call remembers
_INT64_BOUND = 1 << 62


@dataclass(frozen=True, order=True)
class SubsetMask:
    """A subset of {0,..,n-1} as a bitmask; at least two members."""

    bits: int

    def __post_init__(self):
        if self.bits.bit_count() < 2:
            raise ValueError(f"subset needs at least 2 members, got bits={self.bits:b}")

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple:
        bits, out = self.bits, []
        while bits:
            b = bits & -bits
            out.append(b.bit_length() - 1)
            bits ^= b
        return tuple(out)


@dataclass(frozen=True)
class OptResult:
    """Optimum value and the family of subsets attaining it.

    ``attained`` is False when every subset sum has the wrong sign or is
    zero, i.e. when the corresponding endpoint is infinite; zero-sum subsets
    never enter the family.
    """

    t_value: Real
    optimizers: tuple
    attained: bool


@dataclass(frozen=True)
class NestSearch:
    """kappa, the maximum nests and whether their list stopped at the cap.

    ``members`` is the family in report order: by lowest element, then size,
    then bits.  Each nest is the sorted tuple of its members' ranks there."""

    kappa: int
    nests: tuple
    truncated: bool
    members: tuple


@dataclass(frozen=True)
class CriticalReport:
    """What ``critical_interval`` computed: the two optima, their endpoints
    and the nest search on each side (empty on an unattained side)."""

    n: int
    exact: bool
    plus: OptResult
    minus: OptResult
    beta_minus: Real
    beta_plus: Real
    nests_plus: NestSearch
    nests_minus: NestSearch


def _weights(c: CouplingMatrix, exact: bool):
    """(w, denom): the couplings as the array the kernel sums.

    Exact entries are scaled to integers over their common denominator.
    int64 holds every subset sum once the absolute entries of the upper
    triangle sum below 2^62; past that the same kernel runs on Python ints
    (dtype=object)."""
    if not exact:
        return np.array(c.entries, dtype=float), 1
    denom = math.lcm(*(q.denominator for row in c.exact_entries for q in row))
    rows = [[q.numerator * (denom // q.denominator) for q in row] for row in c.exact_entries]
    total = sum(abs(v) for i, row in enumerate(rows) for v in row[i + 1:])
    return np.array(rows, dtype=np.int64 if total < _INT64_BOUND else object), denom


# ---------------------------------------------------------------------------
# Subset-sum kernel: doubling tables, built and reduced one block at a time
# ---------------------------------------------------------------------------

def _linear(steps, base, dtype) -> np.ndarray:
    """t[mask] = base + sum of steps[j] over the bits j of mask, by doubling.

    Rows of a 2-D ``steps`` are summed as vectors."""
    steps = np.asarray(steps)
    t = np.empty((1 << len(steps),) + steps.shape[1:], dtype=dtype)
    t[0] = base
    for j, x in enumerate(steps):
        np.add(t[:1 << j], x, out=t[1 << j:2 << j])
    return t


def _pair_sums(w) -> np.ndarray:
    """s[mask] = sum of w[i,j] over pairs i<j inside mask, by doubling:
    s[mask | 1<<k] = s[mask] + L_k[mask], where L_k is the linear table of
    row k over the bits below k."""
    s = np.empty(1 << len(w), dtype=w.dtype)
    s[0] = 0
    for k in range(len(w)):
        np.add(s[:1 << k], _linear(w[k, :k], 0, w.dtype), out=s[1 << k:2 << k])
    return s


def _near(vals, k, target, tol):
    """Which size-k subset sums attain ``target``: integer equality in exact
    mode (tol None), within ``tol`` on the ratio in float mode."""
    if tol is None:
        return vals == target
    return np.abs(vals / (k - 1) - target) <= tol


@functools.lru_cache(maxsize=None)
def _size_order(bits: int):
    """The masks below 2^bits in (size, mask) order, and where each size
    starts in that order (plus the end)."""
    sizes = _linear(np.ones(bits, dtype=np.uint8), 0, np.uint8)
    order = np.argsort(sizes, kind="stable")
    starts = np.searchsorted(sizes[order], np.arange(bits + 2))
    order.setflags(write=False)
    starts.setflags(write=False)
    return order, starts


class _SubsetSums:
    """All 2^n subset sums of w, one block of 2^bits masks at a time.

    Block h holds the masks (h << bits) | low.  Their sums are the pair
    sums of the low bits plus one vector per block for the fixed high bits
    (the pairs among them and their rows over the low bits).  A block is
    returned with the low masks in (size, mask) order, so every subset
    size is one contiguous segment."""

    def __init__(self, w):
        self.n = n = len(w)
        self.bits = b = min(n, _BLOCK_BITS)
        self.order, self.starts = _size_order(b)
        self.low = _pair_sums(w[:b, :b])
        self.high = _pair_sums(w[b:, b:])
        self.cross = _linear(w[b:, :b], 0, w.dtype)
        self.high_sizes = _linear(np.ones(n - b, dtype=np.int64), 0, np.int64)
        self.first = self.low[self.order]  # block 0: no high bits set
        sizes = (self.high_sizes[:, None] + np.arange(b + 1)).ravel()
        self.size_order = np.argsort(sizes, kind="stable")
        self.size_starts = np.searchsorted(sizes[self.size_order], np.arange(n + 1))

    def block(self, h: int) -> np.ndarray:
        if h == 0:
            return self.first
        t = _linear(self.cross[h], self.high[h], self.low.dtype)
        t += self.low
        return t[self.order]

    def extrema(self):
        """Per block, the minimum and maximum sum of each low-bit size."""
        shape = (len(self.high), self.bits + 1)
        mins, maxs = np.empty(shape, self.low.dtype), np.empty(shape, self.low.dtype)
        for h in range(shape[0]):
            vals = self.block(h)
            mins[h] = np.minimum.reduceat(vals, self.starts[:-1])
            maxs[h] = np.maximum.reduceat(vals, self.starts[:-1])
        return mins, maxs

    def by_size(self, ext, ufunc) -> list:
        """ufunc reduced over the entries of ext of each subset size 0..n."""
        return ufunc.reduceat(ext.ravel()[self.size_order], self.size_starts).tolist()

    def ties(self, sides) -> list:
        """Masks attaining each side's optimum, in (size, mask) order.

        ``sides`` holds (ext, wins, tol) per side, with wins the winning
        sizes as (k, target).  Only blocks whose extremum attains a target
        are rebuilt; zero-sum subsets never count."""
        found = [[] for _ in sides]
        count = 0
        for h, pc in enumerate(self.high_sizes.tolist()):
            todo = [(i, k, target, tol) for i, (ext, wins, tol) in enumerate(sides)
                    for k, target in wins
                    if 0 <= k - pc <= self.bits and _near(ext[h, k - pc], k, target, tol)]
            if not todo:
                continue
            vals = self.block(h)
            for i, k, target, tol in todo:
                lo, hi = self.starts[k - pc], self.starts[k - pc + 1]
                seg = vals[lo:hi]
                hit = _near(seg, k, target, tol) & (seg != 0)
                count += np.count_nonzero(hit)
                if count > _COLLECT_CAP:
                    raise SizeLimitError("optimizer family exceeds internal cap")
                found[i].append((k, h, (h << self.bits) | self.order[lo + np.flatnonzero(hit)]))
        return [[int(m) for *_, masks in sorted(f, key=lambda p: p[:2]) for m in masks]
                for f in found]


def _fsum_ratio(w, mask: int) -> float:
    """Correctly rounded pair sum of one subset, over |S|-1."""
    idx = SubsetMask(mask).indices()
    return math.fsum(w[i, j] for a, i in enumerate(idx) for j in idx[a + 1:]) / (len(idx) - 1)


def _scan(c: CouplingMatrix, tie_tol: float) -> tuple:
    """(plus, minus): both extrema of the ratio and their families, shared
    by the three public solvers.

    The per-size extrema a_k of the subset sums give each optimum as the
    best a_k/(k-1) over at most n-1 sizes.  Float mode always finds its
    first optimizer, whose fsum'd ratio is the reported value."""
    if c.n > _MAX_N:
        raise SizeLimitError(f"n={c.n} exceeds solver cap {_MAX_N}")
    exact = c.is_exact
    w, denom = _weights(c, exact)
    table = _SubsetSums(w)
    scale = c.scale
    sides, ratios = [], []
    for ext, ufunc, pick in zip(table.extrema(), (np.minimum, np.maximum), (min, max)):
        a = table.by_size(ext, ufunc)  # a[k]: extremum of the size-k sums
        q = {k: Fraction(a[k], k - 1) if exact else a[k] / (k - 1) for k in range(2, table.n + 1)}
        r = pick(q.values())
        if exact:
            tol, wins = None, [(k, a[k]) for k in q if q[k] == r != 0]
        else:
            tol = tolerance(tie_tol, r, scale)
            wins = [(k, r) for k in q if abs(q[k] - r) <= tol]
        sides.append((ext, wins, tol))
        ratios.append(r / denom if exact else r)
    found = table.ties(sides)
    if not exact:
        ratios = [_fsum_ratio(w, masks[0]) if masks else r for masks, r in zip(found, ratios)]
    lo, hi = ratios
    plus = OptResult(-lo, tuple(map(SubsetMask, found[0])), attained=lo < 0)
    minus = OptResult(-hi, tuple(map(SubsetMask, found[1])), attained=hi > 0)
    return plus, minus


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def solve_t_plus(c: CouplingMatrix, *, tie_tol: float = TIE_TOL) -> OptResult:
    """T+ = -min_S ratio(S); optimizers are the negative-sum argmin sets."""
    return _scan(c, tie_tol)[0]


def solve_t_minus(c: CouplingMatrix, *, tie_tol: float = TIE_TOL) -> OptResult:
    """T- = -max_S ratio(S); optimizers are the positive-sum argmax sets."""
    return _scan(c, tie_tol)[1]


def solve_both(c: CouplingMatrix, *, tie_tol: float = TIE_TOL):
    """(plus, minus) results from a single shared scan."""
    return _scan(c, tie_tol)


def endpoints(plus: OptResult, minus: OptResult) -> tuple:
    """(beta-, beta+) of the optima from ``solve_both``: 1/T on an attained
    side, -inf / +inf on the other."""
    beta_minus: Real = 1 / minus.t_value if minus.attained else -math.inf
    beta_plus: Real = 1 / plus.t_value if plus.attained else math.inf
    return beta_minus, beta_plus


def max_nest(family: Sequence[SubsetMask]) -> NestSearch:
    """Maximum-size pairwise-nested subfamilies of an optimizer family.

    One depth-first search over the compatibility bitmask finds kappa
    exactly and collects the nests of the best depth seen so far, the first
    ``_NEST_CAP`` in search order; one more sets the truncated flag, and a
    deeper nest clears the list and the flag.  Branches that cannot reach
    the best depth are pruned, and once the flag is set, so are those that
    cannot beat it.  A branch's reach is bounded by its candidate count
    and, when that does not prune, by the number of classes in a greedy
    split of the candidates into pairwise-crossing members, of which a
    nest holds at most one each.  Both bounds are valid, so the pruned
    subtrees hold no nest that would count: kappa, the nests kept and the
    flag are those of the unpruned search.  Families larger than
    ``_FAMILY_CAP`` are refused.

    The class bound depends on the candidates and the members still needed
    alone, and tie-rich families meet the same pair many times (the 8+8
    plasma: 884 distinct among 24,365), so one call remembers it per (cand,
    need); a need of at most 1 always holds and is not looked up.  The memo
    holds at most ``_MEMO_BITS`` bits of candidate masks, ``_MEMO_BITS //
    k`` answers for a family of k, so a large family whose pairs never
    repeat keeps few.  Each nest is collected as the sorted tuple of its
    members' ranks in report order (``NestSearch.members``); the nests are
    then sorted by their members' bits.
    """
    fam = list(family)
    if not fam:
        raise ValueError("family must be nonempty")
    if len(set(s.bits for s in fam)) != len(fam):
        raise ValueError("family members must be pairwise distinct")
    if len(fam) > _FAMILY_CAP:
        raise SizeLimitError(f"family of size {len(fam)} exceeds cap {_FAMILY_CAP}")

    fam.sort(key=lambda s: (-s.size, s.bits))
    bits = [s.bits for s in fam]
    k = len(fam)
    compat = []  # compat[i]: the later members nested with member i
    for i, x in enumerate(bits):
        nested = 0
        for j in range(i + 1, k):
            common = x & bits[j]
            if common == 0 or common == x or common == bits[j]:
                nested |= 1 << j
        compat.append(nested)
    # a class grows upward from its lowest member, so masking out the later
    # members nested with each one suffices
    crossing = [~(compat[i] | 1 << i) for i in range(k)]
    # a nest lists its members by lowest element, then size, then bits: the
    # search pushes each member's rank in that order, so a sort of the
    # ranks orders a nest
    order = sorted(range(k), key=lambda j: (bits[j] & -bits[j], bits[j].bit_count(), bits[j]))
    rank = [0] * k
    for r, j in enumerate(order):
        rank[j] = r
    memo, room = {}, _MEMO_BITS // k  # (cand, need) -> whether the classes reach need

    def classes_reach(cand: int, need: int) -> bool:
        """Whether a greedy split of cand into classes of pairwise-crossing
        members needs at least ``need`` classes."""
        classes = 0
        while cand:
            classes += 1
            if classes >= need:
                return True
            q = cand
            while q:
                b = q & -q
                cand ^= b
                q &= crossing[b.bit_length() - 1]
        return False

    best, found, truncated = 0, [], False

    def search(stack: list, cand: int):
        nonlocal best, found, truncated
        depth = len(stack)
        if depth > best:
            best, found, truncated = depth, [tuple(sorted(stack))], False
        elif depth == best:
            if len(found) < _NEST_CAP:
                found.append(tuple(sorted(stack)))
            else:
                truncated = True
        while cand:
            need = best - depth + truncated  # members a nest must add to count
            if need > 1:
                if cand.bit_count() < need:
                    return
                key = (cand, need)
                reach = memo.get(key)
                if reach is None:
                    reach = classes_reach(cand, need)
                    if len(memo) < room:
                        memo[key] = reach
                if not reach:
                    return
            b = cand & -cand
            j = b.bit_length() - 1
            cand ^= b
            stack.append(rank[j])
            search(stack, cand & compat[j])
            stack.pop()

    search([], (1 << k) - 1)
    del search  # it holds itself, and so the nests and memo, until a full garbage collection

    ranked_bits = [bits[j] for j in order]
    found.sort(key=lambda nest: [ranked_bits[r] for r in nest])
    return NestSearch(best, tuple(found), truncated, tuple(fam[j] for j in order))


def critical_interval(c: CouplingMatrix, *, tie_tol: float = TIE_TOL) -> CriticalReport:
    """Full report: endpoints, optimizer families and their maximum nests."""
    plus, minus = solve_both(c, tie_tol=tie_tol)
    beta_minus, beta_plus = endpoints(plus, minus)
    nests_plus, nests_minus = (max_nest(r.optimizers) if r.attained
                               else NestSearch(0, (), False, ()) for r in (plus, minus))
    return CriticalReport(c.n, c.is_exact, plus, minus, beta_minus, beta_plus,
                          nests_plus, nests_minus)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    t_plus: Real
    t_minus: Real
    g_plus: tuple
    g_minus: tuple


def all_subset_sums(c: CouplingMatrix) -> dict:
    """{mask: sum of c(i,j) over the pairs inside mask} for every mask of at
    least two members, by plain loops over all masks; exact when the
    entries are.  Independent of the scan kernel: ``brute_force_oracle``
    and the ground-state identity in tests/oracles.py build on it."""
    entries = c.exact_entries if c.is_exact else c.entries.tolist()
    sums = {}
    for mask in range(1 << c.n):
        idx = [i for i in range(c.n) if (mask >> i) & 1]
        if len(idx) < 2:
            continue
        total = Fraction(0) if c.is_exact else 0.0
        for a, i in enumerate(idx):
            for j in idx[a + 1:]:
                total += entries[i][j]
        sums[mask] = total
    return sums


def brute_force_oracle(c: CouplingMatrix, tie_tol: float = TIE_TOL) -> OracleResult:
    """Reference solver: plain loop over all masks, no pruning, no
    incremental sums.  Kept deliberately simple; n <= 16."""
    if c.n > 16:
        raise SizeLimitError(f"oracle limited to n <= 16, got {c.n}")
    ratios = {mask: a / (mask.bit_count() - 1) for mask, a in all_subset_sums(c).items()}
    scale = max(abs(v) for row in c.entries.tolist() for v in row)

    rmin = min(ratios.values())
    rmax = max(ratios.values())

    def ties(target):
        # the float tie rule, spelled out here apart from the kernel's copy
        tol = 0 if c.is_exact else tie_tol * max(min(1.0, scale), abs(target))
        out = [mask for mask, r in ratios.items() if r != 0 and abs(r - target) <= tol]
        return tuple(SubsetMask(m) for m in sorted(out, key=lambda m: (m.bit_count(), m)))

    return OracleResult(-rmin, -rmax, ties(rmin), ties(rmax))
