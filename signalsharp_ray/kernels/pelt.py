"""PELT changepoint detection (exact DP with pruning).

Semantics match /root/reference/SignalSharp/Detection/PELT/PELTAlgorithm.cs:
- F[0] = -penalty; F[t] minimal cost of segmenting [0, t) (:199-217)
- for each endpoint t >= MinSize, minimize F[s] + cost(s, t) + penalty over
  admissible candidates s, iterating BACKWARDS from t - MinSize with step
  Jump (:215-268); Jump == 1 is exact PELT, Jump > 1 the reference's
  approximate variant (including its quirk of re-checking index 0 via
  prevCpCandidate = Jump when the backward loop would skip below 0)
- cost-computation errors for a candidate are skipped, not fatal (:236-257)
- pruning: keep s admissible iff F[s] + cost(s, t) <= F[t]; segments still
  shorter than MinSize stay admissible while F[s] is finite; errors during the
  pruning check conservatively keep s (:287-338)
- breakpoints = ascending segment-start indices ("first point after the
  change") from backtracking CP (:349-383)
- signals shorter than 2*MinSize -> no changepoints (:137-150)

Four forms of the DP, one per case, with the same CP array:
- many series at once, univariate L2 with jump == 1, each of at most
  _SMALL_N_FAST_PATH points: `pelt_l2_segments` runs `_segment_small_l2`
  over a padded (series x n) matrix, longest series first, so step t
  works on the prefix of rows still running; the admissible starts are a
  boolean mask. The analysis stage takes this form for a tier's series;
  longer series there take the per-series forms below.
- one such series: `_segment_small_l2`, a scalar-float DP (numpy's
  per-call cost dominates there; on one series the padded form took
  6-15x as long at n = 7-30). The read path analyzes one series per
  request.
- jump == 1 and a cost with a batch `segment_costs` (L2 of any dimension,
  Gaussian, RBF): `_segment_array`. The admissible starts are one
  ascending int64 array; each step cuts the candidates off it with a
  `searchsorted`, costs them once for both the minimum and the pruning
  test, prunes with a boolean mask and appends t. On a series with no
  change PELT prunes almost nothing, so the array grows to O(n) and the
  DP is O(n^2) numpy work.
- jump > 1, or a cost with no `segment_costs` (L1, AR, Poisson,
  Bernoulli, Binomial): the reference's backward loop over a Python set
  of admissible starts, candidate by candidate.

Parallelism note: the DP is inherently sequential per series; the distributed
engine gets parallelism from millions of series, spread over buckets that
run at once, each bucket's series in one call (pelt_l2_segments runs the
short L2 ones as one padded DP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..common.exceptions import UninitializedDataError
from .costs import CostFunction, L2Cost, make_cost
from .padding import segment_blocks

# scalar-DP fast-path cutoff for univariate L2 (see PELT._segment_small_l2):
# the two DPs take equal time at about this length on a series with no
# change, the case where PELT prunes least; tests set this to 0 to force
# the array path for parity comparison
_SMALL_N_FAST_PATH = 144

# cells per padded block of pelt_l2_segments: bounds its matrices (F, CP,
# the prefix sums and a step's temporaries) to a few MiB each however many
# series a call gets
_BLOCK_CELLS = 1 << 18


@dataclass
class PELTOptions:
    """Mirrors PELTOptions.cs:26-52 (defaults: L2, MinSize=1, Jump=1)."""

    cost_function: CostFunction | str = field(default="l2")
    min_size: int = 1
    jump: int = 1
    cost_kwargs: dict = field(default_factory=dict)

    def resolve_cost(self) -> CostFunction:
        if isinstance(self.cost_function, str):
            return make_cost(self.cost_function, **self.cost_kwargs)
        return self.cost_function

    def __post_init__(self):
        if self.min_size <= 0:
            raise ValueError("min_size must be positive")
        if self.jump <= 0:
            raise ValueError("jump must be positive")


class PELT:
    def __init__(self, options: PELTOptions | None = None):
        self.options = options or PELTOptions()
        self.cost = self.options.resolve_cost()
        self._n: int | None = None

    def fit(self, signal) -> "PELT":
        arr = np.asarray(signal, dtype=np.float64)
        self._n = arr.shape[-1]
        self.cost.fit(arr)
        return self

    def detect(self, penalty: float) -> np.ndarray:
        if self._n is None:
            raise UninitializedDataError("fit() must be called before detect().")
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        n = self._n
        min_size = self.options.min_size
        if n < min_size or n < min_size * 2:
            return np.array([], dtype=np.int64)
        cp = self._segment(penalty)
        return self._extract_breakpoints(cp)

    def fit_and_detect(self, signal, penalty: float) -> np.ndarray:
        return self.fit(signal).detect(penalty)

    # -- core DP ---------------------------------------------------------

    def _segment(self, penalty: float) -> np.ndarray:
        n = self._n
        min_size = self.options.min_size
        jump = self.options.jump
        cost = self.cost

        # pure-Python fast path for SHORT univariate L2 series: the numpy
        # candidate/pruning batches cost ~10us of array overhead per DP
        # step, which dominates tiny series (measured 314us for n=7 -> the
        # 100-TB shape is millions of such series). Scalar-float DP computes
        # the IDENTICAL operations in the identical order (np.cumsum is
        # sequential; the cost formula and tie-break are transcribed
        # op-for-op), property-tested equal in tests/test_pelt.py.
        if (
            jump == 1
            and isinstance(cost, L2Cost)
            and cost._n_dims == 1
            and n <= _SMALL_N_FAST_PATH
        ):
            return self._segment_small_l2(penalty)

        if jump == 1 and hasattr(cost, "segment_costs"):
            return self._segment_array(penalty)

        F = np.full(n + 1, math.inf)
        F[0] = -penalty
        CP = np.zeros(n + 1, dtype=np.int64)
        admissible: set[int] = {0}

        for t in range(min_size, n + 1):
            best_cost = math.inf
            best_prev = 0

            s = t - min_size
            while s >= 0:
                if s in admissible:
                    try:
                        seg_cost = cost.compute_cost(s, t)
                        total = F[s] + seg_cost + penalty
                        if total < best_cost:
                            best_cost = total
                            best_prev = s
                    except Exception:
                        pass  # reference logs and skips (:247-257)
                    # reference quirk (PELTAlgorithm.cs:259-267): in jump
                    # mode, when the ADMISSIBLE candidate just processed
                    # sits in (0, jump) and 0 is admissible, reset the
                    # cursor to `jump` so the decrement below lands on 0.
                    # The reset is skipped when the candidate itself was
                    # not admissible (the `continue` at :226-234 bypasses
                    # the bottom of the loop body).
                    if jump > 1 and 0 < s < jump and 0 in admissible:
                        s = jump
                s -= jump

            if math.isinf(best_cost):
                F[t] = math.inf
                CP[t] = -1
            else:
                F[t] = best_cost
                CP[t] = best_prev

            # pruning
            next_adm: set[int] = set()
            for s in admissible:
                if t - s >= min_size:
                    try:
                        if F[s] + cost.compute_cost(s, t) <= F[t]:
                            next_adm.add(s)
                    except Exception:
                        if math.isfinite(F[s]):
                            next_adm.add(s)
                elif math.isfinite(F[s]):
                    next_adm.add(s)
            if math.isfinite(F[t]):
                next_adm.add(t)
            admissible = next_adm

        return CP

    def _segment_array(self, penalty: float) -> np.ndarray:
        """Exact PELT (jump == 1) for a cost with `segment_costs`: the
        admissible starts are one ascending int64 array, so each step is a
        handful of numpy calls over it. The candidates `adm[:k]` are the
        starts at least `min_size` before `t`; their costs, computed once,
        serve both the minimum and the pruning test. The younger starts
        `adm[k:]` stay: each entered with a finite F. The last minimum is
        the largest-index one, the reference's tie-break; a NaN or
        infinite minimum leaves F[t] = inf and CP[t] = -1."""
        n = self._n
        min_size = self.options.min_size
        segment_costs = self.cost.segment_costs
        F = np.full(n + 1, math.inf)
        F[0] = -penalty
        CP = np.zeros(n + 1, dtype=np.int64)
        adm = np.zeros(1, dtype=np.int64)

        for t in range(min_size, n + 1):
            k = int(np.searchsorted(adm, t - min_size, "right"))
            if k == 0:
                F[t] = math.inf
                CP[t] = -1
                continue
            r = adm[:k]
            base = F[r] + segment_costs(r, t)
            totals = base + penalty
            j = k - 1 - int(np.argmin(totals[::-1]))
            m = totals[j]
            if math.isfinite(m):
                F[t] = m
                CP[t] = r[j]
                adm = np.concatenate((r[base <= m], adm[k:], [t]))
            else:
                F[t] = math.inf
                CP[t] = -1
                adm = np.concatenate((r[base <= math.inf], adm[k:]))
        return CP

    def _segment_small_l2(self, penalty: float) -> np.ndarray:
        """Scalar-float transcription of the array DP for univariate
        L2 (jump == 1). Output-identical: same prefix sums (sequential
        accumulation == np.cumsum), same cost expression
        (seg2 - seg*seg/len), same F/CP updates, same largest-index
        tie-break, same pruning rule."""
        n = self._n
        min_size = self.options.min_size
        # prefix sums from the fitted cost (row 0 of the (1, n) matrices)
        ps1 = self.cost._ps[0]
        ps2 = self.cost._ps2[0]
        s1 = [float(v) for v in ps1]
        s2 = [float(v) for v in ps2]

        inf = math.inf
        F = [inf] * (n + 1)
        F[0] = -penalty
        CP = [0] * (n + 1)
        admissible = [0]

        for t in range(min_size, n + 1):
            st1 = s1[t]
            st2 = s2[t]
            limit = t - min_size
            best = inf
            best_prev = -1
            costs = {}
            for s in admissible:
                if s <= limit:
                    d1 = st1 - s1[s]
                    c = (st2 - s2[s]) - d1 * d1 / (t - s)
                    costs[s] = c
                    total = F[s] + c + penalty
                    if total < best:
                        best = total
                        best_prev = s
                    elif total == best and s > best_prev:
                        best_prev = s
            if best == inf or best_prev < 0 or math.isinf(best):
                F[t] = inf
                CP[t] = -1
            else:
                F[t] = best
                CP[t] = best_prev
            ft = F[t]
            next_adm = []
            for s in admissible:
                if s in costs:
                    if F[s] + costs[s] <= ft:
                        next_adm.append(s)
                elif s > limit and not math.isinf(F[s]):
                    next_adm.append(s)
            if not math.isinf(ft):
                next_adm.append(t)
            admissible = next_adm

        return np.asarray(CP, dtype=np.int64)

    def _extract_breakpoints(self, cp: np.ndarray) -> np.ndarray:
        out: list[int] = []
        idx = self._n
        while idx > 0:
            prev = int(cp[idx])
            if prev <= 0:
                break
            out.append(prev)
            idx = prev
        out.reverse()
        return np.asarray(out, dtype=np.int64)


def pelt_l2_segments(values, offsets, penalty: float, min_size: int = 1):
    """Exact PELT (univariate L2, jump 1) of every series
    values[offsets[i]:offsets[i+1]] at once. Returns (series, breakpoint)
    int64 arrays, series by series and ascending within one: for each i
    the breakpoints PELT(PELTOptions(min_size=min_size)).fit_and_detect
    gives for series i. Series of at most _SMALL_N_FAST_PATH points run as
    one DP per padded block (_segment_l2_padded); longer ones take the
    per-series array DP."""
    if min_size <= 0:
        raise ValueError("min_size must be positive")
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = np.diff(offsets)
    if n.size and penalty < 0:
        raise ValueError("penalty must be non-negative")
    segs, bks = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    short = np.flatnonzero((n >= 2 * min_size) & (n <= _SMALL_N_FAST_PATH))
    for idx, take, mask in segment_blocks(offsets, short, _BLOCK_CELLS):
        row, bk = _segment_l2_padded(np.where(mask, values[take], 0.0), n[idx], penalty, min_size)
        segs.append(idx[row])
        bks.append(bk)
    for i in np.flatnonzero((n >= 2 * min_size) & (n > _SMALL_N_FAST_PATH)):
        bk = PELT(PELTOptions(min_size=min_size)).fit_and_detect(
            values[offsets[i]:offsets[i + 1]], penalty)
        segs.append(np.full(bk.size, i, np.int64))
        bks.append(bk)
    seg, bk = np.concatenate(segs), np.concatenate(bks)
    order = np.lexsort((bk, seg))
    return seg[order], bk[order]


def _segment_l2_padded(x: np.ndarray, n: np.ndarray, penalty: float, min_size: int):
    """PELT._segment_small_l2 for every row of `x` (row i holds a series
    of n[i] >= 2 * min_size points; rows in descending length) plus its
    backtracking: (row, breakpoint) of every breakpoint. The operations
    are _segment_small_l2's, element for element: the same cumsum prefix
    sums, the cost (s2[t] - s2[s]) - d1 * d1 / (t - s), the total
    (F[s] + cost) + penalty, a NaN total never the minimum, the largest
    start among equal minima, an infinite minimum giving F[t] = inf and
    CP[t] = -1, and the pruning test F[s] + cost <= F[t] on the
    candidates (younger admissible starts stay)."""
    rows, width = x.shape
    zeros = np.zeros((rows, 1))
    F = np.full((rows, width + 1), math.inf)
    F[:, 0] = -penalty
    CP = np.zeros((rows, width + 1), dtype=np.int64)
    adm = np.zeros((rows, width + 1), dtype=bool)
    adm[:, 0] = True
    # rows still running at step t: n is descending
    live = np.searchsorted(-n, -np.arange(width + 1), "right")
    with np.errstate(invalid="ignore", over="ignore"):
        s1 = np.concatenate([zeros, np.cumsum(x, axis=1)], axis=1)
        s2 = np.concatenate([zeros, np.cumsum(x * x, axis=1)], axis=1)
        for t in range(min_size, width + 1):
            r = live[t]
            k = t - min_size + 1  # candidate starts 0 .. t - min_size
            d1 = s1[:r, t, None] - s1[:r, :k]
            base = F[:r, :k] + ((s2[:r, t, None] - s2[:r, :k]) - d1 * d1 / (t - np.arange(k)))
            totals = base + penalty
            cand = adm[:r, :k]
            totals[~cand | np.isnan(totals)] = math.inf
            best = k - 1 - np.argmin(totals[:, ::-1], axis=1)
            m = totals[np.arange(r), best]
            ok = np.isfinite(m)
            F[:r, t] = np.where(ok, m, math.inf)
            CP[:r, t] = np.where(ok, best, -1)
            adm[:r, :k] = cand & (base <= F[:r, t, None])
            adm[:r, t] = ok
    # backtracking, all rows at once: _extract_breakpoints
    at = np.arange(rows)
    idx = np.asarray(n, dtype=np.int64).copy()
    out_row, out_bk = [], []
    while at.size:
        prev = CP[at, idx[at]]
        at, prev = at[prev > 0], prev[prev > 0]
        out_row.append(at)
        out_bk.append(prev)
        idx[at] = prev
    return np.concatenate(out_row), np.concatenate(out_bk)


def pelt_breakpoints(
    signal,
    penalty: float,
    cost: str | CostFunction = "l2",
    min_size: int = 1,
    jump: int = 1,
    **cost_kwargs,
) -> np.ndarray:
    """Convenience one-shot API used by the Ray analysis stage."""
    opts = PELTOptions(cost_function=cost, min_size=min_size, jump=jump, cost_kwargs=cost_kwargs)
    return PELT(opts).fit_and_detect(signal, penalty)
