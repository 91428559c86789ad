"""L2 (sum of squared errors around the segment mean) cost.

Cost(start,end) = sum_dims [ sum(x^2) - (sum x)^2 / n ] over [start,end);
prefix sums give O(1) queries after an O(N*D) fit
(/root/reference/SignalSharp/CostFunctions/Cost/L2CostFunction.cs:56-139).
"""

from __future__ import annotations

import numpy as np

from .base import CostFunction, as_matrix


class L2Cost(CostFunction):
    def fit(self, signal) -> "L2Cost":
        mat = as_matrix(signal)
        self._n_dims, self._n_points = mat.shape
        zeros = np.zeros((self._n_dims, 1))
        self._ps = np.concatenate([zeros, np.cumsum(mat, axis=1)], axis=1)
        self._ps2 = np.concatenate([zeros, np.cumsum(mat * mat, axis=1)], axis=1)
        return self

    def compute_cost(self, start: int | None = None, end: int | None = None) -> float:
        if self._n_points == 0 or self._n_dims == 0:
            return 0.0
        s, e, n = self._resolve(start, end)
        seg_sum = self._ps[:, e] - self._ps[:, s]
        seg_sum2 = self._ps2[:, e] - self._ps2[:, s]
        return float(np.sum(seg_sum2 - seg_sum * seg_sum / n))

    def segment_costs(self, starts: np.ndarray, end: int) -> np.ndarray:
        """Vectorized cost over many candidate starts with a shared end —
        used by the PELT inner loop (new capability; output-identical to
        looping compute_cost). A univariate signal takes the flat prefix
        rows: the same expression without the 2-D index and the sum over
        one dimension, which cost more than the arithmetic."""
        n = end - starts
        if self._n_dims == 1:
            s1 = self._ps[0]
            s2 = self._ps2[0]
            d1 = s1[end] - s1[starts]
            return (s2[end] - s2[starts]) - d1 * d1 / n
        seg_sum = self._ps[:, end][:, None] - self._ps[:, starts]
        seg_sum2 = self._ps2[:, end][:, None] - self._ps2[:, starts]
        return np.sum(seg_sum2 - seg_sum * seg_sum / n, axis=0)
