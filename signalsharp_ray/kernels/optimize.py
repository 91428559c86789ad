"""Generic hyperparameter optimizers: grid search and Nelder-Mead.

Behavioral parity with the reference's optimizers
(/root/reference/SignalSharp/Optimization/GridSearch/GridSearchOptimizer.cs,
NelderMead/NelderMeadOptimizer.cs) re-expressed idiomatically:

Grid search (GridSearchOptimizer.cs:32-83, options :12-71):
- cartesian grid over parameter definitions; linear or log-spaced per param
  (:160-196); default 10 steps per param
- optional eval cap with systematic subsampling (:497-533)
- early-stop threshold (:418-431)
- adaptive refinement: a second pass on +/- RefinementRangeFactor/2 * range
  around the best point (:538-623); default off, factor 0.2, 5 steps
- parallel evaluation maps to Ray tasks at the cluster tier; in-kernel use
  is a plain loop (deterministic order -> first minimum wins ties)

Nelder-Mead (NelderMeadOptimizer.cs:29-220+, options :11-104):
- standard simplex (reflection 1, expansion 2, contraction 0.5, shrink 0.5)
  with bounds clamping
- initial simplex = guess +/- 5% of each parameter's range (absolute step
  0.001 when the range is zero)
- function-value + parameter convergence tolerances, stagnation detection
  (10 iterations, 1e-9 improvement), optional multi-start restarts (2)
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class ParameterDefinition:
    name: str
    min_value: float
    max_value: float
    initial_guess: float | None = None


@dataclass
class OptimizationResult:
    best_parameters: dict[str, float]
    minimized_metric: float
    success: bool = True
    message: str | None = None
    iterations: int | None = None
    function_evaluations: int | None = None


Objective = Callable[[Mapping[str, float]], float]


class CancellationToken:
    """Cooperative cancellation, mirroring the reference's async surface
    (IParameterOptimizer.cs:50-55 `OptimizeAsync(..., CancellationToken)`):
    optimizers poll the token between objective evaluations / iterations
    and return a best-so-far failure result when cancelled."""

    __slots__ = ("_cancelled",)

    def __init__(self):
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def is_cancellation_requested(self) -> bool:
        return self._cancelled


def _boundary_warnings_grid(
    best: Mapping[str, float], defs: Sequence[ParameterDefinition]
) -> list[str]:
    """GridSearchOptimizer.cs:650-676 — 1%-of-range proximity report."""
    out = []
    for p in defs:
        if p.name not in best:
            continue
        v = best[p.name]
        rng = p.max_value - p.min_value
        if rng <= 0:
            continue
        if abs(v - p.min_value) < rng * 0.01:
            out.append(
                f"{p.name} (at lower bound, distance: {abs(v - p.min_value) / rng:.2%})"
            )
        elif abs(v - p.max_value) < rng * 0.01:
            out.append(
                f"{p.name} (at upper bound, distance: {abs(v - p.max_value) / rng:.2%})"
            )
    return out


def _boundary_warnings_nm(
    best: Mapping[str, float], defs: Sequence[ParameterDefinition]
) -> list[str]:
    """NelderMeadOptimizer.cs:958-995 — zero-range params report 'at bound
    of zero-range definition'; others 1%-of-range with value detail."""
    out = []
    for p in defs:
        if p.name not in best:
            continue
        v = best[p.name]
        rng = p.max_value - p.min_value
        if rng <= 1e-9:
            if math.isclose(v, p.min_value, rel_tol=1e-9, abs_tol=1e-9) or math.isclose(
                v, p.max_value, rel_tol=1e-9, abs_tol=1e-9
            ):
                out.append(f"{p.name} (at bound of zero-range definition)")
            continue
        thresh = rng * 0.01
        if abs(v - p.min_value) < thresh:
            out.append(
                f"{p.name} (near lower bound, val:{v:.4f}, min:{p.min_value:.4f})"
            )
        elif abs(v - p.max_value) < thresh:
            out.append(
                f"{p.name} (near upper bound, val:{v:.4f}, max:{p.max_value:.4f})"
            )
    return out


_BOUNDS_WARNING_PREFIX = (
    "Warning: The following parameters are at or near their bounds: "
)


# -- grid search ----------------------------------------------------------


@dataclass
class GridSearchOptions:
    default_grid_steps: int = 10
    per_parameter_grid_steps: dict[str, int] | None = None
    max_function_evaluations: int | None = None
    early_stopping_threshold: float | None = None
    use_logarithmic_scale_for: set[str] | None = None
    enable_adaptive_refinement: bool = False
    refinement_range_factor: float = 0.2
    refinement_grid_steps: int = 5
    # wall-clock budget (IParameterOptimizer.cs:50-55 semantics: a C#
    # caller passes CancellationTokenSource(timeout); here the budget is a
    # first-class option). On expiry the partial best found so far returns
    # with success=False, like an explicit cancellation.
    timeout_s: float | None = None

    def __post_init__(self):
        if self.default_grid_steps < 2:
            raise ValueError("default_grid_steps must be >= 2")
        if not (0.0 < self.refinement_range_factor < 1.0):
            raise ValueError("refinement_range_factor must be in (0, 1)")


def _axis_values(p: ParameterDefinition, steps: int, log_scale: bool) -> np.ndarray:
    if p.max_value < p.min_value:
        raise ValueError(f"Parameter {p.name}: max < min")
    if p.max_value == p.min_value or steps == 1:
        return np.array([p.min_value])
    if log_scale:
        if p.min_value <= 0:
            # reference parity (GridSearchOptimizerTests.cs
            # OptimizeAsync_LogScaleWithInvalidBounds_FallsBackToLinear):
            # invalid log bounds fall back to linear, never raise
            log_scale = False
        else:
            return np.exp(
                np.linspace(math.log(p.min_value), math.log(p.max_value), steps)
            )
    return np.linspace(p.min_value, p.max_value, steps)


class GridSearchOptimizer:
    def __init__(self, options: GridSearchOptions | None = None):
        self.options = options or GridSearchOptions()

    def optimize(
        self,
        objective: Objective,
        parameters: Sequence[ParameterDefinition],
        cancellation_token: CancellationToken | None = None,
    ) -> OptimizationResult:
        opts = self.options
        if not parameters:
            # reference parity (GridSearchOptimizerTests.cs
            # OptimizeAsync_NoParameters_ReturnsFailure): a failure RESULT,
            # not an exception
            return OptimizationResult(
                best_parameters={},
                minimized_metric=math.nan,
                success=False,
                message="No parameters to optimize.",
                function_evaluations=0,
            )
        evals = 0
        cancelled = False
        timed_out = False
        deadline = (
            None if opts.timeout_s is None else time.monotonic() + opts.timeout_s
        )

        def run_grid(defs: Sequence[ParameterDefinition], steps_map) -> tuple[dict, float, int]:
            nonlocal evals
            axes = []
            for p in defs:
                steps = steps_map(p)
                log_scale = bool(
                    opts.use_logarithmic_scale_for and p.name in opts.use_logarithmic_scale_for
                )
                axes.append(_axis_values(p, steps, log_scale))
            combos = list(itertools.product(*axes))
            # systematic subsampling under the eval budget (:497-533)
            if opts.max_function_evaluations is not None and len(combos) > max(
                0, opts.max_function_evaluations - evals
            ):
                budget = max(1, opts.max_function_evaluations - evals)
                stride = max(1, len(combos) // budget)
                combos = combos[::stride][:budget]
            nonlocal cancelled, timed_out
            best_params: dict[str, float] | None = None
            best_metric = math.inf
            for combo in combos:
                if (
                    cancellation_token is not None
                    and cancellation_token.is_cancellation_requested
                ):
                    cancelled = True
                    break
                if deadline is not None and time.monotonic() > deadline:
                    timed_out = True
                    break
                params = {p.name: float(v) for p, v in zip(defs, combo)}
                try:
                    m = float(objective(params))
                except Exception:
                    m = math.inf
                evals += 1
                if not math.isnan(m) and m < best_metric:
                    best_metric = m
                    best_params = params
                    if (
                        opts.early_stopping_threshold is not None
                        and m <= opts.early_stopping_threshold
                    ):
                        break
            return best_params or {}, best_metric, len(combos)

        best_params, best_metric, _ = run_grid(
            parameters,
            lambda p: (opts.per_parameter_grid_steps or {}).get(
                p.name, opts.default_grid_steps
            ),
        )

        # refinement needs remaining eval budget: the reference SKIPS the
        # second pass entirely when the budget is exhausted rather than
        # overrunning MaxFunctionEvaluations by its minimum one combo
        has_budget = (
            opts.max_function_evaluations is None
            or evals < opts.max_function_evaluations
        )
        if (
            best_params
            and opts.enable_adaptive_refinement
            and math.isfinite(best_metric)
            and has_budget
            and not timed_out
        ):
            refined_defs = []
            for p in parameters:
                rng = p.max_value - p.min_value
                half = rng * opts.refinement_range_factor / 2.0
                center = best_params[p.name]
                refined_defs.append(
                    ParameterDefinition(
                        p.name,
                        max(p.min_value, center - half),
                        min(p.max_value, center + half),
                        center,
                    )
                )
            r_params, r_metric, _ = run_grid(
                refined_defs, lambda p: opts.refinement_grid_steps
            )
            if r_params and r_metric < best_metric:
                best_params, best_metric = r_params, r_metric

        success = (
            bool(best_params)
            and math.isfinite(best_metric)
            and not cancelled
            and not timed_out
        )
        if cancelled:
            message = "Optimization was cancelled."
        elif timed_out:
            message = f"Optimization timed out after {opts.timeout_s}s."
        elif success:
            warns = _boundary_warnings_grid(best_params, parameters)
            message = (_BOUNDS_WARNING_PREFIX + ", ".join(warns)) if warns else None
        else:
            message = "Grid search optimization failed to find any valid parameters."
        return OptimizationResult(
            best_parameters=best_params,
            minimized_metric=best_metric,
            success=success,
            message=message,
            function_evaluations=evals,
        )

    async def optimize_async(
        self,
        objective: Objective,
        parameters: Sequence[ParameterDefinition],
        cancellation_token: CancellationToken | None = None,
    ) -> OptimizationResult:
        """Async surface mirroring IParameterOptimizer.OptimizeAsync
        (IParameterOptimizer.cs:50-55): runs the search off the event loop
        and honours the cancellation token between evaluations."""
        import asyncio

        return await asyncio.to_thread(
            self.optimize, objective, parameters, cancellation_token
        )


# -- Nelder-Mead ----------------------------------------------------------


@dataclass
class NelderMeadOptions:
    max_iterations: int = 1000
    max_function_evaluations: int | None = None
    function_value_convergence_tolerance: float = 1e-6
    enable_parameter_convergence: bool = True
    parameter_convergence_tolerance: float = 1e-4
    enable_multi_start: bool = False
    max_restarts: int = 2
    reflection_factor: float = 1.0
    expansion_factor: float = 2.0
    contraction_factor: float = 0.5
    shrink_factor: float = 0.5
    stagnation_threshold_count: int = 10
    stagnation_improvement_threshold: float = 1e-9
    initial_simplex_range_factor: float = 0.05
    initial_simplex_absolute_step_for_zero_range: float = 0.001
    # reference EnableAdaptiveParameters (NelderMeadOptimizerOptions.cs:58):
    # coefficients adjusted by iteration count and dimensionality
    enable_adaptive_parameters: bool = False
    # wall-clock budget (IParameterOptimizer.cs:50-55 semantics); on expiry
    # the partial best returns with success=False, like a cancellation —
    # guards against pathological per-series hangs inside bucketed_map_groups
    timeout_s: float | None = None

    def algorithm_parameters(self, iteration: int, dims: int) -> tuple[float, float, float, float]:
        """Reference GetAlgorithmParameters (NelderMeadOptimizer.cs:687-722):
        aggressive early steps in high dimensions, conservative late steps,
        with expansion > reflection and contraction clamped to [0.1, 0.9]."""
        refl, exp_, contr, shrink = (
            self.reflection_factor,
            self.expansion_factor,
            self.contraction_factor,
            self.shrink_factor,
        )
        if not self.enable_adaptive_parameters:
            return refl, exp_, contr, shrink
        if dims > 5 and iteration < 20:
            refl *= 1.1
            exp_ *= 1.2
        if iteration > 50:
            refl *= 0.95
            exp_ *= 0.9
            contr *= 1.05
        exp_ = max(exp_, refl + 0.1)
        contr = min(max(contr, 0.1), 0.9)
        return refl, exp_, contr, shrink


class NelderMeadOptimizer:
    def __init__(self, options: NelderMeadOptions | None = None):
        self.options = options or NelderMeadOptions()

    def optimize(
        self,
        objective: Objective,
        parameters: Sequence[ParameterDefinition],
        cancellation_token: CancellationToken | None = None,
    ) -> OptimizationResult:
        opts = self.options
        if not parameters:
            # reference parity (NelderMeadOptimizerTests.cs
            # OptimizeAsync_NoParameters_ReturnsFailure)
            return OptimizationResult(
                best_parameters={},
                minimized_metric=math.nan,
                success=False,
                message="No parameters to optimize.",
                function_evaluations=0,
            )
        cancelled = False
        timed_out = False
        deadline = (
            None if opts.timeout_s is None else time.monotonic() + opts.timeout_s
        )
        lo = np.array([p.min_value for p in parameters])
        hi = np.array([p.max_value for p in parameters])
        names = [p.name for p in parameters]
        evals = 0
        total_iters = 0

        def f(x: np.ndarray) -> float:
            nonlocal evals
            evals += 1
            try:
                v = float(objective({n: float(xi) for n, xi in zip(names, x)}))
            except Exception:
                return math.inf
            return math.inf if math.isnan(v) else v

        def clamp(x: np.ndarray) -> np.ndarray:
            return np.clip(x, lo, hi)

        def initial_guess(restart: int) -> np.ndarray:
            if restart == 0:
                return np.array(
                    [
                        p.initial_guess
                        if p.initial_guess is not None
                        else (p.min_value + p.max_value) / 2.0
                        for p in parameters
                    ]
                )
            rng = np.random.default_rng(restart)  # deterministic restarts
            return lo + rng.random(len(parameters)) * (hi - lo)

        def solve_from(x0: np.ndarray) -> tuple[np.ndarray, float, int]:
            nonlocal total_iters
            n = len(x0)
            steps = np.where(
                hi - lo > 0,
                (hi - lo) * opts.initial_simplex_range_factor,
                opts.initial_simplex_absolute_step_for_zero_range,
            )
            simplex = [clamp(x0.copy())]
            for i in range(n):
                v = x0.copy()
                v[i] += steps[i]
                simplex.append(clamp(v))
            simplex = np.array(simplex)
            fvals = np.array([f(v) for v in simplex])
            stagnant = 0
            prev_best = math.inf
            it = 0
            while it < opts.max_iterations:
                if (
                    cancellation_token is not None
                    and cancellation_token.is_cancellation_requested
                ):
                    nonlocal cancelled
                    cancelled = True
                    break
                if deadline is not None and time.monotonic() > deadline:
                    nonlocal timed_out
                    timed_out = True
                    break
                if (
                    opts.max_function_evaluations is not None
                    and evals >= opts.max_function_evaluations
                ):
                    break
                order = np.argsort(fvals, kind="stable")
                simplex, fvals = simplex[order], fvals[order]
                best, worst = fvals[0], fvals[-1]
                # convergence
                if abs(worst - best) < opts.function_value_convergence_tolerance:
                    break
                if opts.enable_parameter_convergence and np.all(
                    np.abs(simplex[1:] - simplex[0]) < opts.parameter_convergence_tolerance
                ):
                    break
                # stagnation
                if prev_best - best < opts.stagnation_improvement_threshold:
                    stagnant += 1
                    if stagnant >= opts.stagnation_threshold_count:
                        break
                else:
                    stagnant = 0
                prev_best = best

                refl_f, exp_f, contr_f, shrink_f = opts.algorithm_parameters(it, n)
                centroid = simplex[:-1].mean(axis=0)
                xr = clamp(centroid + refl_f * (centroid - simplex[-1]))
                fr = f(xr)
                if fvals[0] <= fr < fvals[-2]:
                    simplex[-1], fvals[-1] = xr, fr
                elif fr < fvals[0]:
                    xe = clamp(centroid + exp_f * (xr - centroid))
                    fe = f(xe)
                    if fe < fr:
                        simplex[-1], fvals[-1] = xe, fe
                    else:
                        simplex[-1], fvals[-1] = xr, fr
                else:
                    xc = clamp(centroid + contr_f * (simplex[-1] - centroid))
                    fc = f(xc)
                    if fc < fvals[-1]:
                        simplex[-1], fvals[-1] = xc, fc
                    else:  # shrink toward the best vertex
                        for i in range(1, n + 1):
                            simplex[i] = clamp(
                                simplex[0] + shrink_f * (simplex[i] - simplex[0])
                            )
                            fvals[i] = f(simplex[i])
                it += 1
            total_iters += it
            k = int(np.argmin(fvals))
            return simplex[k], float(fvals[k]), it

        restarts = opts.max_restarts if opts.enable_multi_start else 0
        best_x, best_f = None, math.inf
        for r in range(restarts + 1):
            if cancelled or timed_out:
                break
            x, fx, _ = solve_from(clamp(initial_guess(r)))
            if fx < best_f:
                best_x, best_f = x, fx

        best_params = (
            {} if best_x is None else {n: float(v) for n, v in zip(names, best_x)}
        )
        success = (
            best_x is not None
            and math.isfinite(best_f)
            and not cancelled
            and not timed_out
        )
        if cancelled:
            message = "Optimization was cancelled."
        elif timed_out:
            message = f"Optimization timed out after {opts.timeout_s}s."
        elif success:
            warns = _boundary_warnings_nm(best_params, parameters)
            message = (_BOUNDS_WARNING_PREFIX + ", ".join(warns)) if warns else None
        else:
            message = "Nelder-Mead failed to find a valid solution."
        return OptimizationResult(
            best_parameters=best_params,
            minimized_metric=best_f,
            success=success,
            message=message,
            iterations=total_iters,
            function_evaluations=evals,
        )

    async def optimize_async(
        self,
        objective: Objective,
        parameters: Sequence[ParameterDefinition],
        cancellation_token: CancellationToken | None = None,
    ) -> OptimizationResult:
        """Async surface mirroring IParameterOptimizer.OptimizeAsync
        (IParameterOptimizer.cs:50-55)."""
        import asyncio

        return await asyncio.to_thread(
            self.optimize, objective, parameters, cancellation_token
        )
