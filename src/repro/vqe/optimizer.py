"""Classical outer-loop optimizers (Section II-B).

The paper uses Sequential Least Squares Programming [55]; we wrap scipy's
SLSQP (plus COBYLA as an alternative) and report the figure the paper's
convergence plots use: the number of *outer-loop iterations*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
from scipy.optimize import minimize

_SUPPORTED = ("SLSQP", "COBYLA", "L-BFGS-B", "Powell")


@dataclass
class OptimizationOutcome:
    """Converged parameters plus the iteration accounting."""

    energy: float
    parameters: np.ndarray
    iterations: int              # outer-loop steps (paper's convergence metric)
    function_evaluations: int
    success: bool
    message: str
    history: list[float] = field(default_factory=list)


def minimize_energy(
    energy: Callable[[Sequence[float]], float],
    num_parameters: int,
    *,
    method: str = "SLSQP",
    initial: Sequence[float] | None = None,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
    value_and_gradient: Callable[[Sequence[float]], tuple[float, np.ndarray]] | None = None,
) -> OptimizationOutcome:
    """Minimize an energy functional from the Hartree-Fock start.

    The all-zero start makes the first iterate exactly the Hartree-Fock
    energy, which is the standard VQE initialization.
    ``value_and_gradient``, when given, supplies the energy and its
    analytic Jacobian at once through scipy's ``jac=True`` protocol
    (used by SLSQP and L-BFGS-B; the derivative-free methods ignore
    it), e.g. the adjoint gradient's single forward/backward sweep in
    place of p+1 finite-difference energy calls per Jacobian.
    """
    if method not in _SUPPORTED:
        raise ValueError(f"method must be one of {_SUPPORTED}")
    x0 = np.zeros(num_parameters) if initial is None else np.asarray(initial, float)
    if x0.shape != (num_parameters,):
        raise ValueError("initial parameter vector has the wrong length")

    history: list[float] = []

    def tracked(parameters: np.ndarray) -> float:
        value = float(energy(parameters))
        history.append(value)
        return value

    if num_parameters == 0:
        value = float(energy(np.zeros(0)))
        return OptimizationOutcome(
            energy=value,
            parameters=np.zeros(0),
            iterations=0,
            function_evaluations=1,
            success=True,
            message="no parameters to optimize",
            history=[value],
        )

    options = {"maxiter": max_iterations}
    if method == "SLSQP":
        options["ftol"] = tolerance
    elif method == "L-BFGS-B":
        options["ftol"] = tolerance
    elif method == "COBYLA":
        options["tol"] = tolerance  # scipy maps this through 'tol' kwarg

    fun: Callable = tracked
    jac: Any = None
    if method in ("SLSQP", "L-BFGS-B") and value_and_gradient is not None:

        def fused(parameters: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad = value_and_gradient(parameters)
            history.append(float(value))
            return float(value), np.asarray(grad, dtype=float)

        fun, jac = fused, True

    result = minimize(fun, x0, method=method, jac=jac, options=options)
    iterations = int(getattr(result, "nit", 0) or 0)
    if iterations == 0:  # COBYLA reports no nit; fall back to nfev
        iterations = int(result.nfev)
    return OptimizationOutcome(
        energy=float(result.fun),
        parameters=np.asarray(result.x),
        iterations=iterations,
        function_evaluations=int(result.nfev),
        success=bool(result.success),
        message=str(result.message),
        history=history,
    )
