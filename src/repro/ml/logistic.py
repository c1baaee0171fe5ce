"""L2-regularized logistic regression (the paper's LIBLINEAR [10] stand-in).

Features are standardized internally; weights are found with scipy's L-BFGS
on the (optionally class-weighted) negative log-likelihood plus an L2
penalty.  Used as the alternative classifier the paper mentions and by the
classifier-family ablation benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.preprocessing import StandardScaler
from repro.utils.validation import as_1d_int_array, as_2d_float_array, check_same_length


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegression:
    """Binary logistic regression with L2 penalty and optional balancing."""

    def __init__(
        self,
        C: float = 1.0,
        class_weight: Optional[str] = "balanced",
        max_iter: int = 200,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if class_weight not in (None, "balanced"):
            raise ValueError('class_weight must be None or "balanced"')
        self.C = float(C)
        self.class_weight = class_weight
        self.max_iter = int(max_iter)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[float] = None
        self._scaler: Optional[StandardScaler] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        # imported here, not at module level: every process imports this
        # module through repro.ml, but only a logistic fit needs scipy
        # (+0.36 s and +51 MB RSS of import for the default forest path)
        from scipy.optimize import minimize

        X = as_2d_float_array(X)
        y = as_1d_int_array(y)
        check_same_length(X, y)
        if np.unique(y).size < 2:
            raise ValueError("training data must contain both classes")

        self._scaler = StandardScaler()
        Xs = self._scaler.fit_transform(X)
        n, d = Xs.shape
        target = y.astype(np.float64)

        weights = np.ones(n, dtype=np.float64)
        if self.class_weight == "balanced":
            n_pos = target.sum()
            n_neg = n - n_pos
            weights[y == 1] = n / (2.0 * n_pos)
            weights[y == 0] = n / (2.0 * n_neg)

        lam = 1.0 / (self.C * n)

        def objective(params: np.ndarray):
            w, b = params[:d], params[d]
            z = Xs @ w + b
            p = _sigmoid(z)
            eps = 1e-12
            nll = -np.sum(
                weights
                * (target * np.log(p + eps) + (1 - target) * np.log(1 - p + eps))
            ) / n
            reg = 0.5 * lam * np.dot(w, w)
            grad_z = weights * (p - target) / n
            grad_w = Xs.T @ grad_z + lam * w
            grad_b = grad_z.sum()
            return nll + reg, np.concatenate([grad_w, [grad_b]])

        result = minimize(
            objective,
            np.zeros(d + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self._scaler is None:
            raise RuntimeError("model is not fitted")
        Xs = self._scaler.transform(as_2d_float_array(X))
        return _sigmoid(Xs @ self.coef_ + self.intercept_)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(np.int64)

    def __repr__(self) -> str:
        return f"LogisticRegression(C={self.C}, fitted={self.coef_ is not None})"
