"""Finite-difference validation of analytic gradients: the oracle that the
numerics, model, language and acceptance tests check autodiff against."""
from __future__ import annotations

import numpy as np

from mapnav.numerics import Tensor, no_grad


def grad_check(
    loss_fn,
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Compare autodiff gradients of a scalar ``loss_fn()`` against central
    finite differences.

    Returns the max relative error per parameter. The relative error of one
    entry is ``|fd - ad| / max(|fd|, |ad|)`` when the larger magnitude exceeds
    1e-3, otherwise the absolute error (tiny gradients would otherwise drown
    in finite-difference roundoff).
    """
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    report = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(n, size=max_entries, replace=False)
        else:
            idxs = np.arange(n)
        worst = 0.0
        ad_flat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                lp = float(loss_fn().data)
                flat[i] = orig - eps
                lm = float(loss_fn().data)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            ad = ad_flat[i]
            denom = max(abs(fd), abs(ad))
            err = abs(fd - ad) / denom if denom > 1e-3 else abs(fd - ad)
            worst = max(worst, err)
        report[name] = worst
    return report
