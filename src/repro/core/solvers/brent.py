"""Lock-step vectorised Brent refinement.

:func:`batched_brentq` is a faithful float-for-float port of SciPy's
``brentq`` C kernel (``scipy/optimize/Zeros/brentq.c``) generalised to a
*rows* axis: every bracket advances one Brent step per iteration, and the
step's single function evaluation happens for **all** still-active rows
through one batched callback — one ``mapping.value_rows`` round-trip per
iteration instead of one scalar ``mapping.value`` call per bracket per
iteration.

Bit-identity contract
---------------------
Per row, the port performs exactly the double-precision operations of the
C kernel in the same order (inverse-quadratic / secant trial step,
truncation against ``min(|spre|, 3|sbis| - delta)``, bisection fallback,
``delta``-clamped advance), so on the NumPy backend each row's iterates —
and therefore its returned root — are bit-identical to calling
``scipy.optimize.brentq`` on that bracket, *provided the batched
evaluation callback returns the same floats as the scalar ``h``*.  The
solver kernels meet that proviso by evaluating through the row-exact
``FeatureMapping.value_rows``, so the tensor kernel returns the batched
roots as results (see
:mod:`repro.core.solvers.tensor`).  The port itself is pinned against
SciPy across mapping families and random brackets by
``tests/core/test_batched_brent.py``, and the kernel's roots by
``tests/core/test_tensor_roots.py``.

Rows whose bracket violates the sign precondition or fails to converge
within ``maxiter`` come back flagged instead of raising — the caller
re-runs those through the scalar reference, which raises exactly like
SciPy would have.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["batched_brentq", "SCIPY_RTOL"]

#: SciPy's default ``rtol`` for ``brentq`` (4 * double epsilon).
SCIPY_RTOL = 8.881784197001252e-16


def batched_brentq(
    evaluate: Callable,
    lo,
    hi,
    f_lo,
    f_hi,
    *,
    xtol: float = 1e-12,
    rtol: float = SCIPY_RTOL,
    maxiter: int = 100,
):
    """Brent root refinement of many brackets in lock-step.

    Parameters
    ----------
    evaluate:
        ``evaluate(ts, rows) -> values``: the bracketed function's values
        at parameter ``ts[k]`` for bracket index ``rows[k]``, computed
        with **one** batched call.  ``rows`` indexes the input arrays.
    lo, hi:
        Bracket endpoints per row (``lo < hi``), as 1-d arrays.
    f_lo, f_hi:
        Function values at the endpoints, already evaluated by the caller
        (SciPy evaluates them inside ``brentq``; the caller spends two
        batched rounds instead of ``2 * rows`` scalar calls).
    xtol, rtol, maxiter:
        Exactly SciPy's parameters; the defaults match the solver
        kernels' scalar reference (``xtol=1e-12``, SciPy default rtol).

    Returns
    -------
    (roots, ok):
        ``roots[k]`` is the Brent root of bracket ``k``, bit-identical to
        ``scipy.optimize.brentq`` on the same bracket; ``ok[k]`` is False
        where the bracket's endpoint signs do not differ or ``maxiter``
        was exhausted (SciPy raises there; the caller decides).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    f_lo = np.asarray(f_lo, dtype=np.float64)
    f_hi = np.asarray(f_hi, dtype=np.float64)
    n = lo.shape[0]
    roots = np.empty(n, dtype=np.float64)
    ok = np.ones(n, dtype=bool)
    if n == 0:
        return roots, ok

    # --- endpoint short-circuits, in SciPy's exact order ----------------
    roots[:] = np.nan
    pre_zero = f_lo == 0.0
    cur_zero = (f_hi == 0.0) & ~pre_zero
    roots[pre_zero] = lo[pre_zero]
    roots[cur_zero] = hi[cur_zero]
    bad_sign = (~pre_zero & ~cur_zero
                & (np.signbit(f_lo) == np.signbit(f_hi)))
    ok[bad_sign] = False
    active = ~(pre_zero | cur_zero | bad_sign)

    idx = np.flatnonzero(active)
    if idx.size == 0:
        return roots, ok

    # --- per-row Brent state (C locals, vectorised) ---------------------
    xpre = lo[idx].copy()
    xcur = hi[idx].copy()
    fpre = f_lo[idx].copy()
    fcur = f_hi[idx].copy()
    xblk = np.zeros(idx.size)
    fblk = np.zeros(idx.size)
    spre = np.zeros(idx.size)
    scur = np.zeros(idx.size)

    for _ in range(maxiter):
        # (re)establish the bracket around the current best point
        rebrk = (fpre != 0.0) & (fcur != 0.0) \
            & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(rebrk, xpre, xblk)
        fblk = np.where(rebrk, fpre, fblk)
        step0 = xcur - xpre
        spre = np.where(rebrk, step0, spre)
        scur = np.where(rebrk, step0, scur)
        # keep the smaller-|f| endpoint in xcur
        swap = np.abs(fblk) < np.abs(fcur)
        xpre_n = np.where(swap, xcur, xpre)
        xcur_n = np.where(swap, xblk, xcur)
        xblk_n = np.where(swap, xcur, xblk)
        fpre_n = np.where(swap, fcur, fpre)
        fcur_n = np.where(swap, fblk, fcur)
        fblk_n = np.where(swap, fcur, fblk)
        xpre, xcur, xblk = xpre_n, xcur_n, xblk_n
        fpre, fcur, fblk = fpre_n, fcur_n, fblk_n

        delta = (xtol + rtol * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if np.any(done):
            rows_done = idx[done]
            roots[rows_done] = xcur[done]
            keep = ~done
            idx = idx[keep]
            if idx.size == 0:
                return roots, ok
            xpre, xcur, xblk = xpre[keep], xcur[keep], xblk[keep]
            fpre, fcur, fblk = fpre[keep], fcur[keep], fblk[keep]
            spre, scur = spre[keep], scur[keep]
            delta, sbis = delta[keep], sbis[keep]

        # trial step: secant / inverse-quadratic, truncated, else bisect
        try_interp = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extra = -fcur * (fblk * dblk - fpre * dpre) \
                / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, extra)
        short = 2.0 * np.abs(stry) \
            < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)
        accept = try_interp & short
        spre = np.where(accept, scur, sbis)
        scur = np.where(accept, stry, sbis)

        # advance, clamped to at least delta toward the bracket interior
        xpre = xcur
        fpre = fcur
        clamp = np.abs(scur) <= delta
        step = np.where(clamp, np.where(sbis > 0.0, delta, -delta), scur)
        xcur = xcur + step
        fcur = np.asarray(evaluate(xcur, idx), dtype=np.float64)

    # maxiter exhausted: SciPy raises; flag instead, the caller re-runs
    # the row through scipy.
    roots[idx] = xcur
    ok[idx] = False
    return roots, ok
