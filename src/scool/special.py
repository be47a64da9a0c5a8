"""Special functions, tempered link functions and the package's folds.

Every E/M update and the lower-bound oracle go through these. The gamma
functions are implemented from scratch (argument shift into the asymptotic
region, then a Bernoulli-coefficient series) so the package carries no
dependency beyond numpy and the recurrence identities can certify the
implementation independently of any library.

The package has one reduction-order rule: a fold runs left to right from
its start value. The batched kernels then give the bits of their per-pair
oracles, and runs give the same bytes on every Python version. numpy's
add-reduce along the innermost axis sums 8 or more elements pairwise (along
an outer axis it adds whole slices in order), and Python's sum() compensates
float sums from Python 3.12 on; both move the last bits. fold_last and
fold_sum are the two folds that keep the rule, and no other module writes
one by hand.
"""

from __future__ import annotations

import numpy as np

# Asymptotic series are applied for arguments >= _SHIFT; smaller arguments
# are lifted there with the recurrences psi(x+1) = psi(x) + 1/x and
# log Gamma(x+1) = log Gamma(x) + log x. At x = 10 the truncation error of
# both series is below 1e-14, comfortably inside the 1e-10 contract.
_SHIFT = 10.0

# B_{2n} / (2n) for psi(x) ~ ln x - 1/(2x) - sum_n c_n x^{-2n}
_PSI_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

# B_{2n} / (2n (2n-1)) for the Stirling series of log Gamma
_LGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)

_HALF_LOG_2PI = 0.9189385332046727417803297364


def _validate_positive(x: np.ndarray, name: str) -> float:
    """The smallest entry of x (inf when x is empty), once every entry is
    known to be positive and finite: a NaN makes the minimum NaN, so a
    minimum above 0 and a maximum below inf rule out 0, negatives, NaN and
    both infinities."""
    lowest = x.min(initial=np.inf)
    if not (lowest > 0.0 and x.max(initial=0.0) < np.inf):
        raise ValueError(f"{name} requires a strictly positive finite argument")
    return float(lowest)


def _lift(x, name: str, step):
    """Lift x, as an array z of at least one dimension, by unit steps until
    every entry is at least _SHIFT. Returns z, acc = -(sum of step(z, low)
    over the steps, low marking the entries still below) and whether x is a
    scalar. The steps run along a leading shift axis, added and subtracted
    in sequence as a loop of z += 1 and acc -= step would, so the bits are
    that loop's. The smallest entry takes the most steps, so the axis is as
    long as its steps; with none, as for mmsbm's large gamma, z is x and acc
    is 0.0. Every entry's bits depend on that entry alone, so a call on a
    concatenation gives the concatenated calls' bits."""
    arr = np.asarray(x, dtype=float)
    lowest, steps = _validate_positive(arr, name), 0
    while lowest < _SHIFT:
        lowest += 1.0
        steps += 1
    z = np.atleast_1d(arr)
    if steps == 0:
        return z, 0.0, arr.ndim == 0
    lifted = np.ones((steps + 1,) + z.shape)
    lifted[0] = z
    np.add.accumulate(lifted, axis=0, out=lifted)  # lifted[k] = x + 1 + ... + 1, k ones
    high = lifted >= _SHIFT
    # 0 - term_0 - term_1 - ..., in that order
    acc = np.subtract.reduce(step(lifted[:steps], ~high[:steps]), axis=0, initial=0.0)
    # lifted rises along the axis, so its least entry at or above _SHIFT is the first
    z = np.minimum.reduce(lifted, axis=0, where=high, initial=np.inf)
    return z, acc, arr.ndim == 0


def digamma(x):
    """Digamma psi(x) = d/dx log Gamma(x) for x > 0.

    Accepts scalars or arrays; absolute error below 1e-10 on (0, inf).
    """
    z, acc, scalar = _lift(x, "digamma", lambda z, low: np.where(low, 1.0 / z, 0.0))
    inv = 1.0 / z
    inv2 = inv * inv
    tail = np.zeros_like(z)
    for c in reversed(_PSI_COEFFS):
        tail = tail * inv2 + c
    tail *= inv2
    out = np.log(z) - 0.5 * inv - tail + acc
    return float(out[0]) if scalar else out


def log_gamma(x):
    """log Gamma(x) for x > 0, absolute error below 1e-10.

    Accepts scalars or arrays.
    """
    z, acc, scalar = _lift(x, "log_gamma", lambda z, low: np.log(np.where(low, z, 1.0)))
    inv = 1.0 / z
    inv2 = inv * inv
    tail = np.zeros_like(z)
    for c in reversed(_LGAMMA_COEFFS):
        tail = tail * inv2 + c
    tail *= inv  # series is in odd powers 1/z, 1/z^3, ...
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + tail + acc
    return float(out[0]) if scalar else out


def softmax_tempered(logits, tau: float, axis: int = -1) -> np.ndarray:
    """Temperature softmax exp(l_k/tau) / sum_l exp(l_l/tau).

    Max-subtraction keeps the exponentials bounded; the output rows are
    exact simplex vectors. Non-finite logits or tau <= 0 are rejected.
    """
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError("softmax_tempered requires tau > 0")
    arr = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("softmax_tempered requires finite logits")
    scaled = arr / tau
    scaled = scaled - np.max(scaled, axis=axis, keepdims=True)
    e = np.exp(scaled)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid_tempered(x, tau: float):
    """Temperature sigmoid 1 / (1 + exp(-x/tau)), overflow-safe.

    Computed branch-wise so exp never sees a positive argument; saturates
    to exactly 0/1 for extreme inputs instead of raising.
    """
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError("sigmoid_tempered requires tau > 0")
    arr = np.asarray(x, dtype=float)
    z = arr / tau
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def xlogx(p) -> np.ndarray:
    """x * log(x) with the 0 * log 0 := 0 convention (entropy terms); every
    entry that is not positive gives 0.0."""
    p = np.asarray(p, dtype=float)
    pos = p > 0.0
    out = np.log(p, out=np.zeros_like(p), where=pos)
    return np.multiply(out, p, out=out, where=pos)


def fold_last(ufunc: np.ufunc, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ufunc over the slices of a's last axis, left to right: for np.add,
    ((a[..., 0] + a[..., 1]) + a[..., 2]) + ..., each slice one whole array
    operation. Unlike ufunc.reduce(a, axis=-1), this never regroups (numpy
    sums 8 or more innermost elements pairwise) and runs no loop of a few
    elements per row. The last axis must be non-empty; the result, of
    a.shape[:-1], is written into ``out`` when it is given (it must not
    overlap a) and is a new array otherwise."""
    if a.shape[-1] == 1:
        if out is None:
            return a[..., 0].copy()
        np.copyto(out, a[..., 0])
        return out
    out = ufunc(a[..., 0], a[..., 1], out=out)
    for g in range(2, a.shape[-1]):
        ufunc(out, a[..., g], out=out)
    return out


def fold_sum(values, start):
    """start + v0 + v1 + ... over the iterable values, in that order and in
    plain Python arithmetic, so no Python version compensates the sum. An
    int start with int values gives an int."""
    total = start
    for v in values:
        total = total + v
    return total
