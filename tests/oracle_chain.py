"""Exact run lengths of Page's CUSUM and the Shiryaev rule on periodic slots, from Markov chains.

The CUSUM score ``W_n = max(W_{n-1}, 0) + z_n`` alarms at the first ``n``
with ``W_n >= h``.  Between alarms its state ``max(W_n, 0)`` lies in
``[0, h)``.  Following Brook and Evans (1972, *Biometrika* 59(3):539-549),
that state is one atom at 0 plus ``cells`` equal cells on ``(0, h)``, each
represented by its midpoint, and a step with slot ``s``'s observation moves
it by the substochastic matrix ``K_s`` of the chain killed at the alarm.
The Shiryaev log odds ``L_n = logaddexp(L_{n-1}, ln rho) - ln(1 - rho) + z_n``
alarm at ``L_n >= logit(1 - alpha)``; below that the chain has one lumped cell
for the log odds far below ``ln rho``, where the step forgets them, and
``cells`` equal cells above it (equal-variance Gaussian slots only).

In both families the score of an observation is affine in it.  For
equal-variance Gaussian slots it is therefore Gaussian under any Gaussian
data law, and each ``K_s`` comes from the normal CDF; for Poisson slots it
is ``c0 + c1 x`` with a Poisson count ``x``, and each ``K_s`` comes from the
Poisson CDF.  Observation ``n`` sits in slot ``(n - 1) mod T``, so
from the start state the expected run length is one linear solve:
``E = e_0' (I - K_0 ... K_{T-1})^{-1} (1 + K_0 1 + K_0 K_1 1 + ... + K_0 ... K_{T-2} 1)``,
and so is ``sum_n P(tau = n) (1 - rho)^n``, with each ``K_s`` scaled by ``1 - rho``.
"""

import numpy as np
from scipy.special import ndtr, pdtr

# log odds this far below ln rho share the Shiryaev chain's lumped cell
LUMP = 12.0


def _kernels(below, period: int, edges, shift) -> list:
    """Each slot's matrix ``K_s``: from state ``i``, whose next statistic is ``shift[i] + z``, into the
    atom (up to ``edges[0]``) and each cell (up to the next edge), killed past ``edges[-1]``, the alarm."""
    return [np.diff(below(s, edges[None, :] - shift[:, None]), axis=1, prepend=0.0) for s in range(period)]


def _run_length(kernels) -> float:
    """Expected run length from state 0 in slot 0."""
    n = len(kernels[0])
    run, stay = np.zeros(n), np.eye(n)  # sum of P(tau > t) over one period; K_0 ... K_{s-1}
    for k in kernels:
        run += stay.sum(axis=1)
        stay = stay @ k
    return float(np.linalg.solve(np.eye(n) - stay, run)[0])


def _alarm_before_kill(kernels, survive: float) -> float:
    """``sum_n P(tau = n) survive^n`` from state 0 in slot 0: the probability that the chain, killed
    with probability ``1 - survive`` before each step, reaches the alarm first."""
    n = len(kernels[0])
    hit, stay = np.zeros(n), np.eye(n)  # P(alarm first) within one period; (survive^s) K_0 ... K_{s-1}
    for k in kernels:
        hit += survive * stay @ (1.0 - k.sum(axis=1))
        stay = survive * stay @ k
    return float(np.linalg.solve(np.eye(n) - stay, hit)[0])


def _cusum_kernels(below, period: int, threshold: float, cells: int) -> list:
    """The CUSUM state ``max(W, 0)``: the atom at 0, then ``cells`` midpoints on ``(0, threshold)``."""
    width = threshold / cells
    edges = width * np.arange(cells + 1)
    return _kernels(below, period, edges, np.concatenate([[0.0], edges[1:] - width / 2.0]))


def _gaussian_below(pre, post, variance: float, data):
    """``P(z <= y)`` for slot ``s``'s score ``z = (q - p) / v * (x - (p + q) / 2)`` with ``x ~ N(data, v)``."""
    if not np.all(post != pre):
        raise ValueError("every slot needs a change in mean: a slot with a zero score has no Gaussian law")
    score_mean = (post - pre) / variance * (data - (pre + post) / 2.0)
    score_sd = np.abs(post - pre) / np.sqrt(variance)
    return lambda s, y: ndtr((y - score_mean[s]) / score_sd[s])


def cusum_run_length(pre_means, post_means, variance: float, data_means, threshold: float, cells: int) -> float:
    """Expected number of observations to the first alarm of the CUSUM of ``post`` against ``pre``.

    Slot ``s`` of the pre- and post-change laws is ``N(pre_means[s], variance)``
    and ``N(post_means[s], variance)``; the observations follow
    ``N(data_means[s], variance)``, starting in slot 0 from ``W_0 = 0``.
    """
    pre, post, data = (np.asarray(m, dtype=float) for m in (pre_means, post_means, data_means))
    return _run_length(_cusum_kernels(_gaussian_below(pre, post, variance, data), len(pre), threshold, cells))


def cusum_run_length_poisson(pre_rates, post_rates, data_rates, threshold: float, cells: int) -> float:
    """As :func:`cusum_run_length`, for Poisson slots with rates ``pre_rates``, ``post_rates`` and
    ``data_rates``: the score is ``z = (p - q) + x log(q / p)`` for a count ``x`` at rate ``data_rates[s]``."""
    pre, post, data = (np.asarray(r, dtype=float) for r in (pre_rates, post_rates, data_rates))
    if not np.all(post != pre):
        raise ValueError("every slot needs a change in rate: a slot with a constant score has no count law")

    def at_most(k, rate):  # P(x <= k) for a Poisson count x, 0 for k < 0
        return np.where(k < 0, 0.0, pdtr(np.maximum(k, 0.0), rate))

    def below(s, y):
        c0, c1, rate = pre[s] - post[s], np.log(post[s] / pre[s]), data[s]
        v = (y - c0) / c1      # z <= y is x <= v for c1 > 0 and x >= v for c1 < 0
        if c1 > 0:
            cdf = at_most(np.floor(v), rate)
            cdf[:, -1] = at_most(np.ceil(v[:, -1]) - 1.0, rate)        # x < v
        else:
            cdf = 1.0 - at_most(np.ceil(v) - 1.0, rate)
            cdf[:, -1] = 1.0 - at_most(np.floor(v[:, -1]), rate)       # x > v
        return cdf

    return _run_length(_cusum_kernels(below, len(pre), threshold, cells))


def _shiryaev_kernels(pre_means, post_means, variance: float, data_means, rho: float, threshold: float,
                      cells: int) -> list:
    """The Shiryaev log odds ``L' = logaddexp(L, ln rho) - ln(1 - rho) + z`` below ``threshold``: one
    lumped cell for ``L <= ln rho - LUMP``, where ``logaddexp(L, ln rho)`` is ``ln rho`` to within
    ``exp(-LUMP)``, standing at ``L = -inf`` (the start), then ``cells`` midpoints up to ``threshold``."""
    pre, post, data = (np.asarray(m, dtype=float) for m in (pre_means, post_means, data_means))
    a, b = np.log(rho), np.log1p(-rho)
    edges = np.linspace(a - LUMP, threshold, cells + 1)
    states = np.concatenate([[-np.inf], (edges[:-1] + edges[1:]) / 2.0])
    return _kernels(_gaussian_below(pre, post, variance, data), len(pre), edges, np.logaddexp(states, a) - b)


def shiryaev_run_length(pre_means, post_means, variance: float, data_means, rho: float, threshold: float,
                        cells: int) -> float:
    """Expected number of observations to the first alarm of the Shiryaev rule, ``L_n >= threshold``,
    from ``L_0 = -inf`` in slot 0, with the laws of :func:`cusum_run_length`."""
    return _run_length(_shiryaev_kernels(pre_means, post_means, variance, data_means, rho, threshold, cells))


def shiryaev_pfa(pre_means, post_means, variance: float, rho: float, threshold: float, cells: int) -> float:
    """``P(tau < nu)`` for a change point ``nu`` with ``P(nu > n) = (1 - rho)^n``: the pre-change chain
    killed at rate ``1 - rho`` per step, ``sum_n P_inf(tau = n) (1 - rho)^n``."""
    kernels = _shiryaev_kernels(pre_means, post_means, variance, pre_means, rho, threshold, cells)
    return _alarm_before_kill(kernels, 1.0 - rho)
