"""Exact run lengths of Page's CUSUM on periodic Gaussian or Poisson slots, from a Markov chain.

The CUSUM score ``W_n = max(W_{n-1}, 0) + z_n`` alarms at the first ``n``
with ``W_n >= h``.  Between alarms its state ``max(W_n, 0)`` lies in
``[0, h)``.  Following Brook and Evans (1972, *Biometrika* 59(3):539-549),
that state is one atom at 0 plus ``cells`` equal cells on ``(0, h)``, each
represented by its midpoint, and a step with slot ``s``'s observation moves
it by the substochastic matrix ``K_s`` of the chain killed at the alarm.

In both families the score of an observation is affine in it.  For
equal-variance Gaussian slots it is therefore Gaussian under any Gaussian
data law, and each ``K_s`` comes from the normal CDF; for Poisson slots it
is ``c0 + c1 x`` with a Poisson count ``x``, and each ``K_s`` comes from the
Poisson CDF.  Observation ``n`` sits in slot ``(n - 1) mod T``, so
from ``W_0 = 0`` the expected run length is one linear solve:
``E = e_0' (I - K_0 ... K_{T-1})^{-1} (1 + K_0 1 + K_0 K_1 1 + ... + K_0 ... K_{T-2} 1)``.
"""

import numpy as np
from scipy.special import ndtr, pdtr


def _run_length(below, period: int, threshold: float, cells: int) -> float:
    """Expected run length from ``W_0 = 0`` in slot 0, where ``below(s, y)`` is ``P(z <= y)`` for slot
    ``s``'s score ``z`` at each entry of ``y``, except ``P(z < y)`` in its last column, the alarm edge."""
    width = threshold / cells
    edges = width * np.arange(cells + 1)               # the atom's upper edge 0, then each cell's upper edge
    states = np.concatenate([[0.0], edges[1:] - width / 2.0])
    run, stay = np.zeros(cells + 1), np.eye(cells + 1)  # sum of P(tau > n) over one period; K_0 ... K_{s-1}
    for s in range(period):
        run += stay.sum(axis=1)
        cdf = below(s, edges[None, :] - states[:, None])
        stay = stay @ np.diff(cdf, axis=1, prepend=0.0)  # column 0 is the atom, P(W <= 0)
    return float(np.linalg.solve(np.eye(cells + 1) - stay, run)[0])


def cusum_run_length(pre_means, post_means, variance: float, data_means, threshold: float, cells: int) -> float:
    """Expected number of observations to the first alarm of the CUSUM of ``post`` against ``pre``.

    Slot ``s`` of the pre- and post-change laws is ``N(pre_means[s], variance)``
    and ``N(post_means[s], variance)``; the observations follow
    ``N(data_means[s], variance)``, starting in slot 0 from ``W_0 = 0``.
    """
    pre, post, data = (np.asarray(m, dtype=float) for m in (pre_means, post_means, data_means))
    if not np.all(post != pre):
        raise ValueError("every slot needs a change in mean: a slot with a zero score has no Gaussian law")
    # z = (q - p) / v * (x - (p + q) / 2): its mean and standard deviation under the data law, per slot
    score_mean = (post - pre) / variance * (data - (pre + post) / 2.0)
    score_sd = np.abs(post - pre) / np.sqrt(variance)
    return _run_length(lambda s, y: ndtr((y - score_mean[s]) / score_sd[s]), len(pre), threshold, cells)


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

    return _run_length(below, len(pre), threshold, cells)
