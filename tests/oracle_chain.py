"""Exact run lengths of Page's CUSUM on periodic Gaussian slots, from a Markov chain.

The CUSUM score ``W_n = max(W_{n-1}, 0) + z_n`` alarms at the first ``n``
with ``W_n >= h``.  Between alarms its state ``max(W_n, 0)`` lies in
``[0, h)``.  Following Brook and Evans (1972, *Biometrika* 59(3):539-549),
that state is one atom at 0 plus ``cells`` equal cells on ``(0, h)``, each
represented by its midpoint, and a step with slot ``s``'s observation moves
it by the substochastic matrix ``K_s`` of the chain killed at the alarm.

For equal-variance Gaussian slots the score of an observation is affine in
it, so it is Gaussian under any Gaussian data law, and each ``K_s`` comes
from the normal CDF.  Observation ``n`` sits in slot ``(n - 1) mod T``, so
from ``W_0 = 0`` the expected run length is one linear solve:
``E = e_0' (I - K_0 ... K_{T-1})^{-1} (1 + K_0 1 + K_0 K_1 1 + ... + K_0 ... K_{T-2} 1)``.
"""

import numpy as np
from scipy.special import ndtr


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
    width = threshold / cells
    edges = width * np.arange(cells + 1)               # the atom's upper edge 0, then each cell's upper edge
    states = np.concatenate([[0.0], edges[1:] - width / 2.0])
    run, stay = np.zeros(cells + 1), np.eye(cells + 1)  # sum of P(tau > n) over one period; K_0 ... K_{s-1}
    for s in range(len(pre)):
        run += stay.sum(axis=1)
        cdf = ndtr((edges[None, :] - states[:, None] - score_mean[s]) / score_sd[s])
        stay = stay @ np.diff(cdf, axis=1, prepend=0.0)  # column 0 is the atom, P(W <= 0)
    return float(np.linalg.solve(np.eye(cells + 1) - stay, run)[0])
