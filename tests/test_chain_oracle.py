"""Monte Carlo estimates of Page's CUSUM and the Shiryaev rule against Brook-Evans chains.

The acceptance gate C4 checks only ``arl >= beta``, which an engine that cut
every run length in half would still pass on this model, whose ARL at
``beta = 50`` is about 721.  Here the estimates must agree with the chain
of ``oracle_chain.py`` within four standard errors plus the chain's own
discretization error, read as the change in its value from ``N`` to ``2N``
cells, on equal-variance Gaussian slots and on Poisson slots.  The Shiryaev
rule is checked on the Gaussian law: its false-alarm probability under a
geometric prior and its zero-state delay.  The master seeds (1972 and 539
for the Gaussian CUSUM, 2826 and 303 for the Poisson CUSUM, 1963 and 2303
for the Shiryaev rule) were fixed before the first run.
"""

import math

import pytest

from periodetect.densities import Gaussian, Poisson
from periodetect.detectors import CusumDetector, ShiryaevDetector
from periodetect.model import GeometricPrior, IpidLaw
from periodetect.simulate import FixedChange, estimate_add, estimate_arl, estimate_pfa

pytest.importorskip("scipy")
from oracle_chain import (  # noqa: E402  (needs scipy)
    cusum_run_length,
    cusum_run_length_poisson,
    shiryaev_pfa,
    shiryaev_run_length,
)

PRE_MEANS, POST_MEANS = [0.0, 0.5, 1.0, 0.5], [0.3, 1.0, 1.9, 0.6]
BETA = 50.0
TRIALS = 4000
CELLS = 400
PRE_RATES, POST_RATES = [2.0, 3.0, 5.0, 3.0], [3.0, 4.0, 6.5, 4.0]
POISSON_BETA = 20.0
RHO, ALPHA = 0.05, 0.05
PFA_TRIALS = 20_000


def unit_variance_law(means):
    return IpidLaw(len(means), tuple(Gaussian(m, 1.0) for m in means))


def chain(data_means):
    """The chain's expected run length at ``CELLS`` and ``2 * CELLS`` cells, and their difference."""
    coarse, fine = (cusum_run_length(PRE_MEANS, POST_MEANS, 1.0, data_means, math.log(BETA), n)
                    for n in (CELLS, 2 * CELLS))
    return fine, abs(fine - coarse)


@pytest.fixture(scope="module")
def detector():
    return CusumDetector(unit_variance_law(PRE_MEANS), unit_variance_law(POST_MEANS), math.log(BETA))


def test_arl_matches_the_chain(detector):
    exact, discretization = chain(PRE_MEANS)
    assert exact == pytest.approx(720.98, abs=0.005)  # ARL 720.93, 720.98 and 720.99 at 400, 800 and 1600 cells
    # a run past 10^4 samples has probability about exp(-10^4 / 721) per trial
    rep = estimate_arl(detector, detector.baseline, TRIALS, 10_000, master_seed=1972)
    assert rep.censored_trials == 0
    assert abs(rep.estimate - exact) <= 4.0 * rep.std_error + discretization, (rep.estimate, rep.std_error, exact)


def test_zero_state_delay_matches_the_chain(detector):
    run_length, discretization = chain(POST_MEANS)
    exact = run_length - 1.0  # with the change at observation 1 the delay is tau - 1
    assert exact == pytest.approx(24.33, abs=0.005)
    rep = estimate_add(detector, detector.baseline, detector.alternative, FixedChange(1), TRIALS, 2000,
                       master_seed=539)
    assert rep.censored_trials == 0 and rep.details["qualifying_trials"] == TRIALS
    assert abs(rep.estimate - exact) <= 4.0 * rep.std_error + discretization, (rep.estimate, rep.std_error, exact)


def poisson_chain(data_rates):
    coarse, fine = (cusum_run_length_poisson(PRE_RATES, POST_RATES, data_rates, math.log(POISSON_BETA), n)
                    for n in (CELLS, 2 * CELLS))
    return fine, abs(fine - coarse)


@pytest.fixture(scope="module")
def poisson_detector():
    def law(rates):
        return IpidLaw(len(rates), tuple(Poisson(r) for r in rates))

    return CusumDetector(law(PRE_RATES), law(POST_RATES), math.log(POISSON_BETA))


def test_poisson_arl_matches_the_chain(poisson_detector):
    exact, discretization = poisson_chain(PRE_RATES)
    assert exact == pytest.approx(213.60, abs=0.005)  # ARL 212.79 and 213.60 at 400 and 800 cells
    # a run past 4000 samples has probability about exp(-4000 / 214) per trial
    rep = estimate_arl(poisson_detector, poisson_detector.baseline, 3000, 4000, master_seed=2826)
    assert rep.censored_trials == 0
    assert abs(rep.estimate - exact) <= 4.0 * rep.std_error + discretization, (rep.estimate, rep.std_error, exact)


def test_poisson_zero_state_delay_matches_the_chain(poisson_detector):
    run_length, discretization = poisson_chain(POST_RATES)
    exact = run_length - 1.0
    assert exact == pytest.approx(14.07, abs=0.005)
    rep = estimate_add(poisson_detector, poisson_detector.baseline, poisson_detector.alternative, FixedChange(1),
                       TRIALS, 500, master_seed=303)
    assert rep.censored_trials == 0 and rep.details["qualifying_trials"] == TRIALS
    assert abs(rep.estimate - exact) <= 4.0 * rep.std_error + discretization, (rep.estimate, rep.std_error, exact)


def shiryaev_chain(oracle, *args):
    coarse, fine = (oracle(PRE_MEANS, POST_MEANS, 1.0, *args, RHO, math.log((1.0 - ALPHA) / ALPHA), n)
                    for n in (CELLS, 2 * CELLS))
    return fine, abs(fine - coarse)


@pytest.fixture(scope="module")
def shiryaev_detector():
    return ShiryaevDetector(unit_variance_law(PRE_MEANS), unit_variance_law(POST_MEANS), RHO, 1.0 - ALPHA)


def test_shiryaev_pfa_matches_the_chain(shiryaev_detector):
    exact, discretization = shiryaev_chain(shiryaev_pfa)
    assert exact == pytest.approx(0.03432, abs=5e-6)  # 0.034349, 0.034324 and 0.034318 at 400, 800 and 1600 cells
    # a trial is censored only when nu - 1 > 400, which has probability 0.95^401 (about 1e-9)
    rep = estimate_pfa(shiryaev_detector, shiryaev_detector.pre, GeometricPrior(RHO), PFA_TRIALS, 400,
                       master_seed=1963)
    assert rep.censored_trials == 0
    assert abs(rep.estimate - exact) <= 4.0 * rep.std_error + discretization, (rep.estimate, rep.std_error, exact)


def test_shiryaev_zero_state_delay_matches_the_chain(shiryaev_detector):
    run_length, discretization = shiryaev_chain(shiryaev_run_length, POST_MEANS)
    exact = run_length - 1.0
    assert exact == pytest.approx(20.624, abs=5e-4)  # run length 21.6243 and 21.6238 at 400 and 800 cells
    rep = estimate_add(shiryaev_detector, shiryaev_detector.pre, shiryaev_detector.post, FixedChange(1), TRIALS,
                       2000, master_seed=2303)
    assert rep.censored_trials == 0 and rep.details["qualifying_trials"] == TRIALS
    assert abs(rep.estimate - exact) <= 4.0 * rep.std_error + discretization, (rep.estimate, rep.std_error, exact)
