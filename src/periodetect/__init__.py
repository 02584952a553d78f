"""Quickest change detection in statistically periodic processes.

Models a data stream whose per-sample distribution repeats with a fixed
period, and provides sequential detectors for the moment that law changes:
the posterior-probability rule for a known alternative, its robust variant
designed against a least favorable law, a cumulative-sum score test, mixture
rules for unknown changed slots or streams, and a classifier bank for joint
detection and isolation.  A Monte Carlo harness estimates false-alarm,
delay, run-length, and misclassification performance against the matching
first-order predictions.

Each public name loads its module on first access (PEP 562), so importing the
package, or one subcommand of its CLI, imports only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_MODULE_NAMES = {
    "densities": "FITTED_RATE_FLOOR FITTED_VARIANCE_FLOOR Gaussian Poisson SlotDensity density_from_dict "
                 "density_to_dict kl llr log_density sample",
    "detectors": "ClassifierBankDetector CusumDetector MixtureShiryaev MultistreamMixture ShiryaevDetector "
                 "StepResult robust_shiryaev run write_trajectory_csv",
    "information": "DetectorKind InfoReport asymptotic_delay info_matrix info_multislot info_multistream "
                   "info_number info_report per_slot_kl threshold window_size",
    "model": "ChangePointPrior ClassBank ExplicitPrior GeometricPrior IpidLaw MultislotFamily MultistreamConfig "
             "PeriodicThresholds post_change_law prior_from_dict prior_mass survival tail_exponent",
    "robust": "FiniteSlotFamily IntervalSlotFamily LflValidationReport NoLeastFavorableError UncertaintyFamily "
              "dominance_check select_lfl validate_lfl",
    "simulate": "DrawnChange FixedChange InsufficientDataError MonteCarloReport NoChange ScenarioSpec "
                "WorstCaseDelayReport estimate_add estimate_arl estimate_misclass estimate_pfa generate "
                "generate_multistream mexican_hat_wavelet sample_law sample_with_change signal_law trial_rng "
                "worst_case_delay",
    "fit": "CycleSet fit_gaussian fit_poisson median_smooth read_cycles_csv read_long_csv resample_cycle "
           "restrict_slots",
}

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULE_NAMES:  # a submodule, as `periodetect.simulate` after a bare import
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
