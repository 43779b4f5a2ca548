"""Counterdiabatic-driving work statistics, geometric tensors and
speed-limit verification for parametrized quantum systems.

Internal units: hbar = m = 1.
"""

__version__ = "0.1.0"

from .errors import (BandStructureError, CdworkError, ConfigError,
                     DegenerateGaugeWarning, DegeneracyError, InvalidDetuning,
                     NonHermitianInput, NotAState, ProtocolError,
                     QuadratureNotConverged, StepNotConverged,
                     SupercriticalDrive, TruncationError, ValidityWarning)
from .fitting import FitResult, fit_power_law
from .geometry import (GeometricTensor, SpeedLimitReport, bound_chain,
                       bures_fidelity, bures_length, chain_lengths,
                       density_factor, ensemble_rates, fidelity_decay_check,
                       path_lengths, qgt, speed_limit_report)
from .models import ParametrizedModel, SpectrumCache
from .oscillator import (HOConfig, HarmonicOscillator, WaveformTable,
                         cd_exact_energy, ho_metric, ion_waveforms, ramp)
from .protocols import Protocol, cubic_ramp, log_ramp, quintic_ramp
from .quadrature import clenshaw_curtis, simpson
from .spectral import (CertificateReport, Spectrum, assert_hermitian,
                       cd_coupling, propagate, spectrum,
                       transitionless_certificate)
from .workstats import (ThermalEnsemble, WorkDistribution,
                        WorkMoments, fluctuation_series, model_ensemble,
                        thermal_ensemble, transition_matrix,
                        work_distribution, work_moments)

__all__ = [name for name in dir() if not name.startswith("_")]
