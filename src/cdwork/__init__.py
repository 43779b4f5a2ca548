"""Counterdiabatic-driving work statistics, geometric tensors and
speed-limit verification for parametrized quantum systems.

Internal units: hbar = 1, mass defaults to 1.
"""

__version__ = "0.1.0"

from .errors import (BandStructureError, CdworkError, ConfigError,
                     DegenerateGaugeWarning, DegeneracyError, InvalidDetuning,
                     NonHermitianInput, NotAState, ProtocolError,
                     QuadratureNotConverged, StepNotConverged,
                     SupercriticalDrive, TruncationError, ValidityWarning)
from .fitting import FitResult, fit_power_law
from .geometry import (GeometricTensor, SpeedLimitReport, bound_chain,
                       bures_fidelity, bures_length, evolved_density,
                       fidelity_decay_check, path_lengths, qgt,
                       speed_limit_report)
from .models import ParametrizedModel, SpectrumCache, two_level_model
from .oscillator import (HOConfig, HarmonicOscillator, IonConfig,
                         WaveformTable, cd_exact_eigensystem, ho_metric,
                         ion_waveforms, ramp)
from .protocols import (Protocol, constant_protocol, cubic_ramp, log_ramp,
                        quintic_ramp)
from .quadrature import adaptive_simpson, adaptive_simpson_multi
from .spectral import (CertificateReport, Spectrum, StateTrajectory,
                       assert_hermitian, cd_auxiliary, cd_coupling,
                       propagate, spectrum, transitionless_certificate)
from .workstats import (ThermalEnsemble, TransitionMatrix, WorkDistribution,
                        WorkMoments, excess_variance_direct,
                        excess_variance_geometric, fluctuation_series,
                        fluctuation_sweep, identity_check_rowsum, mean_work,
                        model_ensemble, thermal_ensemble, transition_matrix,
                        variance_work, work_distribution, work_moments)

__all__ = [name for name in dir() if not name.startswith("_")]
