"""dynspec: spectrum and operator identification from dynamical samples.

An unknown linear evolution operator drives an unknown initial state; the
library recovers the operator's eigenvalues (and, for circulant operators
under uniform subsampling, the operator and the state themselves) from
space-time samples of the evolving state alone.
"""

__version__ = "0.1.0"

from . import config
from .errors import (AmbiguousOrdering, ConditioningError, DimensionError,
                     DynspecError, FileFormatError, InsufficientDataError,
                     NoAnnihilator, NotShiftSpectrum, NotSymmetricReal,
                     RecoveryError, SpanConditionViolated, UnderDetermined)
from .numerics import (LstSqResult, MonicPolynomial, dft, least_squares,
                       poly_roots, set_match_error)
from .model import (Circulant, Diagonalizable, EvolutionOperator, IndexSet,
                    SampleSet, Sampler, Uniform, make_diffusion_filter,
                    random_circulant, random_diagonalizable, random_signal,
                    shift_operator, simulate)
from .annihilator import (AnnihilatorPolynomial, annihilator_from_samples,
                          scalar_annihilator)
from .spectral import (ExtrapolationModel, SpectrumEstimate, fit_extrapolation,
                       merge_roots, recover_observable_spectrum,
                       recover_spectrum_via_extrapolation)
from .invariant import (fourier_classes, order_symmetric_decreasing,
                        recover_operator, recover_signal,
                        recover_spectrum_invariant)
from .prony import (SparseSpectrum, prony_reconstruct, prony_support,
                    prony_values, random_sparse_signal, snap_support)
