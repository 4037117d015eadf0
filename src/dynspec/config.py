"""Default numerical tolerances.

The recovery pipelines' consistency decisions funnel through these
values. ``TAU_SOLVE`` and ``DEDUP_REL`` can be overridden per call (the
CLI's ``--tol`` and ``--dedup``); the others are fixed. Each report
(``fileio.save_report``) records ``TAU_SOLVE``, ``DEDUP_REL`` and
``TAU_ROOT`` as used.

Three levels live beside the one decision each makes, not here:
``fileio.VERIFY_TOL`` (1e-8) and ``fileio.SUPPORT_REL`` (1e-9), the
acceptance tolerance of the one ground-truth judgment,
``fileio.truth_checks`` (which ``verify``, ``recover``'s verified block
and the test census all call), and the level at or below which a true
transform entry is off the Prony support; and ``invariant._REAL_TOL``
(1e-8), the imaginary part, relative to the spectral scale, that the
symmetric ordering treats as rounding.
"""

# A linear system counts as consistent below this relative residual.
TAU_SOLVE = 1e-8

# Absolute snapping distance from a root to the unit-circle grid.
TAU_ROOT = 1e-6

# Relative node separation required by the per-class alias inversion.
TAU_NODE = 1e-8

# Dedup tolerance for merging roots, relative to the spectral scale.
DEDUP_REL = 1e-6

# All-zero detection (numerics.zero_threshold): a value counts as zero
# at or below this fraction of the caller-supplied scale.
ZERO_REL = 1e-12
