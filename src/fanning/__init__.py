"""Differential invariants of fanning curves in divisible Grassmannians.

A curve of n-planes in R^(kn) spanned by a frame A(t) is *fanning* when
the juxtaposed matrix (A | A' | ... | A^(k-1)) stays invertible.  This
package computes the complete invariant system of such curves through
exact truncated-Taylor (jet) arithmetic: the coefficients of the order-k
linear equation the frame satisfies, the matrix Schwarzian and the
higher Wilczynski-type invariants, normal frames, the fundamental
endomorphism and reflection, the horizontal derivative, the Jacobi
endomorphism and the Maurer-Cartan pullbacks of the frame lifts.  On top of
those it decides congruence of two curves under a constant ambient
transformation, canonicalizes jets to a standard form and emits orbit
coordinates for (k+1)-jets.
"""

from .congruence import (
    CongruenceWitness,
    OrbitCoordinates,
    are_congruent,
    canonicalize_jet,
    orbit_coordinates,
    simultaneous_conjugator,
)
from .curves import (
    CurveFormatError,
    FrameJet,
    InsufficientOrderError,
    IntegrationError,
    NotFanningError,
    OdeFrameCurve,
    PolynomialFrameCurve,
    PolynomialMatrix,
    curve_from_dict,
    curve_to_dict,
    load_curve,
    nilpotent_matrix,
    standard_curve,
)
from .invariants import (
    CoefficientSet,
    EndomorphismBundle,
    InternalConsistencyError,
    NormalizationRecord,
    NotNormalError,
    endomorphism_bundle,
    invariants_from_coefficients,
    is_normal,
    jacobi_matrix,
    maurer_cartan_pullback,
    normal_frame,
    normalized_frame_jet,
    normalizing_jet,
    ode_coefficients,
    wilczynski_invariants,
)
from .jets import (
    JetError,
    MatrixJet,
    jet_add,
    jet_inverse,
    jet_mul,
)

__version__ = "0.1.0"
