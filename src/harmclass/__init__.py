"""harmclass: bounds, constructions and verification for planar harmonic
mappings whose analytic part satisfies a weighted coefficient budget.

The package is organized as:

  * ``series``   - truncated complex power-series arithmetic
  * ``model``    - class parameters, dilatations, the harmonic-map data model
  * ``factory``  - certified member construction and random sampling
  * ``numerics`` - the area measurement's quadrature, digamma, root machinery
  * ``bounds``   - every bound in closed form (coefficients through Bloch)
  * ``verify``   - independent numerical verification against concrete members
  * ``cli``      - the ``hcl`` command-line front end
"""

from .bounds import (
    BlochResult,
    BoundEnvelope,
    area_envelope,
    bloch_bound,
    bloch_H_poly,
    bn_bound,
    bn_bound_digamma,
    bn_bounds,
    covering_radius,
    covering_radius_floor,
    dilatation_envelope,
    f_growth,
    f_growth_floor,
    g_growth_bounds,
    g_growth_crosscheck,
    gprime_envelope,
    hprime_envelope,
    normality_constant,
)
from .errors import QuadratureError, RootCountError
from .factory import (
    MembershipCertificate,
    build_member,
    certify,
    extremal_h,
    sample_certified_h,
)
from .model import (
    ClassParams,
    DilatationSpec,
    HarmonicMapSpec,
    co_analytic_from,
    constant_dilatation,
    dilatation_coeffs,
    harmonic_map,
    moebius_dilatation,
    rotation_dilatation,
)
from .series import TruncatedSeries, differentiate, evaluate
from .verify import (
    VerificationReport,
    default_polar_grid,
    run_member_suite,
    verify_area,
    verify_bloch,
    verify_coefficients,
    verify_convexity,
    verify_covering,
    verify_distortion,
    verify_f_growth,
    verify_g_growth,
    verify_member,
)

__version__ = "0.1.0"
