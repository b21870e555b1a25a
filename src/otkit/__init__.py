"""otkit: number-field machinery for Oeljeklaus-Toma quotient manifolds.

Torsion of first homology through the unit ideal, canonical volumes from
discriminants and regulators, fundamental-group field reconstruction,
fundamental-domain reduction with Monte-Carlo cross-checks, and
minimal-volume scans.
"""

from .config import precision, working_precision
from .polynomials import IntPolynomial, poly_discriminant, resultant
from .roots import isolate_roots
from .orders import (IdealHNF, OrderElement, ReduciblePolynomialError, Signature,
                     SubOrder, build_order, maximalize, signature)
from .unitgroup import (AbelianGroupInvariants, InsufficientUnitsError,
                        UnitGroupData, certify_units, j_ideal,
                        torsion_group, totally_positive_generators, unit_group,
                        units_from_generators)
from .topology import (GroupPresentation, SemidirectElement, compositum,
                       commutator_sample_closure, cubic_galois_closure_degree,
                       group_inverse, group_multiply, h1, mobius_action_check,
                       presentation_from_field, reconstruct_minpoly)
from .geometry import (FundamentalDomainData, ScanRecord, VolumeResult,
                       fundamental_domain, inoue_closed_form, mc_volume,
                       metric_det_check, min_volume_scan, ot_volume,
                       reduce_to_domain, torsion_upper_bound,
                       volume_determinant_path, volume_lower_bound)

__version__ = "0.1.0"
