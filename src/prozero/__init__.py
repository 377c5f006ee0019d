"""Exact windowed verification kernel for a family of non-noetherian
counter-example rings, their annihilator structure, and the pro-zero
test on Koszul homology inverse systems."""

__version__ = "0.1.0"

from .fields import QQ, PrimeField, field_from_spec
from .rings import (GS, CTRL, E1, E2, R_ONLY, GradedPoly, PrecisionElement,
                    RingError, RingId, SystemSpec, alpha_hat, ann_formula,
                    apply_system, r_mul, vanishes)
from .oracle import (Context, Window, WindowError, annihilator_oracle,
                     kernel_of, system_kernel, torsion_subspace, vectorize,
                     window_basis)
from .koszul import (koszul_h1_single, koszul_pair, pro_zero_test,
                     ses_row_check, transition_zero)
