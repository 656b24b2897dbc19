"""Convergent Wick-type star products on the disk, annuli and the
punctured disk, with the surrounding sphere/Moebius geometry, invariance
experiments and a verification CLI."""

__version__ = "0.1.0"

from .errors import DomainError, FloatRangeError, NonTerminatingError, WickstarError
from .exact import QC, conj, is_exact, to_complex
from .functions import (BasisFpq, BiPoly, EntireFn, ExpFn, Jet, PolyFn,
                        SeriesFn, entire_from_json)
from .peschl_minda import (ComposedP, ComposedQ, DiskFunction, MoebiusPullback,
                           PolyDisk, p_aux, q_aux)
from .sphere import (GPoint, MoebiusMap, OmegaPoint, SpherePoint,
                     annulus_deck_multiplier, covering_disk_to_annulus,
                     covering_disk_to_punctured, covering_half_to_annulus,
                     danielewski_chart, gamma_hat, moebius_fixed_points,
                     psi_g_to_omega, psi_omega_to_g, t_gamma_omega)
from .star import (Hbar, StarConfig, StarResult, c_n, c_n_direct, c_sequence,
                   star_annulus, star_annulus_poly, star_disk,
                   star_disk_poly_exact, star_disk_poly_truncated,
                   star_hbar_profile, star_punctured, star_punctured_poly)
from .surfaces import (AnnulusElement, FpqCombo, PuncturedElement, chart_f_0,
                       chart_f_R, gamma_hat_invariant, iso_psi, lift_to_disk,
                       scaling_kernel, transport_T, translation_kernel,
                       z2_involution)
from .rigidity import (InvariantDimension, ObstructionReport,
                       elliptic_invariant_indices, invariant_dimension,
                       obstruction_check)
