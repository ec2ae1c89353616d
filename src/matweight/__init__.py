"""Desk-scale numerics for matrix Muckenhoupt weights: A_p characteristics,
reducing operators, growth-dimension estimation, dyadic Besov/Triebel-Lizorkin
type sequence and function norms, and the band-limited analysis/synthesis
transform pair."""

__version__ = "0.1.0"

from .geometry import Box, CubeWindow, DyadicCube, cube_box
from .weights import (ConjugatedBlockWeight, ConstantWeight, GridSampledWeight,
                      MatrixWeight, PowerLogWeight, ProductPowerWeight,
                      ap_constant, cube_average,
                      cube_average_matrix_norm, dual_weight, identity_weight,
                      two_singularity)
from .reducing import (CubeNorm, ReducingFamily, build_family, dual_reduce,
                       identity_family, integrability_probe, reduce_operator,
                       verify_reducing)
from .apdim import (ApDimConfig, ApDimensions, a_sequence, admissible_m,
                    doubling_exponent, estimate_dimensions, growth_envelope_check,
                    reverse_holder_probe)
from .spaces import (CoefficientField, SpaceParams, classify, finfty_norm,
                     maximal_sequence, seq_norm)
from .transform import (BandLimitedFunction, FilterPair, analyze, build_filters,
                        convolve_scale, function_norm, lifting, peetre_sup,
                        random_band_limited, schwartz_seminorm, synthesize)
