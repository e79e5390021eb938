"""tblab: a numerical laboratory for quantitative singular-integral testing
conditions on sampled data — kernel certificates, normalized bumps, PV
quadrature, BMO estimation, para-accretivity, and scaling experiments."""

from .grid import (Cube, DyadicFamily, Grid, SampledFunction, cube1,
                   dyadic_family, load_sampled_csv, lp_norm, make_grid, sample,
                   save_sampled_csv)
from .bumps import (BumpCertificate, BumpRule, BumpSpec, c_norm, plateau_bump,
                    standard_bump, translate_dilate, verify_bump)
from .kernels import (KernelCertificate, KernelModel, check_regularity,
                      check_size, gallery, transpose_kernel)
from .quadrature import (FieldResult, Plan, PvPolicy, PvValue, apply_bilinear,
                         apply_bilinear_field, apply_linear, apply_linear_field,
                         pairing, plan, plans, triple_pairing)
from .bmo import (OscillationReport, best_constant_oscillation, bmo_seminorm,
                  mean_oscillation)
from .paraaccretive import (ConditionBCertificate, ParaAccretivityCertificate,
                            UkFamily, b_to_def3_constant, build_uk,
                            check_condition_B, check_para_accretive,
                            make_sk_from_uk, verify_sk_checklist, verify_uk)
from .harness import (BFunc, GridSpec, ScalingReport, bilinear_decomposition_check,
                      builtin_b, direct_bound_check, exponent_fit,
                      far_field_constancy, local_piece_check,
                      stein_bilinear_tb_test, stein_t1_test, stein_tb_test,
                      uniform_bmo_sweep, weak_boundedness_test)

__version__ = "0.1.0"
