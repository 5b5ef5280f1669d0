"""Symplectic rotation maps, normal forms and path indices.

The package computes, for real symplectic matrices and continuous paths of
them: the circle-valued rotation map and its polar / C-linear-part variants,
constructive symplectic normal forms with conjugation bases, the
Conley-Zehnder index by winding-number degree, the crossing-form
(Robbin-Salamon style) index for symplectic and Lagrangian paths, and loop
Maslov indices.  A batch CLI (``sympindex``) fronts the same operations.
"""

from .core import (SympMatrix, complex_det, direct_sum, direct_sum_many,
                   is_symplectic, j_matrix, omega_matrix, polar_decompose,
                   random_symplectic, rho_hat, rho_polar, symplectic_residual)
from .cz import (IndexResult, cz_dim2_closed_form, conley_zehnder,
                 extension_winding, maslov_loop, winding)
from .errors import (AdmissibilityError, ConditioningError, ContractError,
                     DimensionError, IllConditionedSpectrumError,
                     InternalConsistencyError, IrregularCrossingError,
                     KreinDegenerateError, NoCrossingError, NormalFormError,
                     NotAnEigenvalueError, ParameterError,
                     PerturbationFailureError, SamplingError, SympindexError,
                     UnsupportedStructureError, WindingResolutionError)
from .halfint import HalfInt
from .lagrangian import (CrossingReport, LagrangianFrame, graph_lagrangian,
                         horizontal_frame, lagrangian_crossing_form,
                         lagrangian_rs_index, vertical_frame)
from .normal_form import (NormalFormBlock, NormalFormReport, assemble,
                          invariants_of, normal_form, semisimple_perturb)
from .paths import (CatPath, ConjPath, ConstPath, DirectSumPath, ExpPath,
                    GeneratorSample, LoopPath, PathSpec, ProdPath,
                    ReversePath, SampledPath, ShearPath, evaluate,
                    evaluate_array, evaluate_stack, generator,
                    junction_parameters, make_loop, make_shear,
                    path_from_json, path_to_json)
from .rs import RSResult, rs2_index, rs_index
from .spectral import (EigenQuadruple, KreinData, eigen_quadruples,
                       first_kind_eigenvalues, generalized_eigenspace,
                       krein_form, rho)
from .tolerances import DEFAULT_TOL, ToleranceProfile

__version__ = "1.0.0"
