"""Verification toolkit for level-2 Dynkin quiver mutation loops.

Builds the classical-type quivers and their mutation loops, solves the
cluster fixed-point equation from closed-form Q/Y-system data, computes
Jacobian spectra and exponents, and machine-checks the characteristic
polynomial identities behind them.
"""

from .errors import ConvergenceError, FixedPointError, LoopPropertyError
from .quiver import (LabeledQuiver, MutationLoop, Quiver, build_dynkin_quiver,
                     build_mutation_loop, dump_quiver, mutate_quiver)
from .qsys import (QTable, check_restricted_qsystem, closed_form_qtable, index_set_H, kr_qchar,
                   kr_qtable, qdim, qtable_csv)
from .rootsys import (DynkinType, RootSystem, build_root_system, group_constants, height_histograms, lie_constants,
                      root_pairings)
from .spectral import (Case, CBlockPair, CDeterminants, ExponentSequence, SpectralReport, Tolerances,
                       build_case, c_blocks, c_checks, c_determinants, case_passed, check_conjecture_38,
                       check_jacobian_fd, conjectured_charpoly, exponents_csv, lemma_basis,
                       lemma_summary, relation_residuals, run_case, spectrum, verify_c_reduction,
                       verify_conjecture_csol)
from .yseed import (LoopJacobian, check_periodicity, cluster_transform, finite_difference_jacobian,
                    loop_jacobian)
from .ysys import (EtaPoint, GReading, YSolution, assemble_eta, calibrate_reading,
                   check_ysystem, closed_form_y_exact, eta_csv, newton_fixed_point, y_from_q,
                   y_solution, ytable_csv)

__version__ = "0.1.0"
