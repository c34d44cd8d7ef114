"""fastla: recursive, matrix-multiplication-driven dense linear algebra
with built-in stability instrumentation.

Decompositions (QR, LU, inversion, rank-revealing URV, Sylvester,
Schur/eigenvectors) are implemented by recursive blocked algorithms whose
heavy lifting runs through pluggable multiplication engines (conventional,
blocked, Winograd-Strassen), with operation counting for cost-exponent
measurement and backward/forward error budgets wired into tests and the
``fastla`` CLI.
"""

from .core import (EPS, EXTENDED, WORKING, DimensionError, MatrixParseError,
                   NonFiniteInputError, RngStream, gaussian_matrix, norm,
                   read_matrix, write_matrix)
from .matmul import MmEngine, OpCounter, fit_exponent, measure_mm_error, multiply
from .baseline import (BlockConfig, block_lu, block_qr, conventional_sylvester,
                       gepp_lu, householder_qr, jacobi_eig, jacobi_svd,
                       recommended_block_size)
from .qr import columnwise_scale_wrap, determinant, qrr, solve_ls
from .lu import lur, solve_linear, solve_triangular
from .inverse import gen_inv, spd_inv, solve_via_inverse, theorem1_embedding, tri_inv
from .rurv import exact_rank_probe, f_statistic_experiment, haar_orthogonal, rurv
from .sylvester import sep_estimate, sylr
from .eig import (SplitRegion, evecr, gershgorin_rectangle, schur_dandc, sign_function,
                  split_once, svd_via_gram, symmetric_eig)
from .results import StabilityReport, WYFactor

__version__ = "0.1.0"
