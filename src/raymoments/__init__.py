"""Numerical laboratory for momentum ray transforms of symmetric tensor fields.

Submodules:

* ``symtensor`` -- packed symmetric tensor algebra
* ``fields`` -- Gaussian-polynomial and grid tensor fields, derivative and
  Fourier operators
* ``ray`` -- momentum ray transforms: line geometry, quadrature, the
  closed-form oracle and sampled moment data
* ``helmholtz`` -- k-solenoidal / k-potential decomposition
* ``slices`` -- Fourier-slice checks, injectivity slice systems, kernel
  structure of the moments
* ``john`` -- phase space: the stencil engine, the John and transport
  operators, the extensions psi^l and chi^l, Psi and the range
  characterization
* ``claims`` -- one function per checkable claim, with its gate and control
* ``cli`` -- command-line front end
"""

from .fields import GaussPolyField, GridField, GridSpec, random_field
from .helmholtz import decompose_k, freq_project, projector_formula, verify_decomposition
from .john import (
    RangeReport,
    chi_build,
    homogeneity_residual,
    psi_from_phi,
    range_test,
    restricted_transform,
    transport_identity_residual,
)
from .ray import (
    Line,
    MomentData,
    QuadratureRule,
    batch_transform,
    direction_grid,
    householder_frame,
    moment_numeric,
    moment_oracle,
    oracle_moment_callables,
    random_line,
)
from .slices import (
    RankResult,
    SliceSystem,
    assemble_slice_system,
    kernel_check,
    rank_probe,
    slice_check,
    slice_row_count,
)
from .symtensor import multi_indices, multiplicity, sym_dim

__version__ = "0.1.0"
