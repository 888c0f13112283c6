"""vvtheta: vector-valued Siegel theta functions of even lattices.

Lattices are integer Gram matrices; discriminant forms carry exact Q/Z
values; theta functions are computed by certified truncation over majorant
ellipsoids and transform under Weil representations of the metaplectic
group.  See the README for the CLI and the verification suite.
"""

from .errors import *  # noqa: F401,F403
from .lattice import (  # noqa: F401
    Lattice,
    OverlatticeEmbedding,
    Sublattice,
    construct_lattice,
    direct_sum,
    orthogonal_complement,
    rescale,
    sublattice,
)
from .discforms import (  # noqa: F401
    DiscriminantGroup,
    IsotropicSubgroup,
    check_isotropic,
    disc_product_iso,
    discriminant_group,
    element_identification,
    gauss_sum_check,
    glue_map,
    orthogonal_elements,
    orthogonal_subgroup,
    two_pi_e,
)
from .weil import (  # noqa: F401
    Axis,
    MetaplecticElement,
    MP_IDENTITY,
    MP_S,
    MP_T,
    MP_Z,
    RepVector,
    down_arrow,
    identity_vector,
    mp_power,
    pair,
    rho_apply,
    rho_generator,
    rho_matrix,
    up_arrow,
    word_decompose,
)
from .grassmann import (  # noqa: F401
    GrassmannPoint,
    HomogeneousPolynomial,
    Polynomial,
    VectorPair,
    block_swapped_poly,
    constant_poly,
    direct_sum_grassmann,
    lift_product,
    make_grassmann_point,
    swap_blocks_point,
)
from .theta import (  # noqa: F401
    build_term_table,
    TermTable,
    ThetaEvaluator,
    ThetaValue,
    enumerate_vectors,
    mixed_theta_composed,
    mixed_theta_direct,
    mixed_theta_evaluator,
    mixed_theta_family,
    modularity_defects,
    Residual,
    Seesaw,
    siegel_theta,
    siegel_theta_evaluator,
    siegel_theta_family,
    split_data,
    ThetaFamily,
    theta_negation_residuals,
    theta_weight,
)
from .contraction import (  # noqa: F401
    QExpansionForm,
    contract_pointwise,
    contract_symbolic,
    expected_weights,
    naive_truncated_lift,
    seesaw_contraction_residuals,
    seesaw_contractions,
    seesaw_restriction_residuals,
)

__version__ = "0.1.0"

#: names served by vvtheta.cli, which is imported on first use so that
#: ``python -m vvtheta.cli`` finds it not yet imported
_CLI_NAMES = ("emit_expansion", "run_scenario")


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
