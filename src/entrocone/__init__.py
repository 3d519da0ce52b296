"""Entropy-vector cones of classical causal structures.

Decide which entropy vectors are achievable in a causal structure:
generate Shannon and conditional-independence constraint systems, compute
the resulting cones exactly, and certify tightness with explicit witness
forms.
"""

from .causal import (CausalStructure, Node, bell_structure, build_line_structure,
                     build_post_selected_line, d_separated,
                     observed_independence_constraints, reduced_line_structure,
                     structure_from_name)
from .distributions import (CausalModel, EntropyVector, JointDistribution,
                            bc_functional, compile_model, entropy_vector,
                            post_select_joint, witness_line)
from .entropy_space import (ConstraintSystem, CoordinateIndex, LinearForm,
                            classical_ci_system, elemental_shannon_system,
                            reduced_line_system)
from .errors import InvalidModel, InvalidParameter, NodeGuardExceeded
from .analysis import (ConeReport, full_marginal_outer_cone, observed_outer_cone,
                       post_selected_marginal_cone, split_generated_rays,
                       verify_line_tightness)
from .polyhedra import (HRep, VRep, dd_project, enumerate_rays, facets_from_rays,
                        fm_eliminate, membership, remove_redundancies)

__version__ = "0.1.0"

__all__ = [
    "CausalModel", "CausalStructure", "ConeReport", "ConstraintSystem",
    "CoordinateIndex", "EntropyVector", "HRep", "InvalidModel",
    "InvalidParameter", "JointDistribution", "LinearForm", "Node",
    "NodeGuardExceeded", "VRep", "bc_functional", "bell_structure",
    "build_line_structure", "build_post_selected_line", "classical_ci_system",
    "compile_model", "d_separated", "dd_project",
    "elemental_shannon_system", "entropy_vector", "enumerate_rays",
    "facets_from_rays", "fm_eliminate", "full_marginal_outer_cone",
    "membership", "observed_independence_constraints",
    "observed_outer_cone", "post_select_joint", "post_selected_marginal_cone",
    "reduced_line_structure", "reduced_line_system", "remove_redundancies",
    "split_generated_rays", "structure_from_name",
    "verify_line_tightness", "witness_line",
]
