"""helflow: a numerical laboratory for locally area-constrained bending flows.

Evolves closed triangulated surfaces under the L2 gradient flow of the
penalized bending energy ``(1/4) int (H - c0)^2 dmu + (lam/2) * Area``,
tracks the associated energies and invariants, detects and classifies
singularities via parabolic blow-up rescaling, and validates everything
against the closed-form round-sphere dynamics.
"""

from .diagnostics import (BlowUpFrame, KappaProfile, SingularityClassification,
                          classify_singularity, extract_blowup_frame, kappa,
                          kappa_profile, select_blowup_radius, sphere_fit,
                          hypothesis_monitors)
from .flow import (CSV_COLUMNS, FlowState, SteppingPolicy, TerminationReport,
                   TimeSeriesRecord, checkpoint, init_state, restore, run_flow,
                   step)
from .geometry import (FlowParams, GeometryCache, build_cache,
                       first_variation_check, flow_velocity,
                       gauss_bonnet_residual, helfrich_energy,
                       mean_curvature_integral, penalized_energy,
                       willmore_bound_residual)
from .mesh import (MeshQualityReport, TriangleMesh, load_mesh, make_icosphere,
                   make_tetrahedron, make_torus, orient_for_positive_volume,
                   quality_report, save_mesh, signed_volume)
from .remesh import hausdorff_distance, remesh
from .sphere_ode import (SphereOdeSolution, TheoryBounds,
                         extinction_time_closed_form, integrate_sphere_ode,
                         sphere_energy, sphere_ode_rhs, theory_bounds)

__version__ = "0.1.0"
