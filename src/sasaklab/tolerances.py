"""Single ledger of numerical tolerances.

Every rank decision, drop rule and residual gate in the package reads
its threshold from here, so a report can always name the tolerance it
was judged against.
"""

DEFAULTS = {
    # linear algebra
    "gram_schmidt_drop": 1e-10,          # residual norm below which a vector is discarded
    "rank_singular_value": 1e-8,         # relative SVD threshold for rank decisions
    "metric_condition": 1e12,            # cond(Gram) beyond which SingularMetric is raised
    # geometry residual gates
    "frame_orthogonality": 1e-9,
    "eta_on_frame": 1e-9,
    "tangency": 1e-10,
    "on_sphere": 1e-12,
    "level_set_residual": 1e-10,
    "ray_membership": 1e-9,              # absolute residual for ray classification
    "newton_tol": 1e-12,
    "newton_max_iter": 50,
    "newton_min_s": 1e-10,
    # structure certification
    "round_curvature": 1e-7,
    "round_identity": 1e-8,
    "weighted_identity": 1e-5,
    "weighted_killing": 1e-5,
    "weighted_sasakian": 1e-4,
    "contact_nondegeneracy": 1e-6,
    "weighted_positivity": 1e-10,        # DegenerateContact gate on probe eigenvalues
    # reduction / submersion checks
    "quotient_sasakian": 1e-5,
    "oneill_two_path": 1e-6,
    "oneill_bracket_oracle": 1e-6,
    "cr_identities": 1e-6,
    "final_identity": 1e-5,
    "hopf_gate": 1e-7,
    "reduced_deta_det": 1e-6,
    "basic_d_eta": 1e-9,
    # cone suite
    "iota_transpose": 1e-12,
    "stratification": 1e-9,
    # flows
    "reeb_flow_sup": 1e-6,
}

# Thresholds of the dense simplex behind reduction.analyze_moduli.  They are
# internal to the solver rather than gates a run is judged against, so they
# stay out of DEFAULTS: a config cannot override them and reports do not
# list them.
LP_PIVOT = 1e-9        # smallest |entry| of an entering column taken as a pivot,
                       # and smallest |reduced cost| that lets a variable enter
LP_FEASIBILITY = 1e-9  # phase-1 infeasibility above which the system is empty;
                       # below the 1e-8 floor on the ray parameter s
LP_SUPPORT = 1e-9      # support-LP value above which t_j is not identically 0


def get(name, overrides=None):
    """Look up a tolerance, preferring per-run overrides."""
    if overrides and name in overrides:
        return overrides[name]
    return DEFAULTS[name]
