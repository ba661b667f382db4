"""Ledger of the named numerical tolerances.

Every residual gate a report judges against reads its threshold from
here, so a report can always name the tolerance it was judged against.
DEFAULTS lists the gates a run configuration may override; every run
reads them through its config, and report.json echoes them.  Everything
else in this module is fixed.

The solver thresholds below cover Gram-Schmidt drops, the rank and band
decisions of the frame builders, Newton projection and the LP.  Every
relative rank decision takes the one rule of ``vecops.svd_rank``.
"""

DEFAULTS = {
    # geometry residual gates
    "frame_orthogonality": 1e-9,
    "eta_on_frame": 1e-9,
    # structure certification
    "round_curvature": 1e-7,
    "round_identity": 1e-8,
    "weighted_identity": 1e-5,
    "weighted_killing": 1e-5,
    "weighted_sasakian": 1e-4,
    "contact_nondegeneracy": 1e-6,
    # reduction / submersion checks
    "quotient_sasakian": 1e-5,
    "oneill_two_path": 1e-6,
    "cr_identities": 1e-6,
    "final_identity": 1e-5,
    "reduced_deta_det": 1e-6,
    "basic_d_eta": 1e-9,
    # cone suite
    "iota_transpose": 1e-12,
    "stratification": 1e-9,              # absolute residual for ray classification
    # flows
    "reeb_flow_sup": 1e-6,
}

# Ledger gates of residuals that are exact by construction or checked
# against an oracle; cli.py judges them at these fixed values.
H_TILDE_ON_TORIC = 1e-8
RESTRICTION = 0.0
PAIRING_ORACLE = 1e-10
ZERO_STRATUM_ANTISYMMETRY = 1e-10

# Thresholds internal to the solvers and frame builders rather than gates
# a run is judged against.
GRAM_SCHMIDT_DROP = 1e-10     # residual norm below which a vector is discarded
RANK_SINGULAR_VALUE = 1e-8    # relative SVD threshold for rank decisions
VERTICAL_ROW_RANK = 1e-10     # reduction._independent_rows: matrix_rank tolerance
SPAN_RANK = 1e-8              # reduction._frame_checks: span defect matrix_rank tolerance
CR_BAND = 1e-6                # cr.cr_decomposition: ambiguous in (CR_BAND, 1 - CR_BAND)
VERTICAL_FIELD_NORM = 1e-10   # cone.zero_stratum_degeneracy drops shorter fields
REPROJECTION = 1e-9           # flows.reeb_flow: largest constraint residual after a step
METRIC_CONDITION = 1e12       # cond(Gram) beyond which SingularMetric is raised
ON_SPHERE = 1e-12
LEVEL_SET_RESIDUAL = 1e-10
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_MIN_S = 1e-10
REFINE_TOL = 1e-13            # EmbeddedManifold.newton_refine
REFINE_MAX_ITER = 20
WEIGHTED_POSITIVITY = 1e-10   # DegenerateContact gate on probe eigenvalues

# Thresholds of the dense simplex behind reduction.analyze_moduli.
LP_PIVOT = 1e-9        # smallest |entry| of an entering column taken as a pivot,
                       # and smallest |reduced cost| that lets a variable enter
LP_FEASIBILITY = 1e-9  # phase-1 infeasibility above which the system is empty;
                       # below the 1e-8 floor on the ray parameter s
LP_SUPPORT = 1e-9      # support-LP value above which t_j is not identically 0
MODULI_RANK = 1e-11     # analyze_moduli: rank rule of its equality and kept rows
MODULI_ROW_NORM = 1e-12  # analyze_moduli drops a shorter constraint row
