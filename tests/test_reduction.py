import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import hit_and_run_loop, lane, moduli_lp_oracle, reduced_d_eta_per_pair
from sasaklab import reduction, tolerances, vecops
from sasaklab.actions import MomentumCovector, TorusAction, kernel_algebra, local_freeness
from sasaklab.errors import EmptyLevelSet, NoConvergence, WrongRay
from sasaklab.geometry import Geometry
from sasaklab.jets import value
from sasaklab.reduction import (
    _S_FLOOR,
    _draws,
    _polytope,
    _simplex,
    _walk,
    ReductionSetup,
    analyze_moduli,
    build_frame,
    newton_project,
    printed_remark_dimension,
    quotient_dimension,
    reduced_tensors,
    sample_level_set,
    sample_zero_level,
    transversality_check,
)
from sasaklab.structures import RoundSphereStructure, WeightedSphereStructure
from sasaklab.jets import along
from sasaklab.vecops import LanesDisagree, agreeing_parts, solve_linear, split_frame, stack_lanes

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
FLIPPED = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])
SPLIT = TorusAction.of([[1, 0, 0, 0], [0, 1, 1, 1]])
S7 = RoundSphereStructure(4)


def moduli(point):
    c = np.asarray(point)
    return c[0::2] ** 2 + c[1::2] ** 2


class TestSampling:
    def test_pairs_diagonal_ray_moduli(self):
        coords, s = sample_level_set(PAIRS, [1.0, 1.0], 25, seed=5)
        for c, s_c in zip(coords, s):
            t = moduli(c)
            assert abs(t[0] + t[1] - 0.5) < 1e-10
            assert abs(t[2] + t[3] - 0.5) < 1e-10
            assert s_c == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_split_action_circle_level_set(self):
        # ray through (1, 0): every sample sits on the circle |z_0| = 1
        for c in sample_level_set(SPLIT, [1.0, 0.0], 10, seed=2)[0]:
            t = moduli(c)
            assert t[0] == pytest.approx(1.0, abs=1e-12)
            assert np.max(t[1:]) < 1e-12

    def test_flipped_action_open_hemisphere(self):
        for c in sample_level_set(FLIPPED, [1.0, 0.0], 20, seed=8)[0]:
            t = moduli(c)
            assert t[2] < 1e-12 and t[3] < 1e-12
            assert t[1] > t[0]

    def test_deterministic_bitwise(self):
        a = sample_level_set(PAIRS, [1.0, 1.0], 8, seed=3)
        b = sample_level_set(PAIRS, [1.0, 1.0], 8, seed=3)
        assert [x.tobytes() for x in a] == [y.tobytes() for y in b]

    def test_infeasible_ray_raises_with_certificate(self):
        with pytest.raises(EmptyLevelSet) as exc:
            sample_level_set(PAIRS, [1.0, -1.0], 4, seed=0)
        cert = exc.value.certificate
        # the stated system over (t, ray surplus): sum, kernel row, ray row
        assert cert["A"].shape == (3, 5)
        assert list(cert["b"]) == [1.0, 0.0, _S_FLOOR]
        assert_farkas(cert)

    def test_ray_touched_only_at_zero_is_empty(self):
        # J_mu = t_0 - t_1 = -t_2 <= 0 on the kernel constraint: the best
        # point has s = 0, below the floor, so there is no level set
        with pytest.raises(EmptyLevelSet) as exc:
            sample_level_set(TorusAction.of([[1, -1, 0], [1, -1, 1]]), [1.0, 0.0], 2, seed=0)
        assert_farkas(exc.value.certificate)

    def test_setup_samples_reuse_its_polytope(self, monkeypatch):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        monkeypatch.setattr(reduction, "analyze_moduli",
                            lambda *a: pytest.fail("moduli polytope solved again"))
        got = setup.samples(4, seed=3)
        monkeypatch.undo()
        ref = sample_level_set(PAIRS, [1.0, 1.0], 4, seed=3)
        assert [x.tobytes() for x in got] == [y.tobytes() for y in ref]

    def test_zero_level_sampler(self):
        pts = sample_zero_level(FLIPPED, [[1.0, 0.0]], 10, seed=4)
        for p in pts:
            t = moduli(p)
            assert abs(t[1] - t[0]) < 1e-12


def assert_farkas(cert):
    """y proves {A x = b, x >= 0} empty: A^T y >= 0 and b . y < 0."""
    A, b, y = cert["A"], cert["b"], cert["y"]
    assert np.all(A.T @ y >= -1e-9 * max(1.0, np.max(np.abs(y))))
    assert b @ y == pytest.approx(-1.0)


small_rows = st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=2),
    st.one_of(st.none(), st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
))


@given(data=small_rows)
@settings(max_examples=80, deadline=None)
def test_moduli_lps_agree_with_vertex_oracle(data):
    n, rows, ray = data
    feasible, support, delta = moduli_lp_oracle(n, rows, ray, _S_FLOOR)
    try:
        poly = analyze_moduli(n, rows, ray)
    except EmptyLevelSet as exc:
        assert not feasible
        assert_farkas(exc.certificate)
        return
    assert feasible
    assert poly.support == support
    t = poly.interior
    margins = [*t[support], *([] if ray is None else [np.dot(ray, t)])]
    assert min(margins) == pytest.approx(delta, abs=1e-9)
    assert sum(t) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(np.asarray(rows, dtype=float).reshape(-1, n) @ t) < 1e-12)



def test_simplex_raises_on_unbounded_program():
    # min -x0 over {x0 = x1 >= 0}: nothing stops x1, so x0 grows without end
    with pytest.raises(NoConvergence, match="unbounded"):
        _simplex(np.array([[1.0, -1.0]]), np.zeros(1), np.array([-1.0, 0.0]))


def test_simplex_stops_at_a_finite_upper_bound():
    x, farkas = _simplex(np.array([[1.0, -1.0]]), np.zeros(1), np.array([-1.0, 0.0]),
                         upper=np.array([1.0, np.inf]))
    assert farkas is None
    assert x.tolist() == [1.0, 1.0]

@pytest.mark.parametrize("action, mu", [
    (PAIRS, [1.0, 1.0]), (FLIPPED, [1.0, 0.0]), (SPLIT, [0.0, 1.0]), (PAIRS, None),
])
def test_hit_and_run_matches_loop_reference_bitwise(action, mu):
    setup = (ReductionSetup(S7, action, mu=mu) if mu else
             ReductionSetup(S7, action, zero_rows=[[1.0, -1.0]]))
    poly = setup.polytope
    for seed in range(5):
        z, beta, _ = _draws(poly, seed, 0, 4)
        got = _walk(poly, z, beta)
        for i in range(4):
            ref = hit_and_run_loop(poly, z[i], beta[i], _S_FLOOR)
            assert got[i].tobytes() == ref.tobytes()


small_actions = st.integers(2, 5).flatmap(lambda n: st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=d, max_size=d),
    st.one_of(st.none(), st.lists(st.integers(-2, 2), min_size=d, max_size=d)),
    st.integers(0, 2**16),
)))


@given(data=small_actions)
@settings(max_examples=60, deadline=None)
def test_walk_stays_in_the_moduli_polytope(data):
    # mu None: the zero level of the whole algebra; otherwise the ray of mu
    weights, mu, seed = data
    assume(mu is None or any(mu))
    action = TorusAction.of(weights)
    try:
        poly = (_polytope(action, np.eye(action.d)) if mu is None else
                _polytope(action, kernel_algebra(mu).matrix, MomentumCovector.of(mu)))
    except EmptyLevelSet:
        return
    tol = tolerances.LP_FEASIBILITY
    for x in _walk(poly, *_draws(poly, seed, 0, 6)[:2]):
        assert np.all(x >= -tol)
        assert abs(sum(x) - 1.0) <= tol
        assert np.all(np.abs(poly.kept_rows @ x) <= tol)
        if mu is not None:
            assert poly.ray_coeff[poly.support] @ x >= _S_FLOOR - tol


@pytest.mark.parametrize("sampler", [
    lambda count: [(c.tolist(), s) for c, s in zip(*sample_level_set(PAIRS, [1.0, 1.0], count, 17))],
    lambda count: sample_zero_level(FLIPPED, [[1.0, 0.0]], count, 17).tolist(),
], ids=["level-set", "zero-level"])
def test_samples_do_not_depend_on_count_or_chunk(monkeypatch, sampler):
    eight = sampler(8)
    assert sampler(3) == eight[:3]
    monkeypatch.setattr(vecops, "LANE_BATCH_WIDTH", 2)
    assert sampler(8) == eight
    assert sampler(3) == eight[:3]


class TestNewtonProject:
    def test_fixed_point(self):
        samp = sample_level_set(PAIRS, [1.0, 1.0], 1, seed=1)[0][0]
        out, _ = newton_project(PAIRS, [1.0, 1.0], samp)
        assert np.max(np.abs(out - samp)) < 1e-10

    def test_converges_to_diagonal_ray(self):
        q = 0.9 * np.eye(8)[0] + 0.45 * np.eye(8)[4]
        q /= np.linalg.norm(q)
        out, _ = newton_project(PAIRS, [1.0, 1.0], q)
        t = moduli(out)
        assert abs(t[0] + t[1] - 0.5) < 1e-10

    def test_pole_start_declared_outcomes_only(self):
        # from the pole the iteration either lands on the ray or reports
        # the wrong-ray/no-convergence outcome; never a silent s <= 0
        try:
            out, s = newton_project(PAIRS, [1.0, 1.0], list(np.eye(8)[0]))
            assert s > 1e-10
            t = moduli(out)
            assert abs(t[0] + t[1] - 0.5) < 1e-8
        except (WrongRay, NoConvergence):
            pass


class TestTransversality:
    def test_generic_diagonal_sample(self):
        samp = sample_level_set(PAIRS, [1.0, 1.0], 1, seed=7)[0][0]
        ok, svals = transversality_check(PAIRS, [1.0, 1.0], samp)
        assert ok and len(svals) == 2

    def test_collapsed_slice_reported(self):
        # on {z_2 = z_3 = 0} the second momentum row has zero gradient:
        # the appended-mu matrix drops rank and the check reports it
        samp = sample_level_set(PAIRS, [1.0, 0.0], 1, seed=7)[0][0]
        ok, svals = transversality_check(PAIRS, [1.0, 0.0], samp)
        assert not ok
        assert svals[-1] < 1e-10

    def test_rank_one_torus(self):
        A = TorusAction.of([[1, 1, 1, 1]])
        samp = sample_level_set(A, [1.0], 1, seed=7)[0][0]
        ok, _ = transversality_check(A, [1.0], samp)
        assert ok


class TestBuildFrame:
    def test_pairs_frame_dimensions(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=6)[0]
        frame = build_frame(setup, samp)
        assert frame.dims == {
            "level_set": 6, "vertical": 1, "contact_d": 4, "normal": 1, "quotient": 5,
        }

    def test_eta_vanishes_on_vertical_and_d(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=6)[0]
        frame = build_frame(setup, samp)
        assert frame.checks["eta_on_vertical_and_d"] < 1e-9
        assert frame.checks["eta_on_reeb"] < 1e-9

    def test_normal_block_orthogonal_to_level_set(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=9)[0]
        frame = build_frame(setup, samp)
        assert frame.checks["normal_vs_tangent"] < 1e-9
        assert frame.checks["block_orthogonality"] < 1e-9

    def test_trivial_kernel_action_gives_empty_vertical(self):
        setup = ReductionSetup(S7, SPLIT, mu=[0.0, 1.0])
        samp = setup.samples(1, seed=2)[0]
        frame = build_frame(setup, samp)
        assert frame.dims["vertical"] == 0
        assert frame.dims["level_set"] == 5
        assert frame.dims["quotient"] == 5


def _point(coords):
    c = np.asarray(coords, dtype=float)
    return c / np.linalg.norm(c)


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestLaneFrames:
    """Frames built on lanes hold, lane by lane, the bits of each
    sample's float frame, whichever samples share the batch."""

    def test_mixed_batch_splits_into_the_single_sample_frames(self):
        # zero reduction by the first two circles of T^4 on S^7: hand-built
        # points where their fields have rank 2, 1 (either row kept) or 0,
        # and one where the Reeb field lies in their span (contact size 4)
        setup = ReductionSetup(S7, TorusAction.of(np.eye(4)),
                               zero_rows=[[1, 0, 0, 0], [0, 1, 0, 0]])
        points = [_point(c) for c in (
            [0.3, 0.4, 0.5, 0.1, 0.2, 0.6, 0.7, 0.2],
            [0.0, 0.0, 0.5, 0.1, 0.2, 0.6, 0.7, 0.2],
            [0.3, 0.4, 0.0, 0.0, 0.2, 0.6, 0.7, 0.2],
            [0.0, 0.0, 0.0, 0.0, 0.2, 0.6, 0.7, 0.2],
            [0.3, 0.4, 0.5, 0.1, 0.0, 0.0, 0.0, 0.0],
            [0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.2, 0.1],
            [0.0, 0.0, -0.4, 0.3, 0.1, 0.2, 0.5, -0.6],
        )] + list(setup.samples(2, seed=8)[0])
        singles = [build_frame(setup, [s], strict=False) for s in points]
        assert len({(f.dims["vertical"], f.dims["contact_d"], f.vertical_rows.tobytes())
                    for f in singles}) == 5
        with pytest.raises(LanesDisagree):
            build_frame(setup, points, strict=False)

        parts = agreeing_parts(
            lambda idx: build_frame(setup, [points[i] for i in idx], strict=False),
            list(range(len(points))))
        assert sorted(i for idx, _ in parts for i in idx) == list(range(len(points)))
        assert max(len(idx) for idx, _ in parts) > 1
        for idx, frame in parts:
            w = len(idx)
            blocks = [split_frame(f.vectors, w) for f in (frame.vertical, frame.contact_d,
                                                        frame.normal)]
            tangent = split_frame(frame.tangent, w)
            reeb = split_frame([frame.reeb], w)
            for k, i in enumerate(idx):
                ref = singles[i]
                assert frame.dims == ref.dims
                assert frame.vertical_rows.tobytes() == ref.vertical_rows.tobytes()
                assert _same_bits(split_frame([frame.p], w)[k], ref.p)
                for got, want in zip(blocks, (ref.vertical, ref.contact_d, ref.normal)):
                    assert _same_bits(got[k], want.vectors)
                assert frame.vertical.inputs == ref.vertical.inputs
                assert frame.normal.inputs == ref.normal.inputs
                assert _same_bits(reeb[k], [ref.reeb])
                assert _same_bits(tangent[k], ref.tangent)
                for name, val in ref.checks.items():
                    assert _same_bits(lane(frame.checks[name], k), val), name

    def test_stacked_rank_tests_match_each_sample_bitwise(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samples = setup.samples(50, seed=17)[0]
        p = stack_lanes(samples)
        for man in (setup.manifold, S7.sphere):
            lanes = split_frame(man.tangent_basis(p), 50)
            for got, s in zip(lanes, samples):
                assert _same_bits(got, man.tangent_basis(s))
        ok, svals = transversality_check(PAIRS, [1.0, 1.0], p)
        rank, degenerate, fsvals = local_freeness(PAIRS, setup.kernel, p)
        for k, s in enumerate(samples):
            ref_ok, ref_svals = transversality_check(PAIRS, [1.0, 1.0], s)
            assert ok[k] == ref_ok and _same_bits(svals[k], ref_svals)
            ref = local_freeness(PAIRS, setup.kernel, s)
            assert (rank[k], degenerate[k]) == ref[:2] and _same_bits(fsvals[k], ref[2])
        report = setup.hypothesis_report(samples)
        for k in range(len(samples)):
            alone = setup.hypothesis_report(samples[k:k + 1])
            assert {name: v[k] for name, v in report.items()} == {
                name: v[0] for name, v in alone.items()}


class TestQuotientDimension:
    def test_pairs_diagonal(self):
        assert quotient_dimension(7, 2, 1) == 5

    def test_split_second_axis(self):
        assert quotient_dimension(7, 2, 1) == 5

    def test_generalized_pairs(self):
        for n in (4, 5, 8):
            assert quotient_dimension(2 * n - 1, 2, 1) == 2 * n - 3

    def test_printed_bookkeeping_value_differs(self):
        # the printed formula overcounts by one on the toric examples;
        # it is reported, not used
        assert printed_remark_dimension(4, 2, 0, 1) == 6
        assert quotient_dimension(7, 2, 1) == 5


class TestReducedTensors:
    def test_profile_and_nondegeneracy(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=4)[0]
        frame = build_frame(setup, samp)
        red = reduced_tensors(setup, frame)
        assert red.checks["reduced_eta_profile"] < 1e-9
        assert red.checks["reduced_gram_identity"] < 1e-9
        M = red.d_eta_matrix
        assert np.max(np.abs(M + M.T)) < 1e-10
        assert red.d_eta_det > 1e-6

    def test_basicness(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=4)[0]
        red = reduced_tensors(setup, build_frame(setup, samp))
        assert red.checks["basic_d_eta"] < 1e-9

    def test_sample_ray_classification(self):
        from sasaklab.actions import ray_membership

        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        for samp in setup.samples(10, seed=13)[0]:
            j = [value(c) for c in PAIRS.momentum(samp)]
            assert ray_membership(j, [1.0, 1.0]).kind == "on_positive_ray"


class TestProjectability:
    def test_reeb_commutes_with_vertical_fields_on_samples(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        geo = Geometry(setup.manifold, S7.metric)
        for p in setup.samples(5, seed=21)[0]:
            for row in setup.acting_rows:
                f = lambda q, r=tuple(row): PAIRS.fundamental_field(r, q)
                br = setup.manifold.project(p, geo.bracket(p, f, S7.reeb_field))
                assert np.max(np.abs(value(br))) < 1e-8

    def test_frame_dimension_relations(self):
        # k = d - 1 and dim D = dim M - 2d + 1 on a free sample
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=22)[0]
        frame = build_frame(setup, samp)
        d = PAIRS.d
        assert frame.dims["vertical"] == d - 1
        assert frame.dims["contact_d"] == 7 - 2 * d + 1


def _spd(r, n):
    B = r.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


class TestSolveLinear:
    """The unpivoted LDL^T solve of the symmetric positive-definite Gram
    systems in projections and the Koszul formula."""

    def test_matches_numpy_on_spd_systems(self):
        r = np.random.default_rng(5)
        for n in (1, 2, 3, 5, 8):
            for _ in range(5):
                A, b = _spd(r, n), r.standard_normal(n)
                got = solve_linear([list(row) for row in A], list(b))
                assert np.allclose(got, np.linalg.solve(A, b), rtol=1e-12, atol=1e-12)

    def test_jet_derivative_matches_closed_form(self):
        # x(s) = (A + s E)^-1 (b + s c)  =>  x'(0) = A^-1 (c - E x(0))
        r = np.random.default_rng(6)
        n = 4
        A, E = _spd(r, n), _spd(r, n)
        b, c = r.standard_normal(n), r.standard_normal(n)

        def solve_at(q):
            s = q[0]
            M = [[A[i, j] + s * E[i, j] for j in range(n)] for i in range(n)]
            return solve_linear(M, [b[i] + s * c[i] for i in range(n)])

        got = along(solve_at, [0.0], [1.0])
        x0 = np.linalg.solve(A, b)
        assert np.allclose(got, np.linalg.solve(A, c - E @ x0), rtol=1e-10, atol=1e-12)

    def test_lanes_match_each_system_bitwise(self):
        r = np.random.default_rng(7)
        systems = [(_spd(r, 3), r.standard_normal(3)) for _ in range(6)]
        A = [[np.array([M[i, j] for M, _ in systems]) for j in range(3)] for i in range(3)]
        b = [np.array([v[i] for _, v in systems]) for i in range(3)]
        lanes = solve_linear(A, b)
        for k, (M, v) in enumerate(systems):
            assert [x[k] for x in lanes] == solve_linear([list(row) for row in M], list(v))

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            solve_linear([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])


class TestLaneBatches:
    def test_batch_equals_batches_of_one_bitwise(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samples = setup.samples(6, seed=3)[0]
        lanes = reduced_tensors(setup, build_frame(setup, samples))
        assert lanes.d_eta_det.shape == (6,)
        bits = lambda x: np.ascontiguousarray(x, dtype=float).tobytes()
        for k, samp in enumerate(samples[:, None]):
            ref = reduced_tensors(setup, build_frame(setup, samp))
            assert bits(lanes.d_eta_matrix[k]) == bits(ref.d_eta_matrix)
            assert bits(lanes.reduced_eta[..., k]) == bits(ref.reduced_eta)
            assert bits(lanes.reduced_gram[..., k]) == bits(ref.reduced_gram)
            assert bits(lanes.d_eta_det[k]) == bits(ref.d_eta_det)
            assert {n: bits(lane(v, k)) for n, v in lanes.checks.items()} == {
                n: bits(v) for n, v in ref.checks.items()}

    @pytest.mark.parametrize("samples", [1, 3])
    def test_empty_contact_frame_keeps_its_lanes(self, samples):
        # n = 2 with a two-row action: every sample's contact frame is empty,
        # and the (0, 0) d(eta) grid still carries one matrix per sample
        setup = ReductionSetup(RoundSphereStructure(2), TorusAction.of([[1, 0], [0, 1]]),
                               mu=[1.0, 1.0])
        frame = build_frame(setup, setup.samples(samples, seed=2)[0], strict=False)
        red = reduced_tensors(setup, frame)
        assert len(frame.contact_d) == 0
        lanes = (samples,) if samples > 1 else ()
        assert red.d_eta_matrix.shape == lanes + (0, 0)
        assert np.shape(red.d_eta_det) == lanes and not np.any(red.d_eta_det)
        assert all(np.shape(v) == lanes for v in red.checks.values())

    @pytest.mark.parametrize("weighted", [False, True], ids=["round", "weighted"])
    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("pairs_per_pass", [None, 1, 2])
    def test_d_eta_pairs_match_per_pair_bitwise(self, monkeypatch, weighted, samples,
                                                pairs_per_pass):
        if weighted:
            setup = ReductionSetup(WeightedSphereStructure(3, [1.0, 2.0, 3.0]),
                                   TorusAction.of([[1, 1, 0], [0, 0, 1]]), mu=[1.0, 1.0])
        else:
            setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        frame = build_frame(setup, setup.samples(samples, seed=4)[0])
        if pairs_per_pass is not None:
            monkeypatch.setattr(vecops, "PASS_LANES", pairs_per_pass * samples)
        deta, worst_basic = reduced_d_eta_per_pair(setup, frame)
        assert deta and len(frame.vertical_rows)
        bits = lambda x: np.float64(x).tobytes()
        red = reduced_tensors(setup, frame)
        stack = red.d_eta_matrix.reshape((-1,) + red.d_eta_matrix.shape[-2:])
        for k in range(samples):
            for (i, j), val in deta.items():
                assert bits(stack[k, i, j]) == bits(lane(val, k))
            assert bits(lane(red.checks["basic_d_eta"], k)) == bits(lane(worst_basic, k))
