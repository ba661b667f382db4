import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hit_and_run_loop, moduli_lp_oracle
from sasaklab import reduction
from sasaklab.actions import TorusAction
from sasaklab.errors import EmptyLevelSet, NoConvergence, WrongRay
from sasaklab.jets import value
from sasaklab.reduction import (
    _S_FLOOR,
    _hit_and_run,
    _simplex,
    ReductionSetup,
    analyze_moduli,
    build_frame,
    newton_project,
    printed_remark_dimension,
    quotient_dimension,
    reduced_tensors,
    reduced_tensors_batch,
    sample_level_set,
    sample_zero_level,
    transversality_check,
)
from sasaklab.structures import RoundSphereStructure
from sasaklab.jets import along
from sasaklab.vecops import solve_linear, vvalue

PAIRS = TorusAction.of([[1, 1, 0, 0], [0, 0, 1, 1]])
FLIPPED = TorusAction.of([[-1, 1, 0, 0], [0, 0, 1, 1]])
SPLIT = TorusAction.of([[1, 0, 0, 0], [0, 1, 1, 1]])
S7 = RoundSphereStructure(4)


def moduli(point):
    c = np.asarray(point)
    return c[0::2] ** 2 + c[1::2] ** 2


class TestSampling:
    def test_pairs_diagonal_ray_moduli(self):
        samples = sample_level_set(PAIRS, [1.0, 1.0], 25, seed=5)
        for s in samples:
            t = moduli(s.coords())
            assert abs(t[0] + t[1] - 0.5) < 1e-10
            assert abs(t[2] + t[3] - 0.5) < 1e-10
            assert s.s == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_split_action_circle_level_set(self):
        # ray through (1, 0): every sample sits on the circle |z_0| = 1
        samples = sample_level_set(SPLIT, [1.0, 0.0], 10, seed=2)
        for s in samples:
            t = moduli(s.coords())
            assert t[0] == pytest.approx(1.0, abs=1e-12)
            assert np.max(t[1:]) < 1e-12

    def test_flipped_action_open_hemisphere(self):
        samples = sample_level_set(FLIPPED, [1.0, 0.0], 20, seed=8)
        for s in samples:
            t = moduli(s.coords())
            assert t[2] < 1e-12 and t[3] < 1e-12
            assert t[1] > t[0]

    def test_deterministic_bitwise(self):
        a = sample_level_set(PAIRS, [1.0, 1.0], 8, seed=3)
        b = sample_level_set(PAIRS, [1.0, 1.0], 8, seed=3)
        assert all(x.coords() == y.coords() and x.s == y.s for x, y in zip(a, b))

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
        assert [(x.coords(), x.s) for x in got] == [(y.coords(), y.s) for y in ref]

    def test_zero_level_sampler(self):
        pts = sample_zero_level(FLIPPED, [[1.0, 0.0]], 10, seed=4)
        for p in pts:
            t = moduli(p.as_list())
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
    for seed in range(5):
        got = _hit_and_run(setup.polytope, np.random.default_rng(seed))
        ref = hit_and_run_loop(setup.polytope, np.random.default_rng(seed), _S_FLOOR)
        assert got.tobytes() == ref.tobytes()


class TestNewtonProject:
    def test_fixed_point(self):
        samp = sample_level_set(PAIRS, [1.0, 1.0], 1, seed=1)[0]
        out = newton_project(PAIRS, [1.0, 1.0], samp.coords())
        assert np.max(np.abs(np.asarray(out.coords()) - samp.coords())) < 1e-10

    def test_converges_to_diagonal_ray(self):
        q = 0.9 * np.eye(8)[0] + 0.45 * np.eye(8)[4]
        q /= np.linalg.norm(q)
        out = newton_project(PAIRS, [1.0, 1.0], q)
        t = moduli(out.coords())
        assert abs(t[0] + t[1] - 0.5) < 1e-10

    def test_pole_start_declared_outcomes_only(self):
        # from the pole the iteration either lands on the ray or reports
        # the wrong-ray/no-convergence outcome; never a silent s <= 0
        try:
            out = newton_project(PAIRS, [1.0, 1.0], list(np.eye(8)[0]))
            assert out.s > 1e-10
            t = moduli(out.coords())
            assert abs(t[0] + t[1] - 0.5) < 1e-8
        except (WrongRay, NoConvergence):
            pass


class TestTransversality:
    def test_generic_diagonal_sample(self):
        samp = sample_level_set(PAIRS, [1.0, 1.0], 1, seed=7)[0]
        ok, svals = transversality_check(PAIRS, [1.0, 1.0], samp)
        assert ok and len(svals) == 2

    def test_collapsed_slice_reported(self):
        # on {z_2 = z_3 = 0} the second momentum row has zero gradient:
        # the appended-mu matrix drops rank and the check reports it
        samp = sample_level_set(PAIRS, [1.0, 0.0], 1, seed=7)[0]
        ok, svals = transversality_check(PAIRS, [1.0, 0.0], samp)
        assert not ok
        assert svals[-1] < 1e-10

    def test_rank_one_torus(self):
        A = TorusAction.of([[1, 1, 1, 1]])
        samp = sample_level_set(A, [1.0], 1, seed=7)[0]
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
        assert red.checks["d_eta_antisymmetry"] < 1e-10
        assert red.d_eta_det > 1e-6

    def test_basicness(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        samp = setup.samples(1, seed=4)[0]
        red = reduced_tensors(setup, build_frame(setup, samp))
        assert red.checks["basic_d_eta"] < 1e-9

    def test_sample_ray_classification(self):
        from sasaklab.actions import ray_membership

        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        for samp in setup.samples(10, seed=13):
            j = [value(c) for c in PAIRS.momentum(samp.coords())]
            assert ray_membership(j, [1.0, 1.0]).kind == "on_positive_ray"


class TestProjectability:
    def test_reeb_commutes_with_vertical_fields_on_samples(self):
        setup = ReductionSetup(S7, PAIRS, mu=[1.0, 1.0])
        for samp in setup.samples(5, seed=21):
            p = samp.coords()
            for row in setup.acting_rows:
                f = lambda q, r=tuple(row): PAIRS.fundamental_field(r, q)
                br = setup.manifold.project(p, setup.geometry.bracket(p, f, S7.reeb_field))
                assert np.max(np.abs(vvalue(br))) < 1e-8

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
        frames = [build_frame(setup, s) for s in setup.samples(6, seed=3)]
        for frame, got in zip(frames, reduced_tensors_batch(setup, frames)):
            ref = reduced_tensors(setup, frame)
            assert np.array_equal(got.d_eta_matrix, ref.d_eta_matrix)
            assert np.array_equal(got.reduced_eta, ref.reduced_eta)
            assert np.array_equal(got.reduced_gram, ref.reduced_gram)
            assert got.d_eta_det == ref.d_eta_det
            assert got.checks == ref.checks
