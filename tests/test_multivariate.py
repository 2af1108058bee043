"""Line projections, direction scans, half-space profiles, and R^d convolution."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from blc_lab import (
    DomainError,
    SpecError,
    Status,
    SymmetricMixtureNd,
    certify_blc,
    convolve,
    convolve_nd,
    direction_set,
    halfspace_profile_1d,
    halfspace_profile_nd,
    project_to_line,
    weak_blc_check_nd,
    weak_star_check,
)
from blc_lab.core import _block_rows

SQ2PI = math.sqrt(2 * math.pi)
PS = np.linspace(0.02, 0.98, 49)


def norm_pdf(x, mu=0.0, sd=1.0):
    z = (np.asarray(x, float) - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * SQ2PI)


def std_gaussian_nd(d):
    return SymmetricMixtureNd(d, np.array([1.0]), np.zeros((1, d)),
                              np.eye(d)[None, :, :])


def axis_mixture_2d(a, sd=1.0):
    return SymmetricMixtureNd(
        2, np.array([0.5, 0.5]), np.array([[-a, 0.0], [a, 0.0]]),
        np.array([np.eye(2) * sd**2, np.eye(2) * sd**2]))


@st.composite
def _mixtures(draw, dimension=2, k_min=1, k_max=3):
    """A Gaussian mixture on R^dimension of k_min to k_max components, mirrored or not."""
    k = draw(st.integers(k_min, k_max))
    raw = [draw(st.floats(0.2, 1.0)) for _ in range(k)]
    w = [r / sum(raw) for r in raw[:-1]]
    means = [[draw(st.floats(-3.0, 3.0)) for _ in range(dimension)] for _ in range(k)]
    covs = []
    for _ in range(k):
        chol = np.diag([draw(st.floats(0.5, 2.0)) for _ in range(dimension)])
        for i, j in zip(*np.tril_indices(dimension, -1)):
            chol[i, j] = draw(st.floats(-1.0, 1.0))
        covs.append(chol @ chol.T)
    return SymmetricMixtureNd(dimension, np.array(w + [1.0 - sum(w)]), np.array(means),
                              np.array(covs))


def closed_form_profile(m, ps, n_directions):
    """min over direction_set of f_u(F_u^{-1}(p)) and f_u(F_u^{-1}(1-p)), by brentq."""
    values = np.full(len(ps), np.inf)
    for u in direction_set(m.dimension, n_directions):
        mu, sd = m.means @ u, np.sqrt(np.einsum("i,kij,j->k", u, m.covariances, u))
        lo, hi = float(np.min(mu - 12.0 * sd)), float(np.max(mu + 12.0 * sd))
        roots = [[brentq(lambda x: np.sum(m.weights * ndtr((x - mu) / sd)) - q, lo, hi,
                         xtol=1e-15) for q in (p, 1.0 - p)] for p in ps]
        f = np.sum(m.weights * norm_pdf(np.array(roots)[..., None], mu, sd), axis=-1)
        values = np.minimum(values, f.min(axis=1))
    return values


@pytest.fixture(scope="module")
def gauss2d():
    return std_gaussian_nd(2)


@pytest.fixture(scope="module")
def gauss3d():
    return std_gaussian_nd(3)


@pytest.fixture(scope="module")
def mix2d_134():
    return axis_mixture_2d(1.34)


@pytest.fixture(scope="module")
def mix2d_30():
    return axis_mixture_2d(3.0)


@pytest.fixture(scope="module")
def mix2d_8():
    # eight components, four mirror pairs: sums over components are no
    # longer shorter than numpy's pairwise-summation block
    angles = np.array([0.3, 1.1, 1.9, 2.6])
    half = 0.8 * np.column_stack([np.cos(angles), np.sin(angles)])
    covs = [np.array([[1.0 + 0.2 * i, 0.1 * i], [0.1 * i, 0.7 + 0.1 * i]]) for i in range(4)]
    return SymmetricMixtureNd(2, np.repeat([0.1, 0.15, 0.05, 0.2], 2),
                              np.stack([half, -half], axis=1).reshape(8, 2),
                              np.repeat(covs, 2, axis=0))


class TestConstruction:
    @pytest.mark.parametrize("mean", [[1.0, 2.0], [1.0, -2.0, 0.5]], ids=["R2", "R3"])
    def test_off_centre_gaussian_scans_as_centred(self, mean):
        d = len(mean)
        shifted = SymmetricMixtureNd(d, np.array([1.0]), np.array([mean]),
                                     np.eye(d)[None, :, :])
        scan = weak_star_check(shifted, 64)
        assert scan.verdict is Status.CERTIFIED
        centred = weak_star_check(std_gaussian_nd(d), 64)
        assert np.abs(scan.slacks() - centred.slacks()).max() <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(m=_mixtures(k_min=2), v=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
    def test_translation_keeps_scan_slacks(self, m, v):
        # parallel lines only translate the projected law, and its median
        # anchor moves with it
        moved = SymmetricMixtureNd(2, m.weights, m.means + np.array(v), m.covariances)
        a = weak_star_check(m, 16, n_grid=512).slacks()
        b = weak_star_check(moved, 16, n_grid=512).slacks()
        assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(a)))

    def test_eigenvalue_floor_enforced(self):
        near_singular = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        with pytest.raises(SpecError, match="eigenvalue floor"):
            SymmetricMixtureNd(2, np.array([1.0]), np.zeros((1, 2)),
                               near_singular[None, :, :])

    def test_weights_must_be_simplex(self):
        with pytest.raises(SpecError, match="probability vector"):
            SymmetricMixtureNd(2, np.array([0.7, 0.7]),
                               np.array([[-1.0, 0.0], [1.0, 0.0]]),
                               np.array([np.eye(2), np.eye(2)]))

    def test_json_roundtrip(self, mix2d_134):
        doc = mix2d_134.to_json()
        loaded = SymmetricMixtureNd.from_json(__import__("json").loads(doc))
        assert loaded.dimension == 2
        assert np.allclose(loaded.means, mix2d_134.means)

    def test_json_missing_field(self):
        with pytest.raises(SpecError, match="invalid spec"):
            SymmetricMixtureNd.from_json({"dimension": 2})

    @pytest.mark.parametrize("key,value,message", [
        ("weight", "1.0", "weights must be numbers"),
        ("weight", True, "weights must be numbers"),
        ("mean", ["0", 0], "means must be numbers"),
        ("mean", [True, 0.0], "means must be numbers"),
        ("cov", [[1, 0], [0, None]], "covariances must be numbers"),
        ("cov", [[1, 0], [0, True]], "covariances must be numbers"),
        ("dimension", 2.5, "dimension must be an integer"),
        ("dimension", "2", "dimension must be numbers"),
        ("dimension", True, "dimension must be numbers"),
    ], ids=["text-weight", "bool-weight", "text-mean", "bool-in-mean", "null-cov",
            "bool-in-cov", "fractional-dimension", "text-dimension", "bool-dimension"])
    def test_json_entries_must_be_numbers(self, key, value, message):
        # JSON numbers only, as in one-dimensional specs: nothing is converted,
        # not even a boolean inside a list of numbers, which numpy would take
        # for 1.0; the second component makes the weights sum to 1
        comp = {"weight": 0.5, "mean": [1, 0], "cov": [[1, 0], [0, 1]]}
        other = {"weight": 0.5, "mean": [-1.0, 0.0], "cov": [[1, 0], [0, 1]]}
        doc = {"dimension": 2, "components": [comp, other]}
        (doc if key == "dimension" else comp)[key] = value
        with pytest.raises(SpecError, match=message):
            SymmetricMixtureNd.from_json(doc)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_one_mean_row_per_weight(self, rows):
        with pytest.raises(SpecError, match="one row per weight"):
            SymmetricMixtureNd(2, np.array([0.5, 0.5]), np.zeros((rows, 2)),
                               np.array([np.eye(2), np.eye(2)]))

    @pytest.mark.parametrize("weights,means,cov", [
        ([0.5, 0.5], [[math.inf, 0.0], [-math.inf, 0.0]], np.eye(2)),
        ([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [[1.0, math.nan], [math.nan, 1.0]]),
        ([math.nan, math.nan], [[1.0, 0.0], [-1.0, 0.0]], np.eye(2)),
    ], ids=["means", "covariances", "weights"])
    def test_non_finite_values_rejected(self, weights, means, cov):
        with pytest.raises(SpecError, match="must be finite"):
            SymmetricMixtureNd(2, np.array(weights), np.array(means), np.array([cov, cov]))

    def test_json_ragged_means_rejected(self):
        comps = [{"weight": 0.5, "mean": mean, "cov": [[1.0, 0.0], [0.0, 1.0]]}
                 for mean in ([], [0.0, 0.0])]
        with pytest.raises(SpecError, match="invalid spec"):
            SymmetricMixtureNd.from_json({"dimension": 2, "components": comps})


class TestProjection:
    def test_rotation_invariance_of_gaussian(self, gauss2d):
        for u in ([1, 0], [0.6, 0.8], [-0.7071067811865476, 0.7071067811865476]):
            g = project_to_line(gauss2d, u)
            assert np.abs(g.pdf(g.xs) - norm_pdf(g.xs)).max() <= 1e-9

    def test_orthogonal_direction_collapses_means(self, mix2d_134):
        g = project_to_line(mix2d_134, [0, 1])
        assert np.abs(g.pdf(g.xs) - norm_pdf(g.xs)).max() <= 1e-9

    def test_axis_direction_recovers_flagship(self, mix2d_134):
        g = project_to_line(mix2d_134, [1, 0])
        target = 0.5 * norm_pdf(g.xs, -1.34) + 0.5 * norm_pdf(g.xs, 1.34)
        assert np.abs(g.pdf(g.xs) - target).max() <= 1e-9
        assert certify_blc(g).status is Status.CERTIFIED

    def test_projection_is_symmetric(self, mix2d_134):
        g = project_to_line(mix2d_134, [0.3, -0.9539392014169456], n_grid=2049)
        assert np.abs(np.asarray(g.pdf(g.xs)) - np.asarray(g.pdf(-g.xs))).max() <= 1e-12

    def test_zero_vector_rejected(self, gauss2d):
        with pytest.raises(SpecError, match="nonzero"):
            project_to_line(gauss2d, [0.0, 0.0])


class TestDirectionSets:
    def test_unit_norm(self):
        for d, n in ((2, 16), (3, 64), (5, 32)):
            dirs = direction_set(d, n)
            assert dirs.shape == (n, d)
            assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-12

    def test_planar_set_contains_axes_and_nests(self):
        d32 = direction_set(2, 32)
        assert np.allclose(d32[0], [1.0, 0.0])
        assert any(np.allclose(u, [0.0, 1.0], atol=1e-12) for u in d32)
        d64 = direction_set(2, 64)
        for u in d32:
            assert min(np.linalg.norm(d64 - u, axis=1)) <= 1e-12


class TestWeakStarScan:
    def test_standard_gaussians_certify(self):
        for d in (2, 3):
            scan = weak_star_check(std_gaussian_nd(d), 64)
            assert scan.verdict is Status.CERTIFIED
            assert all(c.status is Status.CERTIFIED for c in scan.certificates)

    def test_flagship_mixture_certifies(self, mix2d_134):
        scan = weak_star_check(mix2d_134, 64)
        assert scan.verdict is Status.CERTIFIED

    def test_wide_mixture_fails_along_axis(self, mix2d_30):
        scan = weak_star_check(mix2d_30, 64)
        assert scan.verdict is Status.VIOLATED
        angle = math.degrees(math.acos(min(1.0, abs(scan.worst_direction[0]))))
        assert angle <= 5.0

    def test_minimum_direction_count(self, gauss2d):
        with pytest.raises(ValueError, match="at least"):
            weak_star_check(gauss2d, 3)

    @pytest.mark.parametrize("name", ["gauss2d", "mix2d_134", "mix2d_30", "mix2d_8", "gauss3d"])
    def test_scan_is_per_direction_certification(self, name, request):
        m = request.getfixturevalue(name)
        scan = weak_star_check(m, 16)
        assert np.array_equal(scan.directions, direction_set(m.dimension, 16))
        for u, cert in zip(scan.directions, scan.certificates):
            ref = certify_blc(project_to_line(m, u))
            assert (cert.slack, cert.status, cert.witness_x) == \
                (ref.slack, ref.status, ref.witness_x)
        assert np.array_equal(scan.worst_direction,
                              scan.directions[np.argmin(scan.slacks())])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dimension=st.integers(2, 4),
           n_grid=st.sampled_from([64, 100, 512, 1000, 2048]))
    def test_blocked_scan_equals_per_line_certification(self, data, dimension, n_grid):
        # the lines run in blocks of _block_rows(n_grid) rows (128, 64, 16, 8
        # and 4 here); the direction count leaves a partial last block
        m = data.draw(_mixtures(dimension=dimension, k_max=4))
        rows = _block_rows(n_grid)
        n_dir = data.draw(st.integers(2 * dimension, 40).filter(lambda n: n % rows))
        scan = weak_star_check(m, n_dir, n_grid=n_grid)
        assert len(scan.certificates) == len(scan.directions) == n_dir
        for u, cert in zip(scan.directions, scan.certificates):
            # the JSON form writes floats exactly, NaN and -0.0 included
            assert cert.to_json() == certify_blc(project_to_line(m, u, n_grid)).to_json()

    @pytest.mark.parametrize("n_grid", [0, 63])
    def test_minimum_grid_size(self, mix2d_134, n_grid):
        with pytest.raises(SpecError, match="n_points must be >= 64"):
            weak_star_check(mix2d_134, 16, n_grid=n_grid)
        with pytest.raises(SpecError, match="n_points must be >= 64"):
            project_to_line(mix2d_134, [1.0, 0.0], n_grid=n_grid)

    def test_scan_stays_small_in_memory(self):
        # 64 lines of 2048 nodes in blocks of 4 rows: no array holds every
        # line at once (one (64, 2048) array alone takes 1 MiB)
        m = SymmetricMixtureNd(3, np.full(4, 0.25),
                               np.array([[1.5, 0, 0], [-1.5, 0, 0], [0, 1, 0.5], [0, -1, -0.5]]),
                               np.array([np.eye(3)] * 4))
        weak_star_check(m, 8, n_grid=256)  # warm caches outside the traced call
        tracemalloc.start()
        try:
            weak_star_check(m, 64, n_grid=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("n", [8, 64])
    def test_planar_resolution(self, gauss2d, n):
        scan = weak_star_check(gauss2d, n)
        assert abs(scan.resolution - math.pi / (2 * n)) <= 1e-12

    def test_resolution_of_single_line_and_sphere(self):
        assert weak_star_check(std_gaussian_nd(1), 2).resolution == 0.0
        assert 0.0 < weak_star_check(std_gaussian_nd(3), 64).resolution < math.pi / 8

    def test_csv_export(self, tmp_path, gauss2d):
        scan = weak_star_check(gauss2d, 8)
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "u_1,u_2,slack,status"


class TestHalfspaceProfileNd:
    @pytest.mark.parametrize("name", ["gauss2d", "mix2d_134", "mix2d_30", "mix2d_8", "gauss3d"])
    def test_equals_closed_form_infimum(self, name, request):
        m = request.getfixturevalue(name)
        target = closed_form_profile(m, PS, 16)
        prof = halfspace_profile_nd(m, PS, 16).values
        assert np.all(np.abs(prof - target) <= 1e-12 * target)

    @pytest.mark.parametrize("name", ["gauss2d", "mix2d_134", "mix2d_30", "mix2d_8", "gauss3d"])
    def test_agrees_with_projected_grid_profiles(self, name, request):
        # the line grids' interpolated profiles miss the closed form by their
        # discretization error only
        m = request.getfixturevalue(name)
        per_direction = [halfspace_profile_1d(project_to_line(m, u), PS).values
                         for u in direction_set(m.dimension, 16)]
        grid = np.min(per_direction, axis=0)
        prof = halfspace_profile_nd(m, PS, 16).values
        assert np.all(np.abs(prof - grid) <= 2e-5 * grid)

    def test_gaussian_profile_closed_form(self, gauss2d):
        prof = halfspace_profile_nd(gauss2d, PS, 16)
        target = norm_pdf(ndtri(PS))
        assert np.abs(prof.values - target).max() <= 1e-12
        assert prof.kind == "halfspace_nd"

    def test_flagship_mixture_center_value(self, mix2d_134):
        # the directional infimum at p = 1/2 is attained along the mean axis
        prof = halfspace_profile_nd(mix2d_134, np.array([0.5]), 64)
        assert prof.values[0] == pytest.approx(norm_pdf(1.34), abs=1e-12)

    def test_symmetry_in_p(self, mix2d_134):
        prof = halfspace_profile_nd(mix2d_134, PS, 32)
        assert np.abs(prof.values - prof.values[::-1]).max() <= 1e-9

    def test_refinement_monotonicity(self, mix2d_134):
        # planar direction grids nest under doubling and each line's roots do
        # not depend on the rest of the stack, so across the 256-line blocks
        # the infimum can only move down
        p16 = halfspace_profile_nd(mix2d_134, PS, 16).values
        p32 = halfspace_profile_nd(mix2d_134, PS, 32).values
        p64 = halfspace_profile_nd(mix2d_134, PS, 64).values
        assert np.all(p32 <= p16) and np.all(p64 <= p32)
        p256 = halfspace_profile_nd(mix2d_134, PS, 256).values
        p512 = halfspace_profile_nd(mix2d_134, PS, 512).values
        p1024 = halfspace_profile_nd(mix2d_134, PS, 1024).values
        assert np.all(p512 <= p256) and np.all(p1024 <= p512)

    @pytest.mark.parametrize("ps", [[0.0, 0.5], [0.5, 1.0], [0.2, np.nan], [-0.1, 0.5]])
    def test_p_outside_unit_interval_is_a_domain_error(self, mix2d_134, ps):
        with pytest.raises(DomainError, match="quantile domain"):
            halfspace_profile_nd(mix2d_134, ps, 16)
        with pytest.raises(DomainError, match="quantile domain"):
            weak_blc_check_nd(mix2d_134, ps, 16)

    @settings(max_examples=30, deadline=None)
    @given(m=st.one_of(_mixtures(), _mixtures(dimension=3)),
           v=st.tuples(*[st.floats(-5.0, 5.0)] * 3))
    def test_closed_form_and_translation_on_random_mixtures(self, m, v):
        # parallel lines only translate the projected law
        prof = halfspace_profile_nd(m, PS, 8).values
        target = closed_form_profile(m, PS, 8)
        assert np.all(np.abs(prof - target) <= 1e-10 * target)
        moved = SymmetricMixtureNd(m.dimension, m.weights, m.means + np.array(v[:m.dimension]),
                                   m.covariances)
        shifted = halfspace_profile_nd(moved, PS, 8).values
        assert np.all(np.abs(shifted - prof) <= 1e-12 * prof)


class TestWeakBlcNd:
    def test_gaussians_pass(self):
        for d in (2, 3):
            cert = weak_blc_check_nd(std_gaussian_nd(d), PS, 64)
            assert cert.status is Status.CERTIFIED

    def test_flagship_passes(self, mix2d_134):
        cert = weak_blc_check_nd(mix2d_134, PS, 64)
        assert cert.status is Status.CERTIFIED

    def test_wide_mixture_fails_with_witness(self, mix2d_30):
        cert = weak_blc_check_nd(mix2d_30, PS, 64)
        assert cert.status is Status.VIOLATED
        assert 0.0 < cert.witness_x < 1.0

    def test_measure_with_cycling_quantile_steps(self):
        # on one of its lines the mixture quantile solver's Newton steps
        # cycle; they end in bisection, and the profile is the closed form's
        m = SymmetricMixtureNd(
            2, [0.2, 0.3, 0.11, 0.39],
            [[-2.376, 0.0468], [-1.920, -1.816], [1.374, -1.025], [-0.107, 0.944]],
            [[[0.329, 0.113], [0.113, 0.296]], [[1.301, -0.693], [-0.693, 0.488]],
             [[0.316, 0.707], [0.707, 1.932]], [[0.158, 0.241], [0.241, 0.664]]])
        ps = np.linspace(0.02, 0.5, 25)
        cert = weak_blc_check_nd(m, ps, 64)
        assert cert.status is Status.VIOLATED
        assert cert.slack == pytest.approx(-0.315, abs=1e-3)
        target = closed_form_profile(m, ps, 64)
        assert np.all(np.abs(halfspace_profile_nd(m, ps, 64).values - target) <= 1e-12 * target)

    def test_weak_star_implies_weak(self, gauss2d, mix2d_134):
        # every certified scan must also pass the ratio check on the same
        # direction budget
        for m in (gauss2d, mix2d_134, std_gaussian_nd(3)):
            if weak_star_check(m, 32).verdict is Status.CERTIFIED:
                assert weak_blc_check_nd(m, PS, 32).status is Status.CERTIFIED

    @settings(max_examples=40, deadline=None)
    @given(m=_mixtures())
    def test_weak_star_implies_weak_on_random_mixtures(self, m):
        # an infimum of nonincreasing ratios I(p)/p is nonincreasing; the two
        # checks discretize differently, so only scans that clear 1e-3 count
        scan = weak_star_check(m, 32, n_grid=512)
        assume(scan.slacks().min() >= 1e-3)
        cert = weak_blc_check_nd(m, np.linspace(0.02, 0.5, 25), 32, n_grid=512)
        assert cert.status is Status.CERTIFIED, cert.slack


class TestConvolveNd:
    def test_gaussian_closure(self, gauss2d):
        m = convolve_nd(gauss2d, gauss2d)
        assert m.n_components == 1
        assert np.allclose(m.covariances[0], 2 * np.eye(2))

    def test_near_delta_is_identity(self, mix2d_134):
        tight = SymmetricMixtureNd(2, np.array([1.0]), np.zeros((1, 2)),
                                   (1e-6 * np.eye(2))[None, :, :])
        m = convolve_nd(mix2d_134, tight)
        u = np.array([0.6, 0.8])
        a = project_to_line(m, u)
        b = project_to_line(mix2d_134, u)
        xs = np.linspace(-5, 5, 501)
        assert np.abs(a.pdf(xs) - b.pdf(xs)).max() <= 1e-4

    def test_smoothed_flagship_certifies(self, mix2d_134, gauss2d):
        m = convolve_nd(mix2d_134, gauss2d)
        assert np.allclose(m.covariances[0], 2 * np.eye(2))
        scan = weak_star_check(m, 64)
        assert scan.verdict is Status.CERTIFIED

    def test_dimension_mismatch(self, gauss2d):
        with pytest.raises(SpecError, match="dimension"):
            convolve_nd(gauss2d, std_gaussian_nd(3))

    def test_projection_convolution_commutation(self, mix2d_134, gauss2d):
        m = convolve_nd(mix2d_134, gauss2d)
        rng = np.random.default_rng(7)
        xs = np.linspace(-6, 6, 601)
        for _ in range(16):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            lhs = project_to_line(m, u)
            rhs = convolve(project_to_line(mix2d_134, u),
                           project_to_line(gauss2d, u))
            assert np.abs(lhs.pdf(xs) - rhs.pdf(xs)).max() <= 1e-5


class TestAffineStability:
    def test_status_invariant_under_matched_directions(self, mix2d_134, mix2d_30):
        A = np.array([[2.0, 1.0], [0.0, 1.0]])
        for m in (mix2d_134, mix2d_30):
            mapped = SymmetricMixtureNd(
                2, m.weights, m.means @ A.T,
                np.einsum("ij,kjl,ml->kim", A, m.covariances, A))
            dirs = direction_set(2, 32)
            base_statuses = [
                certify_blc(project_to_line(m, u)).status for u in dirs]
            back = dirs @ np.linalg.inv(A)  # v = A^{-T} u, so A^T v = u
            mapped_statuses = [
                certify_blc(project_to_line(mapped, v)).status for v in back]
            # (A Y) . v = Y . (A^T v): statuses transfer direction by direction
            assert [s.value for s in base_statuses] == \
                [s.value for s in mapped_statuses]
