"""Line projections, direction scans, half-space profiles, and R^d convolution."""
import math

import numpy as np
import pytest

from blc_lab import (
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


class TestConstruction:
    def test_mirror_closure_enforced(self):
        with pytest.raises(SpecError, match="closed under"):
            SymmetricMixtureNd(
                2, np.array([0.5, 0.5]), np.array([[1.0, 0.0], [2.0, 0.0]]),
                np.array([np.eye(2), np.eye(2)]))

    def test_mirrored_covariance_relative_tolerance(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])

        def mixture(scale):
            return SymmetricMixtureNd(
                2, np.array([0.5, 0.5]), np.array([[1.0, 0.5], [-1.0, -0.5]]),
                np.array([cov, cov * scale]))

        mixture(1 + 1e-7)
        with pytest.raises(SpecError, match="closed under"):
            mixture(1 + 1e-3)

    def test_mirrored_weights_must_match(self):
        with pytest.raises(SpecError, match="closed under"):
            SymmetricMixtureNd(
                2, np.array([0.5 + 5e-7, 0.5 - 5e-7]),
                np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([np.eye(2), np.eye(2)]))

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

    @pytest.mark.parametrize("name", ["gauss2d", "mix2d_134", "mix2d_30", "gauss3d"])
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
    @pytest.mark.parametrize("name", ["gauss2d", "mix2d_134", "mix2d_30", "gauss3d"])
    def test_infimum_of_projected_profiles(self, name, request):
        m = request.getfixturevalue(name)
        per_direction = [halfspace_profile_1d(project_to_line(m, u), PS).values
                         for u in direction_set(m.dimension, 16)]
        assert np.array_equal(halfspace_profile_nd(m, PS, 16).values,
                              np.min(per_direction, axis=0))

    def test_gaussian_profile_closed_form(self, gauss2d):
        from scipy.special import ndtri
        prof = halfspace_profile_nd(gauss2d, PS, 16)
        target = norm_pdf(ndtri(PS))
        assert np.abs(prof.values - target).max() <= 1e-5
        assert prof.kind == "halfspace_nd"

    def test_flagship_mixture_center_value(self, mix2d_134):
        # the directional infimum at p = 1/2 is attained along the mean axis
        prof = halfspace_profile_nd(mix2d_134, np.array([0.5]), 64)
        assert prof.values[0] == pytest.approx(norm_pdf(1.34), abs=1e-6)

    def test_symmetry_in_p(self, mix2d_134):
        prof = halfspace_profile_nd(mix2d_134, PS, 32)
        assert np.abs(prof.values - prof.values[::-1]).max() <= 1e-9

    def test_refinement_monotonicity(self, mix2d_134):
        # planar direction grids nest under doubling, so the infimum can
        # only move down
        p16 = halfspace_profile_nd(mix2d_134, PS, 16).values
        p32 = halfspace_profile_nd(mix2d_134, PS, 32).values
        p64 = halfspace_profile_nd(mix2d_134, PS, 64).values
        assert np.all(p32 <= p16 + 1e-12)
        assert np.all(p64 <= p32 + 1e-12)


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

    def test_weak_star_implies_weak(self, gauss2d, mix2d_134):
        # every certified scan must also pass the ratio check on the same
        # direction budget
        for m in (gauss2d, mix2d_134, std_gaussian_nd(3)):
            if weak_star_check(m, 32).verdict is Status.CERTIFIED:
                assert weak_blc_check_nd(m, PS, 32).status is Status.CERTIFIED


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
