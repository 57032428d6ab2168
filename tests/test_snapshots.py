"""Tests for trajectory containers, projection, regression data assembly,
finite differences, and the CSV exchange format."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mechrom.errors import (
    FormatError,
    InsufficientDataError,
    InvalidInputError,
    MissingDataError,
)
from mechrom import snapshots
from mechrom.opinf import infer
from mechrom.pod import PodBasis
from mechrom.snapshots import (
    TrajectoryData,
    assemble_force_data,
    assemble_opinf_data,
    finite_difference_derivatives,
    load_csv,
    project,
    save_csv,
)


def make_trajectory(rng, n=4, N=9, m=2, with_force=True):
    times = 0.5 + 0.1 * np.arange(N)
    return TrajectoryData(
        times=times,
        displacement=rng.standard_normal((n, N)),
        velocity=rng.standard_normal((n, N)),
        acceleration=rng.standard_normal((n, N)),
        input=rng.standard_normal((m, N)),
        force=rng.standard_normal((n, N)) if with_force else None,
    )


def orthonormal_basis(rng, n, r):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sig = np.linspace(1.0, 0.1, n)
    return PodBasis(modes=Q[:, :r], singular_values=sig)


# ---------------------------------------------------------------------------
# TrajectoryData invariants
# ---------------------------------------------------------------------------


class TestTrajectoryData:
    def test_properties(self, rng):
        data = make_trajectory(rng, n=3, N=7, m=1)
        assert data.n == 3
        assert data.num_snapshots == 7
        assert data.dt == pytest.approx(0.1)

    def test_times_must_increase(self, rng):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            make_trajectory(rng, N=5).__class__(
                times=[0.1, 0.2, 0.2, 0.3, 0.4],
                displacement=np.zeros((2, 5)),
                velocity=np.zeros((2, 5)),
                acceleration=np.zeros((2, 5)),
            )

    def test_times_must_be_uniform(self):
        with pytest.raises(InvalidInputError, match="uniformly spaced"):
            TrajectoryData(
                times=[0.0, 0.1, 0.25, 0.35],
                displacement=np.zeros((2, 4)),
                velocity=np.zeros((2, 4)),
                acceleration=np.zeros((2, 4)),
            )

    @settings(max_examples=300, deadline=None)
    @given(
        t0=st.floats(-10.0, 10.0),
        dt=st.floats(1e-3, 4.0),
        shifts=st.lists(
            st.one_of(st.sampled_from([0.0, 0.999, 1.001, -0.999, -1.001]),
                      st.floats(-3.0, 3.0)),
            min_size=1, max_size=12),
        kind=st.sampled_from(["perturbed", "decreasing", "repeated"]),
    )
    @example(t0=0.0, dt=1.0, shifts=[0.0, 0.999], kind="perturbed")
    @example(t0=0.0, dt=1.0, shifts=[0.0, 1.001], kind="perturbed")
    @example(t0=0.0, dt=1.0, shifts=[0.0, -1.001], kind="perturbed")
    def test_grid_checks_match_the_gapwise_form(self, t0, dt, shifts, kind):
        # Gaps of dt moved by multiples of the tolerance (some by just
        # under or over one), reversed, or with one time repeated: the
        # smallest and largest gap give the verdict of a test of every
        # gap.
        tol = snapshots._GRID_RTOL * max(dt, 1.0)
        times = t0 + np.concatenate(([0.0], np.cumsum(dt + tol * np.array(shifts))))
        if kind == "decreasing":
            times = times[::-1]
        elif kind == "repeated":
            k = len(shifts) // 2
            times = np.insert(times, k, times[k])
        gaps = np.diff(times)
        expected = None
        if np.any(gaps <= 0.0):
            expected = "snapshot times must be strictly increasing"
        elif np.any(np.abs(gaps - gaps[0])
                    > snapshots._GRID_RTOL * max(abs(gaps[0]), 1.0)):
            expected = "snapshot times must be uniformly spaced"
        try:
            snapshots._check_times(times)
            verdict = None
        except InvalidInputError as exc:
            verdict = str(exc)
        assert verdict == expected

    @pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], [0.0, np.inf],
                                       [np.nan], [-np.inf, 0.0]])
    def test_times_must_be_finite(self, times):
        N = len(times)
        with pytest.raises(InvalidInputError,
                           match="^snapshot times must be finite$"):
            TrajectoryData(
                times=times,
                displacement=np.zeros((2, N)),
                velocity=np.zeros((2, N)),
                acceleration=np.zeros((2, N)),
            )

    def test_column_count_mismatch(self, rng):
        with pytest.raises(InvalidInputError, match="velocity"):
            TrajectoryData(
                times=[0.1, 0.2, 0.3],
                displacement=np.zeros((2, 3)),
                velocity=np.zeros((2, 4)),
                acceleration=np.zeros((2, 3)),
            )

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidInputError, match="acceleration"):
            TrajectoryData(
                times=[0.1, 0.2, 0.3],
                displacement=np.zeros((2, 3)),
                velocity=np.zeros((2, 3)),
                acceleration=np.zeros((3, 3)),
            )

    def test_displacement_alone(self, rng):
        times = 0.5 + 0.1 * np.arange(6)
        X = rng.standard_normal((3, 6))
        data = TrajectoryData(times, X)
        assert data.displacement is X
        assert (data.n, data.num_snapshots) == (3, 6)
        assert data.dt == pytest.approx(0.1)
        for name in ("velocity", "acceleration", "input", "force"):
            assert getattr(data, name) is None

    @pytest.mark.parametrize("name", ["velocity", "acceleration", "force"])
    def test_optional_block_shape_checked(self, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must have 2 rows"):
            TrajectoryData(times=[0.1, 0.2, 0.3], displacement=np.zeros((2, 3)),
                           **{name: np.zeros((3, 3))})

    @pytest.mark.parametrize("times, blocks, message", [
        ([0.1, 0.2, 0.3], {"displacement": np.zeros(3)},
         "displacement must be 2-D, got ndim=1"),
        ([0.1, 0.2, 0.3], {"displacement": np.zeros((2, 3)),
                           "input": np.zeros(3)},
         "input must be 2-D, got ndim=1"),
        ([], {"displacement": np.zeros((2, 0))},
         "at least one snapshot is required"),
    ], ids=["1-D displacement", "1-D input", "no times"])
    def test_blocks_and_times_checked(self, times, blocks, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            TrajectoryData(times=times, **blocks)

    def test_require_names_the_first_absent_block(self, rng):
        data = TrajectoryData(times=[0.1, 0.2], displacement=np.ones((2, 2)),
                              acceleration=np.ones((2, 2)))
        data.require("displacement", "acceleration")
        with pytest.raises(MissingDataError,
                           match="^input block is required and absent$"):
            data.require("acceleration", "input", "velocity")

    def test_dt_undefined_for_single_snapshot(self):
        data = TrajectoryData(
            times=[1.0],
            displacement=np.ones((1, 1)),
            velocity=np.ones((1, 1)),
            acceleration=np.ones((1, 1)),
        )
        with pytest.raises(InvalidInputError):
            data.dt


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


class TestProject:
    def test_identity_basis_is_noop(self, rng):
        data = make_trajectory(rng, n=4, N=6)
        basis = PodBasis(modes=np.eye(4), singular_values=np.ones(4))
        rdata = project(data, basis)
        assert isinstance(rdata, TrajectoryData)
        np.testing.assert_array_equal(rdata.displacement, data.displacement)
        np.testing.assert_array_equal(rdata.velocity, data.velocity)
        np.testing.assert_array_equal(rdata.acceleration, data.acceleration)
        np.testing.assert_array_equal(rdata.input, data.input)
        np.testing.assert_array_equal(rdata.force, data.force)

    def test_single_mode_column_maps_to_unit_entry(self, rng):
        basis = orthonormal_basis(rng, 5, 2)
        X = np.zeros((5, 4))
        X[:, 2] = basis.modes[:, 0]
        data = TrajectoryData(
            times=0.1 * np.arange(1, 5),
            displacement=X,
            velocity=np.zeros((5, 4)),
            acceleration=np.zeros((5, 4)),
        )
        Xh = project(data, basis).displacement
        expected = np.zeros((2, 4))
        expected[0, 2] = 1.0
        np.testing.assert_allclose(Xh, expected, atol=1e-13)

    def test_matches_naive_product_oracle(self, rng):
        data = make_trajectory(rng, n=6, N=8)
        basis = orthonormal_basis(rng, 6, 2)
        rdata = project(data, basis)
        V = basis.modes
        for name in ("displacement", "velocity", "acceleration", "force"):
            A = getattr(data, name)
            oracle = np.zeros((2, 8))
            for i in range(2):
                for j in range(8):
                    for k in range(6):
                        oracle[i, j] += V[k, i] * A[k, j]
            np.testing.assert_allclose(
                getattr(rdata, name), oracle, rtol=1e-13, atol=1e-13
            )

    def test_input_is_copied_not_projected(self, rng):
        data = make_trajectory(rng, n=5, N=6, m=3)
        rdata = project(data, orthonormal_basis(rng, 5, 2))
        np.testing.assert_array_equal(rdata.input, data.input)
        assert rdata.input is not data.input

    def test_linearity(self, rng):
        basis = orthonormal_basis(rng, 5, 3)
        times = 0.1 * np.arange(1, 8)

        def traj(scale):
            local = np.random.default_rng(99)
            return TrajectoryData(
                times=times,
                displacement=scale * local.standard_normal((5, 7)),
                velocity=scale * local.standard_normal((5, 7)),
                acceleration=scale * local.standard_normal((5, 7)),
            )

        a, b = 2.5, -0.75
        d1, d2 = traj(1.0), traj(1.0)
        combo = TrajectoryData(
            times=times,
            displacement=a * d1.displacement + b * d2.displacement,
            velocity=a * d1.velocity + b * d2.velocity,
            acceleration=a * d1.acceleration + b * d2.acceleration,
        )
        r1 = project(d1, basis)
        r2 = project(d2, basis)
        rc = project(combo, basis)
        np.testing.assert_allclose(
            rc.displacement,
            a * r1.displacement + b * r2.displacement,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_absent_blocks_stay_absent(self, rng):
        X = rng.standard_normal((5, 7))
        data = TrajectoryData(times=0.1 * np.arange(7), displacement=X)
        basis = orthonormal_basis(rng, 5, 2)
        rdata = project(data, basis)
        np.testing.assert_array_equal(rdata.displacement, basis.modes.T @ X)
        for name in ("velocity", "acceleration", "input", "force"):
            assert getattr(rdata, name) is None

    def test_dimension_mismatch(self, rng):
        data = make_trajectory(rng, n=4, N=5)
        with pytest.raises(InvalidInputError, match="does not match basis"):
            project(data, orthonormal_basis(rng, 6, 2))


# ---------------------------------------------------------------------------
# regression data assembly
# ---------------------------------------------------------------------------


def reduced_scalar(xh, xdh, xddh, u=None, fh=None):
    as_col = lambda v: None if v is None else np.array([[float(v)]])
    return TrajectoryData(
        times=[1.0],
        displacement=as_col(xh),
        velocity=as_col(xdh),
        acceleration=as_col(xddh),
        input=as_col(u),
        force=as_col(fh),
    )


class TestAssembleOpinfData:
    def test_scalar_block_order(self):
        rdata = reduced_scalar(xh=2.0, xdh=3.0, xddh=7.0, u=5.0)
        D, rhs = assemble_opinf_data(rdata)
        np.testing.assert_array_equal(D, [[3.0], [2.0], [5.0]])
        np.testing.assert_array_equal(rhs, [[7.0]])

    def test_row_count_is_2r_plus_m(self, rng):
        data = make_trajectory(rng, n=6, N=10, m=1)
        rdata = project(data, orthonormal_basis(rng, 6, 2))
        D, rhs = assemble_opinf_data(rdata)
        assert D.shape == (5, 10)
        assert rhs.shape == (2, 10)

    def test_missing_input_names_block(self, rng):
        data = TrajectoryData(
            times=[0.1, 0.2],
            displacement=np.ones((3, 2)),
            velocity=np.ones((3, 2)),
            acceleration=np.ones((3, 2)),
        )
        rdata = project(data, orthonormal_basis(rng, 3, 2))
        with pytest.raises(MissingDataError, match="input"):
            assemble_opinf_data(rdata)

    @pytest.mark.parametrize("absent, named", [
        (("velocity",), "velocity"),
        (("acceleration",), "acceleration"),
        (("velocity", "acceleration"), "velocity"),
    ])
    def test_missing_derivative_names_block(self, rng, absent, named):
        data = make_trajectory(rng, n=3, N=5, m=1)
        data = dataclasses.replace(data, **{key: None for key in absent})
        with pytest.raises(MissingDataError,
                           match=f"^{named} block is required and absent$"):
            assemble_opinf_data(data)

    def test_reported_condition_matches_svd_oracle(self, rng):
        data = make_trajectory(rng, n=6, N=30, m=2)
        rdata = project(data, orthonormal_basis(rng, 6, 2))
        D, rhs = assemble_opinf_data(rdata)
        _, report = infer(D, rhs, 0.0)
        s = np.linalg.svd(D, compute_uv=False)
        assert report.condition == pytest.approx(s[0] / s[-1], rel=1e-10)


class TestAssembleForceData:
    def test_scalar_block_order(self):
        rdata = reduced_scalar(xh=3.0, xdh=2.0, xddh=1.0, fh=4.0)
        D, rhs = assemble_force_data(rdata)
        np.testing.assert_array_equal(D, [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(rhs, [[4.0]])

    def test_row_count_is_3r(self, rng):
        data = make_trajectory(rng, n=7, N=12)
        rdata = project(data, orthonormal_basis(rng, 7, 3))
        D, rhs = assemble_force_data(rdata)
        assert D.shape == (9, 12)
        assert rhs.shape == (3, 12)

    def test_row_permutation_against_opinf_assembly(self, rng):
        # Both assemblies draw on the same projected blocks; the force
        # variant swaps the acceleration block in for the input block.
        data = make_trajectory(rng, n=6, N=9, m=1)
        rdata = project(data, orthonormal_basis(rng, 6, 2))
        D_op, rhs_op = assemble_opinf_data(rdata)
        D_f, rhs_f = assemble_force_data(rdata)
        r = 2
        np.testing.assert_array_equal(D_f[:r], rhs_op)
        np.testing.assert_array_equal(D_f[r : 2 * r], D_op[:r])
        np.testing.assert_array_equal(D_f[2 * r :], D_op[r : 2 * r])

    @pytest.mark.parametrize("absent, named", [
        (("velocity",), "velocity"),
        (("acceleration",), "acceleration"),
        (("velocity", "acceleration"), "acceleration"),
    ])
    def test_missing_derivative_names_block(self, rng, absent, named):
        data = make_trajectory(rng, n=3, N=5)
        data = dataclasses.replace(data, **{key: None for key in absent})
        with pytest.raises(MissingDataError,
                           match=f"^{named} block is required and absent$"):
            assemble_force_data(data)

    def test_missing_force(self, rng):
        data = make_trajectory(rng, n=4, N=6, with_force=False)
        rdata = project(data, orthonormal_basis(rng, 4, 2))
        with pytest.raises(MissingDataError, match="force"):
            assemble_force_data(rdata)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


class TestFiniteDifferences:
    def test_quadratic_exactness(self):
        dt = 0.1
        t = dt * np.arange(12)
        X = np.vstack([t**2, 3.0 * t**2 - 2.0 * t + 1.0])
        V, A = finite_difference_derivatives(X, dt)
        np.testing.assert_allclose(V[0], 2.0 * t, rtol=0, atol=1e-12)
        np.testing.assert_allclose(V[1], 6.0 * t - 2.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(A[0], 2.0, rtol=1e-11)
        np.testing.assert_allclose(A[1], 6.0, rtol=1e-11)

    def test_sine_velocity_error(self):
        dt = 1e-3
        t = dt * np.arange(2001)
        X = np.sin(t)[None, :]
        V, _ = finite_difference_derivatives(X, dt)
        assert np.max(np.abs(V[0] - np.cos(t))) <= 1e-6

    def test_constant_gives_zero(self):
        X = np.full((3, 8), 4.25)
        V, A = finite_difference_derivatives(X, 0.05)
        np.testing.assert_array_equal(V, np.zeros_like(X))
        np.testing.assert_array_equal(A, np.zeros_like(X))

    def test_too_few_snapshots(self):
        with pytest.raises(InsufficientDataError, match="at least 5"):
            finite_difference_derivatives(np.ones((2, 4)), 0.1)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(InvalidInputError,
                           match="^displacement must be 2-D$"):
            finite_difference_derivatives(np.ones(6), 0.1)

    def test_nonpositive_dt(self):
        with pytest.raises(InvalidInputError, match="dt"):
            finite_difference_derivatives(np.ones((2, 6)), 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt(self, dt):
        with pytest.raises(InvalidInputError,
                           match=f"^dt must be positive and finite, got {dt}$"):
            finite_difference_derivatives(np.ones((2, 6)), dt)


# ---------------------------------------------------------------------------
# CSV exchange
# ---------------------------------------------------------------------------


class TestCsvRoundTrip:
    def test_round_trip_exact(self, rng, tmp_path):
        data = make_trajectory(rng, n=3, N=11, m=2)
        written = save_csv(data, tmp_path)
        assert len(written) == 5
        back = load_csv(tmp_path)
        np.testing.assert_allclose(back.times, data.times, rtol=1e-15)
        for name in ("displacement", "velocity", "acceleration", "input", "force"):
            np.testing.assert_allclose(
                getattr(back, name), getattr(data, name), rtol=1e-15
            )

    # Each example overwrites the same files, so fixture reuse is harmless.
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=5,
            max_size=5,
        )
    )
    def test_round_trip_is_lossless_for_one_row(self, tmp_path, values):
        X = np.array(values)[None, :]
        data = TrajectoryData(
            times=0.25 * np.arange(1, 6),
            displacement=X,
            velocity=np.zeros_like(X),
            acceleration=np.zeros_like(X),
        )
        save_csv(data, tmp_path)
        back = load_csv(tmp_path)
        np.testing.assert_array_equal(back.displacement, X)

    def test_optional_blocks_absent(self, rng, tmp_path):
        data = make_trajectory(rng, n=2, N=6, with_force=False)
        data = TrajectoryData(
            times=data.times,
            displacement=data.displacement,
            velocity=data.velocity,
            acceleration=data.acceleration,
        )
        written = save_csv(data, tmp_path)
        assert len(written) == 3
        back = load_csv(tmp_path)
        assert back.input is None
        assert back.force is None

    def test_displacement_only_round_trip(self, rng, tmp_path):
        data = TrajectoryData(times=0.25 * np.arange(1, 8),
                              displacement=rng.standard_normal((3, 7)))
        assert save_csv(data, tmp_path) == [str(tmp_path / "displacement.csv")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["displacement.csv"]
        for blocks in (("displacement",), ("displacement", "velocity")):
            back = load_csv(tmp_path, blocks)
            np.testing.assert_array_equal(back.times, data.times)
            np.testing.assert_array_equal(back.displacement, data.displacement)
            for name in ("velocity", "acceleration", "input", "force"):
                assert getattr(back, name) is None

    def test_load_chosen_blocks(self, rng, tmp_path):
        data = make_trajectory(rng, n=2, N=4, with_force=False)
        save_csv(data, tmp_path)
        # a block left out is not read, even when its file is malformed
        (tmp_path / "input.csv").write_text("not a block\n")
        back = load_csv(tmp_path, ["displacement", "velocity", "acceleration"])
        for name in ("displacement", "velocity", "acceleration"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(data, name))
        assert back.input is None and back.force is None
        with pytest.raises(MissingDataError, match="no displacement file"):
            load_csv(tmp_path, ["velocity"])

    def test_max_rows_reads_a_column_prefix(self, rng, tmp_path):
        save_csv(make_trajectory(rng, n=3, N=9, m=2), tmp_path)
        full = load_csv(tmp_path)
        # a malformed row past the prefix is never parsed
        path = tmp_path / "force.csv"
        path.write_text(path.read_text() + "not,a,row\n")
        # an empty line inside the prefix is skipped, not counted
        path = tmp_path / "velocity.csv"
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]))
        back = load_csv(tmp_path, max_rows=4)
        np.testing.assert_array_equal(back.times, full.times[:4])
        for name in ("displacement", "velocity", "acceleration", "input",
                     "force"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(full, name)[:, :4])
        more = load_csv(tmp_path, ["displacement"], max_rows=20)
        np.testing.assert_array_equal(more.displacement, full.displacement)


class TestCsvErrors:
    def write_all(self, tmp_path, rng):
        save_csv(make_trajectory(rng, n=2, N=4, with_force=False), tmp_path)

    def test_empty_file(self, rng, tmp_path):
        self.write_all(tmp_path, rng)
        path = tmp_path / "displacement.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty snapshot file") as exc:
            load_csv(tmp_path)
        assert ":1:" in str(exc.value)

    def test_header_only_file(self, rng, tmp_path):
        self.write_all(tmp_path, rng)
        path = tmp_path / "displacement.csv"
        for text in ("t,x_1,x_2\n", "t,x_1,x_2", "t,x_1,x_2\n\n"):
            path.write_text(text)
            with pytest.raises(InvalidInputError, match="no snapshots"):
                load_csv(tmp_path)

    def test_ragged_row_reports_line(self, rng, tmp_path):
        self.write_all(tmp_path, rng)
        path = tmp_path / "velocity.csv"
        text = path.read_text()
        lines = text.splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="expected 3 fields, found 2") as exc:
            load_csv(tmp_path)
        assert ":4:" in str(exc.value)
        # a whitespace-only line is a row, unlike an empty one
        lines = text.splitlines()
        lines[2:2] = ["", " "]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="expected 3 fields, found 1") as exc:
            load_csv(tmp_path)
        assert ":4:" in str(exc.value)

    def test_non_numeric_field(self, rng, tmp_path):
        self.write_all(tmp_path, rng)
        path = tmp_path / "acceleration.csv"
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = "fast"
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="non-numeric field") as exc:
            load_csv(tmp_path)
        assert ":3:" in str(exc.value)

    @pytest.mark.parametrize("text, line, message", [
        (b"t,x_\xff\n0,1\n", 1, "header is not ASCII text"),
        (b"t,x_1\n0,1\n1,\xff\n", 3, "non-numeric field"),
    ], ids=["header", "row"])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, text, line,
                                                message):
        path = tmp_path / "displacement.csv"
        path.write_bytes(text)
        with pytest.raises(FormatError, match=message) as exc:
            load_csv(tmp_path)
        assert (exc.value.path, exc.value.line) == (str(path), line)

    def test_bad_header(self, rng, tmp_path):
        self.write_all(tmp_path, rng)
        path = tmp_path / "displacement.csv"
        text = path.read_text()
        path.write_text("time,x_1,x_2\n" + text.split("\n", 1)[1])
        with pytest.raises(FormatError, match="header"):
            load_csv(tmp_path)

    def test_missing_required_block(self, rng, tmp_path):
        # Only the displacement is needed to load; the regressions name
        # the derivative block they lack when they assemble.
        self.write_all(tmp_path, rng)
        (tmp_path / "velocity.csv").unlink()
        data = load_csv(tmp_path)
        assert data.velocity is None
        with pytest.raises(MissingDataError, match="velocity"):
            assemble_opinf_data(data)
        (tmp_path / "displacement.csv").unlink()
        with pytest.raises(MissingDataError, match="displacement"):
            load_csv(tmp_path)

    def test_disagreeing_time_columns(self, rng, tmp_path):
        self.write_all(tmp_path, rng)
        path = tmp_path / "acceleration.csv"
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[0] = "9.5"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="time column disagrees"):
            load_csv(tmp_path)
