"""Matrix primitive tests: diagonal products, predicates, generators,
exponentials and Haar sampling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagprod import (
    OptimizerConfig,
    alpha_of_theta,
    big_gamma,
    build_extremal,
    build_homotopy_matrix,
    build_u_theta,
    build_u_z,
    constrained_max_numeric,
    derive_seed,
    diag_product,
    exp_skew_hermitian,
    gamma,
    gamma_derivative,
    generator_x,
    generator_y,
    haar_special_orthogonal,
    haar_special_unitary,
    haar_unitary,
    homotopy_diag_product,
    is_special_orthogonal,
    is_special_unitary,
    is_unitary,
    jacobian_big_gamma,
    monte_carlo_containment,
    omega_max,
    preimage,
    radius_of_theta,
    random_extremal,
    recognize_extremal,
    so_interval,
    su_region_contains,
    su_region_contains_winding,
    theta_derivative,
    theta_of_alpha,
    u_region_contains,
    verify_preimage,
    verify_so_interval,
    verify_unit_disk,
)
from diagprod.matrices import (
    _GOLDEN64,
    _haar_special_orthogonal_batch,
    _haar_special_unitary_batch,
    _haar_unitary_batch,
    _householder_q,
    _splitmix64,
    _standard_normals,
    _stream_keys,
)

_MASK64 = (1 << 64) - 1
_SEEDS = st.one_of(
    st.sampled_from([0, -1, -(2**63), 2**63, 2**64 - 1, 2**64]),
    st.integers(-(2**64), 2**66),
)
_GROUPS = {
    "U": (_haar_unitary_batch, haar_unitary),
    "SU": (_haar_special_unitary_batch, haar_special_unitary),
    "SO": (_haar_special_orthogonal_batch, haar_special_orthogonal),
}


def splitmix64_reference(seed: int, index: int) -> int:
    """Pure-Python SplitMix64 seed mixing (test oracle for ``derive_seed``)."""
    x = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stewart_q_reference(v):
    """Stewart's Q in dense complex arithmetic (test oracle): column k of the
    lower-triangular ``v``, rows k.., is reflector k's vector x, and
    Q = H_0 ... H_{n-2} diag(f) with the explicit matrices
    H_k = I - 2 w w^H / |w|^2 on rows k.., w = x + ph |x| e1, ph the phase of
    x[0] (1 where it is 0); f_k = -ph, except f_k = ph where x = 0 (H_k = I)
    and for k = n - 1."""
    v = np.asarray(v, np.complex128)
    n = len(v)
    q = np.eye(n, dtype=np.complex128)
    f = np.empty(n, np.complex128)
    for k in range(n):
        x = v[k:, k]
        ph = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        f[k] = ph
        if k == n - 1 or not x.any():
            continue
        w = x.copy()
        w[0] += ph * np.linalg.norm(x)
        h = np.eye(n, dtype=np.complex128)
        h[k:, k:] -= 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
        q = q @ h
        f[k] = -ph
    return q * f


def stewart_haar_reference(group, n, seed, count, start):
    """Stream-version-3 Haar samples (test oracle): batch-first Box-Muller
    normals from the same counter stream, entry t of the lower triangle
    (column by column) the t-th normal (real pair t for U and SU),
    ``stewart_q_reference``, then an LU determinant: SU divides column 1 by
    it, SO flips column 1 where it is -1."""
    keys = _stream_keys(seed, start, count)
    size = n * (n + 1) // 2 * (1 if group == "SO" else 2)
    pairs = (size + 1) // 2
    x = _splitmix64(np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _GOLDEN64 + keys[:, None])
    u = ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, :pairs]))
    angle = 2.0 * np.pi * u[:, pairs:]
    normals = np.empty((count, 2 * pairs))
    normals[:, 0::2], normals[:, 1::2] = radius * np.cos(angle), radius * np.sin(angle)
    out = []
    for z in normals[:, :size]:
        entries = iter(z if group == "SO" else z[0::2] + 1j * z[1::2])
        v = np.zeros((n, n), np.complex128)
        for k in range(n):
            for i in range(k, n):
                v[i, k] = next(entries)
        q = stewart_q_reference(v)
        if group == "SU":
            q[:, 0] /= np.linalg.det(q)
        if group == "SO":
            q = q.real
            q[:, 0] *= np.sign(np.linalg.det(q))
        out.append(q)
    return np.array(out)


def series_expm(a, terms=60):
    """Brute-force exponential by truncated power series (test oracle)."""
    a = np.asarray(a, complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestDiagProduct:
    def test_identity(self):
        assert diag_product(np.eye(5)) == 1

    def test_phases(self):
        assert diag_product(np.diag([1j, 1j, -1.0])) == pytest.approx(1.0)

    def test_generator_has_zero_diagonal(self):
        assert diag_product(generator_x(3, 1, 2)) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            diag_product(np.zeros((2, 3)))

    def test_diagonal_phase_multiplication(self):
        # multiplying by diagonal phases multiplies the product by the
        # summed phase; with zero phase sum the product is unchanged
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            beta = rng.uniform(-np.pi, np.pi, n)
            lhs = diag_product(a * np.exp(1j * beta)[None, :])
            rhs = diag_product(a) * np.exp(1j * beta.sum())
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPredicates:
    def test_unitary_trivial(self):
        assert is_unitary(np.eye(4), 1e-12)
        assert not is_unitary(np.diag([2.0, 1.0]), 1e-12)

    def test_unitary_u_z_block(self):
        assert is_unitary(build_u_z(2, 0.5), 1e-12)

    def test_special_unitary(self):
        assert is_special_unitary(np.eye(3), 1e-12)
        assert is_special_unitary(
            np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3), 1.0]), 1e-12
        )
        assert not is_special_unitary(np.diag([1j, 1.0]), 1e-12)

    def test_special_orthogonal(self):
        assert is_special_orthogonal(np.eye(3), 1e-12)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        assert is_special_orthogonal(np.array([[c, -s], [s, c]]), 1e-12)
        assert not is_special_orthogonal(np.diag([1.0, -1.0]), 1e-12)
        assert not is_special_orthogonal(np.diag([1j, -1j]), 1e-12)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            is_unitary(np.eye(2), 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda tol: is_unitary(np.eye(3), tol),
            lambda tol: is_special_unitary(np.eye(3), tol),
            lambda tol: is_special_orthogonal(np.eye(3), tol),
            lambda tol: exp_skew_hermitian(np.zeros((3, 3)), tol),
            lambda tol: u_region_contains(3, 0.5, tol),
            lambda tol: su_region_contains(3, 0.5, tol),
        ],
        ids=[
            "is_unitary",
            "is_special_unitary",
            "is_special_orthogonal",
            "exp_skew_hermitian",
            "u_region_contains",
            "su_region_contains",
        ],
    )
    def test_tolerance_is_used_as_validated(self, call):
        # regression: these validated tol, dropped the float and compared
        # against the raw argument, so a numeric string raised TypeError
        np.testing.assert_equal(call("1e-9"), call(1e-9))


_GARBAGE_TOL = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
    st.floats(max_value=0.0, allow_nan=False),
)
_TOL_CALLS = {
    "is_unitary": lambda tol: is_unitary(np.eye(3), tol),
    "is_special_unitary": lambda tol: is_special_unitary(np.eye(3), tol),
    "is_special_orthogonal": lambda tol: is_special_orthogonal(np.eye(3), tol),
    "exp_skew_hermitian": lambda tol: exp_skew_hermitian(np.zeros((3, 3)), tol),
    "su_region_contains": lambda tol: su_region_contains(3, 0.5, tol),
    "su_region_contains_winding": lambda tol: su_region_contains_winding(3, 0.5, tol=tol),
    "u_region_contains": lambda tol: u_region_contains(3, 0.5, tol),
    "violations": lambda tol: random_extremal(3, 1).violations(tol),
    "build_extremal": lambda tol: build_extremal(random_extremal(3, 1), tol),
    "recognize_extremal": lambda tol: recognize_extremal(np.eye(3), tol),
    "monte_carlo_containment": lambda tol: monte_carlo_containment(3, 20, tol=tol),
    "preimage": lambda tol: preimage(3, 0.5 + 0.3j, tol),
    "verify_preimage": lambda tol: verify_preimage(3, 2, tol=tol),
}


class TestGarbageTolerance:
    # regression: tol = inf passed every check (is_special_unitary(7 I) was
    # True and preimage returned a matrix 0.58 off its target), and the
    # Monte-Carlo run took nan, 0 or -1 without a word
    @pytest.mark.parametrize("name", sorted(_TOL_CALLS))
    @given(tol=_GARBAGE_TOL)
    @settings(max_examples=15, deadline=None)
    def test_rejected(self, name, tol):
        with pytest.raises(ValueError, match="tolerance"):
            _TOL_CALLS[name](tol)


_TINY_RUN = OptimizerConfig(restarts=1, max_iterations=2)
_SIZE_CALLS = {
    "gamma": lambda n: gamma(n, 0.1),
    "gamma_derivative": lambda n: gamma_derivative(n, 0.1),
    "theta_of_alpha": lambda n: theta_of_alpha(n, 0.1),
    "theta_derivative": lambda n: theta_derivative(n, 0.1),
    "alpha_of_theta": lambda n: alpha_of_theta(n, 0.1),
    "radius_of_theta": lambda n: radius_of_theta(n, 0.1),
    "big_gamma": lambda n: big_gamma(n, 0.1, 1.5),
    "jacobian_big_gamma": lambda n: jacobian_big_gamma(n, 0.1, 1.5),
    "build_u_theta": lambda n: build_u_theta(n, 0.3),
    "omega_max": omega_max,
    "build_homotopy_matrix": lambda n: build_homotopy_matrix(n, 0.3, 0.2),
    "homotopy_diag_product": lambda n: homotopy_diag_product(n, 0.3, 0.2),
    "build_u_z": lambda n: build_u_z(n, 0.5),
    "random_extremal": lambda n: random_extremal(n, 1).v,
    "generator_x": lambda n: generator_x(n, 1, 2),
    "generator_y": lambda n: generator_y(n, 1, 2),
    "haar_unitary": haar_unitary,
    "haar_special_unitary": haar_special_unitary,
    "haar_special_orthogonal": haar_special_orthogonal,
    "su_region_contains": lambda n: su_region_contains(n, 0.1),
    "su_region_contains_winding": lambda n: su_region_contains_winding(n, 0.1),
    "u_region_contains": lambda n: u_region_contains(n, 0.1),
    "so_interval": so_interval,
    "monte_carlo_containment": lambda n: monte_carlo_containment(n, 5).to_dict(),
    "preimage": lambda n: preimage(n, 0.1),
    "verify_preimage": lambda n: verify_preimage(n, 2).to_dict(),
    "constrained_max_numeric": lambda n: constrained_max_numeric(n, 0.5, _TINY_RUN).to_dict(),
    "verify_unit_disk": lambda n: verify_unit_disk(n, 5, grid=3).to_dict(),
    "verify_so_interval": lambda n: verify_so_interval(n, sweep=10, trials=5).to_dict(),
}


class TestMatrixSize:
    # regression: boundary's check truncated n with int(), so gamma(3.5, .)
    # answered for n = 3, while preimage(3.5, .) and
    # constrained_max_numeric(3.5, .) failed deep inside numpy
    @pytest.mark.parametrize("name", sorted(_SIZE_CALLS))
    @given(
        n=st.one_of(
            st.floats(3.01, 9.99),
            st.sampled_from([4.0, np.float64(4.0), np.nan, "4", None, 4 + 0j, [4]]),
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_non_integers_are_rejected(self, name, n):
        with pytest.raises(ValueError, match="matrix size n must be an integer"):
            _SIZE_CALLS[name](n)

    @pytest.mark.parametrize("name", sorted(_SIZE_CALLS))
    def test_numpy_integers_are_accepted(self, name):
        for n in (np.int64(4), np.int32(4), np.uint8(4)):
            np.testing.assert_equal(_SIZE_CALLS[name](n), _SIZE_CALLS[name](4))

    @pytest.mark.parametrize("name", sorted(_SIZE_CALLS))
    def test_too_small_is_rejected(self, name):
        with pytest.raises(ValueError, match="matrix size n must be an integer >="):
            _SIZE_CALLS[name](0)

    # regression: a bool is an int, so gamma(True, 0.3) answered for n = 1
    @pytest.mark.parametrize("name", sorted(_SIZE_CALLS))
    @pytest.mark.parametrize("n", [True, False, np.bool_(True)], ids=["True", "False", "np.True_"])
    def test_bools_are_rejected(self, name, n):
        with pytest.raises(ValueError, match="matrix size n must be an integer >="):
            _SIZE_CALLS[name](n)


def _comparable(out):
    """A call's result in a form ``np.testing.assert_equal`` compares; a
    report as its JSON text, which a numpy integer echoed in it breaks."""
    return json.dumps(out.to_dict()) if hasattr(out, "to_dict") else out


_NOT_INTEGERS = st.one_of(
    st.floats().filter(lambda x: not x.is_integer()),
    st.sampled_from([np.nan, 4.0, np.float64(4.0), "4", None, True, False, np.bool_(True)]),
)
# name -> (argument named in the error, its minimum, call with that argument)
_COUNT_CALLS = {
    "monte_carlo_containment trials": ("trials", 1, lambda k: monte_carlo_containment(3, k)),
    "verify_preimage trials": ("trials", 1, lambda k: verify_preimage(3, k)),
    "verify_unit_disk trials": ("trials", 1, lambda k: verify_unit_disk(2, k, grid=3)),
    "verify_unit_disk grid": ("grid", 2, lambda k: verify_unit_disk(2, 3, grid=k)),
    "verify_so_interval trials": ("trials", 1, lambda k: verify_so_interval(3, 10, k)),
    "verify_so_interval sweep": ("sweep", 2, lambda k: verify_so_interval(3, k, 3)),
    "su_region_contains_winding samples": (
        "samples", 1024, lambda k: su_region_contains_winding(3, 0.1, k)
    ),
}
# name -> (argument named in the error, call with that argument)
_SEED_CALLS = {
    "haar_unitary": ("seed", lambda s: haar_unitary(3, s)),
    "haar_special_unitary": ("seed", lambda s: haar_special_unitary(3, s)),
    "haar_special_orthogonal": ("seed", lambda s: haar_special_orthogonal(3, s)),
    "derive_seed": ("seed", lambda s: derive_seed(s, 3)),
    "derive_seed index": ("index", lambda s: derive_seed(3, s)),
    "random_extremal": ("seed", lambda s: random_extremal(3, s).v),
    "monte_carlo_containment": ("seed", lambda s: monte_carlo_containment(3, 3, s)),
    "verify_preimage": ("seed", lambda s: verify_preimage(3, 2, s)),
    "constrained_max_numeric": ("seed", lambda s: constrained_max_numeric(3, 0.5, _TINY_RUN, s)),
    "verify_unit_disk": ("seed", lambda s: verify_unit_disk(2, 3, s, 3)),
    "verify_so_interval": ("seed", lambda s: verify_so_interval(3, 10, 3, s)),
}


class TestCountsAndSeeds:
    # regression: monte_carlo_containment(3, True) ran one trial and reported
    # "trials": true, trials=2.5 failed inside numpy, and seed=1.5 ran stream
    # 1 while the report said 1.5
    @pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
    @given(bad=st.one_of(_NOT_INTEGERS, st.integers(max_value=0)))
    @settings(max_examples=15, deadline=None)
    def test_bad_counts_are_rejected(self, name, bad):
        arg, least, call = _COUNT_CALLS[name]
        if type(bad) is int:
            bad += least - 1  # at most one below the minimum
        with pytest.raises(ValueError, match=f"^{arg} must be an integer >= {least}, got "):
            call(bad)

    @pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_counts_match_python_ints(self, name, kind):
        _, least, call = _COUNT_CALLS[name]
        np.testing.assert_equal(_comparable(call(kind(least + 2))), _comparable(call(least + 2)))

    @pytest.mark.parametrize("name", sorted(_SEED_CALLS))
    @given(bad=_NOT_INTEGERS)
    @settings(max_examples=10, deadline=None)
    def test_bad_seeds_are_rejected(self, name, bad):
        arg, call = _SEED_CALLS[name]
        with pytest.raises(ValueError, match=f"^{arg} must be an integer, got "):
            call(bad)

    @pytest.mark.parametrize("name", sorted(_SEED_CALLS))
    @given(seed=st.integers(-(2**63), 2**63 - 1))
    @settings(max_examples=5, deadline=None)
    def test_numpy_seeds_match_python_ints(self, name, seed):
        call = _SEED_CALLS[name][1]
        np.testing.assert_equal(_comparable(call(np.int64(seed))), _comparable(call(seed)))


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# name -> (argument named in the error, whether it takes arrays, call with the
# bad value in that argument)
_ANGLE_CALLS = {
    "gamma": ("alpha", True, lambda x: gamma(3, x)),
    "gamma_derivative": ("alpha", True, lambda x: gamma_derivative(3, x)),
    "theta_of_alpha": ("alpha", True, lambda x: theta_of_alpha(3, x)),
    "theta_derivative": ("alpha", True, lambda x: theta_derivative(3, x)),
    "big_gamma": ("alpha", True, lambda x: big_gamma(3, x, 1.0)),
    "big_gamma y": ("y", True, lambda x: big_gamma(3, 0.3, x)),
    "jacobian_big_gamma": ("alpha", True, lambda x: jacobian_big_gamma(3, x, 1.0)),
    "jacobian_big_gamma y": ("y", True, lambda x: jacobian_big_gamma(3, 0.3, x)),
    "homotopy_diag_product": ("alpha", True, lambda x: homotopy_diag_product(3, x, 0.3)),
    "homotopy_diag_product omega": ("omega", True, lambda x: homotopy_diag_product(3, 0.3, x)),
    "build_homotopy_matrix": ("alpha", False, lambda x: build_homotopy_matrix(3, x, 0.3)),
    "random_extremal": ("alpha", False, lambda x: random_extremal(3, 0, alpha=x)),
    "constrained_max_numeric": ("theta", False, lambda x: constrained_max_numeric(3, x)),
}


class TestNonFiniteAngles:
    # regression: these returned NaN (random_extremal a decomposition with
    # alpha = nan), and constrained_max_numeric(3, inf) warned in wrap_angle
    # and then named nan as the bad theta
    @pytest.mark.parametrize("name", sorted(_ANGLE_CALLS))
    @given(bad=_NON_FINITE, in_array=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_rejected_naming_the_value(self, name, bad, in_array):
        arg, takes_arrays, call = _ANGLE_CALLS[name]
        x = np.array([0.5, bad, 0.25]) if in_array and takes_arrays else bad
        with pytest.raises(ValueError, match=f"^{arg} must be finite, got {bad!r}$"):
            call(x)


class TestGenerators:
    def test_footnote_matrices(self):
        x12 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
        x13 = [[0, 0, -1], [0, 0, 0], [1, 0, 0]]
        x23 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        y12 = [[0, 1j, 0], [1j, 0, 0], [0, 0, 0]]
        y13 = [[0, 0, 1j], [0, 0, 0], [1j, 0, 0]]
        y23 = [[0, 0, 0], [0, 0, 1j], [0, 1j, 0]]
        np.testing.assert_array_equal(generator_x(3, 1, 2), x12)
        np.testing.assert_array_equal(generator_x(3, 1, 3), x13)
        np.testing.assert_array_equal(generator_x(3, 2, 3), x23)
        np.testing.assert_array_equal(generator_y(3, 1, 2), y12)
        np.testing.assert_array_equal(generator_y(3, 1, 3), y13)
        np.testing.assert_array_equal(generator_y(3, 2, 3), y23)

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_skew_hermitian_and_traceless(self, n, data):
        j = data.draw(st.integers(1, n - 1))
        k = data.draw(st.integers(j + 1, n))
        for g in (generator_x(n, j, k), generator_y(n, j, k)):
            assert np.abs(g + g.conj().T).max() == 0
            assert np.trace(g) == 0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            generator_x(3, 2, 2)
        with pytest.raises(ValueError):
            generator_y(3, 2, 1)
        with pytest.raises(ValueError):
            generator_x(3, 1, 4)


class TestExpSkewHermitian:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(exp_skew_hermitian(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_quarter_turn_rotation(self):
        got = exp_skew_hermitian((np.pi / 2) * generator_x(2, 1, 2))
        np.testing.assert_allclose(got, [[0, -1], [1, 0]], atol=1e-12)

    def test_quarter_turn_mixing_vs_series(self):
        a = (np.pi / 2) * generator_y(2, 1, 2)
        oracle = series_expm(a)
        np.testing.assert_allclose(oracle, [[0, 1j], [1j, 0]], atol=1e-12)
        np.testing.assert_allclose(exp_skew_hermitian(a), oracle, atol=1e-12)

    def test_matches_series_on_random_input(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = g - g.conj().T
            np.testing.assert_allclose(exp_skew_hermitian(a), series_expm(a), atol=1e-10)

    def test_inverse_identity(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 7):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.5 * (g - g.conj().T)
            prod = exp_skew_hermitian(a) @ exp_skew_hermitian(-a)
            assert np.abs(prod - np.eye(n)).max() <= 1e-10

    def test_output_is_unitary(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert is_unitary(exp_skew_hermitian(g - g.conj().T), 1e-10)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            exp_skew_hermitian(np.eye(2))

    # regression: a NaN matrix came back all NaN with two RuntimeWarnings
    @given(bad=_NON_FINITE, n=st.integers(1, 5), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rejects_non_finite(self, bad, n, data):
        a = np.zeros((n, n))
        a[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = bad
        with pytest.raises(ValueError, match=f"^a must be finite, got {bad!r}$"):
            exp_skew_hermitian(a)


class TestHaarSampling:
    def test_group_predicates(self):
        for n in (1, 2, 3, 5, 8):
            for seed in (0, 1, 99):
                assert is_unitary(haar_unitary(n, seed), 1e-10)
                assert is_special_unitary(haar_special_unitary(n, seed), 1e-10)
                assert is_special_orthogonal(haar_special_orthogonal(n, seed), 1e-10)

    def test_su1_is_trivial(self):
        np.testing.assert_allclose(haar_special_unitary(1, 7), [[1.0]], atol=1e-15)

    def test_su_determinant(self):
        for seed in range(5):
            u = haar_special_unitary(4, seed)
            assert abs(np.linalg.det(u) - 1.0) <= 1e-10

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(haar_unitary(4, 123), haar_unitary(4, 123))
        assert np.abs(haar_unitary(4, 123) - haar_unitary(4, 124)).max() > 1e-3

    @given(
        st.sampled_from(sorted(_GROUPS)),
        st.integers(1, 8),
        _SEEDS,
        st.integers(1, 2**40),
        st.integers(1, 9),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_scalar(self, group, n, seed, start, count):
        # slice i depends only on (seed, start + i), bit for bit
        batch_fn, scalar_fn = _GROUPS[group]
        batch = batch_fn(n, seed, count, start)
        assert batch.shape == (count, n, n)
        for i in range(count):
            np.testing.assert_array_equal(
                batch[i], scalar_fn(n, derive_seed(seed, start + i))
            )

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("group", sorted(_GROUPS))
    def test_batch_matches_scalar_at_vector_widths(self, group, n):
        # counts past the SIMD widths and their tails, bit for bit
        batch_fn, scalar_fn = _GROUPS[group]
        seed, start = 2**64 - 3, 2**35
        for count in (17, 33, 1000, 2048):
            batch = batch_fn(n, seed, count, start)
            step = 1 if count < 100 else 97
            for i in [*range(0, count, step), count - 1]:
                np.testing.assert_array_equal(
                    batch[i], scalar_fn(n, derive_seed(seed, start + i))
                )

    @given(
        st.sampled_from(sorted(_GROUPS)),
        st.integers(1, 10),
        _SEEDS,
        st.integers(0, 2**40),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_reference(self, group, n, seed, start, count):
        got = _GROUPS[group][0](n, seed, count, start)
        want = stewart_haar_reference(group, n, seed, count, start)
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12
        gram = np.swapaxes(got.conj(), 1, 2) @ got - np.eye(n)
        assert np.abs(gram).max() <= 1e-13
        if group != "U":
            assert np.abs(np.linalg.det(got) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("group", sorted(_GROUPS))
    def test_entry_moments_match_haar(self, group, n):
        # every entry (i, j), since a misplaced reflector entry biases some:
        # |U_ij|^2 is Beta(1, n - 1) for U and SU, so E|U_ij|^2 = 1/n and
        # E|U_ij|^4 = 2/(n(n+1)); O_ij^2 is Beta(1/2, (n - 1)/2) for SO, so
        # E O_ij^2 = 1/n and E O_ij^4 = 3/(n(n+2))
        sq = np.abs(_GROUPS[group][0](n, 11, 100000)) ** 2
        fourth = 3.0 / (n * (n + 2)) if group == "SO" else 2.0 / (n * (n + 1))
        for moment, want in ((sq, 1.0 / n), (sq * sq, fourth)):
            mean = moment.mean(axis=0)
            sem = moment.std(axis=0) / np.sqrt(len(moment))
            assert (np.abs(mean - want) <= 5.0 * sem).all(), (mean, want)

    def test_su3_diagonal_product_matches_lapack_haar(self):
        # |p| and arg p of SU(3) diagonal products, against Haar samples from
        # LAPACK QR of numpy Gaussian matrices with the R-diagonal phase fix
        from scipy import stats

        count = 20000
        rng = np.random.default_rng(2024)
        g = rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[:, None, :]
        q[:, :, 0] /= np.linalg.det(q)[:, None]
        want = np.prod(np.diagonal(q, axis1=-2, axis2=-1), axis=-1)
        got = np.prod(np.diagonal(_haar_special_unitary_batch(3, 77, count), axis1=-2, axis2=-1), axis=-1)
        assert stats.ks_2samp(np.abs(got), np.abs(want)).pvalue > 1e-3
        assert stats.ks_2samp(np.angle(got), np.angle(want)).pvalue > 1e-3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_samplers_call_no_linalg(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called by a Haar sampler")

        for name in ("qr", "det", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for batch_fn, scalar_fn in _GROUPS.values():
            assert batch_fn(n, 3, 5, 7).shape == (5, n, n)
            assert scalar_fn(n, 3).shape == (n, n)

    def test_first_entry_second_moment(self):
        # column-normalization symmetry gives E|U_11|^2 = 1/n exactly
        batch = _haar_unitary_batch(3, 5, 100000)
        mean = np.mean(np.abs(batch[:, 0, 0]) ** 2)
        assert abs(mean - 1.0 / 3.0) <= 0.01

    def test_orthogonal_first_entry_second_moment(self):
        # the first column of Haar SO(n) is uniform on the sphere: E O_11^2 = 1/n
        for n in (3, 5):
            batch = _haar_special_orthogonal_batch(n, 6, 100000)
            assert abs(np.mean(batch[:, 0, 0] ** 2) - 1.0 / n) <= 0.01

    def test_standard_normal_stream(self):
        from scipy import stats

        z = _standard_normals(_stream_keys(2024, 0, 1000), 1000)
        assert z.shape == (1000, 1000)
        assert np.isfinite(z).all()
        assert stats.kstest(z.ravel(), "norm").pvalue > 1e-3

    def test_unit_disk_bound(self):
        # |diag product| <= 1 for every unitary
        for seed in range(40):
            assert abs(diag_product(haar_unitary(5, seed))) <= 1.0 + 1e-12

    def test_near_unit_product_forces_near_diagonal(self):
        # finite-tolerance diagonality criterion: |product| >= 1 - 1e-9
        # forces off-diagonal entries below 1e-4
        rng = np.random.default_rng(8)
        for scale in (0.0, 1e-6, 1e-4, 1e-2, 0.3):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = scale * (g - g.conj().T)
            u = exp_skew_hermitian(a) @ np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))
            if abs(diag_product(u)) >= 1.0 - 1e-9:
                off = np.abs(u - np.diag(np.diagonal(u))).max()
                assert off <= 1e-4


def _planes(mats):
    """Batch-last real and imaginary planes of a stack of matrices."""
    a = np.asarray(mats).transpose(1, 2, 0)
    return a.real.copy(), a.imag.copy()


class TestHouseholderCore:
    """Degenerate reflector vectors of the Householder core.  Column k of each
    lower-triangular layout, rows k.., is reflector k's vector: a zero vector
    (whose reflector is the identity), diagonal and general layouts."""

    CASES = {
        "zero first column": [[0, 0, 0], [0, 3, 0], [0, 5, 6 - 1j]],
        "zero column after a step": [[2, 0, 0], [1j, 0, 0], [-3, 0, 5]],
        "zero matrix": np.zeros((3, 3)),
        "lower triangular": [[-1 + 2j, 0, 0], [3, 2, 0], [1j, -5, -0.5j]],
        "complex diagonal": np.diag([1j, -2.0, 3 - 4j]),
        "negative diagonal": np.diag([-1.0, -2.0, -3.0]),
    }

    @staticmethod
    def _check(v, q, det):
        n = len(v)
        assert np.isfinite(q).all()
        assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-14
        assert np.abs(q - stewart_q_reference(v)).max() <= 1e-14
        assert abs(det - np.linalg.det(q)) <= 1e-14
        if not np.any(v):
            np.testing.assert_array_equal(q, np.eye(n))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_complex(self, name):
        v = np.asarray(self.CASES[name], np.complex128)
        (qr, qi), (dr, di) = _householder_q(np.array(_planes([v, v.conj()])))
        for k, vec in enumerate((v, v.conj())):
            self._check(vec, qr[:, :, k] + 1j * qi[:, :, k], complex(dr[k], di[k]))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_real(self, name):
        v = np.asarray(self.CASES[name], np.complex128).real
        q, d = _householder_q(_planes([v])[0][None])
        assert q.shape == (1, 3, 3, 1) and d.shape == (1, 1)
        self._check(v, q[0, :, :, 0], d[0, 0])


class TestSeedMixing:
    def test_deterministic_and_distinct(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        seen = {derive_seed(s, i) for s in range(4) for i in range(100)}
        assert len(seen) == 400

    def test_64_bit_range(self):
        for s, i in ((0, 0), (2**63, 17), (123456789, 2**31)):
            assert 0 <= derive_seed(s, i) < 2**64

    @given(_SEEDS, st.integers(0, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_mixer(self, seed, index):
        assert derive_seed(seed, index) == splitmix64_reference(seed, index)

    @given(_SEEDS, st.integers(0, 2**40), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_vectorized_keys_match_reference(self, seed, first, count):
        keys = _stream_keys(seed, first, count)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            splitmix64_reference(seed, first + i) for i in range(count)
        ]
