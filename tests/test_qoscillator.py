"""Truncated oscillator operators, q-series helpers, and boundary diagonals."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qbaxter.errors import (
    ConvergenceError,
    ExclusionPointError,
    OverflowGuardError,
    ParameterDomainError,
)
from oracles import osc_a, osc_adag, osc_fd, phi21, pochhammer, q_power_d
from qbaxter.qoscillator import FockDiagonal, kw_diagonal, ktw_diagonal, q_powers, validate_cutoff

Q = 0.57 + 0.13j
J = 14


def basis(j, size=J):
    v = np.zeros(size, dtype=complex)
    v[j] = 1.0
    return v


class TestLadderOperators:
    def test_lowering(self):
        assert_allclose(osc_a(J) @ basis(1), basis(0))
        assert_allclose(osc_a(J) @ basis(0), np.zeros(J))

    def test_raising(self):
        assert_allclose(osc_adag(Q, J) @ basis(0), (1 - Q ** 2) * basis(1))
        assert_allclose(osc_adag(Q, J) @ basis(J - 1), np.zeros(J))

    def test_number_relation(self):
        num = osc_adag(Q, J) @ osc_a(J)
        for j in range(J):
            assert_allclose(num @ basis(j), (1 - Q ** (2 * j)) * basis(j), atol=1e-15)

    def test_commutation_relations_on_interior(self):
        a, ad = osc_a(J), osc_adag(Q, J)
        fd = osc_fd(lambda j: (1.3 + 0.4j) ** j, J)
        fd_minus = osc_fd(lambda j: (1.3 + 0.4j) ** (j - 1), J)
        fd_plus = osc_fd(lambda j: (1.3 + 0.4j) ** (j + 1), J)
        assert_allclose(fd @ a, a @ fd_minus, atol=1e-12)
        assert_allclose((fd @ ad)[:J - 1, :J - 1], (ad @ fd_plus)[:J - 1, :J - 1], atol=1e-12)
        aad = a @ ad
        target = np.eye(J) - osc_fd(lambda j: Q ** (2 * (j + 1)), J)
        assert_allclose(aad[:J - 1, :J - 1], target[:J - 1, :J - 1], atol=1e-15)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            osc_a(1)

    @pytest.mark.parametrize("cutoff", [2.5, 7.0, "7", True, np.float64(12.0), None])
    def test_non_integer_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="integer >= 2"):
            validate_cutoff(cutoff)

    def test_integer_cutoffs_accepted(self):
        for cutoff in (2, 40, np.int32(3), np.int64(40)):
            assert validate_cutoff(cutoff) == int(cutoff)
            assert type(validate_cutoff(cutoff)) is int


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(0.3 + 0.1j, 0, Q) == 1.0

    def test_vanishes_at_one(self):
        for j in (1, 2, 5):
            assert pochhammer(1.0, j, Q) == 0.0

    def test_shift_property(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            x = complex(rng.normal(), rng.normal()) * 0.4
            j = int(rng.integers(-3, 4))
            k = int(rng.integers(-3, 4))
            lhs = pochhammer(x, j + k, Q)
            rhs = pochhammer(x, j, Q) * pochhammer(Q ** (2 * j) * x, k, Q)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_infinite_product(self):
        x = 0.4 - 0.2j
        direct = np.prod([1 - Q ** (2 * i) * x for i in range(200)])
        assert abs(pochhammer(x, math.inf, Q) - direct) < 1e-14

    def test_negative_branch_pole(self):
        with pytest.raises(ExclusionPointError):
            pochhammer(Q ** 2, -1, Q)

    @pytest.mark.parametrize("q", [1.0, -1.0, 1.2j, 0.6 + 0.8j])
    def test_infinite_product_needs_q_inside_the_unit_disk(self, q):
        with pytest.raises(ParameterDomainError, match=r"needs \|q\| < 1"):
            pochhammer(0.3, math.inf, q)

    def test_infinite_product_too_close_to_the_unit_circle(self):
        # |q| = 0.9999 needs about 2e5 factors to bring q^(2i) below 1e-18
        with pytest.raises(ConvergenceError, match="did not terminate"):
            pochhammer(1.0, math.inf, 0.9999)


class TestPhi21:
    def test_zero_argument(self):
        assert phi21(0.3, 0.7j, 0.2, 0.0, Q) == 1.0

    def test_divergent_argument_rejected(self):
        with pytest.raises(ConvergenceError):
            phi21(0.3, 0.7, 0.2, 1.1, Q)

    @pytest.mark.parametrize("q", [1.0, -1.0, 1.2j, 0.6 + 0.8j])
    def test_needs_q_inside_the_unit_disk(self, q):
        with pytest.raises(ParameterDomainError, match=r"needs \|q\| < 1"):
            phi21(0.1, 0.2, 0.3, 0.4, q)

    def test_lower_parameter_on_a_pole(self):
        # c = q^0: the first denominator factor 1 - c vanishes
        with pytest.raises(ExclusionPointError, match="lower parameter"):
            phi21(0.1, 0.2, 1.0, 0.4, 0.5)

    def test_term_budget_exhausted(self):
        with pytest.raises(ConvergenceError, match="within max_terms"):
            phi21(0.3, 0.7j, 0.2, 0.9, 0.5, max_terms=3)

    def test_q_gauss_summation(self):
        rng = np.random.default_rng(1)
        count = 0
        while count < 20:
            q = (0.3 + 0.5 * rng.random()) * np.exp(0.4j * rng.random())
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            c = complex(rng.normal(), rng.normal()) * 0.4
            x = c / (a * b)
            if abs(x) > 0.7:
                continue
            count += 1
            lhs = phi21(a, b, c, x, q)
            rhs = pochhammer(c / a, math.inf, q) * pochhammer(c / b, math.inf, q) \
                / (pochhammer(x, math.inf, q) * pochhammer(c, math.inf, q))
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-10

    def test_contiguous_relation(self):
        rng = np.random.default_rng(2)
        count = 0
        while count < 20:
            q = (0.3 + 0.5 * rng.random()) * np.exp(0.4j * rng.random())
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            c = complex(rng.normal(), rng.normal()) * 0.5
            x = complex(rng.normal(), rng.normal()) * 0.3
            if abs(x) > 0.7 or abs(1 - c) < 0.05 or abs(1 - c / q ** 2) < 0.05:
                continue
            count += 1
            lhs = phi21(a, b, c, x, q)
            rhs = phi21(a, b, c / q ** 2, x, q) \
                - (c * x / q ** 2) * (1 - a) * (1 - b) / ((1 - c / q ** 2) * (1 - c)) \
                * phi21(q ** 2 * a, q ** 2 * b, q ** 2 * c, x, q)
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-10


class TestBoundaryDiagonals:
    XI = 0.21 + 0.04j
    XIT = 0.12 - 0.03j
    Z = 0.83 + 0.19j
    R = 1.2 - 0.3j

    def test_kw_lowest_levels(self):
        kw = kw_diagonal(self.Z, self.R, self.XI, Q, J).diagonal()
        assert kw[0] == 1.0
        expected = (Q / self.R) * (self.Z ** 2 - Q ** (-2) * self.XI)
        assert abs(kw[1] - expected) < 1e-14 * abs(expected)

    def test_kw_vanishing_factor_kills_tail(self):
        # powers of two make z^2 - q^(-2) xi an exact floating zero
        kw = kw_diagonal(0.5, self.R, 0.0625, 0.5, J).diagonal()
        assert kw[0] == 1.0
        for j in range(1, J):
            assert kw[j] == 0.0
        # generic complex point: tiny relative to the later factor growth
        z = np.sqrt(Q ** (-2) * self.XI)
        kw = kw_diagonal(z, self.R, self.XI, Q, J).diagonal()
        growth = 1.0
        for j in range(1, J):
            assert abs(kw[j]) < 1e-13 * growth
            growth *= abs(Q / self.R) * abs(z ** 2 - Q ** (-2 * (j + 1)) * self.XI)

    def test_ktw_level_zero(self):
        ktw = ktw_diagonal(self.Z, self.R, self.XIT, Q, J).diagonal()
        expected = 1.0 / (1.0 - Q ** 2 * self.XIT * self.Z ** 2)
        assert abs(ktw[0] - expected) < 1e-14 * abs(expected)

    def test_paired_product_cancels_growth(self):
        kw = kw_diagonal(self.Z, 1.0, self.XI, Q, 40)
        ktw = ktw_diagonal(self.Z, 1.0, self.XIT, Q, 40)
        paired = ktw.mantissa * kw.mantissa * np.exp(ktw.log_mag + kw.log_mag)
        direct = np.array([
            (self.XI * self.XIT) ** j
            * pochhammer(Q ** 2 * self.Z ** 2 / self.XI, j, Q)
            / pochhammer(Q ** 2 * self.XIT * self.Z ** 2, j + 1, Q)
            for j in range(40)])
        assert_allclose(paired, direct, atol=1e-14)

    def test_ktw_vanishing_boundary_projects(self):
        # at xitilde = 0 only the level-0 entry survives (the power factor kills the rest)
        ktw = ktw_diagonal(self.Z, self.R, 0.0, Q, J)
        diag = ktw.diagonal()
        assert diag[0] == 1.0
        assert_allclose(diag[1:], 0.0)

    def test_ktw_pole_detection(self):
        z = np.sqrt(Q ** (-4) / self.XIT)  # pole of the level-1 factor
        with pytest.raises(ExclusionPointError):
            ktw_diagonal(z, self.R, self.XIT, Q, J)

    def test_overflow_guard(self):
        kw = kw_diagonal(1.0, 1.0, 0.3, 0.3, 60)
        with pytest.raises(OverflowGuardError):
            kw.dense()

    def test_power_table_overflow_guard(self):
        # 0.3 ** -1200 is about 1e627
        with pytest.raises(OverflowGuardError, match="at cutoff 600"):
            kw_diagonal(1.0, 1.0, 0.3, 0.3, 600)

    def test_scaled_power_runs_are_built_once(self):
        # a boundary diagonal's z-free factors, q^(2j+1) r (-xitilde): one read-only
        # array per arguments, the run times each scale in turn
        p, r, xit = q_powers(Q, J), 1.3 - 0.2j, 0.1 - 0.03j
        run = p(1, 2, J - 1, r, -xit)
        assert p(1, 2, J - 1, r, -xit) is run and not run.flags.writeable
        powers = np.array([Q ** (1 + 2 * j) for j in range(J - 1)])
        assert np.array_equal(run, powers * r * -xit)
        assert np.array_equal(p(1, 2, J - 1), powers) and not p(1, 2, J - 1).flags.writeable


def running_product(factors):
    """Per-level (mantissa, log) of the running product, one Python step per
    level; a vanishing factor zeroes its level and every level above it."""
    mant, logs, m, s = [], [], 1.0 + 0.0j, 0.0
    for fac in factors:
        if abs(fac) == 0.0 or m == 0.0:
            m, s = 0.0 + 0.0j, 0.0
        else:
            m *= fac / abs(fac)
            s += math.log(abs(fac))
        mant.append(m)
        logs.append(s)
    return np.array(mant), np.array(logs)


def kw_factors(z, r, xi, q, size):
    return [1.0] + [(q / r) * (z * z - q ** (-2 * j) * xi) for j in range(1, size)]


def ktw_factors(z, r, xit, q, size):
    dens = [1.0 - q ** (2 * (j + 1)) * xit * z * z for j in range(size)]
    return [1.0 / dens[0]] + [q ** (2 * j - 1) * r * (-xit) / dens[j] for j in range(1, size)]


class TestBoundaryDiagonalOracle:
    @staticmethod
    def assert_matches(diag, factors):
        mant, logs = running_product(factors)
        # one rounded multiply (mantissa) or add (log) per level
        tol = 4 * len(factors) * np.finfo(float).eps
        assert_allclose(diag.mantissa, mant, rtol=0.0, atol=tol)
        assert_allclose(diag.log_mag, logs, rtol=tol, atol=tol)
        assert np.array_equal(diag.mantissa == 0.0, mant == 0.0)

    @pytest.mark.parametrize("size", [2, 3, 40])
    def test_random_parameters(self, size):
        rng = np.random.default_rng(size)
        for _ in range(4):
            q = (0.3 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
            z = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
            r = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
            xi, xit = 0.2 * np.exp(2j * np.pi * rng.random(2))
            self.assert_matches(kw_diagonal(z, r, xi, q, size), kw_factors(z, r, xi, q, size))
            self.assert_matches(ktw_diagonal(z, r, xit, q, size), ktw_factors(z, r, xit, q, size))

    def test_factor_vanishing_mid_run(self):
        # z^2 = q^(-6) xi exactly in floating point: the level-3 factor is zero
        z, r, xi, q = 0.5, 1.2 - 0.3j, 0.25 / 64, 0.5
        kw = kw_diagonal(z, r, xi, q, J)
        assert np.all(kw.mantissa[:3] != 0.0) and np.all(kw.mantissa[3:] == 0.0)
        assert np.all(kw.log_mag[3:] == 0.0)
        self.assert_matches(kw, kw_factors(z, r, xi, q, J))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_first_pole_named(self, k):
        xit, r = 0.12 - 0.03j, 1.2 - 0.3j
        z = np.sqrt(Q ** (-2 * k) / xit)
        with pytest.raises(ExclusionPointError, match=rf"the pole q\^\({-2 * k}\) / xitilde"):
            ktw_diagonal(z, r, xit, Q, J)

    def test_fractional_cutoff_rejected(self):
        for build in (kw_diagonal, ktw_diagonal):
            with pytest.raises(ValueError, match="integer >= 2"):
                build(0.83 + 0.19j, 1.0, 0.1, Q, 3.9)


class TestFockDiagonal:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FockDiagonal(np.ones(3, dtype=complex), np.zeros(4))

    def test_qpower(self):
        m = q_power_d(Q, 5, -2)
        assert abs(m[3, 3] - Q ** -6) < 1e-14
