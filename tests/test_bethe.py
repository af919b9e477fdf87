"""Spectrum extraction, root factorization, Bethe equations, and the ABA oracle."""

import math

import numpy as np
import pytest

from oracles import aba_bethe_residual, aba_coefficients
from qbaxter import bethe as bt
from qbaxter import chain as ch
from qbaxter import tensor_core as tc
from qbaxter.errors import ConvergenceError, ExclusionPointError, ParameterDomainError


def dense_blocks(z, p):
    """Auxiliary-space blocks A, B, C, D of the dense double-row monodromy."""
    d, n = p.dim, p.n_sites
    mono = ch.monodromy_v(z, p, (2,) * (n + 1), 0, range(1, n + 1))
    return mono[:d, :d], mono[:d, d:], mono[d:, :d], mono[d:, d:]


@pytest.fixture(scope="module")
def params():
    return ch.sample_params(2, seed=31, tol=1e-11)


@pytest.fixture(scope="module")
def records(params):
    z_samples = bt.spectrum_nodes(params, 99, 3)
    return bt.joint_spectrum(params, 0.85 + 0.23j, z_samples, seed=5)


@pytest.fixture(scope="module")
def roots_by_record(records, params):
    return [bt.factorize_q_eigenvalue(rec, params) for rec in records]


class TestJointSpectrum:
    def test_sector_counting(self, records, params):
        n = params.n_sites
        assert len(records) == 2 ** n
        counts = {}
        for rec in records:
            counts[rec.m_down] = counts.get(rec.m_down, 0) + 1
        assert counts == {m: math.comb(n, m) for m in range(n + 1)}

    def test_unresolved_degeneracy_raises(self, params, monkeypatch):
        # every eigenvalue gap reads zero, so no admixture of Q resolves the first sector
        monkeypatch.setattr(bt, "_min_gap", lambda vals: 0.0)
        with pytest.raises(bt.SpectrumError, match="sector M=0 after 3 probes"):
            bt.joint_spectrum(params, 0.85 + 0.23j, bt.spectrum_nodes(params, 99, 1), seed=5)

    def test_vacuum_sector_is_highest_weight(self, records):
        vac = [r for r in records if r.m_down == 0]
        assert len(vac) == 1
        v = vac[0].vector
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_eigen_residuals(self, records):
        assert max(r.tv_residual for r in records) < 1e-10

    def test_q_interpolation_heldout(self, records):
        assert max(r.q_fit_error for r in records) < 1e-10

    def test_tv_samples_obey_crossing_degree_bound(self, records, params):
        # eigenvalue samples interpolate a polynomial in z^2 of degree <= 2N+2
        n = params.n_sites
        deg = 2 * (n + 1)
        nodes = bt.spectrum_nodes(params, 7, deg + 2)
        mats = {z: ch.transfer_v(z, params) for z in nodes}
        zh = bt.spectrum_nodes(params, 8, 1)[0]
        mat_h = ch.transfer_v(zh, params)
        for rec in records[:3]:
            v = rec.vector
            vals = np.array([v.conj() @ (mats[z] @ v) for z in nodes])
            vmat = np.vander(np.array([z ** 2 for z in nodes]), deg + 1, increasing=True)
            coeffs, *_ = np.linalg.lstsq(vmat, vals, rcond=None)
            pred = complex(np.polyval(coeffs[::-1], zh ** 2))
            actual = complex(v.conj() @ (mat_h @ v))
            assert abs(pred - actual) < 1e-8 * max(1.0, abs(actual))


    @pytest.mark.parametrize("n, seed", [(2, 5), (3, 1)])
    def test_degenerate_probe_is_resolved(self, n, seed):
        # T^V(1) is a multiple of the identity, so every sector with more than
        # one state needs the Q admixture
        p = ch.sample_params(n, seed, tol=1e-10)
        recs = bt.joint_spectrum(p, 1.0, bt.spectrum_nodes(p, 1, 3))
        assert len(recs) == 2 ** n
        assert max(r.tv_residual for r in recs) < 1e-12
        assert max(r.q_fit_error for r in recs) < 1e-9

    def test_empty_samples_rejected(self):
        p = ch.sample_params(2, 3, tol=1e-10)
        with pytest.raises(bt.SpectrumError, match="at least one sample point, got 0"):
            bt.joint_spectrum(p, 0.85 + 0.23j, [])

    def test_probe_at_a_trace_pole_accepted(self, params):
        # the probe feeds only T^V, a polynomial in z^2, so a pole of the Fock trace is no obstacle
        pole = params.q ** -1 / np.sqrt(params.xitilde)
        assert ch.in_exclusion_set(pole, params)
        recs = bt.joint_spectrum(params, pole, bt.spectrum_nodes(params, 1, 1))
        assert len(recs) == 2 ** params.n_sites
        assert max(r.tv_residual for r in recs) < 1e-10

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_fields_match_their_definitions(self, n, seed):
        # every field recomputed from the record's vector on the full space
        p = ch.sample_params(n, seed, tol=1e-10)
        z_samples = bt.spectrum_nodes(p, 1, 3)
        recs = bt.joint_spectrum(p, 0.85 + 0.23j, z_samples)
        tv = [ch.transfer_v(z, p) for z in z_samples]
        qs = [ch.q_operator(z, p) for z in z_samples]
        coeffs = bt.circle_coefficients(lambda y: ch.q_operator(np.sqrt(y), p), 2 * n + 2,
                                        1.0 / p.q)
        for rec in recs:
            v = rec.vector
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            outside = np.ones(p.dim, dtype=bool)
            outside[ch._layout(n).states[rec.m_down]] = False
            assert not v[outside].any()
            lam = [v.conj() @ t @ v for t in tv]
            resid = max(np.linalg.norm(t @ v - l * v) / max(1.0, abs(l)) for t, l in zip(tv, lam))
            mu = [v.conj() @ q @ v for q in qs]
            c = np.einsum("r,crs,s->c", v.conj(), coeffs, v)
            fit = max(max(abs(np.polyval(c[-2::-1], z * z) - m),
                          abs(c[-1] * (z * z) ** (2 * n + 1))) / max(1.0, abs(m))
                      for z, m in zip(z_samples, mu))
            assert [z for z, _ in rec.tv_samples] == [z for z, _ in rec.q_samples] == z_samples
            for (_, got), want in zip(rec.tv_samples, lam):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            for (_, got), want in zip(rec.q_samples, mu):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert np.abs(rec.q_poly - c[:-1]).max() <= 1e-12 * np.abs(c).max()
            assert abs(rec.tv_residual - resid) <= 1e-12
            assert abs(rec.q_fit_error - fit) <= 1e-12


class TestSampling:
    def test_rejections_use_up_draws_deterministically(self):
        raw = np.random.default_rng(4)
        stream = [bt.random_point(raw) for _ in range(8)]
        calls = []

        def clear(z):  # rejects the first three draws
            calls.append(z)
            return len(calls) > 3

        points = bt.draw_points(np.random.default_rng(4), 2, clear)
        assert points == stream[3:5]
        assert calls == stream[:5]

    def test_kept_points_are_spaced(self):
        # 60 points on the unit circle: raw draws land within 0.02 of each other
        raw = np.random.default_rng(2)
        stream = [bt.random_point(raw, 1.0, 1.0) for _ in range(60)]
        assert min(abs(a - b) for i, a in enumerate(stream) for b in stream[:i]) < 0.02
        points = bt.draw_points(np.random.default_rng(2), 60, lambda z: True, 1.0, 1.0)
        assert len(points) == 60
        assert min(abs(a - b) for i, a in enumerate(points) for b in points[:i]) >= 0.02

    def test_exhaustion_raises_with_counts(self):
        calls = []

        def clear(z):  # keeps only the first two draws
            calls.append(z)
            return len(calls) <= 2

        with pytest.raises(bt.SpectrumError, match=r"drew 2 of 3 points clear of the "
                           r"exclusion set; 200 tries found no next one at radii \[0.55, 1.25\]"):
            bt.draw_points(np.random.default_rng(0), 3, clear)
        assert len(calls) == 202

    @pytest.mark.parametrize("seed, count", [(0, 50), (5, 400)])
    def test_same_points_as_a_draw_by_draw_loop(self, seed, count):
        # the spacing test against all kept points at once keeps the draws a
        # loop over the kept points keeps
        def clear(z):
            return abs(z.imag) > 0.1

        rng, points = np.random.default_rng(seed), []
        while len(points) < count:
            z = bt.random_point(rng, 0.75, 1.25)
            if clear(z) and all(abs(z - w) >= 0.02 for w in points):
                points.append(z)
        assert bt.draw_points(np.random.default_rng(seed), count, clear, 0.75, 1.25) == points

    def test_unfittable_count_raises_before_drawing(self):
        # disks of radius 0.01 about 10,401 points overfill 0.74 <= |z| <= 1.26
        calls = []
        with pytest.raises(bt.SpectrumError, match=r"10401 points 0.02 apart cannot fit on the "
                           r"annulus 0.75 <= \|z\| <= 1.25, which holds at most 10400"):
            bt.draw_points(np.random.default_rng(0), 10401, calls.append, 0.75, 1.25)
        assert calls == []

    def test_circle_coefficients_skip_a_blocked_phase(self):
        count, radius = 5, 0.8 - 0.3j
        first = radius * np.exp(2j * math.pi * (np.arange(count) + bt._PHASES[0]) / count)
        coeffs = np.array([1.5, -0.2 + 1j, 0.3j, 2.0, -0.7])

        def f(x):
            if np.min(np.abs(first - x)) < 1e-12:
                raise ExclusionPointError("first-phase node")
            return np.polyval(coeffs[::-1], x)

        assert np.max(np.abs(bt.circle_coefficients(f, count, radius) - coeffs)) < 1e-12

    def test_circle_coefficients_every_phase_blocked(self):
        def f(x):
            raise ExclusionPointError(f"node {x}")

        with pytest.raises(bt.SpectrumError,
                           match="every node circle of radius 0.854 meets the exclusion set"):
            bt.circle_coefficients(f, 5, 0.8 - 0.3j)


class TestFactorization:
    def test_zero_eigenvalue_rejected(self, params):
        n = params.n_sites
        rec = bt.SpectrumRecord(m_down=1, vector=np.zeros(params.dim),
                                tv_samples=[], q_samples=[], q_poly=np.zeros(2 * n + 1))
        with pytest.raises(bt.SpectrumError, match="identically zero"):
            bt.factorize_q_eigenvalue(rec, params)

    def test_vacuum_has_no_roots(self, records, params):
        vac = [r for r in records if r.m_down == 0][0]
        roots = bt.factorize_q_eigenvalue(vac, params)
        assert roots.m_roots == 0 and roots.roots.shape == (0,) and roots.roots.dtype == complex
        # the general path at M = 0: one coefficient, no pairs, an empty product
        assert roots.pairing_error == bt._degree_window(vac.q_poly, params.n_sites, 0)[1]
        assert roots.product_error == 0.0
        for residual in (bt.bethe_residual, bt.bethe_residual_pq_form):
            res = residual(roots, params)
            assert res.shape == (0,) and res.dtype == np.float64
        refined, final = bt.refine_bethe_newton(roots.roots, params)
        assert refined.shape == (0,) and refined.dtype == complex and final == 0.0
        # eigenvalue is f z^(2N): the only surviving coefficient sits at Z^N
        n = params.n_sites
        scale = np.abs(vac.q_poly).max()
        mask = np.ones(vac.q_poly.size, dtype=bool)
        mask[n] = False
        assert np.abs(vac.q_poly[mask]).max() < 1e-8 * scale
        assert abs(vac.q_poly[n] - roots.f) < 1e-10 * scale

    def test_multiset_invariant_under_involution(self, roots_by_record, params):
        q = params.q
        for roots in roots_by_record:
            if roots.m_roots == 0:
                continue
            ys = roots.roots ** 2
            full = np.concatenate([ys, q ** (-2) / ys])
            image = q ** (-2) / full
            for w in image:
                assert np.min(np.abs(full - w)) < 1e-6 * max(1.0, abs(w))

    def test_product_constraint(self, roots_by_record, params):
        q = params.q
        for roots in roots_by_record:
            m = roots.m_roots
            if m == 0:
                continue
            full = np.concatenate([roots.roots ** 2, q ** (-2) / roots.roots ** 2])
            assert abs(np.prod(full) - q ** (-2 * m)) < 1e-8 * abs(q ** (-2 * m))

    def test_reconstruction_matches_polynomial(self, records, roots_by_record, params):
        q = params.q
        n = params.n_sites
        for rec, roots in zip(records, roots_by_record):
            z = 0.77 + 0.29j
            recon = roots.f * z ** (2 * (n - roots.m_roots))
            for y in roots.roots:
                recon *= (z * z - y * y) * (z * z - q ** (-2) / (y * y))
            value = np.polyval(rec.q_poly[::-1], z * z)
            assert abs(recon - value) < 1e-8 * max(1.0, abs(recon))


class TestChebyshevReduction:
    q = 0.6 * np.exp(0.7j)
    n = 3
    params = ch.ChainParams(q=q, xi=0.01, xitilde=0.02, n_sites=n, t=(1.0, 1.1j, 0.9))

    def record(self, big_y, f=1.3 - 0.4j):
        # Q-eigenvalue f Z^(N-M) prod (Z - Y)(Z - q^(-2)/Y) as 2N+1 ascending coefficients
        m = len(big_y)
        core = np.poly(np.concatenate([big_y, self.q ** -2 / np.asarray(big_y)]))[::-1]
        coeffs = np.zeros(2 * self.n + 1, dtype=complex)
        coeffs[self.n - m:self.n + m + 1] = f * core
        return bt.SpectrumRecord(m_down=m, vector=np.zeros(2 ** self.n), tv_samples=[],
                                 q_samples=[], q_poly=coeffs)

    def test_symmetric_polynomial_returns_its_roots(self):
        # one representative per pair, the one with |Y| >= |q^(-2)/Y|
        big_y = np.array([2.9 * np.exp(0.4j), 7.1 * np.exp(-2.2j), -4.3 + 1.0j]) / self.q
        roots = bt.factorize_q_eigenvalue(self.record(big_y), self.params)
        assert roots.m_roots == 3 and roots.f == 1.3 - 0.4j
        found = np.sort_complex(roots.roots ** 2)
        assert np.abs(found - np.sort_complex(big_y)).max() < 1e-12 * np.abs(big_y).max()
        assert roots.pairing_error < 1e-14 and roots.product_error < 1e-14

    def test_asymmetric_coefficients_raise_pairing_error(self):
        big_y = np.array([2.9 * np.exp(0.4j), 7.1 * np.exp(-2.2j)]) / self.q
        rec = self.record(big_y)
        beta = rec.q_poly[1:6] * self.q ** -np.arange(-2, 3)
        rec.q_poly[2] *= 1 + 1e-4
        roots = bt.factorize_q_eigenvalue(rec, self.params)
        expected = 1e-4 * abs(beta[1]) / np.abs(beta).max()
        assert roots.pairing_error == pytest.approx(expected, rel=1e-3)
        assert roots.product_error < 1e-14

    @pytest.mark.parametrize("sign", [1, -1])
    def test_pair_near_fixed_point_is_recovered(self, sign):
        # Y = +-(1 + 1e-6)/q sits next to the involution fixed point +-1/q, where
        # the pair's Chebyshev root x = (w + 1/w)/2 nears +-1 and w = x +- sqrt(x^2 - 1)
        # loses half the digits
        big_y = np.array([sign * (1 + 1e-6) / self.q, 3.0 / self.q])
        roots = bt.factorize_q_eigenvalue(self.record(big_y), self.params)
        pairs = np.concatenate([roots.roots ** 2, self.q ** -2 / roots.roots ** 2])
        near, far = (np.abs(pairs - y).min() / abs(y) for y in big_y)
        assert near < 1e-8 and far < 1e-12
        assert roots.pairing_error < 1e-14 and roots.product_error < 1e-14

    def test_coefficient_outside_degree_window_raises(self):
        # N = 3, M = 1 lives on Z^2..Z^4; a Z^0 term is not a Q-eigenvalue
        big_y = np.array([2.9 * np.exp(0.4j)]) / self.q
        rec = self.record(big_y)
        rec.q_poly[0] = 1e-3 * np.abs(rec.q_poly).max()
        with pytest.raises(bt.SpectrumError, match="degree window"):
            bt.factorize_q_eigenvalue(rec, self.params)
        rec.q_poly[0] = 0.0
        roots = bt.factorize_q_eigenvalue(rec, self.params)
        assert abs(roots.roots[0] ** 2 - big_y[0]) < 1e-12 * abs(big_y[0])


class TestBetheResiduals:
    def test_roots_satisfy_bethe_equations(self, roots_by_record, params):
        for roots in roots_by_record:
            res = bt.bethe_residual(roots, params)
            assert res.size == roots.m_roots
            if res.size:
                assert res.max() < 1e-6

    def test_functional_form_agrees(self, roots_by_record, params):
        for roots in roots_by_record:
            r1 = bt.bethe_residual(roots, params)
            r2 = bt.bethe_residual_pq_form(roots, params)
            if r1.size:
                assert np.abs(r1 - r2).max() < 1e-10

    def test_two_forms_agree_off_shell(self, params):
        # at arbitrary trial roots the two forms differ by a nonzero prefactor,
        # so their normalized residuals coincide
        q, n = params.q, params.n_sites
        ys = np.array([0.9 + 0.2j, 0.6 - 0.5j])
        m = ys.size
        lhs, rhs = bt._bethe_system(ys ** 2, params)[2:]
        f = 1.7 - 0.4j

        def q_eig(z):
            out = f * z ** (2 * (n - m))
            for y in ys:
                out *= (z * z - y * y) * (z * z - q ** (-2) / (y * y))
            return out

        for i, y in enumerate(ys):
            a = ch.p_plus(y, params) * q_eig(q * y)
            b = ch.p_minus(y, params) * q_eig(y / q)
            pref = (a / rhs[i]) / (-b / lhs[i])
            assert abs(pref - 1.0) < 1e-10
            res_fun = abs(a + b) / max(abs(a), abs(b))
            res_prod = abs(lhs[i] - rhs[i]) / max(abs(lhs[i]), abs(rhs[i]))
            assert abs(res_fun - res_prod) < 1e-10


class TestAbaOracle:
    def test_more_roots_than_sites_rejected(self, params):
        roots = [0.7 + 0.1j, 0.8 - 0.2j, 0.9 + 0.3j][:params.n_sites + 1]
        with pytest.raises(ParameterDomainError, match="more creation operators"):
            bt.aba_state(roots, params)

    def test_vacuum_actions(self, params):
        z = 0.91 + 0.21j
        a, _, _, d = dense_blocks(z, params)
        omega = np.zeros(params.dim, dtype=complex)
        omega[0] = 1.0
        dplus, dminus = bt.aba_vacuum_values(z, params)
        assert np.linalg.norm(a @ omega - dplus * omega) < 1e-12 * abs(dplus)
        dt = d + bt.aba_f(z, params.q) * a
        assert np.linalg.norm(dt @ omega - dminus * omega) < 1e-12 * max(1.0, abs(dminus))

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_blocks_match_dense_monodromy(self, n, seed):
        # aba_state of the first k of three roots against the dense B(y) products
        p = ch.sample_params(n, seed=seed, tol=1e-10)
        roots = (0.83 + 0.21j, -1.1 + 0.4j, 0.5 - 0.95j)
        ref = np.zeros(p.dim, dtype=complex)
        ref[0] = 1.0
        for k in range(min(3, n) + 1):
            state = bt.aba_state(roots[:k], p)
            assert np.linalg.norm(state - ref) <= 1e-13 * np.linalg.norm(ref)
            if k < min(3, n):
                ref = dense_blocks(roots[k], p)[1] @ ref

    def test_creation_blocks_commute(self, params):
        z, y = 0.9 + 0.21j, 0.67 - 0.33j
        b_z = dense_blocks(z, params)[1]
        b_y = dense_blocks(y, params)[1]
        assert tc.rel_err(b_z @ b_y, b_y @ b_z) < 1e-12

    def test_creation_block_raises_sector(self, params):
        b = dense_blocks(0.8 + 0.3j, params)[1]
        n = params.n_sites
        for col in range(2 ** n):
            m_col = bin(col).count("1")
            for row in range(2 ** n):
                if abs(b[row, col]) > 1e-13 and bin(row).count("1") != m_col + 1:
                    raise AssertionError("creation block left the next spin sector")

    def test_shear_pole(self, params):
        z = (1.0 / params.q ** 2) ** 0.25
        with pytest.raises(ParameterDomainError):
            bt.aba_f(z, params.q)

    def test_exchange_coefficient_pole(self, params):
        # b(y/z) vanishes at y = z
        with pytest.raises(ParameterDomainError, match="exchange-relation coefficient"):
            aba_coefficients(0.9 + 0.21j, 0.9 + 0.21j, params)

    def test_exchange_relations(self, params):
        z, y = 0.9 + 0.21j, 0.67 - 0.33j
        a, b, _, d = dense_blocks(z, params)
        ay, by, _, dy = dense_blocks(y, params)
        dt, dty = d + bt.aba_f(z, params.q) * a, dy + bt.aba_f(y, params.q) * ay
        co = aba_coefficients(z, y, params)
        lhs = a @ by
        rhs = co["alpha1"] * by @ a + co["alpha2t"] * b @ ay + co["alpha4"] * b @ dty
        assert tc.rel_err(lhs, rhs) < 1e-10
        lhs = dt @ by
        rhs = co["beta1"] * by @ dt + co["beta2t"] * b @ dty + co["beta4t"] * b @ ay
        assert tc.rel_err(lhs, rhs) < 1e-10

    def test_transfer_matrix_decomposition(self, params):
        from qbaxter.lattice_ops import ktv_matrix
        z = 0.84 + 0.19j
        a, _, _, d = dense_blocks(z, params)
        ktv = ktv_matrix(z, params.xitilde, params.q)
        fz = bt.aba_f(z, params.q)
        dt = d + fz * a
        gp, gm = ktv[0, 0] - fz * ktv[1, 1], ktv[1, 1]
        assert tc.rel_err(ch.transfer_v(z, params), gp * a + gm * dt) < 1e-12

    def test_structure_function_explicit_forms(self, params):
        q, xit = params.q, params.xitilde
        z, y = 0.9 + 0.21j, 0.67 - 0.33j
        co = aba_coefficients(z, y, params)
        pref = (q * q - 1) * y * z * (1 - q ** 4 * z ** 4) \
            / ((y * y - z * z) * (1 - q * q * y * y * z * z))
        phi_p = pref * (1 - y ** 4) / (1 - q * q * y ** 4) * (1 - xit * y * y)
        phi_m = pref * (xit / q ** 2 - y * y)
        assert abs(co["phi_plus"] - phi_p) < 1e-10 * abs(phi_p)
        assert abs(co["phi_minus"] - phi_m) < 1e-10 * abs(phi_m)

    def test_alpha1_display(self, params):
        q = params.q
        z, y = 0.8 + 0.2j, 0.6 - 0.3j
        co = aba_coefficients(z, y, params)

        def a_(w):
            return 1 - q * q * w * w

        def b_(w):
            return q * (1 - w * w)

        expected = a_(y / z) * b_(y * z) / (b_(y / z) * a_(y * z))
        assert abs(co["alpha1"] - expected) < 1e-13 * abs(expected)

    def test_empty_chain_vacuum_value(self):
        p = ch.sample_params(0, seed=5, tol=1e-12)
        z = 0.9 + 0.1j
        dplus, _ = bt.aba_vacuum_values(z, p)
        assert abs(dplus - (p.xi * z * z - 1.0)) < 1e-14

    def test_vacuum_state_eigenvalue(self, params):
        z = 0.9 + 0.17j
        state = bt.aba_state([], params)
        lam = bt.aba_eigenvalue(z, [], params)
        tv = ch.transfer_v(z, params)
        assert np.linalg.norm(tv @ state - lam * state) < 1e-11 * abs(lam)

    def test_cross_oracle_eigenvalues_and_states(self, records, roots_by_record, params):
        for rec, roots in zip(records, roots_by_record):
            for z, lam in rec.tv_samples:
                lam_pred = bt.aba_eigenvalue(z, roots.roots, params)
                assert abs(lam - lam_pred) < 1e-6 * max(1.0, abs(lam))
            if roots.m_roots <= 2:
                state = bt.aba_state(roots.roots, params)
                z0, lam0 = rec.tv_samples[0]
                tv = ch.transfer_v(z0, params)
                rel = np.linalg.norm(tv @ state - lam0 * state) \
                    / (np.linalg.norm(state) * max(1.0, abs(lam0)))
                assert rel < 1e-5

    def test_state_eigenvalue_invariant_under_root_shuffle(self, records, roots_by_record, params):
        pair = [(rec, roots) for rec, roots in zip(records, roots_by_record)
                if roots.m_roots == 2][0]
        rec, roots = pair
        z = rec.tv_samples[0][0]
        lam_fwd = bt.aba_eigenvalue(z, roots.roots, params)
        lam_rev = bt.aba_eigenvalue(z, roots.roots[::-1], params)
        assert abs(lam_fwd - lam_rev) < 1e-12 * max(1.0, abs(lam_fwd))
        state_fwd = bt.aba_state(roots.roots, params)
        state_rev = bt.aba_state(roots.roots[::-1], params)
        assert np.linalg.norm(state_fwd - state_rev) < 1e-10 * np.linalg.norm(state_fwd)

    def test_aba_residual_matches_product_form(self, roots_by_record, params):
        for roots in roots_by_record:
            if roots.m_roots == 0:
                continue
            res_aba = aba_bethe_residual(roots.roots, params)
            assert res_aba.max() < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_aba_residual_equals_product_form_off_shell(self, n):
        # the unwanted-term ratio t+/t- is -lhs/rhs of the product form as a rational
        # identity, so the two residuals coincide at any trial roots, not only at roots
        p = ch.sample_params(n, seed=7, tol=1e-10)
        rng = np.random.default_rng(n)
        for m in range(1, min(3, n) + 1):
            ys = np.array([bt.random_point(rng) for _ in range(m)])
            trial = bt.BetheRootSet(m_roots=m, f=1.0, roots=ys, pairing_error=0.0,
                                    product_error=0.0)
            res = bt.bethe_residual(trial, p)
            assert res.min() > 1e-3
            assert np.abs(aba_bethe_residual(ys, p) - res).max() < 1e-10


class TestNewton:
    def test_exact_roots_are_fixed(self, roots_by_record, params):
        roots = [r for r in roots_by_record if r.m_roots == 2][0]
        refined, final = bt.refine_bethe_newton(roots.roots, params)
        assert final < 1e-12
        assert np.abs(np.sort_complex(refined ** 2)
                      - np.sort_complex(roots.roots ** 2)).max() < 1e-9

    def test_perturbed_roots_reconverge(self, roots_by_record, params):
        roots = [r for r in roots_by_record if r.m_roots == 2][0]
        seeds = roots.roots * (1.0 + 1e-4)
        refined, final = bt.refine_bethe_newton(seeds, params)
        assert final < 1e-12
        rel = np.abs(np.sort_complex(refined ** 2) - np.sort_complex(roots.roots ** 2)) \
            / np.abs(roots.roots ** 2).max()
        assert rel.max() < 1e-8

    def test_jacobian_matches_finite_differences(self, roots_by_record, params):
        # near the roots at M = 1 and M = N = 2; off shell at N = 4 with M = 3 and M = N
        near = [next(r for r in roots_by_record if r.m_roots == m).roots ** 2 * (1 + 3e-3)
                for m in (1, 2)]
        p4 = ch.sample_params(4, seed=7, tol=1e-10)
        off = np.array([0.9 + 0.2j, 0.6 - 0.5j, -0.8 + 0.45j, 0.35 + 1.1j]) ** 2
        h = 1e-7
        for p, big_y in [(params, near[0]), (params, near[1]), (p4, off[:3]), (p4, off)]:
            _, jac, _, _ = bt._bethe_system(big_y, p)
            num = np.zeros_like(jac)
            for k in range(big_y.size):
                e = np.zeros_like(big_y)
                e[k] = h
                rp = bt._bethe_system(big_y + e, p)[0]
                rm = bt._bethe_system(big_y - e, p)[0]
                num[:, k] = (rp - rm) / (2 * h)
            assert np.abs(jac - num).max() / np.abs(jac).max() < 1e-6

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="long double is double on this platform")
    def test_converges_at_near_q_strings(self):
        # N = 6, seed 3, M = 6: the roots hold near q-strings Y_i ~ q^2 Y_j and a pair
        # Y_i Y_j ~ q^-4 within 2e-11, where the system in double is rounding noise near
        # 1e-5, above the floor a double iterate can certify
        p = ch.sample_params(6, 3, tol=1e-10)
        records = bt.joint_spectrum(p, 0.83 + 0.21j, bt.spectrum_nodes(p, 1, 3))
        roots = bt.factorize_q_eigenvalue(next(r for r in records if r.m_down == 6), p)
        refined, final = bt.refine_bethe_newton(roots.roots, p)
        assert final < 1e-7

    def test_divergence_raises(self, params):
        wild = np.array([37.0 + 41.0j])
        with pytest.raises(ConvergenceError):
            bt.refine_bethe_newton(wild, params, max_iter=3)

    def test_singular_jacobian_raises(self, monkeypatch):
        p = ch.ChainParams(q=0.5, xi=0.1, xitilde=0.2, n_sites=2, t=(1.1, 0.9))

        def singular(jac, rhs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConvergenceError, match="singular Jacobian"):
            bt.refine_bethe_newton(np.array([0.5, 1.5]), p)

    def test_zero_step_stalls(self, monkeypatch):
        # a zero step improves nothing, so the first step stalls
        p = ch.ChainParams(q=0.5, xi=0.1, xitilde=0.2, n_sites=2, t=(1.1, 0.9))
        monkeypatch.setattr(np.linalg, "solve", lambda jac, rhs: np.zeros_like(rhs))
        with pytest.raises(ConvergenceError, match="stalled at residual"):
            bt.refine_bethe_newton(np.array([0.5, 1.5]), p)

    def test_trial_on_a_pole_is_rejected(self, monkeypatch):
        # q = 1/2 and roots 1/2, 3/2 make every product exact: the first Newton
        # step lands on Y = (1/4, 64), where q^-2 = q^2 Y_1 Y_2 and the Jacobian
        # divides by zero.  That trial is rejected like a worse one, so no
        # warning escapes and every later solve sees a finite Jacobian.
        p = ch.ChainParams(q=0.5, xi=0.1, xitilde=0.2, n_sites=2, t=(1.1, 0.9))
        solve, jacobians = np.linalg.solve, []

        def first_step_on_pole(jac, rhs):
            jacobians.append(jac)
            if len(jacobians) == 1:
                return np.array([0.0, 61.75], dtype=complex)
            return solve(jac, rhs)

        monkeypatch.setattr(np.linalg, "solve", first_step_on_pole)
        with pytest.raises(ConvergenceError):
            bt.refine_bethe_newton(np.array([0.5, 1.5]), p)
        assert len(jacobians) > 1
        assert all(np.isfinite(jac).all() for jac in jacobians)

    def test_empty_rootset(self, params):
        refined, final = bt.refine_bethe_newton(np.zeros(0, dtype=complex), params)
        assert refined.size == 0 and final == 0.0
