import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erwlab import build_preset, classify, find_fixed_point, validate_model
from erwlab.theory import (
    TheoryError,
    asymptotic_covariances,
    check_downcrossing,
    enumerate_partitions,
    expansion_coeffs,
    sigma2_critical,
    solve_sigma1,
    spectral_profile,
    spectral_profile_from_jacobian,
)
from erwlab.model import interior_grid
from theory_reference import observed_expansion_coeffs, reference_check_downcrossing, sigma1_quadrature


def _model(name, **kwargs):
    return validate_model(build_preset(name, **kwargs))


def _feasible_one(model, x):
    # one point (s,) at a time, as the sequential search clipped its iterates
    x = np.clip(x, model.domain.lower, np.minimum(model.domain.upper, model.domain.lower + 1e12))
    cap = model.meta.get("simplex_cap")
    if cap is not None and x.sum() > cap:
        x = x * (0.98 * float(cap) / x.sum())
    return x


def _sequential_fixed_point(model, tol=1e-13, flag_tol=1e-8):
    """Oracle for find_fixed_point: the search with one eval_H call per
    bisection midpoint (s = 1), or per damped iteration of one start after
    another (s > 1)."""
    dom = model.domain
    if model.s == 1:
        lo = float(dom.lower[0])
        hi = float(dom.upper[0]) if math.isfinite(dom.upper[0]) else lo + 1.0

        def g(x):
            return float(model.eval_H(np.array([x]))[0]) - x

        xs = np.linspace(lo, hi, 1001)
        vals = model.eval_H(xs[:, None])[:, 0] - xs
        crossings = np.where(np.diff(np.sign(vals)) != 0)[0]
        roots = []
        for c in crossings:
            a, b_ = xs[c], xs[c + 1]
            fa = vals[c]
            for _ in range(200):
                mid = 0.5 * (a + b_)
                fm = g(mid)
                if fa * fm <= 0:
                    b_ = mid
                else:
                    a, fa = mid, fm
                if b_ - a < tol:
                    break
            roots.append(0.5 * (a + b_))
        roots = [r for i, r in enumerate(roots) if all(abs(r - q) > flag_tol for q in roots[:i])]
        if not roots:
            raise TheoryError("no-root-in-domain: H(x) - x has no sign change")
        if len(roots) > 1:
            raise TheoryError(f"multiple-roots: fixed points near {roots}")
        return np.array([roots[0]])

    span = np.minimum(dom.upper, dom.lower + 1.0) - dom.lower
    starts = [_feasible_one(model, dom.lower + 0.5 * span)]
    for corner in range(2 ** min(model.s, 3)):
        offs = np.array([(corner >> j) & 1 for j in range(model.s)], dtype=float)
        starts.append(_feasible_one(model, dom.lower + (0.1 + 0.8 * offs) * span))
    roots = []
    for x in starts:
        x = x.copy()
        for _ in range(20000):
            delta = model.eval_H(x) - x
            x = _feasible_one(model, x + 0.5 * delta)
            if np.max(np.abs(delta)) < tol:
                roots.append(x)
                break
    if not roots:
        raise TheoryError("no-root-in-domain: damped iteration did not converge from any start")
    base = roots[0]
    for r in roots[1:]:
        if np.max(np.abs(r - base)) > flag_tol:
            raise TheoryError(f"multiple-roots: fixed points {base.tolist()} and {r.tolist()}")
    return base


def _search_outcome(search, model):
    """The root's shape and bytes, or the TheoryError message."""
    try:
        x0 = search(model)
    except TheoryError as exc:
        return str(exc)
    return x0.shape, x0.tobytes()


class TestFixedPoint:
    def test_symmetric_map_fixed_point(self):
        model = _model("erw", p=0.7, q=0.5)
        assert find_fixed_point(model)[0] == pytest.approx(0.5, abs=1e-12)

    def test_linear_closed_form(self):
        # f = a x + b: the limit is (2p-1)(a+2b-1)/(1-(2p-1)a) for the
        # observed walk; a = 0, b = 0.7, p = 0.6 gives 0.08
        model = _model("linear", a=0.0, b=0.7, p=0.6, q=0.5)
        rep = classify(model)
        assert rep.limit[0] == pytest.approx(0.08, abs=1e-12)

    def test_minimal_square_closed_form(self):
        p, q = 0.9, 0.3
        model = _model("minimal", f="x^2", p=p, q=q)
        x0 = find_fixed_point(model)[0]
        expected = (1 - math.sqrt(1 - 4 * q * (p - q))) / (2 * (p - q))
        assert x0 == pytest.approx(expected, abs=1e-10)
        assert x0 == pytest.approx(0.392375, abs=5e-7)

    def test_multidimensional_fixed_point(self):
        model = _model("kdim", k=2, p=0.5)
        x0 = find_fixed_point(model)
        assert np.allclose(x0, 0.25, atol=1e-9)

    # kdim k=3 puts corner starts past simplex_cap, so _feasible rescales them
    @pytest.mark.parametrize("name,kwargs", [
        ("kdim", {"k": 2}), ("kdim", {"k": 2, "f": "x^2"}), ("kdim", {"k": 3}), ("kdim", {"k": 3, "f": "x^2"}),
        ("random-step", {}), ("random-step", {"f": "x^2"}),
    ], ids=["kdim2", "kdim2-sq", "kdim3", "kdim3-sq", "random-step", "random-step-sq"])
    @pytest.mark.parametrize("p", [0.4, 0.55, 0.7, 0.85, 0.9])
    def test_batched_multistart_matches_sequential(self, name, kwargs, p):
        model = _model(name, p=p, **kwargs)
        assert _search_outcome(find_fixed_point, model) == _search_outcome(_sequential_fixed_point, model)

    @pytest.mark.parametrize("name,kwargs,ps", [
        ("erw", {"q": 0.5}, (0.3, 0.6, 0.75, 0.9)),  # 0.6 and 0.75: the root is a grid point, two crossings
        ("gerw-1d", {"f": "0.2 + 0.6*x^3", "q": 0.5}, (0.55, 0.8, 0.95)),
        ("linear", {"a": 0.5, "b": 0.25, "q": 0.5}, (0.55, 0.8, 0.95)),
        ("quadratic-sym", {"q": 0.5}, (0.6, 0.75, 0.9)),
        ("market", {"q": 0.5}, (1.0 / 6.0, 0.3, 0.7)),
        ("poly-g", {"coeffs": (0.4, 0.2), "q": 0.5}, (0.55, 0.8, 0.95)),
        ("phi-power", {"phi": "tanh", "k": 2, "q": 0.5}, (0.55, 0.8, 0.95)),
        ("cubic-supercritical", {"q": 0.5}, (0.4, 0.5, 0.62)),
        ("minimal", {"f": "x^2", "q": 0.3}, (0.6, 0.875, 0.95)),
    ])
    def test_tabulated_bisection_matches_sequential(self, name, kwargs, ps):
        for p in ps:
            model = _model(name, p=p, **kwargs)
            assert _search_outcome(find_fixed_point, model) == _search_outcome(_sequential_fixed_point, model), p

    def test_erw_grid_root_has_two_crossings(self):
        model = _model("erw", p=0.6, q=0.5)
        xs = np.linspace(0.0, 1.0, 1001)
        vals = model.eval_H(xs[:, None])[:, 0] - xs
        assert np.count_nonzero(np.diff(np.sign(vals))) == 2
        assert find_fixed_point(model).tobytes() == _sequential_fixed_point(model).tobytes()

    @pytest.mark.parametrize("p", [0.9, 0.95])
    def test_multiple_roots_message_matches_sequential(self, p):
        model = _model("kdim", k=2, f="3*x^2-2*x^3", p=p)
        with pytest.raises(TheoryError, match="^multiple-roots: fixed points ") as got:
            find_fixed_point(model)
        with pytest.raises(TheoryError) as want:
            _sequential_fixed_point(model)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name,kwargs", [("kdim", {"k": 3, "p": 0.7}), ("random-step", {"p": 0.7})])
    def test_feasible_rows_match_single_points(self, name, kwargs):
        from erwlab.theory import _feasible

        model = _model(name, **kwargs)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.5, 2.5, size=(200, model.s))
        pts[:5] = 0.0
        got = _feasible(model, pts)
        assert got.shape == pts.shape
        for i in range(len(pts)):
            assert got[i].tobytes() == _feasible(model, pts[i]).tobytes() == _feasible_one(model, pts[i]).tobytes()
        if model.meta.get("simplex_cap") is not None:
            assert np.any(np.clip(pts, 0.0, 1.0).sum(axis=1) > 1.0)  # the cap was exercised


class TestDowncrossing:
    def test_standard_memory_verified(self):
        model = _model("erw", p=0.6, q=0.5)
        res = check_downcrossing(model, np.array([0.5]))
        assert res.verified
        assert res.max_value < 0

    def test_quadratic_grid_value(self):
        # (x - 1/2)(h(x) - x) = -(1 - (2p-1)) (x - 1/2)^2 for the affine map
        model = _model("erw", p=0.6, q=0.5)
        res = check_downcrossing(model, np.array([0.5]), grid_density=401)
        xs = 0.5 + 0.25
        assert res.max_value <= -0.8 * (1 - 0.2) * (1.0 / 400) ** 2

    def test_identity_drift_violated(self):
        # h(x) = x has no strict downcrossing: the product is identically 0
        from erwlab.model import Domain, InitialLaw, ModelSpec, StepLaw
        from erwlab.funcdsl import parse

        spec = ModelSpec(
            s=1, d=1, r=2, partition=((1,), ()),
            step_law=StepLaw.point_mass([1.0]),
            prob_maps=(parse("x"),),
            A=[[2.0]], b=[-1.0],
            initial=InitialLaw([[1.0], [0.0]], [0.5, 0.5]),
            domain=Domain([0.0], [1.0]),
        )
        model = validate_model(spec)
        res = check_downcrossing(model, np.array([0.5]))
        assert not res.verified
        assert res.max_value == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_sym_verified(self):
        model = _model("quadratic-sym", p=0.7, q=0.5)
        assert check_downcrossing(model, np.array([0.5])).verified


MULTI_PRESETS = [
    ("kdim", dict(k=2, p=0.6)),
    ("kdim", dict(k=3, p=0.6)),
    ("kdim", dict(k=2, f="x^2", p=0.7)),
    ("random-step", dict(p=0.6)),
    ("random-step", dict(f="x^2", p=0.7)),
]


def _outcome(fn, *args, **kwargs):
    try:
        res = fn(*args, **kwargs)
    except TheoryError as exc:
        return str(exc)
    return res.verified, res.max_value.hex(), res.argmax.tobytes()


class TestDowncrossingReference:
    """The interior grid built from each axis, with the exclusion norms
    skipped where no row can be excluded, gives the result of the whole grid
    filtered row by row (``tests/theory_reference.py``), bit for bit."""

    def _assert_same(self, model, x0, **kwargs):
        got = _outcome(check_downcrossing, model, x0, **kwargs)
        assert got == _outcome(reference_check_downcrossing, model, x0, **kwargs)
        return got

    @pytest.mark.parametrize("name,kwargs", MULTI_PRESETS,
                             ids=[f"{n}-{'-'.join(map(str, k.values()))}" for n, k in MULTI_PRESETS])
    def test_presets_at_the_fixed_point(self, name, kwargs):
        model = _model(name, **kwargs)
        assert model.s > 1
        self._assert_same(model, find_fixed_point(model))

    @pytest.mark.parametrize("name,kwargs", MULTI_PRESETS[:2] + MULTI_PRESETS[3:4],
                             ids=["kdim-2", "kdim-3", "random-step"])
    def test_edge_cases(self, name, kwargs):
        model = _model(name, **kwargs)
        r = 1e-6
        grid = interior_grid(model.spec, 21, 1.0)[0]
        on = grid[np.argmin(np.linalg.norm(grid - find_fixed_point(model), axis=1))]
        unit = np.eye(model.s)[0]
        # x0 on the grid point nearest the fixed point: the ball drops that
        # row, whose value 0 would otherwise be the maximum
        assert self._assert_same(model, on, grid_density=21)[0]
        assert not self._assert_same(model, on, grid_density=21, exclusion_radius=-1.0)[0]
        # x0 in (r, 2r] from a grid point on one axis, and within r on
        # every axis of one whose norm is past r: no row is dropped
        self._assert_same(model, on + 1.5 * r * unit, grid_density=21)
        self._assert_same(model, on + 0.9 * r, grid_density=21)
        self._assert_same(model, on, grid_density=21, exclusion_radius=0.0)
        self._assert_same(model, on, grid_density=21, exclusion_radius=0.15)
        # NaN drops every row, also where the other coordinates lie off the
        # grid on some axis; an empty interior raises the same error
        off = np.where(unit == 1.0, np.nan, 0.51)
        for x0, density in ((np.full(model.s, np.nan), 21), (on + np.nan * unit, 21), (off, 21), (off, 201), (on, 2)):
            message = self._assert_same(model, x0, grid_density=density)
            assert message == "downcrossing grid is empty; raise grid_density"
        message = self._assert_same(model, on, grid_density=21, exclusion_radius=math.nan)
        assert message == "downcrossing grid is empty; raise grid_density"


class TestSpectral:
    def test_scalar(self):
        prof = spectral_profile_from_jacobian([[0.5]])
        assert prof.tau == 0.5 and prof.kappa == 1

    def test_synthetic_jordan_block(self):
        prof = spectral_profile_from_jacobian([[0.5, 1.0], [0.0, 0.5]])
        assert prof.tau == pytest.approx(0.5, abs=1e-7)
        assert prof.kappa == 2

    def test_diagonal(self):
        prof = spectral_profile_from_jacobian(np.diag([0.3, 0.5]))
        assert prof.tau == pytest.approx(0.5)
        assert prof.kappa == 1

    def test_erw_profile(self):
        model = _model("erw", p=0.8, q=0.5)
        prof = spectral_profile(model, np.array([0.5]))
        assert prof.tau == pytest.approx(0.6)
        assert prof.kappa == 1
        assert prof.exact_tau

    @pytest.mark.parametrize("seed", range(20))
    def test_random_similarity_recovery(self, seed):
        # known block patterns conjugated by controlled-condition similarity
        rng = np.random.default_rng(seed)
        sizes = []
        total = 0
        while total < 6:
            k = int(rng.integers(1, min(4, 6 - total) + 1))
            sizes.append(k)
            total += k
        values = rng.choice([-0.4, -0.1, 0.2, 0.5, 0.8], size=len(sizes), replace=False)
        blocks = []
        for lam, k in zip(values, sizes):
            blocks.append(np.eye(k) * lam + np.diag(np.ones(k - 1), 1))
        J = np.zeros((total, total))
        at = 0
        for blk in blocks:
            k = blk.shape[0]
            J[at : at + k, at : at + k] = blk
            at += k
        q1, _ = np.linalg.qr(rng.standard_normal((total, total)))
        q2, _ = np.linalg.qr(rng.standard_normal((total, total)))
        T = q1 @ np.diag(rng.uniform(0.5, 2.0, size=total)) @ q2
        A = T @ J @ np.linalg.inv(T)
        prof = spectral_profile_from_jacobian(A)
        tau_true = float(np.max(values))
        kappa_true = max(k for lam, k in zip(values, sizes) if lam == tau_true)
        assert prof.tau == pytest.approx(tau_true, abs=1e-6)
        assert prof.kappa == kappa_true

    @staticmethod
    def _conjugated(seed, D, scales):
        # S D S^-1 with S built as in test_random_similarity_recovery;
        # scales(rng) gives S's singular values
        rng = np.random.default_rng(seed)
        n = D.shape[0]
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = q1 @ np.diag(scales(rng)) @ q2
        return S @ D @ np.linalg.inv(S)

    def test_ill_conditioned_triple_top_refused(self):
        # cond(S) = 1e4 makes the semisimple triple 0.5 ill-conditioned;
        # merging its cluster with a neighbour reads tau = 0.425, kappa = 2,
        # a critical model as diffusive
        J = self._conjugated(0, np.diag([-0.3, 0.2, 0.5, 0.5, 0.5]), lambda rng: np.logspace(0, -4, 5))
        with pytest.raises(TheoryError, match="jacobian-nonsmooth"):
            spectral_profile_from_jacobian(J)

    def test_jordan_block_past_detection_range_refused(self):
        # a 6x6 block is past the ring scale's supported size 4; merging
        # clusters reads it as kappa = 2
        D = np.diag([0.5] * 6 + [0.2, -0.3]) + np.diag([1.0] * 5 + [0.0, 0.0], 1)
        J = self._conjugated(1, D, lambda rng: rng.uniform(0.5, 2.0, size=8))
        with pytest.raises(TheoryError, match="jacobian-nonsmooth"):
            spectral_profile_from_jacobian(J)


class TestCovariances:
    def test_scalar_lyapunov_exact(self):
        out = solve_sigma1(np.array([[0.2]]), np.array([[0.25]]))
        assert out[0, 0] == 0.25 / 0.6

    def test_erw_diffusive_variance(self):
        # Sigma0 = 1/4 at the symmetric fixed point; the observed-walk
        # variance is 4 * Sigma0 / (1 - 2 tau) = 5/3 at p = 0.6
        model = _model("erw", p=0.6, q=0.5)
        rep = classify(model)
        assert rep.sigma0[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert rep.clt_variance[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert rep.lil_constant == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)

    def test_erw_critical_variance(self):
        model = _model("erw", p=0.75, q=0.5)
        rep = classify(model)
        assert rep.regime == "Critical"
        assert rep.clt_variance[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert rep.lil_constant == pytest.approx(1.0, abs=1e-12)

    def test_minimal_variance_matches_closed_form(self):
        # the p > q square-map walk has a published diffusive variance
        p, q = 0.9, 0.3
        model = _model("minimal", f="x^2", p=p, q=q)
        rep = classify(model)
        u = math.sqrt(1 - 4 * q * (p - q))
        expected = (2 * q * (p - q) - (1 - (p - q)) * (1 - u)) / (
            2 * (p - q) ** 2 * (2 * u - 1)
        )
        assert rep.clt_variance[0, 0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_lyapunov_vs_quadrature(self, seed):
        rng = np.random.default_rng(100 + seed)
        while True:
            J = rng.uniform(-0.6, 0.6, size=(2, 2))
            tau = float(np.max(np.linalg.eigvals(J).real))
            if tau <= 0.45:
                break
        B = rng.uniform(-0.5, 0.5, size=(2, 2))
        Sigma0 = B @ B.T + 0.1 * np.eye(2)
        direct = solve_sigma1(J, Sigma0)
        quad = sigma1_quadrature(J, Sigma0)
        assert np.linalg.norm(direct - quad) <= 1e-6 * np.linalg.norm(direct)
        M = J - 0.5 * np.eye(2)
        residual = np.linalg.norm(M @ direct + direct @ M.T + Sigma0)
        assert residual <= 1e-10 * np.linalg.norm(Sigma0)

    def test_sigma1_rejects_critical(self):
        with pytest.raises(TheoryError, match="lyapunov-singular"):
            solve_sigma1(np.array([[0.5]]), np.array([[1.0]]))

    def test_sigma2_scalar_equals_sigma0(self):
        prof = spectral_profile_from_jacobian([[0.5]])
        out = sigma2_critical(prof, np.array([[0.25]]))
        assert out[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_sigma2_diagonal_picks_top_block(self):
        J = np.diag([0.5, 0.2])
        prof = spectral_profile_from_jacobian(J)
        Sigma0 = np.array([[0.3, 0.1], [0.1, 0.4]])
        out = sigma2_critical(prof, Sigma0)
        expected = np.zeros((2, 2))
        expected[0, 0] = 0.3
        assert np.allclose(out, expected, atol=1e-10)
        # independent check: truncated scaled integral converges to the same
        T = 4000.0
        panels = 40000
        import scipy.linalg

        M = J - 0.5 * np.eye(2)
        h = T / (2 * panels)
        E_h = scipy.linalg.expm(M * h)
        E = np.eye(2)
        total = np.zeros((2, 2))
        for i in range(2 * panels + 1):
            w = 1.0 if i in (0, 2 * panels) else (4.0 if i % 2 == 1 else 2.0)
            total += w * (E @ Sigma0 @ E.T)
            E = E @ E_h
        total *= h / 3.0 / T
        assert np.allclose(out, total, atol=2e-3)

    def test_sigma2_nonsymmetric_matches_quadrature(self):
        # rotated critical block: formula vs scaled integral
        P = np.array([[1.0, 1.0], [0.0, 1.0]])
        J = P @ np.diag([0.5, 0.1]) @ np.linalg.inv(P)
        prof = spectral_profile_from_jacobian(J)
        Sigma0 = np.array([[0.5, 0.2], [0.2, 0.3]])
        out = sigma2_critical(prof, Sigma0)
        import scipy.linalg

        T = 6000.0
        panels = 60000
        M = J - 0.5 * np.eye(2)
        h = T / (2 * panels)
        E_h = scipy.linalg.expm(M * h)
        E = np.eye(2)
        total = np.zeros((2, 2))
        for i in range(2 * panels + 1):
            w = 1.0 if i in (0, 2 * panels) else (4.0 if i % 2 == 1 else 2.0)
            total += w * (E @ Sigma0 @ E.T)
            E = E @ E_h
        total *= h / 3.0 / T
        assert np.allclose(out, total, atol=5e-3)

    def test_sigma2_double_top_matches_quadrature(self):
        # a semisimple double top eigenvalue under a non-orthogonal
        # similarity: its two eigenvectors are paired as one (V, W) block
        P = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.3, 0.0, 1.0]])
        J = P @ np.diag([0.5, 0.5, 0.1]) @ np.linalg.inv(P)
        prof = spectral_profile_from_jacobian(J)
        assert prof.kappa == 1 and [c["multiplicity"] for c in prof.clusters] == [2, 1]
        Sigma0 = np.array([[0.5, 0.2, 0.1], [0.2, 0.3, 0.05], [0.1, 0.05, 0.4]])
        T = 6000.0
        total = sigma1_quadrature(J, Sigma0, horizon=T, panels=30000) / T
        assert np.allclose(sigma2_critical(prof, Sigma0), total, atol=5e-3)

    def test_sigma2_unpaired_top_refused(self):
        # the top cluster {0.5 + 1.98e-7} holds one eigenvalue, but 0.5 + 0.99e-7
        # of the next cluster also lies within CLUSTER_TOL of it
        prof = spectral_profile_from_jacobian(np.diag([0.5, 0.5 + 0.99e-7, 0.5 + 1.98e-7]))
        with pytest.raises(TheoryError, match="eigenvector-pairing: 2 right and 2 left"):
            sigma2_critical(prof, np.eye(3))

    def test_sigma2_defective_numeric_refused(self):
        prof = spectral_profile_from_jacobian([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(TheoryError, match="unavailable-numerically"):
            sigma2_critical(prof, np.eye(2))


class TestPartitions:
    def test_pairs_summing_to_four(self):
        out = dict((tup, nu) for tup, nu in enumerate_partitions(2, 4))
        assert out == {(1, 3): 2, (2, 2): 1}

    def test_pairs_summing_to_five(self):
        out = dict((tup, nu) for tup, nu in enumerate_partitions(2, 5))
        assert out == {(1, 4): 2, (2, 3): 2}

    def test_all_ones_forced(self):
        out = enumerate_partitions(4, 4)
        assert out == [((1, 1, 1, 1), 1)]

    def test_arrangement_counts_match_compositions(self):
        # sum of distinct-arrangement counts = C(t-1, i-1)
        for t in range(1, 13):
            for i in range(1, t + 1):
                total = sum(nu for _, nu in enumerate_partitions(i, t))
                assert total == math.comb(t - 1, i - 1), (i, t)


class TestExpansionCoeffs:
    def test_affine_map_all_higher_vanish(self):
        coeffs, m0 = expansion_coeffs([0.0] * 6, tau=0.7, m=6)
        assert coeffs[0] == 1.0
        assert all(c == 0.0 for c in coeffs[1:])
        assert m0 == 0

    def test_m0_floor(self):
        _, m0 = expansion_coeffs([], tau=0.7, m=0)
        assert m0 == 0
        _, m0 = expansion_coeffs([], tau=0.75, m=0)
        assert m0 == 1
        _, m0 = expansion_coeffs([], tau=0.9, m=0)
        assert m0 == 4

    def test_minimal_square_closed_form_recursion(self):
        # quadratic drift maps have the convolution form
        # b_{j+1} = -(p-q)/(j sqrt(1-4q(p-q))) sum_l b_l b_{j+1-l}
        rng = np.random.default_rng(7)
        found = 0
        while found < 20:
            p = rng.uniform(0.7, 0.99)
            q = rng.uniform(0.3, p - 0.2)
            if not q * (p - q) > 3.0 / 16.0:
                continue
            found += 1
            d = p - q
            u = math.sqrt(1 - 4 * q * d)
            x0 = (1 - u) / (2 * d)
            tau = 2 * d * x0
            assert tau == pytest.approx(1 - u, abs=1e-12)
            derivs = [2 * d, 0, 0, 0, 0]  # H'', higher all vanish
            general, _ = expansion_coeffs(derivs, tau=tau, m=5)
            closed = [1.0]
            for j in range(1, 6):
                acc = sum(closed[l - 1] * closed[j - l] for l in range(1, j + 1))
                closed.append(-d / (j * u) * acc)
            for a, b in zip(general, closed):
                assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(b)))

    def test_tau_equals_one_rejected(self):
        with pytest.raises(TheoryError, match="tau-equals-one"):
            expansion_coeffs([1.0], tau=1.0, m=1)

    @given(
        st.floats(min_value=0.51, max_value=0.95),
        st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=5),
    )
    @settings(max_examples=50)
    def test_observed_scale_matches_auxiliary(self, tau, h_derivs):
        # beta_{j+1} * 2^j = b_{j+1} for the +/-1 observed walk, any smooth map
        m = len(h_derivs)
        b, _ = expansion_coeffs(h_derivs, tau, m)
        beta = observed_expansion_coeffs(h_derivs, tau, m)
        for j in range(m + 1):
            assert beta[j] * 2.0 ** j == pytest.approx(b[j], rel=1e-12, abs=1e-12)


class TestClassify:
    @pytest.mark.parametrize(
        "p,regime",
        [(0.70, "Diffusive"), (0.7499, "Diffusive"), (0.75, "Critical"),
         (0.7501, "Supercritical"), (0.80, "Supercritical")],
    )
    def test_phase_boundary(self, p, regime):
        assert classify(_model("erw", p=p, q=0.5)).regime == regime

    def test_market_regimes(self):
        assert classify(_model("market", p=1.0 / 6.0, q=0.5)).regime == "Critical"
        rep = classify(_model("market", p=0.5, q=0.5))
        assert rep.regime == "Diffusive"
        assert rep.limit[0] == pytest.approx(0.0, abs=1e-12)

    def test_minimal_critical_boundary(self):
        # q (p - q) = 3/16 exactly (dyadic values keep it exact in binary)
        model = _model("minimal", f="x^2", p=0.875, q=0.375)
        assert 0.375 * 0.5 == 3.0 / 16.0
        assert classify(model).regime == "Critical"

    def test_dual_parameterization_same_regime(self):
        for p in (0.6, 0.85):
            a = classify(_model("gerw-1d", f="x", p=p, q=0.5))
            b = classify(_model("gerw-1d", f="1 - x", p=1 - p, q=0.5))
            assert a.regime == b.regime
            assert a.tau == pytest.approx(b.tau, abs=1e-9)

    def test_supercritical_report_fields(self):
        rep = classify(_model("erw", p=0.85, q=0.5))
        assert rep.regime == "Supercritical"
        assert rep.provenance == {"grid_density": 201, "regime_tol": 1e-9, "exact_tau": True}
        assert rep.m0 == 0
        assert rep.residual_variance == pytest.approx(1.0 / (2 * 0.7 - 1), abs=1e-9)
        assert rep.expansion_beta[0] == 1.0
        assert all(abs(b) < 1e-12 for b in rep.expansion_beta[1:])

    def test_cubic_supercritical_fields(self):
        rep = classify(_model("cubic-supercritical", p=0.62, q=0.5))
        assert rep.regime == "Supercritical"
        assert rep.eta == pytest.approx(3 * 0.24)
        assert rep.eta1 == pytest.approx(2 * 0.24)

    def test_kdim_covariance(self):
        rep = classify(_model("kdim", k=2, p=0.5))
        assert rep.regime == "Diffusive"
        assert np.allclose(rep.clt_variance, 1.5 * np.eye(2), atol=1e-9)

    def test_report_serializes(self):
        import json

        rep = classify(_model("erw", p=0.75, q=0.5))
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert "Critical" in text

    def test_complex_top_supercritical_note(self):
        # cross-coupled block probabilities give a rotational drift Jacobian
        # (0.6 +/- 0.3i): the oscillatory correction is noted, not estimated
        from erwlab.funcdsl import parse as parse_expr
        from erwlab.model import Domain, InitialLaw, ModelSpec, StepLaw

        spec = ModelSpec(
            s=2, d=2, r=3, partition=((1,), (2,), ()),
            step_law=StepLaw.point_mass([1.0, 1.0]),
            prob_maps=(
                parse_expr("0.3 + 0.6*(x1 - 0.3) - 0.3*(x2 - 0.3)", arity=2),
                parse_expr("0.3 + 0.3*(x1 - 0.3) + 0.6*(x2 - 0.3)", arity=2),
            ),
            A=np.eye(2), b=[0.0, 0.0],
            initial=InitialLaw([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
            domain=Domain([0.1, 0.1], [0.5, 0.5]),
        )
        rep = classify(validate_model(spec))
        assert rep.regime == "Supercritical"
        assert rep.tau == pytest.approx(0.6, abs=1e-7)
        assert np.allclose(rep.x0, [0.3, 0.3], atol=1e-9)
        assert rep.downcrossing.verified
        assert any("oscillatory" in n for n in rep.notes)

    def test_unsupported_regime_reported(self):
        # a drift steeper than the identity at its fixed point sits outside
        # the supported range; it also has no downcrossing there
        from erwlab.funcdsl import parse as parse_expr
        from erwlab.model import Domain, InitialLaw, ModelSpec, StepLaw

        spec = ModelSpec(
            s=1, d=1, r=2, partition=((1,), ()),
            step_law=StepLaw.point_mass([1.0]),
            prob_maps=(parse_expr("1.05 * x - 0.025"),),
            A=[[2.0]], b=[-1.0],
            initial=InitialLaw([[1.0], [0.0]], [0.5, 0.5]),
            domain=Domain([0.1], [0.9]),
        )
        rep = classify(validate_model(spec))
        assert rep.regime == "Unsupported"
        assert rep.tau == pytest.approx(1.05, abs=1e-6)
        assert not rep.downcrossing.verified
        assert any("outside the supported regimes" in n for n in rep.notes)
        assert rep.clt_variance is None

    def test_plus_minus_family_variance_identity(self):
        # for the +/-1 observed walk the diffusive CLT variance collapses to
        # (1 - s0^2)/(1 - 2 eta): 4 x0 (1 - x0) = 1 - s0^2 under s0 = 2 x0 - 1
        cases = [
            ("erw", dict(p=0.65, q=0.5)),
            ("quadratic-sym", dict(p=0.6, q=0.5)),
            ("market", dict(p=0.4, q=0.5)),
            ("cubic-supercritical", dict(p=0.55, q=0.5)),
            ("linear", dict(a=0.3, b=0.4, p=0.7, q=0.5)),
        ]
        for name, kwargs in cases:
            rep = classify(_model(name, **kwargs))
            assert rep.regime == "Diffusive", name
            s0 = float(rep.limit[0])
            expected = (1.0 - s0 ** 2) / (1.0 - 2.0 * rep.eta)
            assert rep.clt_variance[0, 0] == pytest.approx(expected, rel=1e-9), name
            assert rep.clt_variance[0, 0] >= 0.0

    def test_covariance_bundle_matches_classify(self):
        cases = [("erw", dict(p=p, q=0.5)) for p in (0.6, 0.75, 0.85)]
        cases += [("quadratic-sym", dict(p=0.75, q=0.5)), ("kdim", dict(k=2))]
        for name, kwargs in cases:
            model = _model(name, **kwargs)
            rep = classify(model)
            prof = spectral_profile(model, rep.x0)
            sigma0, limit_sigma, clt_cov, lil = asymptotic_covariances(model, rep.x0, prof)
            assert np.array_equal(sigma0, rep.sigma0), name
            if rep.regime == "Supercritical":
                assert limit_sigma is None and clt_cov is None and lil is None
                continue
            assert np.array_equal(limit_sigma, rep.sigma1 if rep.regime == "Diffusive" else rep.sigma2), name
            assert np.array_equal(clt_cov, rep.clt_variance), name
            assert lil == rep.lil_constant, name
        assert rep.regime == "Diffusive" and model.s > 1 and lil is None  # the kdim case ran

    def test_critical_covariance_failure_is_a_note(self, monkeypatch):
        import erwlab.theory as theory

        def refuse(profile, Sigma0):
            raise TheoryError("unavailable-numerically: refused")

        monkeypatch.setattr(theory, "sigma2_critical", refuse)
        rep = classify(_model("quadratic-sym", p=0.75, q=0.5))
        assert rep.regime == "Critical"
        assert "unavailable-numerically: refused" in rep.notes
        assert rep.sigma0 is not None and rep.sigma2 is None and rep.clt_variance is None
        # the diffusive Lyapunov solution has no such fallback
        monkeypatch.setattr(theory, "solve_sigma1", refuse)
        with pytest.raises(TheoryError, match="refused"):
            classify(_model("erw", p=0.6, q=0.5))
