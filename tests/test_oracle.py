import math

import numpy as np
import pytest

from erwlab import build_preset, ensemble, oracle, parse, validate_model
from erwlab.model import Domain, InitialLaw, ModelError, ModelSpec, StepLaw
from erwlab.oracle import (
    OracleError,
    enumerate_small_multi,
    exact_dp_1d,
    exact_moments,
    is_unit_step_1d,
)
from oracle_reference import dp_1d_pmf, enumerate_states, observed_pmf

UNIT_STEP_PRESETS = [
    ("erw", dict(p=0.6, q=0.5)),
    ("erw", dict(p=0.75, q=0.5)),
    ("erw", dict(p=0.85, q=0.3)),
    ("linear", dict(a=0.0, b=0.7, p=0.6, q=0.5)),
    ("quadratic-sym", dict(p=0.75, q=0.5)),
    ("market", dict(p=0.5, q=0.5)),
    ("minimal", dict(f="x^2", p=0.9, q=0.3)),
    ("cubic-supercritical", dict(p=0.62, q=0.5)),
    ("phi-power", dict(phi="tanh", k=2, p=0.7, q=0.5)),
]


def _model(name, kwargs):
    return validate_model(build_preset(name, **kwargs))


def _with(model, prob_text=None, initial=None):
    """``model`` with another P_1 or another initial law, validated again."""
    changes = {}
    if prob_text is not None:
        changes["prob_maps"] = (parse(prob_text, arity=model.s),)
    if initial is not None:
        changes["initial"] = initial
    return validate_model(ModelSpec(**{**model.spec.__dict__, **changes}))


def _bits(law: dict) -> list:
    """Each position and probability of a sparse law as raw bytes, in insertion order."""
    return [(np.array(pos).tobytes(), np.float64(prob).tobytes()) for pos, prob in law.items()]


# P_1 leaves [0, 1] only at x = 2/7, between the validation grid's points:
# the dense DP first evaluates it at step 7, as the 3rd point of that step
BUMP_AT_2_7 = "0.5 + 0.6*exp(-1e8*(x - 0.2857142857142857)^2)"
NAN_AT_2_7 = "0.5 + 0*exp(1e12*(1e-9 - (x - 0.2857142857142857)^2))"

# A model whose positions carry -0.0 coordinates: -0.0 + -0.0 stays -0.0,
# -0.0 + 0.0 is 0.0, and equal positions with other bits must merge as dict
# keys do, the first appearance keeping its bits
SIGNED_ZERO = ModelSpec(
    s=2, d=2, r=2, partition=((1,), (2,)),
    step_law=StepLaw("finite-support", [[1.0, -0.0], [-0.0, 1.0]], [0.5, 0.5]),
    prob_maps=(parse("0.25 + 0.5 * x1", arity=2),), A=np.eye(2), b=[0.0, 0.0],
    initial=InitialLaw([[-0.0, -0.0], [0.0, -0.0]], [0.5, 0.5]), domain=Domain([0.0, 0.0], [1.0, 1.0]),
)

# with UNIT_STEP_PRESETS these cover the nine unit-step presets of the acceptance oracle test
MORE_UNIT_STEP_PRESETS = [
    ("gerw-1d", dict(f="x^2", p=0.8, q=0.5)),
    ("poly-g", dict(coeffs=(0.4, 0.2), p=0.7, q=0.5)),
]

REFERENCE_MODELS = [
    *UNIT_STEP_PRESETS,
    *MORE_UNIT_STEP_PRESETS,
    ("random-step", dict(p=0.6, q=0.5)),  # two step atoms
    ("kdim", dict(k=3, p=0.6)),
    ("kdim", dict(k=2, f="x^2", p=0.6)),
]


class TestExactDP:
    def test_first_step_mean(self):
        # single up/down step: E S_1 = 2q - 1
        for q in (0.3, 0.5, 0.8):
            law = exact_dp_1d(_model("erw", dict(p=0.6, q=q)), 1)
            mean, _ = law.moments_observed()
            assert mean == pytest.approx(2 * q - 1, abs=1e-14)

    def test_two_step_mean(self):
        # hand enumeration of the four two-step outcomes gives
        # E S_2 = (2q-1)(1 + (2p-1))
        p, q = 0.7, 0.4
        law = exact_dp_1d(_model("erw", dict(p=p, q=q)), 2)
        mean, _ = law.moments_observed()
        assert mean == pytest.approx((2 * q - 1) * (1 + (2 * p - 1)), abs=1e-14)

    @pytest.mark.parametrize("name,kwargs", UNIT_STEP_PRESETS)
    def test_normalization(self, name, kwargs):
        law = exact_dp_1d(_model(name, kwargs), 50)
        assert math.fsum(law.pmf.tolist()) == pytest.approx(1.0, abs=1e-14)
        assert np.all(law.pmf >= 0)

    def test_simple_walk_variance(self):
        # p = 1/2 erases the memory: the steps are i.i.d. and Var S_n = n
        law = exact_dp_1d(_model("erw", dict(p=0.5, q=0.5)), 64)
        mean, var = law.moments_observed()
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(64.0, rel=1e-12)

    def test_symmetric_map_zero_mean(self):
        law = exact_dp_1d(_model("erw", dict(p=0.65, q=0.5)), 40)
        mean, _ = law.moments_observed()
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_unit_steps(self):
        model = _model("random-step", dict(p=0.6))
        with pytest.raises(OracleError, match="unsupported-model"):
            exact_dp_1d(model, 5)

    def test_state_guard(self, monkeypatch):
        # the last step of n = 100 moves 100 states x 2 blocks; the guard
        # and its message are enumerate_small_multi's
        model = _model("erw", dict(p=0.6))
        monkeypatch.setattr(oracle, "_MAX_STATES", 199)
        with pytest.raises(OracleError, match=r"^too-many-states: 100 states x 2 \(block, atom\) pairs at t=99$"):
            exact_dp_1d(model, 100)
        assert exact_dp_1d(model, 99).pmf.tobytes() == dp_1d_pmf(model, 99).tobytes()
        monkeypatch.setattr(oracle, "_MAX_STATES", 0)
        assert exact_dp_1d(model, 1).pmf.tolist() == [0.5, 0.5]  # no step, nothing to guard
        for n in (0, -3):
            with pytest.raises(OracleError, match=rf"^exact DP horizon must be n >= 1, got {n}$"):
                exact_dp_1d(model, n)


class TestEnumeration:
    @pytest.mark.parametrize("name,kwargs", UNIT_STEP_PRESETS)
    def test_dp_vs_enumeration(self, name, kwargs):
        model = _model(name, kwargs)
        for n in (3, 8, 12):
            law = exact_dp_1d(model, n)
            sparse = enumerate_small_multi(model, n)
            assert math.fsum(sparse.values()) == pytest.approx(1.0, abs=1e-14)
            lookup = {int(round(pos[0])): prob for pos, prob in sparse.items()}
            worst = max(abs(law.pmf[k] - lookup.get(k, 0.0)) for k in range(n + 1))
            assert worst <= 1e-12

    @pytest.mark.parametrize("name,kwargs", UNIT_STEP_PRESETS)
    def test_sparse_law_is_the_dp_bit_for_bit_past_twelve(self, name, kwargs):
        # the state guard alone bounds n: at n = 200 a unit-step walk has 201 states
        model = _model(name, kwargs)
        pmf = exact_dp_1d(model, 200).pmf
        sparse = enumerate_small_multi(model, 200)
        assert set(sparse) <= {(float(k),) for k in range(201)}
        got = np.array([sparse.get((float(k),), 0.0) for k in range(201)])
        assert got.tobytes() == pmf.tobytes()

    @pytest.mark.parametrize("name,kwargs", [("erw", dict(p=0.6)), ("quadratic-sym", dict(p=0.75))])
    def test_dp_past_n_2000_is_the_sparse_law(self, name, kwargs):
        # the dense DP has no horizon but the state guard: at n = 2600 it is still the sparse law, bit for bit
        model = _model(name, kwargs)
        law = exact_dp_1d(model, 2600)
        sparse = enumerate_small_multi(model, 2600)
        assert set(sparse) <= {(float(k),) for k in range(2601)}
        got = np.array([sparse.get((float(k),), 0.0) for k in range(2601)])
        assert law.pmf.tobytes() == got.tobytes()
        assert (law.n, law.A, law.b) == (2600, 2.0, -1.0)

    def test_multi_dimensional_law_past_twelve(self):
        model = _model("kdim", dict(k=2, p=0.6))
        for n in (13, 20):
            assert _bits(enumerate_small_multi(model, n)) == _bits(enumerate_states(model, n)), n

    def test_dual_parameterization_same_law(self):
        # (f, p) and (1-f, 1-p) generate identical exact laws
        base = _model("gerw-1d", dict(f="x^2", p=0.8, q=0.5))
        mirrored = _model("gerw-1d", dict(f="1 - x^2", p=0.2, q=0.5))
        a = exact_dp_1d(base, 12)
        b = exact_dp_1d(mirrored, 12)
        assert np.max(np.abs(a.pmf - b.pmf)) <= 1e-15

    def test_kdim_symmetry(self):
        model = _model("kdim", dict(k=2, p=0.5))
        sparse = enumerate_small_multi(model, 2)
        pmf = observed_pmf(sparse, A=model.spec.A, b=model.spec.b, n=2)
        # the observed two-step law is invariant under either coordinate flip
        for (sx, sy), prob in pmf.items():
            assert pmf[(round(-sx, 9), round(sy, 9))] == pytest.approx(prob, abs=1e-14)
            assert pmf[(round(sx, 9), round(-sy, 9))] == pytest.approx(prob, abs=1e-14)

    def test_random_step_support(self):
        model = _model("random-step", dict(p=0.6, q=0.5))
        sparse = enumerate_small_multi(model, 3)
        pmf = observed_pmf(sparse, A=model.spec.A, b=model.spec.b, n=3)
        values = [v[0] for v in pmf]
        assert min(values) >= -6.0 and max(values) <= 6.0
        assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-13)

    def test_state_guard(self, monkeypatch):
        # kdim k=3 reaches 4,368 states x 6 blocks at step 11
        model = _model("kdim", dict(k=3, p=0.5))
        monkeypatch.setattr(oracle, "_MAX_STATES", 10_000)
        with pytest.raises(OracleError, match="too-many-states"):
            enumerate_small_multi(model, 12)

    def test_state_guard_counts_merged_states(self, monkeypatch):
        # 4^11 paths reach only 364 positions at step 11, and 455 at n = 12
        model = _model("kdim", dict(k=2, p=0.6))
        sparse = enumerate_small_multi(model, 12)
        assert len(sparse) == 455
        assert math.fsum(sparse.values()) == pytest.approx(1.0, abs=1e-14)
        monkeypatch.setattr(oracle, "_MAX_STATES", 364 * 4)
        assert enumerate_small_multi(model, 12) == sparse
        monkeypatch.setattr(oracle, "_MAX_STATES", 364 * 4 - 1)
        with pytest.raises(OracleError, match="too-many-states: 364 states x 4"):
            enumerate_small_multi(model, 12)


class TestReferenceLoops:
    """The batched oracles give the scalar loops' bits: values, keys, order."""

    @pytest.mark.parametrize("name,kwargs", REFERENCE_MODELS)
    def test_enumeration(self, name, kwargs):
        model = _model(name, kwargs)
        for n in range(1, 9):
            assert _bits(enumerate_small_multi(model, n)) == _bits(enumerate_states(model, n)), n

    def test_enumeration_ten_blocks(self):
        # r = 10: block_probs must sum a state's maps alone as in a batch
        model = _model("kdim", dict(k=5, p=0.6))
        for n in range(1, 6):
            assert _bits(enumerate_small_multi(model, n)) == _bits(enumerate_states(model, n)), n

    def test_enumeration_merges_signed_zeros(self):
        model = validate_model(SIGNED_ZERO)
        for n in range(1, 7):
            sparse = enumerate_small_multi(model, n)
            assert _bits(sparse) == _bits(enumerate_states(model, n)), n
            assert any(np.signbit(pos).any() for pos in sparse)
        assert list(enumerate_small_multi(model, 2)) == [(1.0, -0.0), (-0.0, 0.0), (-0.0, 1.0)]

    def test_zero_block_probabilities_are_skipped(self):
        # P_1 = x: a walk at x = 0 never moves up and one at x = 1 never
        # stays, so only V_n = 0 and V_n = n are ever reached
        model = _with(_model("erw", dict(p=0.6, q=0.3)), prob_text="x")
        for n in range(1, 9):
            sparse = enumerate_small_multi(model, n)
            assert _bits(sparse) == _bits(enumerate_states(model, n))
            assert set(sparse) == {(0.0,), (float(n),)}
            assert exact_dp_1d(model, n).pmf.tobytes() == dp_1d_pmf(model, n).tobytes()

    @pytest.mark.parametrize("name,kwargs", UNIT_STEP_PRESETS + MORE_UNIT_STEP_PRESETS)
    def test_dp(self, name, kwargs):
        model = _model(name, kwargs)
        for n in (1, 2, 3, 12, 50, 60, 2000):
            assert exact_dp_1d(model, n).pmf.tobytes() == dp_1d_pmf(model, n).tobytes(), n

    def test_dp_without_maps(self):
        # r = 1: block_probs' one row is the move, 1 everywhere, and the walk
        # always steps up, so V_n is V_1 + n - 1
        model = validate_model(ModelSpec(
            s=1, d=1, r=1, partition=((1,),), step_law=StepLaw.point_mass([1.0]), prob_maps=(),
            A=[[2.0]], b=[-1.0], initial=InitialLaw([[1.0], [0.0]], [0.3, 0.7]), domain=Domain([0.0], [1.0]),
        ))
        for n in (1, 2, 3, 60, 2000):
            pmf = exact_dp_1d(model, n).pmf
            assert pmf.tobytes() == dp_1d_pmf(model, n).tobytes(), n
            assert pmf[n - 1:].tolist() == [0.7, 0.3] and not pmf[:n - 1].any(), n

    @pytest.mark.parametrize("points", [1, 7, 40, 1000, 65_536])
    def test_dp_steps_straddle_calls(self, monkeypatch, points):
        model = _model("phi-power", dict(phi="tanh", k=2, p=0.7, q=0.5))
        want = dp_1d_pmf(model, 60)
        counted = []
        block_probs = type(model).block_probs
        monkeypatch.setattr(type(model), "block_probs", lambda self, x: counted.append(len(x)) or block_probs(self, x))
        monkeypatch.setattr(oracle, "_DP_POINTS", points)
        assert exact_dp_1d(model, 60).pmf.tobytes() == want.tobytes()
        # each call takes as many whole steps as fit in `points`, at least one
        sizes = list(range(2, 61))  # step t evaluates the map at t + 1 points
        i = 0
        for size in counted:
            j = i + 1
            while sum(sizes[i:j]) < size:
                j += 1
            assert sum(sizes[i:j]) == size
            assert size <= points or j == i + 1
            assert j == len(sizes) or size + sizes[j] > points
            i = j
        assert i == len(sizes)
        assert (len(counted) == 1) == (points == 65_536)


class TestRuntimeAbort:
    """Maps that leave [0, 1] mid-batch still abort the dense DP."""

    @pytest.mark.parametrize("text,match", [(BUMP_AT_2_7, r"P in \[0\.5, 1\.1\]$"),
                                           (NAN_AT_2_7, r"P in \[0\.5, 0\.5\] \(NaN present\)$")],
                             ids=["range", "nan"])
    @pytest.mark.parametrize("points", [1, 20, 65_536])
    def test_dp(self, monkeypatch, text, match, points):
        monkeypatch.setattr(oracle, "_DP_POINTS", points)
        model = _with(_model("erw", dict(p=0.6, q=0.5)), prob_text=text)
        with np.errstate(over="ignore", invalid="ignore"):
            assert exact_dp_1d(model, 7).pmf.tobytes() == dp_1d_pmf(model, 7).tobytes()
            for n in (8, 50):
                with pytest.raises(ModelError, match=match):
                    exact_dp_1d(model, n)
            with pytest.raises(ModelError, match=match):
                enumerate_small_multi(model, 12)


class TestInitialLaw:
    def test_dp_needs_every_initial_atom_in_0_1(self):
        # V_1 = 0.4: the DP used to round it to 0 and return the law of a walk started at 0
        model = _with(_model("erw", dict(p=0.6, q=0.5)), initial=InitialLaw([[0.4]], [1.0]))
        assert not is_unit_step_1d(model)
        with pytest.raises(OracleError, match="unsupported-model"):
            exact_dp_1d(model, 3)
        sparse = enumerate_small_multi(model, 3)
        assert list(sparse) == [(2.4,), (1.4,), (0.4,)]
        # P_1(x) = 0.2x + 0.4 stays with probability 0.52 at x = 0.4 (t = 1) and 0.56 at x = 0.2
        assert sparse[(0.4,)] == pytest.approx(0.52 * 0.56, abs=1e-15)

    def test_unit_step_starts_keep_the_dp(self):
        erw = _model("erw", dict(p=0.6, q=0.5))
        assert is_unit_step_1d(erw)
        assert is_unit_step_1d(_with(erw, initial=InitialLaw([[-0.0], [1.0]], [0.25, 0.75])))
        # a start outside the rectangle is refused before the DP could see it
        with pytest.raises(ModelError, match=r"^initial-law atom \[2\.0\] lies outside the model rectangle"):
            _with(erw, initial=InitialLaw([[2.0]], [1.0]))


class TestMoments:
    def test_exact_moments_multi(self):
        model = _model("kdim", dict(k=2, p=0.5))
        sparse = enumerate_small_multi(model, 4)
        mean, cov = exact_moments(sparse, A=model.spec.A, b=model.spec.b, n=4)
        assert np.allclose(mean, [0.0, 0.0], atol=1e-14)
        assert cov.shape == (2, 2)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-14)

    def test_exact_moments_1d(self):
        law = exact_dp_1d(_model("erw", dict(p=0.75, q=0.5)), 30)
        mean, var = law.moments_observed()
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var > 30  # superdiffusive inflation already visible


class TestMonteCarloAgreement:
    def test_frequencies_within_four_standard_errors(self):
        # seeded ensemble frequencies against the exact law, for every atom
        # with exact probability >= 1e-3
        N = 100_000
        n = 12
        for name, kwargs in UNIT_STEP_PRESETS[:4]:
            model = _model(name, kwargs)
            law = exact_dp_1d(model, n)
            stats = ensemble(model, n, N, master_seed=2024, checkpoints=[n])
            v_final = np.round(stats.aux_final[:, 0]).astype(int)
            counts = np.bincount(v_final, minlength=n + 1)
            for k in range(n + 1):
                p_exact = float(law.pmf[k])
                if p_exact < 1e-3:
                    continue
                se = math.sqrt(p_exact * (1 - p_exact) / N)
                assert abs(counts[k] / N - p_exact) <= 4 * se, (name, k)
